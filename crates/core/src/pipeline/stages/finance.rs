//! Stage `finance`: the earnings harvest and its §5.2 aggregates (paper
//! §5). Table 7, the other §5 measurement, is a finisher of the actor
//! survey and comes out of the `actors` stage.
//!
//! Reuses the safety stage's gate so proof-of-earnings screenshots are
//! screened through the same hash log the image screening used.

use crate::finance::{analyse_earnings, harvest_earnings, harvest_earnings_stream};
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::require;
use crate::pipeline::{Stage, StageCtx, StageError};

/// Produces `harvest` and `earnings`.
pub struct FinanceStage;

impl Stage for FinanceStage {
    fn name(&self) -> &'static str {
        "finance"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        let gate = require(&ctx.gate, "gate")?;

        let mut harvest = if ctx.options.stream.is_some() {
            // Streaming fork: fold only the posts that arrived since the
            // carried cursor; counters, dedup sets, and proof records
            // persist across epochs.
            let carry = &mut ctx
                .carry
                .as_mut()
                .expect("stream options imply a carry")
                .finance;
            harvest_earnings_stream(world, gate, all_threads, carry)
        } else {
            harvest_earnings(world, gate, all_threads)
        };

        // Ingestion check on the parsed proofs: a corrupt currency cell
        // yields a non-finite USD amount once the exchange multiplier is
        // applied. Those proofs are quarantined and recounted as
        // `not_proof`, preserving `proofs + not_proof == analysed`, so
        // the monthly aggregation never averages a NaN into Figure 7.
        let plan = ctx.corruption;
        if plan.is_enabled() {
            let mut quarantined = Vec::new();
            let proofs = std::mem::take(&mut harvest.proofs);
            harvest.proofs = proofs
                .into_iter()
                .enumerate()
                .filter(|(i, p)| {
                    let ok = (p.usd * plan.proof_multiplier(*i)).is_finite();
                    if !ok {
                        quarantined.push(*i);
                    }
                    ok
                })
                .map(|(_, p)| p)
                .collect();
            harvest.not_proof += quarantined.len();
            for i in quarantined {
                ctx.ledger.record(
                    "finance",
                    format!("proof/{i}"),
                    RecordErrorKind::NonFiniteFeature,
                );
            }
        }

        let earnings = match ctx.carry.as_mut() {
            // §5.2 aggregates: fold only the proofs that arrived since
            // the carried cursor — the same `EarningsAgg` code path
            // `analyse_earnings` runs in one shot, so the warm aggregate
            // is byte-identical by fold composition. An enabled
            // corruption plan filters a per-run *copy* of the proof
            // list, so that path re-aggregates the filtered copy in
            // full and leaves the clean carry untouched.
            Some(carry) if !plan.is_enabled() => {
                let carry = &mut carry.finance;
                carry.agg.fold(&carry.proofs[carry.agg_cursor..]);
                carry.agg_cursor = carry.proofs.len();
                carry.agg.finish()
            }
            _ => analyse_earnings(&harvest),
        };

        ctx.note_items(all_threads.len());
        ctx.harvest = Some(harvest);
        ctx.earnings = Some(earnings);
        Ok(())
    }
}
