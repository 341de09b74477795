//! Stage `actors`: Table 7, cohorts, interaction graph, and key actors
//! (paper §5.1 and §6).
//!
//! Everything here is a finisher of one actor survey ([`ActorFold`]).
//! The run mode only chooses what the survey walks: an epoch run steps
//! its carried survey over each new slice (and keeps the warm-started
//! centrality chain), the shard driver hands in its merged per-forum
//! partials, and any other run walks the whole corpus once.

use crate::actors::{
    cohort_table, group_profiles, interest_evolution, popularity, select_key_actors,
    select_key_actors_with_centrality, ActorFold, KeyActorInputs,
};
use crate::pipeline::corruption::RecordErrorKind;
use crate::pipeline::ctx::require;
use crate::pipeline::{Stage, StageCtx, StageError};
use crimebb::ActorId;
use std::collections::HashMap;

/// Produces `currency`, `cohorts`, `fig4_points`, `key_actors`,
/// `group_profiles`, and `interests`.
pub struct ActorsStage;

impl Stage for ActorsStage {
    fn name(&self) -> &'static str {
        "actors"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let world = ctx.world;
        let all_threads = require(&ctx.all_threads, "all_threads")?;
        let crawl = require(&ctx.crawl, "crawl")?;
        let harvest = require(&ctx.harvest, "harvest")?;

        let walked;
        let (survey, centrality) = match ctx.carry.as_mut() {
            Some(carry) => {
                let spec = ctx.options.stream.expect("a carry implies stream options");
                let carry = &mut carry.actors;
                carry.advance(world, all_threads, spec, ctx.options.workers);
                (&carry.fold, Some(carry.influence.as_slice()))
            }
            None => {
                walked = ctx
                    .survey
                    .take()
                    .unwrap_or_else(|| ActorFold::survey(&world.corpus, all_threads));
                (&walked, None)
            }
        };
        let metrics = survey.metrics();
        let currency = survey.currency_exchange(&world.corpus, world.hackforums);
        let ce_by_actor = survey.ce_by_actor(&world.corpus, world.hackforums);
        let cohorts = cohort_table(&metrics);
        // Defensive finiteness gate on the Figure 4 scatter: a metric
        // whose eWhoring percentage comes back non-finite (division on
        // corrupt post counts) is quarantined rather than plotted. With
        // healthy inputs this never fires and the artifact is identical.
        let mut fig4_points: Vec<(usize, f64, u32, u32)> = Vec::with_capacity(metrics.len());
        for (i, m) in metrics.iter().enumerate() {
            let pct = m.pct_ewhoring();
            if pct.is_finite() {
                fig4_points.push((m.ew_posts, pct, m.days_before, m.days_after));
            } else {
                ctx.ledger.record(
                    "actors",
                    format!("actor_metric/{i}"),
                    RecordErrorKind::NonFiniteFeature,
                );
            }
        }
        let pop = popularity(&world.corpus, all_threads);

        // Measured per-actor quantities for key-actor selection.
        let mut packs_by_actor: HashMap<ActorId, usize> = HashMap::new();
        for p in &crawl.packs {
            *packs_by_actor
                .entry(world.corpus.thread(p.link.thread).author)
                .or_insert(0) += 1;
        }
        let mut earnings_by_actor: HashMap<ActorId, f64> = HashMap::new();
        for proof in &harvest.proofs {
            *earnings_by_actor.entry(proof.actor).or_insert(0.0) += proof.usd;
        }

        let inputs = KeyActorInputs {
            metrics: &metrics,
            packs_by_actor: &packs_by_actor,
            earnings_by_actor: &earnings_by_actor,
            popularity: &pop,
            graph: &survey.graph,
            ce_by_actor: &ce_by_actor,
        };
        let key_actors = match centrality {
            Some(c) => select_key_actors_with_centrality(&inputs, c, ctx.options.k_key_actors),
            None => select_key_actors(&inputs, ctx.options.k_key_actors, ctx.options.workers),
        };
        let profiles = group_profiles(&inputs, &key_actors);
        let interests = interest_evolution(&world.corpus, &metrics, &key_actors.all);

        ctx.note_items(metrics.len());
        ctx.currency = Some(currency);
        ctx.cohorts = Some(cohorts);
        ctx.fig4_points = Some(fig4_points);
        ctx.key_actors = Some(key_actors);
        ctx.group_profiles = Some(profiles);
        ctx.interests = Some(interests);
        Ok(())
    }
}
