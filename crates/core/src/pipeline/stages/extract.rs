//! Stage `extract`: pull eWhoring threads out of the corpus (paper §3).
//!
//! This is the pipeline's ingestion edge, so it is also where input
//! corruption lands: the run's [`CorruptionPlan`] may truncate or
//! malform a thread row, or mangle a heading's bytes. Damaged records
//! are quarantined (stage, record key, error kind) and dropped from the
//! extraction set; at severity `0.0` the plan is inert and the set is
//! byte-identical to the uncorrupted pipeline.
//!
//! [`CorruptionPlan`]: crate::pipeline::corruption::CorruptionPlan

use crate::extract::{extract_ewhoring_threads, EwhoringSet};
use crate::pipeline::corruption::{CorruptionPlan, RecordErrorKind};
use crate::pipeline::{Stage, StageCtx, StageError};
use crimebb::Corpus;

/// Produces `extraction` and `all_threads`.
pub struct ExtractStage;

impl Stage for ExtractStage {
    fn name(&self) -> &'static str {
        "extract"
    }

    fn run(&self, ctx: &mut StageCtx<'_>) -> Result<(), StageError> {
        let mut set = extract_ewhoring_threads(&ctx.world.corpus);
        let before = set.len();
        let quarantined = quarantine_corrupt_threads(&mut set, &ctx.world.corpus, &ctx.corruption);
        let records = quarantined.len();
        for (record, kind) in quarantined {
            ctx.ledger.record("extract", record, kind);
        }
        if set.is_empty() && before > 0 {
            return Err(StageError::Quarantined {
                stage: "extract",
                records,
            });
        }
        finish(ctx, set);
        Ok(())
    }
}

/// The ingestion filter: drops every extracted thread the corruption
/// plan damaged and returns its `(record, kind)` quarantine entries in
/// forum-major extraction order. A thread goes when its row is truncated
/// or malformed, or when its mangled heading bytes fail UTF-8
/// validation. An inert plan drops nothing.
pub(crate) fn quarantine_corrupt_threads(
    set: &mut EwhoringSet,
    corpus: &Corpus,
    plan: &CorruptionPlan,
) -> Vec<(String, RecordErrorKind)> {
    let mut quarantined = Vec::new();
    if !plan.is_enabled() {
        return quarantined;
    }
    for (_, threads) in &mut set.per_forum {
        threads.retain(|&t| {
            if let Some(kind) = plan.thread_row(t) {
                quarantined.push((format!("thread/{}", t.0), kind));
                return false;
            }
            if let Some(bytes) = plan.mangled_heading(t, &corpus.thread(t).heading) {
                // The plan damages bytes; only an actual UTF-8
                // validation failure quarantines the record.
                if std::str::from_utf8(&bytes).is_err() {
                    quarantined.push((
                        format!("thread/{}", t.0),
                        RecordErrorKind::InvalidUtf8Heading,
                    ));
                    return false;
                }
            }
            true
        });
    }
    quarantined
}

/// Writes the (possibly filtered) extraction set into the context.
fn finish(ctx: &mut StageCtx<'_>, set: EwhoringSet) {
    let all_threads = set.all_threads();
    ctx.note_items(set.len());
    ctx.all_threads = Some(all_threads);
    ctx.extraction = Some(set);
}
