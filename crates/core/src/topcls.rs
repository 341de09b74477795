//! Stage 2: the hybrid TOP classifier (paper §4.1).
//!
//! A Linear-SVM over statistical + TF-IDF features is trained on a
//! 1 000-thread annotated sample (800 train / 200 test) and OR-combined
//! with a keyword heuristic: "If either method classifies a thread as
//! offering packs, this is included in our pipeline to extract links."
//!
//! The annotated sample stands in for the paper's human annotator: thread
//! *selection* uses only public signals (lexicon matches — the annotator
//! skimmed promising threads), while *labels* come from ground truth (the
//! annotator reads the thread and is assumed accurate).
//!
//! There is one training path ([`bootstrap_at`]) and one decision path
//! ([`decide_at`]), both windowed to a cutoff day. The epoch pipeline
//! calls them once per first-sight bucket at each epoch boundary; a batch
//! run ([`classify_tops`]) is the one-bucket case at [`ALL_TIME`], where
//! the window hides nothing.

use crate::features::{thread_stats_at, FeatureExtractor, ALL_TIME};
use crimebb::{Corpus, ThreadId};
use linsvm::{confusion, BinaryMetrics, LinearSvm, SparseVec, SvmConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use synthrand::Day;
use websim::SiteCatalog;
use worldgen::World;

/// Size of the annotated sample (paper: 1 000 threads).
pub const ANNOTATION_SAMPLE: usize = 1_000;
/// Training portion (paper: 800/200).
pub const TRAIN_SIZE: usize = 800;

/// The §4.1 keyword heuristic, as of the end of day `cutoff`.
///
/// A thread is heuristically a TOP when its heading carries at least two
/// TOP keywords ("images", "video", "unsaturated", …) and shows no
/// asking-for signals (question marks, buying/request keywords) — "we also
/// account for both the number of question marks and the presence of
/// keywords related to buying to discard threads asking for packs".
/// The signals are all heading-derived, so the decision only depends on
/// the thread existing by the cutoff.
pub fn heuristic_is_top_at(
    corpus: &Corpus,
    catalog: &SiteCatalog,
    thread: ThreadId,
    cutoff: Day,
) -> bool {
    let s = thread_stats_at(corpus, catalog, thread, cutoff);
    s.top_kw >= 2.0 && s.question_marks == 0.0 && s.request_kw == 0.0
}

/// Streaming-mode text-index diagnostics: the incrementally maintained
/// corpus vocabulary / document-frequency table (vocab union + new-doc
/// rows per epoch, never a from-scratch rebuild).
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StreamIndexStats {
    /// Terms in the incrementally unioned vocabulary.
    pub terms: usize,
    /// Documents (first-sight thread texts) folded into the index.
    pub docs: usize,
    /// Sum of the IDF table — a cheap fingerprint of the whole index.
    pub idf_checksum: f64,
}

/// Evaluation and application results of the hybrid classifier.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct TopClassification {
    /// Held-out metrics of the hybrid classifier (paper: P 92 / R 93 / F1 92).
    pub hybrid_metrics: BinaryMetrics,
    /// Held-out metrics of the SVM alone.
    pub ml_metrics: BinaryMetrics,
    /// Held-out metrics of the heuristic alone.
    pub heuristic_metrics: BinaryMetrics,
    /// TOPs found in the annotated sample (paper: 175 of 1 000).
    pub sample_positives: usize,
    /// Detected TOPs over the full extracted set.
    pub detected: Vec<ThreadId>,
    /// How many the ML side flagged (paper: 3 456).
    pub ml_count: usize,
    /// How many the heuristic side flagged (paper: 2 676).
    pub heuristic_count: usize,
    /// Flagged by both (paper: 1 995).
    pub both_count: usize,
    /// Streaming runs only: incremental text-index diagnostics.
    /// `None` in batch mode.
    pub stream_index: Option<StreamIndexStats>,
}

impl TopClassification {
    /// Tallies per-thread `(ml, heuristic)` decisions, in the order
    /// given, under `model`'s held-out metrics. Without a model no
    /// thread has been decided: the metrics stay at their defaults.
    pub fn tally(
        model: Option<&BootstrapModel>,
        decisions: impl IntoIterator<Item = (ThreadId, (bool, bool))>,
        stream_index: Option<StreamIndexStats>,
    ) -> TopClassification {
        let mut detected = Vec::new();
        let (mut ml_count, mut heuristic_count, mut both_count) = (0, 0, 0);
        for (t, (ml, heur)) in decisions {
            ml_count += usize::from(ml);
            heuristic_count += usize::from(heur);
            both_count += usize::from(ml && heur);
            if ml || heur {
                detected.push(t);
            }
        }
        let (hybrid_metrics, ml_metrics, heuristic_metrics, sample_positives) = match model {
            Some(m) => (
                m.hybrid_metrics,
                m.ml_metrics,
                m.heuristic_metrics,
                m.sample_positives,
            ),
            None => Default::default(),
        };
        TopClassification {
            hybrid_metrics,
            ml_metrics,
            heuristic_metrics,
            sample_positives,
            detected,
            ml_count,
            heuristic_count,
            both_count,
            stream_index,
        }
    }
}

/// Trains the hybrid classifier on an annotated sample of every extracted
/// thread and applies it to all of them: the one-bucket case of the
/// epoch pipeline's per-boundary classification, at [`ALL_TIME`].
///
/// Feature extraction and the application sweep run across `workers`
/// threads (0 = all cores) with results reassembled in input order, so
/// the output is identical for any worker count — only the annotation
/// sampling draws from `rng`, and it stays serial. The model is `None`
/// when `threads` yield no annotation sample (an empty list, or one or
/// two threads); nothing is detected then.
pub fn classify_tops(
    rng: &mut StdRng,
    world: &World,
    threads: &[ThreadId],
    workers: usize,
) -> (Option<BootstrapModel>, TopClassification) {
    classify_tops_with_fit(rng, world, threads, workers, |train| {
        FeatureExtractor::fit_at(&world.corpus, train, ALL_TIME, workers)
    })
}

/// [`classify_tops`] with the feature fit injected (see [`bootstrap_at`]).
/// The sharded driver passes a fit that tokenises the training set on
/// supervised shard workers.
pub fn classify_tops_with_fit(
    rng: &mut StdRng,
    world: &World,
    threads: &[ThreadId],
    workers: usize,
    fit: impl FnOnce(&[ThreadId]) -> FeatureExtractor,
) -> (Option<BootstrapModel>, TopClassification) {
    let model = bootstrap_at(rng, world, threads, ALL_TIME, workers, fit);
    let decided = decide_at(model.as_ref(), world, threads, ALL_TIME, workers);
    let result =
        TopClassification::tally(model.as_ref(), threads.iter().copied().zip(decided), None);
    (model, result)
}

/// Selects the annotation sample as of the end of day `cutoff`: a mix of
/// lexicon-promising threads and a uniform residue, so positives are
/// enriched the way a human annotator's skim would enrich them. The
/// promising rule sees only posts dated on or before the cutoff, so the
/// sample a later corpus selects is identical to the one the epoch-1
/// corpus selected (given the same RNG state and candidate list).
pub fn annotation_sample_at(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    threads: &[ThreadId],
    size: usize,
    cutoff: Day,
) -> Vec<ThreadId> {
    let size = size.min(threads.len());
    let mut promising: Vec<ThreadId> = Vec::new();
    let mut rest: Vec<ThreadId> = Vec::new();
    for &t in threads {
        let s = thread_stats_at(corpus, catalog, t, cutoff);
        if s.top_kw >= 1.0 && s.question_marks == 0.0 {
            promising.push(t);
        } else {
            rest.push(t);
        }
    }
    let n_promising = (size * 2 / 5).min(promising.len());
    if n_promising == 0 && rest.is_empty() {
        // Too few candidates for a promising slot and no others: the
        // sample is empty, decided without drawing from `rng`.
        return Vec::new();
    }
    promising.shuffle(rng);
    rest.shuffle(rng);
    let mut sample: Vec<ThreadId> = promising.into_iter().take(n_promising).collect();
    sample.extend(rest.into_iter().take(size - sample.len()));
    sample.truncate(size);
    sample
}

/// The trained hybrid classifier: feature extractor, SVM and held-out
/// metrics. In streaming mode it is trained once at the first epoch
/// boundary whose first-sight threads yield an annotation sample, then
/// applied unchanged to every later epoch's new threads; serialisable
/// so the epoch carry can freeze it across advances.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct BootstrapModel {
    /// The frozen feature extractor (vocabulary + IDF at the boundary).
    pub extractor: FeatureExtractor,
    /// The frozen SVM.
    pub svm: LinearSvm,
    /// Held-out hybrid metrics, evaluated at the boundary.
    pub hybrid_metrics: BinaryMetrics,
    /// Held-out SVM-only metrics.
    pub ml_metrics: BinaryMetrics,
    /// Held-out heuristic-only metrics.
    pub heuristic_metrics: BinaryMetrics,
    /// TOPs in the annotated sample.
    pub sample_positives: usize,
}

/// Trains the hybrid classifier with every input windowed to `cutoff`:
/// annotate, split 800/200, fit features on the training threads, train
/// the SVM, and evaluate ML, heuristic and hybrid on the held-out split.
/// `threads` are the candidates (for the epoch bootstrap, the threads
/// first-sighted by the cutoff), in extraction order.
///
/// `fit` builds the feature extractor from the training threads; it is
/// called once, after the annotation draws, so the rng stream is the
/// same whatever it does. The plain fit is
/// [`FeatureExtractor::fit_at`] at the same cutoff; the sharded driver
/// injects one that tokenises on shard workers and fits the
/// concatenated documents ([`FeatureExtractor::fit_from_docs`]).
///
/// Pure in `(visible prefix, rng state)`, so a later corpus replays the
/// training bit-exactly. `None` when `threads` yield no annotation
/// sample to train on (an empty list, or one or two threads); no
/// randomness is drawn and `fit` is not called then, so a later
/// boundary bootstraps from the same rng state.
pub fn bootstrap_at(
    rng: &mut StdRng,
    world: &World,
    threads: &[ThreadId],
    cutoff: Day,
    workers: usize,
    fit: impl FnOnce(&[ThreadId]) -> FeatureExtractor,
) -> Option<BootstrapModel> {
    let (corpus, catalog) = (&world.corpus, &world.catalog);
    let sample = annotation_sample_at(rng, corpus, catalog, threads, ANNOTATION_SAMPLE, cutoff);
    if sample.is_empty() {
        return None;
    }
    let labels: Vec<bool> = sample.iter().map(|&t| world.truth.is_top(t)).collect();
    let sample_positives = labels.iter().filter(|&&l| l).count();

    let n_train = (sample.len() * TRAIN_SIZE / ANNOTATION_SAMPLE).max(1);
    let (train_idx, test_idx) = linsvm::train_test_split(sample.len(), n_train, 0x5711);
    let train_threads: Vec<ThreadId> = train_idx.iter().map(|&i| sample[i]).collect();
    let extractor = fit(&train_threads);

    let rows = |idx: &[usize]| -> Vec<SparseVec> {
        let picked: Vec<ThreadId> = idx.iter().map(|&i| sample[i]).collect();
        crate::par::par_map(&picked, workers, |&t| {
            extractor.features_at(corpus, catalog, t, cutoff)
        })
    };
    let mut train_x = rows(&train_idx);
    let mut train_y: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
    // The sample is ~1:5 imbalanced; duplicating half the positives (a
    // 1.5× class weight) keeps the hinge loss from under-weighting recall
    // without flooding precision.
    let positives: Vec<SparseVec> = train_x
        .iter()
        .zip(&train_y)
        .filter(|&(_, &y)| y)
        .map(|(x, _)| x.clone())
        .collect();
    for p in positives.into_iter().step_by(2) {
        train_x.push(p);
        train_y.push(true);
    }
    let test_x = rows(&test_idx);
    let test_y: Vec<bool> = test_idx.iter().map(|&i| labels[i]).collect();

    let svm = LinearSvm::train(&train_x, &train_y, SvmConfig::default());

    let ml_pred: Vec<bool> = test_x.iter().map(|x| svm.predict(x)).collect();
    let heur_pred: Vec<bool> = test_idx
        .iter()
        .map(|&i| heuristic_is_top_at(corpus, catalog, sample[i], cutoff))
        .collect();
    let hybrid_pred: Vec<bool> = ml_pred
        .iter()
        .zip(&heur_pred)
        .map(|(&m, &h)| m || h)
        .collect();

    Some(BootstrapModel {
        hybrid_metrics: confusion(&hybrid_pred, &test_y).metrics(),
        ml_metrics: confusion(&ml_pred, &test_y).metrics(),
        heuristic_metrics: confusion(&heur_pred, &test_y).metrics(),
        sample_positives,
        extractor,
        svm,
    })
}

/// Decisions `(ml, heuristic)` for `threads`, each evaluated on the
/// thread state as of `cutoff`, across `workers` threads in input order.
/// Without a model (too few threads so far to draw an annotation sample)
/// nothing is flagged.
pub fn decide_at(
    model: Option<&BootstrapModel>,
    world: &World,
    threads: &[ThreadId],
    cutoff: Day,
    workers: usize,
) -> Vec<(bool, bool)> {
    let Some(model) = model else {
        return vec![(false, false); threads.len()];
    };
    let (corpus, catalog) = (&world.corpus, &world.catalog);
    crate::par::par_map(threads, workers, |&t| {
        (
            model
                .svm
                .predict(&model.extractor.features_at(corpus, catalog, t, cutoff)),
            heuristic_is_top_at(corpus, catalog, t, cutoff),
        )
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_ewhoring_threads;
    use rand::Rng;
    use synthrand::rng_from_seed;
    use worldgen::{World, WorldConfig};

    fn world() -> World {
        World::generate(WorldConfig::test_scale(0x70C5))
    }

    #[test]
    fn hybrid_classifier_reaches_low_nineties() {
        // Held-out metrics need a reasonably sized test split; use a 5%
        // world (the 2% worlds leave ~30 positives in the whole sample).
        let w = World::generate(worldgen::WorldConfig {
            scale: 0.05,
            ..WorldConfig::test_scale(0x70C5)
        });
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(1);
        let (_, result) = classify_tops(&mut rng, &w, &threads, 2);
        // Paper: precision 92%, recall 93%, F1 92%.
        assert!(
            result.hybrid_metrics.recall > 0.80,
            "recall {:?}",
            result.hybrid_metrics
        );
        assert!(
            result.hybrid_metrics.precision > 0.75,
            "precision {:?}",
            result.hybrid_metrics
        );
    }

    #[test]
    fn union_beats_both_sides() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(2);
        let (_, r) = classify_tops(&mut rng, &w, &threads, 2);
        assert!(r.detected.len() >= r.ml_count.max(r.heuristic_count));
        assert_eq!(
            r.detected.len(),
            r.ml_count + r.heuristic_count - r.both_count
        );
        assert!(r.both_count > 0, "the two sides overlap");
        assert!(
            r.both_count < r.detected.len(),
            "each side contributes unique detections"
        );
    }

    #[test]
    fn detection_count_tracks_planted_tops() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(3);
        let (_, r) = classify_tops(&mut rng, &w, &threads, 2);
        let planted = w.truth.top_count() as f64;
        let detected = r.detected.len() as f64;
        assert!(
            (detected / planted) > 0.75 && (detected / planted) < 1.45,
            "detected {detected} vs planted {planted}"
        );
    }

    #[test]
    fn sample_is_enriched_but_not_all_positive() {
        let w = world();
        let set = extract_ewhoring_threads(&w.corpus);
        let threads = set.all_threads();
        let mut rng = rng_from_seed(4);
        // Use half the extracted set so enrichment has room to act (at
        // paper scale the sample is far smaller than the 44k threads).
        let size = threads.len() / 2;
        let sample =
            annotation_sample_at(&mut rng, &w.corpus, &w.catalog, &threads, size, ALL_TIME);
        assert_eq!(sample.len(), size);
        let pos = sample.iter().filter(|&&t| w.truth.is_top(t)).count() as f64;
        let rate = pos / sample.len() as f64;
        let base = w.truth.top_count() as f64 / threads.len() as f64;
        assert!(rate > base, "sample rate {rate} vs base {base}");
        assert!(rate < 0.6, "sample rate {rate} suspiciously high");
    }

    /// An empty candidate list has no annotation sample to train on: no
    /// model, zero detections, and no randomness drawn.
    #[test]
    fn empty_thread_list_detects_nothing() {
        let w = world();
        let mut rng = rng_from_seed(5);
        let (model, r) = classify_tops(&mut rng, &w, &[], 1);
        assert!(model.is_none());
        assert!(r.detected.is_empty());
        assert_eq!((r.ml_count, r.heuristic_count, r.both_count), (0, 0, 0));
        assert_eq!(r.sample_positives, 0);
        assert!(r.stream_index.is_none());
        let untouched: u64 = rng_from_seed(5).gen();
        assert_eq!(rng.gen::<u64>(), untouched, "no annotation draws");
    }
}
