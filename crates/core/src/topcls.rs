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

use crate::features::{thread_stats, thread_stats_at, FeatureExtractor};
use crimebb::{Corpus, ThreadId};
use linsvm::{confusion, BinaryMetrics, LinearSvm, SparseVec, SvmConfig};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use serde::{Deserialize, Serialize};
use synthrand::Day;
use websim::SiteCatalog;
use worldgen::GroundTruth;

/// Size of the annotated sample (paper: 1 000 threads).
pub const ANNOTATION_SAMPLE: usize = 1_000;
/// Training portion (paper: 800/200).
pub const TRAIN_SIZE: usize = 800;

/// The §4.1 keyword heuristic.
///
/// A thread is heuristically a TOP when its heading carries at least two
/// TOP keywords ("images", "video", "unsaturated", …) and shows no
/// asking-for signals (question marks, buying/request keywords) — "we also
/// account for both the number of question marks and the presence of
/// keywords related to buying to discard threads asking for packs".
pub fn heuristic_is_top(corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> bool {
    let s = thread_stats(corpus, catalog, thread);
    s.top_kw >= 2.0 && s.question_marks == 0.0 && s.request_kw == 0.0
}

/// [`heuristic_is_top`] as of the end of day `cutoff` — the heuristic's
/// signals are all heading-derived, so the decision only depends on the
/// thread existing by the cutoff; the `_at` stats make that explicit.
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

/// The trained hybrid classifier plus its feature extractor.
pub struct TopClassifier {
    extractor: FeatureExtractor,
    svm: LinearSvm,
}

impl TopClassifier {
    /// ML-side decision for one thread.
    pub fn ml_is_top(&self, corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> bool {
        let fv = self.features(corpus, catalog, thread);
        self.svm.predict(&fv)
    }

    fn features(&self, corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> SparseVec {
        self.extractor.features(corpus, catalog, thread)
    }

    /// Hybrid decision (ML OR heuristic).
    pub fn is_top(&self, corpus: &Corpus, catalog: &SiteCatalog, thread: ThreadId) -> bool {
        self.ml_is_top(corpus, catalog, thread) || heuristic_is_top(corpus, catalog, thread)
    }
}

/// Selects the annotation sample: a mix of lexicon-promising threads and a
/// uniform residue, so positives are enriched the way a human annotator's
/// skim would enrich them.
pub fn annotation_sample(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    threads: &[ThreadId],
    size: usize,
) -> Vec<ThreadId> {
    let size = size.min(threads.len());
    let mut promising: Vec<ThreadId> = Vec::new();
    let mut rest: Vec<ThreadId> = Vec::new();
    for &t in threads {
        let s = thread_stats(corpus, catalog, t);
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

/// Trains the hybrid classifier on the annotated sample and applies it to
/// every extracted thread.
///
/// Feature extraction and the full-corpus application sweep run across
/// `workers` threads (0 = all cores) with results reassembled in input
/// order, so the output is identical for any worker count — only the
/// annotation sampling draws from `rng`, and it stays serial.
pub fn classify_tops(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    truth: &GroundTruth,
    threads: &[ThreadId],
    workers: usize,
) -> (TopClassifier, TopClassification) {
    classify_tops_with_fit(rng, corpus, catalog, truth, threads, workers, |train| {
        FeatureExtractor::fit(corpus, train, workers)
    })
}

/// [`classify_tops`] with the feature fit injected. The sharded driver
/// passes a closure that farms the training-set tokenisation out to
/// supervised shard workers and fits on the concatenated documents
/// ([`FeatureExtractor::fit_from_docs`]); `fit` is called exactly where
/// the batch path calls [`FeatureExtractor::fit`], so the annotation
/// rng stream on `rng` is untouched and the classifier is byte-
/// identical whenever the injected fit is.
pub fn classify_tops_with_fit(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    truth: &GroundTruth,
    threads: &[ThreadId],
    workers: usize,
    fit: impl FnOnce(&[ThreadId]) -> FeatureExtractor,
) -> (TopClassifier, TopClassification) {
    // 1. Annotate.
    let sample = annotation_sample(rng, corpus, catalog, threads, ANNOTATION_SAMPLE);
    let labels: Vec<bool> = sample.iter().map(|&t| truth.is_top(t)).collect();
    let sample_positives = labels.iter().filter(|&&l| l).count();

    // 2. 800/200 split, fit features on train only.
    let n_train = (sample.len() * TRAIN_SIZE / ANNOTATION_SAMPLE).max(1);
    let (train_idx, test_idx) = linsvm::train_test_split(sample.len(), n_train, 0x5711);
    let train_threads: Vec<ThreadId> = train_idx.iter().map(|&i| sample[i]).collect();
    let extractor = fit(&train_threads);

    let rows = |idx: &[usize]| -> Vec<SparseVec> {
        let picked: Vec<ThreadId> = idx.iter().map(|&i| sample[i]).collect();
        extractor.features_many(corpus, catalog, &picked, workers)
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
    let classifier = TopClassifier { extractor, svm };

    // 3. Held-out evaluation of ML, heuristic and hybrid.
    let ml_pred: Vec<bool> = test_x.iter().map(|x| classifier.svm.predict(x)).collect();
    let heur_pred: Vec<bool> = test_idx
        .iter()
        .map(|&i| heuristic_is_top(corpus, catalog, sample[i]))
        .collect();
    let hybrid_pred: Vec<bool> = ml_pred
        .iter()
        .zip(&heur_pred)
        .map(|(&m, &h)| m || h)
        .collect();

    // 4. Apply to the full extracted set: the per-thread decisions are
    // independent, so both classifier sides run data-parallel; the tallies
    // fold serially in input order.
    let decisions: Vec<(bool, bool)> = crate::par::par_map(threads, workers, |&t| {
        (
            classifier.ml_is_top(corpus, catalog, t),
            heuristic_is_top(corpus, catalog, t),
        )
    });
    let mut detected = Vec::new();
    let mut ml_count = 0;
    let mut heuristic_count = 0;
    let mut both_count = 0;
    for (&t, &(ml, heur)) in threads.iter().zip(&decisions) {
        if ml {
            ml_count += 1;
        }
        if heur {
            heuristic_count += 1;
        }
        if ml && heur {
            both_count += 1;
        }
        if ml || heur {
            detected.push(t);
        }
    }

    let result = TopClassification {
        hybrid_metrics: confusion(&hybrid_pred, &test_y).metrics(),
        ml_metrics: confusion(&ml_pred, &test_y).metrics(),
        heuristic_metrics: confusion(&heur_pred, &test_y).metrics(),
        sample_positives,
        detected,
        ml_count,
        heuristic_count,
        both_count,
        stream_index: None,
    };
    (classifier, result)
}

/// [`annotation_sample`] as of the end of day `cutoff`: the promising
/// rule sees only posts dated on or before the cutoff, so the sample a
/// later corpus selects is identical to the one the epoch-1 corpus
/// selected (given the same RNG state and candidate list).
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

/// The bootstrap-frozen classifier of streaming mode: model and held-out
/// metrics trained once at the first epoch boundary whose first-sight
/// threads yield an annotation sample, then applied unchanged to every
/// later epoch's new threads.
/// Serialisable so the epoch carry can freeze it across advances.
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

/// Trains the streaming bootstrap model: [`classify_tops`] steps 1–3
/// with every input windowed to `cutoff` (the bootstrap boundary).
/// `threads` must be the threads first-sighted by the cutoff, in
/// extraction order. Pure in `(visible prefix, rng state)`, so a later
/// corpus replays the training bit-exactly. `None` when `threads` yield
/// no annotation sample to train on (an empty or one- or two-thread
/// first epoch); no randomness is drawn then, so a later boundary
/// bootstraps from the same rng state.
pub fn bootstrap_at(
    rng: &mut StdRng,
    corpus: &Corpus,
    catalog: &SiteCatalog,
    truth: &GroundTruth,
    threads: &[ThreadId],
    cutoff: Day,
    workers: usize,
) -> Option<BootstrapModel> {
    let sample = annotation_sample_at(rng, corpus, catalog, threads, ANNOTATION_SAMPLE, cutoff);
    if sample.is_empty() {
        return None;
    }
    let labels: Vec<bool> = sample.iter().map(|&t| truth.is_top(t)).collect();
    let sample_positives = labels.iter().filter(|&&l| l).count();

    let n_train = (sample.len() * TRAIN_SIZE / ANNOTATION_SAMPLE).max(1);
    let (train_idx, test_idx) = linsvm::train_test_split(sample.len(), n_train, 0x5711);
    let train_threads: Vec<ThreadId> = train_idx.iter().map(|&i| sample[i]).collect();
    let extractor = FeatureExtractor::fit_at(corpus, &train_threads, cutoff, workers);

    let rows = |idx: &[usize]| -> Vec<SparseVec> {
        let picked: Vec<ThreadId> = idx.iter().map(|&i| sample[i]).collect();
        crate::par::par_map(&picked, workers, |&t| {
            extractor.features_at(corpus, catalog, t, cutoff)
        })
    };
    let mut train_x = rows(&train_idx);
    let mut train_y: Vec<bool> = train_idx.iter().map(|&i| labels[i]).collect();
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

impl BootstrapModel {
    /// First-sight decisions `(ml, heuristic)` for `threads`, each
    /// evaluated on the thread state as of `cutoff`, across `workers`
    /// threads in input order.
    pub fn decide_at(
        &self,
        corpus: &Corpus,
        catalog: &SiteCatalog,
        threads: &[ThreadId],
        cutoff: Day,
        workers: usize,
    ) -> Vec<(bool, bool)> {
        crate::par::par_map(threads, workers, |&t| {
            (
                self.svm
                    .predict(&self.extractor.features_at(corpus, catalog, t, cutoff)),
                heuristic_is_top_at(corpus, catalog, t, cutoff),
            )
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::extract::extract_ewhoring_threads;
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
        let (_, result) = classify_tops(&mut rng, &w.corpus, &w.catalog, &w.truth, &threads, 2);
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
        let (_, r) = classify_tops(&mut rng, &w.corpus, &w.catalog, &w.truth, &threads, 2);
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
        let (_, r) = classify_tops(&mut rng, &w.corpus, &w.catalog, &w.truth, &threads, 2);
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
        let sample = annotation_sample(&mut rng, &w.corpus, &w.catalog, &threads, size);
        assert_eq!(sample.len(), size);
        let pos = sample.iter().filter(|&&t| w.truth.is_top(t)).count() as f64;
        let rate = pos / sample.len() as f64;
        let base = w.truth.top_count() as f64 / threads.len() as f64;
        assert!(rate > base, "sample rate {rate} vs base {base}");
        assert!(rate < 0.6, "sample rate {rate} suspiciously high");
    }
}
