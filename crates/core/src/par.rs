//! Deterministic data-parallel execution for the hot pipeline stages.
//!
//! Re-exports the [`parkit`] primitives under the crate the pipeline
//! stages live in. The pattern was extracted from the original
//! `measure_batch` and now backs every data-parallel stage:
//!
//! * `measure_images` — per-image rendering + measurement ([`par_map`]);
//! * `top_classifier` — per-thread tokenisation, feature extraction and
//!   hybrid classification (`core::features`, `core::topcls`), plus the
//!   document-term matrix / TF-IDF work in `textkit::dtm`;
//! * `nsfv` — validation-set scoring and the exact-dedup digest count;
//! * `provenance` — one reverse search per query key ([`par_map`]);
//! * `actors` — the eigenvector-centrality inner loop in `socgraph`
//!   (and PageRank for the ablation benches).
//!
//! **Determinism contract.** Inputs are split into contiguous chunks,
//! mapped on scoped worker threads, and reassembled in input order; the
//! mapped function is pure per item, and seeded variants derive their
//! state from `PipelineOptions::seed` plus a fixed-size block index
//! ([`par_map_seeded`]). Consequently the pipeline report is
//! byte-identical for any `PipelineOptions::workers` value — enforced by
//! the worker-matrix test in `tests/determinism.rs`. Inputs shorter than
//! [`SERIAL_CUTOFF`] stay on the calling thread; see the constant's
//! documentation for why 64.

pub use parkit::{
    effective_workers, par_map, par_map_chunks, par_map_indexed, par_map_range, par_map_seeded,
    SERIAL_CUTOFF,
};
