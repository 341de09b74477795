//! Directed weighted interaction graphs and actor-popularity metrics.
//!
//! Paper §6.1 builds "a social graph where nodes correspond with forum
//! actors and edges are the interactions between them, weighted by the
//! number of responses", then computes:
//!
//! * an **H-index** per actor ("an actor has H threads with at least H
//!   replies") and **i-10 / i-50 / i-100** indices;
//! * **eigenvector centrality**, "a metric indicating the influence of each
//!   node in the network", used to pick the 50 most influencing actors.
//!
//! This crate provides those primitives generically over `u32` node ids so
//! it can be reused on any interaction network.

pub mod centrality;
pub mod graph;
pub mod hindex;
pub mod pagerank;

pub use centrality::{
    eigenvector_centrality, eigenvector_centrality_from, eigenvector_centrality_par,
};
pub use graph::DiGraph;
pub use hindex::{h_index, i_index};
pub use pagerank::pagerank;
