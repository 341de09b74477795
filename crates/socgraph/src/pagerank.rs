//! PageRank over the interaction graph.
//!
//! An alternative influence measure to eigenvector centrality: the paper
//! uses the latter, and the `ablations` bench compares how much the §6.3
//! "influencing actors" selection changes under PageRank — a robustness
//! check on the key-actor methodology.

use crate::graph::DiGraph;

/// Computes PageRank scores (probability distribution over nodes).
///
/// Standard damped power iteration on edge weights: a random surfer
/// follows out-edges proportionally to weight with probability `damping`,
/// teleports uniformly otherwise; dangling mass is redistributed
/// uniformly. Iterates until the L1 change drops below `1e-10` or
/// `max_iter` rounds. Self-loops are ignored, as in the centrality
/// computation. Each node gathers its in-edges in ascending-source order
/// ([`DiGraph`] keeps in-edges sorted), so the result is deterministic.
pub fn pagerank(g: &DiGraph, damping: f64, max_iter: usize) -> Vec<f64> {
    assert!((0.0..1.0).contains(&damping), "damping in [0, 1)");
    let n = g.node_count();
    if n == 0 {
        return Vec::new();
    }
    let uniform = 1.0 / n as f64;
    let mut rank = vec![uniform; n];
    let mut next = vec![0.0; n];

    // Precompute out strengths without self-loops.
    let out_strength: Vec<f64> = (0..n as u32)
        .map(|u| {
            g.out_edges(u)
                .iter()
                .filter(|&&(v, _)| v != u)
                .map(|&(_, w)| w)
                .sum()
        })
        .collect();

    for _ in 0..max_iter {
        let mut dangling = 0.0;
        for (u, &s) in out_strength.iter().enumerate() {
            if s == 0.0 {
                dangling += rank[u];
            }
        }
        let base = (1.0 - damping) * uniform + damping * dangling * uniform;
        for (v, slot) in next.iter_mut().enumerate() {
            let mut acc = base;
            for &(u, w) in g.in_edges(v as u32) {
                let s = out_strength[u as usize];
                if u as usize != v && s != 0.0 {
                    acc += damping * rank[u as usize] / s * w;
                }
            }
            *slot = acc;
        }
        let delta: f64 = rank.iter().zip(&next).map(|(a, b)| (a - b).abs()).sum();
        std::mem::swap(&mut rank, &mut next);
        if delta < 1e-10 {
            break;
        }
    }
    rank
}

#[cfg(test)]
mod tests {
    use super::*;

    fn star(n: usize) -> DiGraph {
        let mut g = DiGraph::with_nodes(n);
        for i in 1..n as u32 {
            g.add_edge(i, 0, 1.0);
        }
        g
    }

    #[test]
    fn ranks_sum_to_one() {
        let g = star(12);
        let r = pagerank(&g, 0.85, 100);
        let total: f64 = r.iter().sum();
        assert!((total - 1.0).abs() < 1e-9, "sum {total}");
    }

    #[test]
    fn hub_dominates_star() {
        let g = star(12);
        let r = pagerank(&g, 0.85, 100);
        assert!(r.iter().skip(1).all(|&v| v < r[0]));
    }

    #[test]
    fn edgeless_graph_is_uniform() {
        let g = DiGraph::with_nodes(5);
        let r = pagerank(&g, 0.85, 50);
        for v in &r {
            assert!((v - 0.2).abs() < 1e-9);
        }
    }

    #[test]
    fn weight_shifts_rank() {
        let mut g = DiGraph::with_nodes(3);
        g.add_edge(0, 1, 1.0);
        g.add_edge(0, 2, 3.0);
        let r = pagerank(&g, 0.85, 100);
        assert!(r[2] > r[1]);
    }

    #[test]
    fn agrees_with_eigenvector_on_strong_hubs() {
        // On a star the two influence measures must pick the same top node.
        let g = star(30);
        let pr = pagerank(&g, 0.85, 200);
        let ev = crate::eigenvector_centrality(&g, 200);
        let top_pr = pr
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        let top_ev = ev
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap())
            .unwrap()
            .0;
        assert_eq!(top_pr, top_ev);
    }

    #[test]
    fn empty_graph_returns_empty() {
        assert!(pagerank(&DiGraph::with_nodes(0), 0.85, 10).is_empty());
    }

    #[test]
    #[should_panic(expected = "damping")]
    fn rejects_bad_damping() {
        let _ = pagerank(&DiGraph::with_nodes(1), 1.0, 10);
    }
}
