//! Neighbor joining (Saitou & Nei 1987): the classic distance-method
//! baseline.
//!
//! The paper's motivation for keeping ML tractable is that "a biologist's
//! choice of methods is not constrained because one method cannot be
//! completed in a reasonable amount of time" — i.e. ML results can be
//! compared against cheaper method classes like distance methods. This
//! module supplies that comparator: given a pairwise distance matrix
//! (e.g. the ML distances of `fdml-likelihood::distances`), build the NJ
//! tree in O(n³). On additive distances NJ recovers the generating tree
//! exactly, which the tests exploit.

use crate::alignment::TaxonId;
use crate::error::PhyloError;
use crate::tree::Tree;

/// A symmetric pairwise distance matrix over `n` taxa.
#[derive(Debug, Clone, PartialEq)]
pub struct DistanceMatrix {
    n: usize,
    /// Row-major `n × n`, symmetric, zero diagonal.
    d: Vec<f64>,
}

impl DistanceMatrix {
    /// Build from a full row-major matrix (validated: symmetric within
    /// 1e-9, zero diagonal, non-negative).
    pub fn new(n: usize, d: Vec<f64>) -> Result<DistanceMatrix, PhyloError> {
        if n < 2 || d.len() != n * n {
            return Err(PhyloError::Format(format!(
                "distance matrix must be n×n with n ≥ 2 (n = {n}, len = {})",
                d.len()
            )));
        }
        for i in 0..n {
            if d[i * n + i].abs() > 1e-9 {
                return Err(PhyloError::Format(format!("nonzero diagonal at {i}")));
            }
            for j in 0..n {
                let x = d[i * n + j];
                if !x.is_finite() || x < 0.0 {
                    return Err(PhyloError::Format(format!(
                        "invalid distance at ({i},{j}): {x}"
                    )));
                }
                if (x - d[j * n + i]).abs() > 1e-9 {
                    return Err(PhyloError::Format(format!("asymmetry at ({i},{j})")));
                }
            }
        }
        Ok(DistanceMatrix { n, d })
    }

    /// From the upper triangle (row by row, `n(n-1)/2` entries).
    pub fn from_upper_triangle(n: usize, upper: &[f64]) -> Result<DistanceMatrix, PhyloError> {
        if upper.len() != n * (n - 1) / 2 {
            return Err(PhyloError::Format("wrong upper-triangle length".into()));
        }
        let mut d = vec![0.0; n * n];
        let mut k = 0;
        for i in 0..n {
            for j in i + 1..n {
                d[i * n + j] = upper[k];
                d[j * n + i] = upper[k];
                k += 1;
            }
        }
        DistanceMatrix::new(n, d)
    }

    /// Number of taxa.
    pub fn len(&self) -> usize {
        self.n
    }

    /// True if the matrix is trivial (should not happen: `n ≥ 2`).
    pub fn is_empty(&self) -> bool {
        self.n == 0
    }

    /// Distance between taxa `i` and `j`.
    pub fn get(&self, i: usize, j: usize) -> f64 {
        self.d[i * self.n + j]
    }

    /// Path-length (patristic) distances of a tree: the additive matrix NJ
    /// inverts. Taxon ids must be dense in `0..n`.
    pub fn from_tree(tree: &Tree) -> DistanceMatrix {
        let n = tree.num_tips();
        let mut d = vec![0.0; n * n];
        for (tip, taxon) in tree.tips() {
            // BFS accumulating path lengths from this tip.
            let mut dist = vec![f64::NAN; tree.node_capacity()];
            dist[tip.0 as usize] = 0.0;
            let mut stack = vec![tip];
            while let Some(u) = stack.pop() {
                for (e, v) in tree.neighbors(u) {
                    if dist[v.0 as usize].is_nan() {
                        dist[v.0 as usize] = dist[u.0 as usize] + tree.length(e);
                        stack.push(v);
                    }
                }
            }
            for (other, other_taxon) in tree.tips() {
                d[taxon as usize * n + other_taxon as usize] = dist[other.0 as usize];
            }
        }
        DistanceMatrix { n, d }
    }
}

/// Build the neighbor-joining tree for a distance matrix. Taxon `i` of the
/// matrix becomes [`TaxonId`] `i` in the tree. Negative branch-length
/// estimates (possible for non-additive input) are clamped to zero.
pub fn neighbor_joining(matrix: &DistanceMatrix) -> Tree {
    let n = matrix.n;
    if n == 2 {
        let mut t = Tree::pair(0, 1);
        let e = t.edge_ids().next().expect("pair edge");
        t.set_length(e, matrix.get(0, 1));
        return t;
    }
    // Active cluster list: (node in the growing tree, original row index in
    // the shrinking working matrix).
    let mut tree = Tree::empty();
    let mut nodes: Vec<crate::tree::NodeId> = (0..n)
        .map(|i| tree.add_node_raw(Some(i as TaxonId)))
        .collect();
    let mut d = matrix.d.clone();
    let mut size = n;
    let mut active: Vec<usize> = (0..n).collect(); // index into `d` rows
    let at = |d: &[f64], i: usize, j: usize| d[i * n + j];

    while size > 3 {
        // Row sums over active entries.
        let mut r = vec![0.0; active.len()];
        for (ai, &i) in active.iter().enumerate() {
            r[ai] = active.iter().map(|&j| at(&d, i, j)).sum();
        }
        // Minimize the Q statistic.
        let (mut best, mut best_q) = ((0usize, 1usize), f64::INFINITY);
        for ai in 0..active.len() {
            for aj in ai + 1..active.len() {
                let q = (size as f64 - 2.0) * at(&d, active[ai], active[aj]) - r[ai] - r[aj];
                if q < best_q {
                    best_q = q;
                    best = (ai, aj);
                }
            }
        }
        let (ai, aj) = best;
        let (i, j) = (active[ai], active[aj]);
        let dij = at(&d, i, j);
        let li = 0.5 * dij + (r[ai] - r[aj]) / (2.0 * (size as f64 - 2.0));
        let li = li.clamp(0.0, dij.max(0.0));
        let lj = (dij - li).max(0.0);
        // Join i and j under a fresh internal node u.
        let u = tree.add_node_raw(None);
        tree.add_edge_raw(u, nodes[i], li);
        tree.add_edge_raw(u, nodes[j], lj);
        // Update distances: reuse row i as the new cluster's row.
        for &k in &active {
            if k == i || k == j {
                continue;
            }
            let duk = 0.5 * (at(&d, i, k) + at(&d, j, k) - dij);
            let duk = duk.max(0.0);
            d[i * n + k] = duk;
            d[k * n + i] = duk;
        }
        nodes[i] = u;
        active.remove(aj);
        size -= 1;
    }
    // Final three clusters join at one internal node with the standard
    // three-point formulas.
    let (a, b, c) = (active[0], active[1], active[2]);
    let (dab, dac, dbc) = (at(&d, a, b), at(&d, a, c), at(&d, b, c));
    let la = (0.5 * (dab + dac - dbc)).max(0.0);
    let lb = (0.5 * (dab + dbc - dac)).max(0.0);
    let lc = (0.5 * (dac + dbc - dab)).max(0.0);
    let center = tree.add_node_raw(None);
    tree.add_edge_raw(center, nodes[a], la);
    tree.add_edge_raw(center, nodes[b], lb);
    tree.add_edge_raw(center, nodes[c], lc);
    tree.check_valid()
        .expect("NJ constructs a valid binary tree");
    tree
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartition::SplitSet;

    #[test]
    fn matrix_validation() {
        assert!(DistanceMatrix::new(2, vec![0.0, 1.0, 1.0, 0.0]).is_ok());
        assert!(DistanceMatrix::new(2, vec![0.0, 1.0, 2.0, 0.0]).is_err()); // asymmetric
        assert!(DistanceMatrix::new(2, vec![0.5, 1.0, 1.0, 0.0]).is_err()); // diagonal
        assert!(DistanceMatrix::new(2, vec![0.0, -1.0, -1.0, 0.0]).is_err()); // negative
        assert!(DistanceMatrix::new(1, vec![0.0]).is_err());
    }

    #[test]
    fn upper_triangle_roundtrip() {
        let m = DistanceMatrix::from_upper_triangle(3, &[1.0, 2.0, 3.0]).unwrap();
        assert_eq!(m.get(0, 1), 1.0);
        assert_eq!(m.get(2, 0), 2.0);
        assert_eq!(m.get(1, 2), 3.0);
    }

    #[test]
    fn two_and_three_taxa() {
        let m = DistanceMatrix::from_upper_triangle(2, &[0.7]).unwrap();
        let t = neighbor_joining(&m);
        assert_eq!(t.num_tips(), 2);
        assert!((t.total_length() - 0.7).abs() < 1e-12);
        let m = DistanceMatrix::from_upper_triangle(3, &[0.3, 0.5, 0.6]).unwrap();
        let t = neighbor_joining(&m);
        t.check_valid().unwrap();
        // Three-point formulas: la = (0.3+0.5-0.6)/2 = 0.1, etc.
        let recovered = DistanceMatrix::from_tree(&t);
        for i in 0..3 {
            for j in 0..3 {
                assert!((recovered.get(i, j) - m.get(i, j)).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn additive_distances_recover_the_tree_exactly() {
        // Build random-ish trees, take their path metric, and NJ must give
        // back the same topology AND branch lengths.
        for seed in [1u64, 7, 23, 99] {
            let mut state = seed | 1;
            let mut next = move || {
                state ^= state << 13;
                state ^= state >> 7;
                state ^= state << 17;
                state
            };
            let mut truth = Tree::triplet(0, 1, 2);
            for t in 3..12u32 {
                let edges: Vec<_> = truth.edge_ids().collect();
                let e = edges[(next() % edges.len() as u64) as usize];
                truth.insert_taxon(t, e).unwrap();
            }
            for e in truth.edge_ids().collect::<Vec<_>>() {
                truth.set_length(e, 0.05 + (next() % 100) as f64 / 200.0);
            }
            let m = DistanceMatrix::from_tree(&truth);
            let nj = neighbor_joining(&m);
            assert_eq!(
                SplitSet::of_tree(&truth, 12),
                SplitSet::of_tree(&nj, 12),
                "seed {seed}"
            );
            let back = DistanceMatrix::from_tree(&nj);
            for i in 0..12 {
                for j in 0..12 {
                    assert!(
                        (back.get(i, j) - m.get(i, j)).abs() < 1e-6,
                        "seed {seed}: d({i},{j}) {} vs {}",
                        back.get(i, j),
                        m.get(i, j)
                    );
                }
            }
        }
    }

    #[test]
    fn noisy_distances_still_build_a_valid_tree() {
        let mut truth = Tree::triplet(0, 1, 2);
        for t in 3..8u32 {
            let e = truth.incident_edges(truth.tip_of(t - 1).unwrap())[0];
            truth.insert_taxon(t, e).unwrap();
        }
        let m = DistanceMatrix::from_tree(&truth);
        // Perturb off-diagonal entries slightly (still symmetric).
        let n = m.len();
        let mut d = vec![0.0; n * n];
        for i in 0..n {
            for j in 0..n {
                let (lo, hi) = (i.min(j), i.max(j));
                let noise = if i != j {
                    0.01 * (((lo * 7 + hi * 13) % 5) as f64 - 2.0).abs()
                } else {
                    0.0
                };
                d[i * n + j] = m.get(i.min(j), i.max(j)) + noise;
            }
        }
        let noisy = DistanceMatrix::new(n, d).unwrap();
        let t = neighbor_joining(&noisy);
        t.check_valid().unwrap();
        assert_eq!(t.num_tips(), 8);
        for e in t.edge_ids() {
            assert!(t.length(e) >= 0.0);
        }
    }

    #[test]
    fn from_tree_metric_properties() {
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(0).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        let m = DistanceMatrix::from_tree(&t);
        for i in 0..4 {
            assert_eq!(m.get(i, i), 0.0);
            for j in 0..4 {
                assert_eq!(m.get(i, j), m.get(j, i));
                for k in 0..4 {
                    assert!(m.get(i, j) <= m.get(i, k) + m.get(k, j) + 1e-12);
                }
            }
        }
    }
}
