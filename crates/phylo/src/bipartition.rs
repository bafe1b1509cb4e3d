//! Bipartitions (splits), topology identity, and Robinson–Foulds distance.
//!
//! Every edge of an unrooted tree splits the taxon set in two; the set of
//! *non-trivial* splits (those induced by internal edges) identifies the
//! topology uniquely. The foreman uses split sets to deduplicate candidate
//! trees before dispatch, and the consensus builder counts split frequencies
//! across jumbles.

use crate::alignment::TaxonId;
use crate::tree::{NodeId, Tree};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;

/// One split of the taxon set, stored as a canonical bitset.
///
/// Canonical form: the bit for taxon 0 is always *clear* (the side not
/// containing taxon 0 is stored), so a split and its complement compare
/// equal.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct Bipartition {
    num_taxa: usize,
    bits: Vec<u64>,
}

impl Bipartition {
    /// Build from the list of taxa on one side of the split.
    pub fn from_side(side: &[TaxonId], num_taxa: usize) -> Bipartition {
        let words = num_taxa.div_ceil(64);
        let mut bits = vec![0u64; words];
        for &t in side {
            let t = t as usize;
            assert!(t < num_taxa, "taxon {t} out of range {num_taxa}");
            bits[t / 64] |= 1 << (t % 64);
        }
        let mut bp = Bipartition { num_taxa, bits };
        bp.canonicalize();
        bp
    }

    fn canonicalize(&mut self) {
        if self.bits[0] & 1 != 0 {
            // Complement so taxon 0's bit is clear.
            for w in &mut self.bits {
                *w = !*w;
            }
            // Clear padding bits beyond num_taxa.
            let rem = self.num_taxa % 64;
            if rem != 0 {
                let last = self.bits.len() - 1;
                self.bits[last] &= (1u64 << rem) - 1;
            }
        }
    }

    /// Number of taxa on the stored (taxon-0-free) side.
    pub fn side_size(&self) -> usize {
        self.bits.iter().map(|w| w.count_ones() as usize).sum()
    }

    /// Is this split trivial (a single taxon vs the rest)?
    pub fn is_trivial(&self) -> bool {
        let k = self.side_size();
        k <= 1 || k >= self.num_taxa - 1
    }

    /// Taxa on the stored side.
    pub fn side_taxa(&self) -> Vec<TaxonId> {
        let mut out = Vec::with_capacity(self.side_size());
        for (wi, &w) in self.bits.iter().enumerate() {
            let mut w = w;
            while w != 0 {
                let b = w.trailing_zeros() as usize;
                out.push((wi * 64 + b) as TaxonId);
                w &= w - 1;
            }
        }
        out
    }

    /// Does the stored side contain this taxon?
    pub fn contains(&self, taxon: TaxonId) -> bool {
        let t = taxon as usize;
        t < self.num_taxa && self.bits[t / 64] & (1 << (t % 64)) != 0
    }

    /// Total number of taxa this split is defined over.
    pub fn num_taxa(&self) -> usize {
        self.num_taxa
    }

    /// Are two splits compatible (could coexist in one tree)? Splits `X|X'`
    /// and `Y|Y'` are compatible iff at least one of `X∩Y`, `X∩Y'`, `X'∩Y`,
    /// `X'∩Y'` is empty.
    pub fn compatible_with(&self, other: &Bipartition) -> bool {
        assert_eq!(self.num_taxa, other.num_taxa);
        let rem = self.num_taxa % 64;
        let last = self.bits.len() - 1;
        let pad_mask = if rem == 0 {
            u64::MAX
        } else {
            (1u64 << rem) - 1
        };
        let mut xy = true; // X∩Y empty
        let mut xy2 = true; // X∩Y' empty
        let mut x2y = true; // X'∩Y empty
        let mut x2y2 = true; // X'∩Y' empty
        for i in 0..self.bits.len() {
            let mask = if i == last { pad_mask } else { u64::MAX };
            let x = self.bits[i];
            let y = other.bits[i];
            if x & y != 0 {
                xy = false;
            }
            if x & !y & mask != 0 {
                xy2 = false;
            }
            if !x & y & mask != 0 {
                x2y = false;
            }
            if !x & !y & mask != 0 {
                x2y2 = false;
            }
        }
        xy || xy2 || x2y || x2y2
    }
}

/// The set of non-trivial splits of a tree: its topology fingerprint.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct SplitSet {
    splits: Vec<Bipartition>,
    num_taxa: usize,
}

impl SplitSet {
    /// Extract all non-trivial splits of a tree. Taxon ids must be dense in
    /// `0..num_taxa`; during stepwise addition, pass the number of taxa in
    /// the *full* problem so fingerprints from different rounds stay
    /// comparable.
    pub fn of_tree(tree: &Tree, num_taxa: usize) -> SplitSet {
        let mut splits: Vec<Bipartition> = tree
            .internal_edges()
            .map(|e| {
                let (a, _) = tree.endpoints(e);
                Bipartition::from_side(&tree.subtree_taxa(e, a), num_taxa)
            })
            .filter(|bp| !bp.is_trivial())
            .collect();
        splits.sort();
        splits.dedup();
        SplitSet { splits, num_taxa }
    }

    /// The splits, sorted canonically.
    pub fn splits(&self) -> &[Bipartition] {
        &self.splits
    }

    /// Number of non-trivial splits (`n - 3` for a binary tree on `n` taxa).
    pub fn len(&self) -> usize {
        self.splits.len()
    }

    /// True when there are no non-trivial splits (star / ≤3-taxon tree).
    pub fn is_empty(&self) -> bool {
        self.splits.is_empty()
    }

    /// Robinson–Foulds distance: size of the symmetric difference between
    /// the two split sets.
    pub fn robinson_foulds(&self, other: &SplitSet) -> usize {
        let a: std::collections::HashSet<&Bipartition> = self.splits.iter().collect();
        let b: std::collections::HashSet<&Bipartition> = other.splits.iter().collect();
        a.symmetric_difference(&b).count()
    }

    /// Normalized RF distance in `[0, 1]` (divides by the maximum possible
    /// `2(n-3)` for binary trees).
    pub fn robinson_foulds_normalized(&self, other: &SplitSet) -> f64 {
        let max = 2 * (self.num_taxa.max(4) - 3);
        self.robinson_foulds(other) as f64 / max as f64
    }
}

/// Convenience: RF distance between two trees over the same taxon set.
pub fn robinson_foulds(a: &Tree, b: &Tree, num_taxa: usize) -> usize {
    SplitSet::of_tree(a, num_taxa).robinson_foulds(&SplitSet::of_tree(b, num_taxa))
}

fn splitmix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e3779b97f4a7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58476d1ce4e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d049bb133111eb);
    x ^ (x >> 31)
}

/// The two pseudo-random keys of a taxon set: XORs of its taxa's keys.
type SideKey = (u64, u64);

fn taxon_key(taxon: TaxonId) -> SideKey {
    (
        splitmix64(taxon as u64 + 1),
        splitmix64((taxon as u64) | 0xabcd_0000_0000),
    )
}

/// What one non-trivial split adds to the fingerprint, from the key of its
/// side without the lowest taxon.
fn split_hash((xa, xb): SideKey) -> u128 {
    ((splitmix64(xa) as u128) << 64) | splitmix64(xb ^ 0x5bd1_e995) as u128
}

/// A 128-bit order-independent topology fingerprint, computed in one O(n)
/// postorder pass.
///
/// Each taxon gets two fixed pseudo-random keys; each internal edge
/// contributes a mix of the XOR of the keys of the taxa on its
/// lowest-taxon-free side, and contributions are combined with a
/// commutative wrapping sum. Two trees with the same topology (same
/// non-trivial split set) always produce the same fingerprint; distinct
/// topologies collide with probability ≈ 2⁻¹²⁸. The stepwise-addition search
/// uses this to deduplicate candidate rearrangements without materializing
/// split sets.
pub fn topology_fingerprint(tree: &Tree) -> u128 {
    SplitKeys::of(tree).fingerprint
}

/// The sums behind [`topology_fingerprint`], kept per node so the
/// fingerprint of a rearranged tree follows from the splits the move
/// changes instead of from another pass over the whole tree.
///
/// The tree is read as rooted at its lowest-taxon tip. Node ids index the
/// tables, so they stay valid for any tree with the same topology and node
/// ids — in particular across the detach/attach cycles of
/// [`crate::ops::for_each_rearrangement`].
pub(crate) struct SplitKeys {
    /// The tree's fingerprint.
    pub(crate) fingerprint: u128,
    /// Key of the whole taxon set.
    total: SideKey,
    /// Per node: key of the taxa at or below it (unset for the root tip).
    below: Vec<SideKey>,
    /// Per node: its neighbor toward the lowest tip (itself for that tip
    /// and for unused ids).
    parent: Vec<NodeId>,
}

/// The taxa on one side of an edge, as [`SplitKeys`] sees them.
#[derive(Clone, Copy)]
pub(crate) struct Side {
    key: SideKey,
    /// Whether the lowest taxon is among them.
    has_lowest: bool,
}

impl SplitKeys {
    pub(crate) fn of(tree: &Tree) -> SplitKeys {
        let nodes = tree.node_capacity();
        let mut keys = SplitKeys {
            fingerprint: 0,
            total: (0, 0),
            below: vec![(0, 0); nodes],
            parent: (0..nodes as u32).map(NodeId).collect(),
        };
        let Some((lowest_tip, _)) = tree.tips().min_by_key(|&(_, t)| t) else {
            return keys;
        };
        for (_, taxon) in tree.tips() {
            let k = taxon_key(taxon);
            keys.total = (keys.total.0 ^ k.0, keys.total.1 ^ k.1);
        }
        for (child, edge, parent) in tree.postorder_toward(lowest_tip) {
            let (mut xa, mut xb) = tree.taxon(child).map_or((0, 0), taxon_key);
            for (e, next) in tree.neighbors(child) {
                if e != edge {
                    let (a, b) = keys.below[next.0 as usize];
                    xa ^= a;
                    xb ^= b;
                }
            }
            keys.below[child.0 as usize] = (xa, xb);
            keys.parent[child.0 as usize] = parent;
            if tree.is_internal(child) && tree.is_internal(parent) {
                keys.fingerprint = keys.fingerprint.wrapping_add(split_hash((xa, xb)));
            }
        }
        keys
    }

    /// The taxa on `to`'s side of the edge `from`–`to`.
    pub(crate) fn side(&self, from: NodeId, to: NodeId) -> Side {
        if self.parent[to.0 as usize] == from {
            Side {
                key: self.below[to.0 as usize],
                has_lowest: false,
            }
        } else {
            debug_assert_eq!(self.parent[from.0 as usize], to);
            let (a, b) = self.below[from.0 as usize];
            Side {
                key: (self.total.0 ^ a, self.total.1 ^ b),
                has_lowest: true,
            }
        }
    }

    /// What the internal edge `a`–`b` adds to the fingerprint.
    pub(crate) fn edge_hash(&self, a: NodeId, b: NodeId) -> u128 {
        let child = if self.parent[b.0 as usize] == a { b } else { a };
        split_hash(self.below[child.0 as usize])
    }

    /// What the split `x ∪ y | rest` adds to the fingerprint, for disjoint
    /// sides `x` and `y`.
    pub(crate) fn union_hash(&self, x: Side, y: Side) -> u128 {
        let (mut a, mut b) = (x.key.0 ^ y.key.0, x.key.1 ^ y.key.1);
        if x.has_lowest || y.has_lowest {
            a ^= self.total.0;
            b ^= self.total.1;
        }
        split_hash((a, b))
    }
}

/// Counts split occurrences across many trees (for majority-rule consensus).
#[derive(Debug, Default, Clone)]
pub struct SplitCounter {
    counts: HashMap<Bipartition, usize>,
    num_trees: usize,
}

impl SplitCounter {
    /// Empty counter.
    pub fn new() -> SplitCounter {
        SplitCounter::default()
    }

    /// Record every non-trivial split of one tree.
    pub fn add_tree(&mut self, tree: &Tree, num_taxa: usize) {
        let set = SplitSet::of_tree(tree, num_taxa);
        for s in set.splits {
            *self.counts.entry(s).or_insert(0) += 1;
        }
        self.num_trees += 1;
    }

    /// Number of trees recorded.
    pub fn num_trees(&self) -> usize {
        self.num_trees
    }

    /// Splits occurring in strictly more than `fraction` of trees
    /// (`fraction = 0.5` gives the majority rule), sorted by decreasing
    /// support then canonically. Returns `(split, support count)`.
    pub fn splits_above(&self, fraction: f64) -> Vec<(Bipartition, usize)> {
        let threshold = fraction * self.num_trees as f64;
        let mut v: Vec<(Bipartition, usize)> = self
            .counts
            .iter()
            .filter(|&(_, &c)| (c as f64) > threshold)
            .map(|(s, &c)| (s.clone(), c))
            .collect();
        v.sort_by(|a, b| b.1.cmp(&a.1).then_with(|| a.0.cmp(&b.0)));
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Caterpillar tree on n taxa: ((((0,1),2),3),...) built by insertion.
    fn caterpillar(n: usize) -> Tree {
        let mut t = Tree::triplet(0, 1, 2);
        for taxon in 3..n as TaxonId {
            let e = t.incident_edges(t.tip_of(taxon - 1).unwrap())[0];
            t.insert_taxon(taxon, e).unwrap();
        }
        t
    }

    /// Balanced 4-taxon tree with the split {0,1}|{2,3}.
    fn quartet_01_23() -> Tree {
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(2).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        t
    }

    #[test]
    fn canonical_form_ignores_orientation() {
        let a = Bipartition::from_side(&[0, 1], 5);
        let b = Bipartition::from_side(&[2, 3, 4], 5);
        assert_eq!(a, b);
    }

    #[test]
    fn trivial_detection() {
        assert!(Bipartition::from_side(&[3], 5).is_trivial());
        assert!(Bipartition::from_side(&[0], 5).is_trivial());
        assert!(Bipartition::from_side(&[1, 2, 3, 4], 5).is_trivial());
        assert!(!Bipartition::from_side(&[1, 2], 5).is_trivial());
    }

    #[test]
    fn side_taxa_of_canonical_side() {
        let bp = Bipartition::from_side(&[0, 4], 5);
        // Canonical side excludes taxon 0 → {1,2,3}.
        assert_eq!(bp.side_taxa(), vec![1, 2, 3]);
        assert!(!bp.contains(0));
        assert!(bp.contains(2));
    }

    #[test]
    fn works_past_64_taxa() {
        let side: Vec<TaxonId> = (64..100).collect();
        let bp = Bipartition::from_side(&side, 150);
        assert_eq!(bp.side_size(), 36);
        assert!(bp.contains(80));
        assert!(!bp.contains(63));
        let complement: Vec<TaxonId> = (0..64).chain(100..150).collect();
        assert_eq!(bp, Bipartition::from_side(&complement, 150));
    }

    #[test]
    fn quartet_split_extraction() {
        let t = quartet_01_23();
        let s = SplitSet::of_tree(&t, 4);
        assert_eq!(s.len(), 1);
        assert_eq!(s.splits()[0], Bipartition::from_side(&[2, 3], 4));
    }

    #[test]
    fn binary_tree_has_n_minus_3_splits() {
        for n in [4usize, 5, 8, 12] {
            let t = caterpillar(n);
            let s = SplitSet::of_tree(&t, n);
            assert_eq!(s.len(), n - 3, "n = {n}");
        }
    }

    #[test]
    fn rf_zero_iff_same_topology() {
        let a = quartet_01_23();
        let b = quartet_01_23();
        assert_eq!(robinson_foulds(&a, &b, 4), 0);
        // Alternative quartet: {0,2}|{1,3}
        let mut c = Tree::triplet(0, 2, 1);
        let e = c.incident_edges(c.tip_of(1).unwrap())[0];
        c.insert_taxon(3, e).unwrap();
        assert_eq!(robinson_foulds(&a, &c, 4), 2);
    }

    #[test]
    fn rf_is_symmetric() {
        let a = caterpillar(8);
        let mut b = caterpillar(7);
        let e = b.incident_edges(b.tip_of(0).unwrap())[0];
        b.insert_taxon(7, e).unwrap();
        assert_eq!(
            SplitSet::of_tree(&a, 8).robinson_foulds(&SplitSet::of_tree(&b, 8)),
            SplitSet::of_tree(&b, 8).robinson_foulds(&SplitSet::of_tree(&a, 8))
        );
    }

    #[test]
    fn split_compatibility() {
        let ab = Bipartition::from_side(&[0, 1], 6);
        let abc = Bipartition::from_side(&[0, 1, 2], 6);
        let cd = Bipartition::from_side(&[2, 3], 6);
        assert!(ab.compatible_with(&abc)); // nested
        assert!(ab.compatible_with(&cd)); // disjoint
        assert!(!abc.compatible_with(&cd)); // properly overlapping
        assert!(ab.compatible_with(&ab));
    }

    #[test]
    fn splits_of_a_tree_are_pairwise_compatible() {
        let t = caterpillar(10);
        let s = SplitSet::of_tree(&t, 10);
        for (i, a) in s.splits().iter().enumerate() {
            for b in &s.splits()[i + 1..] {
                assert!(a.compatible_with(b));
            }
        }
    }

    #[test]
    fn counter_majority() {
        let mut counter = SplitCounter::new();
        counter.add_tree(&quartet_01_23(), 4); // split {2,3}
        counter.add_tree(&quartet_01_23(), 4);
        let mut alt = Tree::triplet(0, 2, 1);
        let e = alt.incident_edges(alt.tip_of(1).unwrap())[0];
        alt.insert_taxon(3, e).unwrap(); // split {1,3}
        counter.add_tree(&alt, 4);
        assert_eq!(counter.num_trees(), 3);
        let majority = counter.splits_above(0.5);
        assert_eq!(majority.len(), 1);
        assert_eq!(majority[0].1, 2);
        assert_eq!(majority[0].0, Bipartition::from_side(&[2, 3], 4));
    }

    #[test]
    fn fingerprint_equal_for_equal_topology() {
        // Build the same quartet topology two different ways.
        let a = quartet_01_23();
        let mut b = Tree::triplet(3, 2, 0);
        let e = b.incident_edges(b.tip_of(0).unwrap())[0];
        b.insert_taxon(1, e).unwrap();
        // b has split {0,1}|{2,3} too.
        assert_eq!(
            SplitSet::of_tree(&a, 4),
            SplitSet::of_tree(&b, 4),
            "test setup: topologies must match"
        );
        assert_eq!(topology_fingerprint(&a), topology_fingerprint(&b));
    }

    #[test]
    fn fingerprint_differs_for_different_topology() {
        let a = quartet_01_23();
        let mut c = Tree::triplet(0, 2, 1);
        let e = c.incident_edges(c.tip_of(1).unwrap())[0];
        c.insert_taxon(3, e).unwrap();
        assert_ne!(topology_fingerprint(&a), topology_fingerprint(&c));
    }

    #[test]
    fn fingerprint_ignores_branch_lengths() {
        let mut a = caterpillar(6);
        let fp1 = topology_fingerprint(&a);
        for e in a.edge_ids().collect::<Vec<_>>() {
            a.set_length(e, 1.2345);
        }
        assert_eq!(topology_fingerprint(&a), fp1);
    }

    #[test]
    fn fingerprint_distinguishes_caterpillar_orders() {
        // All distinct 5-taxon topologies should have distinct fingerprints.
        use std::collections::HashSet;
        let mut fps = HashSet::new();
        let mut splitsets = HashSet::new();
        // Enumerate all 15 five-taxon topologies: insert taxon 3 into each of
        // 3 edges of the triplet, then taxon 4 into each of 5 edges.
        let base = Tree::triplet(0, 1, 2);
        for e3 in base.edge_ids().collect::<Vec<_>>() {
            let mut t3 = base.clone();
            t3.insert_taxon(3, e3).unwrap();
            for e4 in t3.edge_ids().collect::<Vec<_>>() {
                let mut t4 = t3.clone();
                t4.insert_taxon(4, e4).unwrap();
                fps.insert(topology_fingerprint(&t4));
                splitsets.insert(SplitSet::of_tree(&t4, 5));
            }
        }
        assert_eq!(splitsets.len(), 15);
        assert_eq!(fps.len(), 15);
    }

    #[test]
    fn splitset_identity_for_dedup() {
        use std::collections::HashSet;
        let mut set = HashSet::new();
        set.insert(SplitSet::of_tree(&quartet_01_23(), 4));
        set.insert(SplitSet::of_tree(&quartet_01_23(), 4));
        assert_eq!(set.len(), 1);
    }
}
