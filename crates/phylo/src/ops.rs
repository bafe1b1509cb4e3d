//! Candidate-tree enumeration: the topological moves of the fastDNAml search.
//!
//! * [`for_each_insertion`] — step 3 of the paper: add the next taxon at
//!   each of the `2i-5` topologically distinct places.
//! * [`for_each_rearrangement`] — steps 4/5: move every subtree across up to
//!   `radius` internal vertices. `radius = 1` is the classic local
//!   rearrangement producing the `2i-6`-tree NNI neighbourhood; the paper's
//!   performance runs use `radius = 5`.
//!
//! Candidates are produced by in-place mutate/visit/revert so that
//! enumerating the tens of thousands of candidates of a 150-taxon
//! rearrangement round never clones the tree. Duplicated topologies
//! (the same rearranged tree is often reachable from several prune points)
//! are suppressed by topology fingerprint, which a regraft changes only in
//! the splits along its path: O(1) per candidate, not a pass over the tree.

use crate::alignment::TaxonId;
use crate::bipartition::SplitKeys;
use crate::tree::{EdgeId, NodeId, Tree};
use std::collections::HashSet;

/// Visit every tree obtained by inserting `taxon` into each edge of `tree`.
///
/// The callback receives the candidate tree and the index of the edge the
/// taxon was inserted into; the tree is restored after each visit. For a
/// tree with `i-1` tips this visits exactly `2(i-1)-3 = 2i-5` candidates
/// (all topologically distinct), matching the paper's step 3.
pub fn for_each_insertion(tree: &mut Tree, taxon: TaxonId, mut visit: impl FnMut(&Tree, usize)) {
    let edges: Vec<EdgeId> = tree.edge_ids().collect();
    for (i, &edge) in edges.iter().enumerate() {
        tree.insert_taxon(taxon, edge)
            .expect("enumerated edge must be live");
        visit(tree, i);
        tree.remove_taxon(taxon)
            .expect("just-inserted taxon must be removable");
    }
}

/// Number of insertion candidates for the `i`-th taxon (`2i-5`, paper §2).
pub fn insertion_count(taxa_after_insertion: usize) -> usize {
    2 * taxa_after_insertion - 5
}

/// One prune point for a rearrangement: the subtree on the `root` side of
/// the `root`–`attachment` edge is pruned and regrafted elsewhere.
///
/// Identified by *node* ids, not edge ids: node ids are stable across the
/// detach/attach cycles of earlier prune points (the single dissolved node
/// is always reallocated with its own id, LIFO), whereas edge ids permute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct PrunePoint {
    root: NodeId,
    attachment: NodeId,
}

/// Enumerate prune points: every directed edge whose far end is internal.
fn prune_points(tree: &Tree) -> Vec<PrunePoint> {
    let mut out = Vec::new();
    for e in tree.edge_ids() {
        let (a, b) = tree.endpoints(e);
        if tree.is_internal(b) {
            out.push(PrunePoint {
                root: a,
                attachment: b,
            });
        }
        if tree.is_internal(a) {
            out.push(PrunePoint {
                root: b,
                attachment: a,
            });
        }
    }
    out
}

/// The regraft targets of one prune point: the edges of the pruned `tree`
/// between 1 and `radius` vertices from `origin` (edges adjacent to it cross
/// one vertex), nearest first, each with the fingerprint of the tree that
/// regrafting into it gives.
///
/// Moving the subtree one vertex further — over `node`, from the edge it
/// came along onto an edge beyond — changes two splits of the candidate: the
/// base edge that led to `node` no longer has the subtree on its near side,
/// and the edge beyond now has it on its far side. So a target's
/// fingerprint is its predecessor's, one term out and one in.
fn regraft_targets(
    tree: &Tree,
    origin: EdgeId,
    radius: usize,
    base: &SplitKeys,
    pp: PrunePoint,
) -> Vec<(EdgeId, u128)> {
    let pruned = base.side(pp.attachment, pp.root);
    let mut seen = vec![false; tree.edge_capacity()];
    seen[origin.0 as usize] = true;
    let mut frontier = vec![(origin, base.fingerprint)];
    let mut out = Vec::new();
    for _ in 0..radius {
        let mut next = Vec::new();
        for &(e, fp) in &frontier {
            let (a, b) = tree.endpoints(e);
            for node in [a, b] {
                // In the base tree the origin is two edges around the
                // dissolved node; every other edge is itself.
                let near = if e == origin {
                    pp.attachment
                } else {
                    tree.other_end(e, node)
                };
                let crossed = fp.wrapping_sub(base.edge_hash(near, node));
                for (e2, far) in tree.neighbors(node) {
                    if !seen[e2.0 as usize] {
                        seen[e2.0 as usize] = true;
                        let beyond = base.union_hash(base.side(node, far), pruned);
                        next.push((e2, crossed.wrapping_add(beyond)));
                    }
                }
            }
        }
        if next.is_empty() {
            break;
        }
        out.extend_from_slice(&next);
        frontier = next;
    }
    out
}

/// The walk behind [`for_each_rearrangement`] and [`enumerate_spr_moves`]:
/// put `tree` into every distinct rearranged state in turn, hand it to
/// `visit` with the move that leads there from the original, and restore
/// it — branch lengths included — at the end.
///
/// Candidates are deduplicated by fingerprint, derived per target from the
/// base tree's [`SplitKeys`] (node ids survive the detach/attach cycles), so
/// a round costs O(n · targets per prune point), not a pass over the tree
/// per candidate.
fn walk_rearrangements(tree: &mut Tree, radius: usize, mut visit: impl FnMut(&Tree, TreeMove)) {
    if radius == 0 || tree.num_tips() < 4 {
        return;
    }
    let base = SplitKeys::of(tree);
    let mut seen: HashSet<u128> = HashSet::new();
    seen.insert(base.fingerprint);
    for pp in prune_points(tree) {
        let pendant = tree
            .edge_between(pp.root, pp.attachment)
            .expect("prune point nodes must still be adjacent");
        // Record the two branch lengths around the dissolved node so the
        // final re-attach can restore them exactly.
        let around: Vec<(NodeId, f64)> = tree
            .neighbors(pp.attachment)
            .filter(|&(e, _)| e != pendant)
            .map(|(e, n)| (n, tree.length(e)))
            .collect();
        debug_assert_eq!(around.len(), 2);
        let sub = tree
            .detach(pendant, pp.root)
            .expect("prune point must be detachable");
        let mut current = sub;
        for (target, fp) in regraft_targets(tree, sub.merged_edge, radius, &base, pp) {
            let endpoints = tree.endpoints(target);
            let new_pendant = tree
                .attach(current, target)
                .expect("target edge must be live");
            if seen.insert(fp) {
                visit(
                    tree,
                    TreeMove::Spr {
                        root: pp.root,
                        attachment: pp.attachment,
                        target: endpoints,
                    },
                );
            }
            current = tree
                .detach(new_pendant, pp.root)
                .expect("candidate must be detachable");
        }
        // Restore the original attachment and its exact branch lengths. The
        // original merged edge is never a regraft target (distance 0), so it
        // is still alive here.
        let restored_pendant = tree
            .attach(current, sub.merged_edge)
            .expect("original position must be restorable");
        let p2 = tree.other_end(restored_pendant, pp.root);
        for (node, len) in around {
            let e = tree
                .edge_between(p2, node)
                .expect("restored node must reconnect to original neighbors");
            tree.set_length(e, len);
        }
    }
}

/// Visit every distinct tree obtained by pruning a subtree and regrafting it
/// across at most `radius` internal vertices (paper steps 4 and 5).
///
/// Each distinct topology is visited exactly once (deduplicated by
/// fingerprint); the original topology is never visited. The tree is
/// restored — including branch lengths — after enumeration. Returns the
/// number of candidates visited.
pub fn for_each_rearrangement(
    tree: &mut Tree,
    radius: usize,
    mut visit: impl FnMut(&Tree, usize),
) -> usize {
    let mut emitted = 0usize;
    walk_rearrangements(tree, radius, |candidate, _| {
        visit(candidate, emitted);
        emitted += 1;
    });
    emitted
}

/// A topological move against a specific base tree, identified by *node*
/// ids so it can be shipped between the search driver and evaluators and
/// re-applied to any structurally identical clone of the base tree.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TreeMove {
    /// Insert `taxon` into the edge whose endpoints are `at` (paper step 3).
    Insertion {
        /// The taxon being added.
        taxon: TaxonId,
        /// Endpoints of the target edge in the base tree.
        at: (NodeId, NodeId),
    },
    /// Prune the subtree on the `root` side of the `root`–`attachment` edge
    /// and regraft it into the edge with endpoints `target` (paper step 4/5).
    Spr {
        /// Root node of the pruned subtree.
        root: NodeId,
        /// The internal node dissolved by the prune.
        attachment: NodeId,
        /// Endpoints of the regraft target edge (valid both in the base
        /// tree and in the pruned intermediate).
        target: (NodeId, NodeId),
    },
}

/// Apply a move to (a clone of) its base tree. Returns the new pendant edge
/// (the edge joining the inserted tip or regrafted subtree to the tree).
pub fn apply_move(tree: &mut Tree, mv: &TreeMove) -> Result<EdgeId, crate::error::PhyloError> {
    match *mv {
        TreeMove::Insertion { taxon, at } => {
            let edge = tree.edge_between(at.0, at.1).ok_or_else(|| {
                crate::error::PhyloError::InvalidTreeOp(format!(
                    "insertion target {at:?} is not an edge"
                ))
            })?;
            tree.insert_taxon(taxon, edge)
        }
        TreeMove::Spr {
            root,
            attachment,
            target,
        } => {
            let pendant = tree.edge_between(root, attachment).ok_or_else(|| {
                crate::error::PhyloError::InvalidTreeOp(format!(
                    "prune point {root:?}-{attachment:?} is not an edge"
                ))
            })?;
            let sub = tree.detach(pendant, root)?;
            let target_edge = tree.edge_between(target.0, target.1).ok_or_else(|| {
                crate::error::PhyloError::InvalidTreeOp(format!(
                    "regraft target {target:?} is not an edge"
                ))
            })?;
            tree.attach(sub, target_edge)
        }
    }
}

/// All insertion moves for `taxon`: one per edge of the base tree, in a
/// deterministic order (`2i-5` moves when the result has `i` taxa).
pub fn enumerate_insertion_moves(tree: &Tree, taxon: TaxonId) -> Vec<TreeMove> {
    tree.edge_ids()
        .map(|e| {
            let at = tree.endpoints(e);
            TreeMove::Insertion { taxon, at }
        })
        .collect()
}

/// All distinct SPR moves within `radius` vertices, deduplicated by the
/// resulting topology (first occurrence kept) and never producing the base
/// topology. Enumeration order is deterministic.
pub fn enumerate_spr_moves(tree: &Tree, radius: usize) -> Vec<TreeMove> {
    let mut moves = Vec::new();
    walk_rearrangements(&mut tree.clone(), radius, |_, mv| moves.push(mv));
    moves
}

/// Number of distinct radius-1 rearrangements of a binary tree on `n ≥ 4`
/// taxa: the NNI neighbourhood size `2(n-3)` (the paper's `2i-6`).
pub fn nni_count(num_taxa: usize) -> usize {
    if num_taxa < 4 {
        0
    } else {
        2 * (num_taxa - 3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::bipartition::{topology_fingerprint, SplitSet};

    fn caterpillar(n: usize) -> Tree {
        let mut t = Tree::triplet(0, 1, 2);
        for taxon in 3..n as TaxonId {
            let e = t.incident_edges(t.tip_of(taxon - 1).unwrap())[0];
            t.insert_taxon(taxon, e).unwrap();
        }
        t
    }

    fn balanced8() -> Tree {
        // ((0,1),(2,3)),((4,5),(6,7)) style tree built by insertions.
        let mut t = Tree::triplet(0, 2, 4);
        for (new, next_to) in [(1u32, 0u32), (3, 2), (5, 4), (6, 0), (7, 6)] {
            let e = t.incident_edges(t.tip_of(next_to).unwrap())[0];
            t.insert_taxon(new, e).unwrap();
        }
        t
    }

    /// The enumerator as it was before fingerprints were derived per
    /// target: every candidate is re-fingerprinted from scratch. Kept as
    /// the oracle for the move list and its order.
    fn enumerate_spr_moves_refingerprinting(tree: &Tree, radius: usize) -> Vec<TreeMove> {
        fn edges_within_radius(tree: &Tree, origin: EdgeId, radius: usize) -> Vec<EdgeId> {
            let mut dist = vec![usize::MAX; tree.edge_capacity()];
            dist[origin.0 as usize] = 0;
            let mut frontier = vec![origin];
            let mut out = Vec::new();
            for d in 1..=radius {
                let mut next = Vec::new();
                for &e in &frontier {
                    let (a, b) = tree.endpoints(e);
                    for node in [a, b] {
                        for (e2, _) in tree.neighbors(node) {
                            if dist[e2.0 as usize] == usize::MAX {
                                dist[e2.0 as usize] = d;
                                next.push(e2);
                                out.push(e2);
                            }
                        }
                    }
                }
                frontier = next;
                if frontier.is_empty() {
                    break;
                }
            }
            out
        }

        let mut moves = Vec::new();
        if radius == 0 || tree.num_tips() < 4 {
            return moves;
        }
        let mut work = tree.clone();
        let mut seen: HashSet<u128> = HashSet::new();
        seen.insert(topology_fingerprint(&work));
        for pp in prune_points(&work) {
            let pendant = work
                .edge_between(pp.root, pp.attachment)
                .expect("prune point nodes must be adjacent");
            let around: Vec<(NodeId, f64)> = work
                .neighbors(pp.attachment)
                .filter(|&(e, _)| e != pendant)
                .map(|(e, n)| (n, work.length(e)))
                .collect();
            let sub = work.detach(pendant, pp.root).expect("detachable");
            let targets = edges_within_radius(&work, sub.merged_edge, radius);
            let mut current = sub;
            for target in targets {
                let endpoints = work.endpoints(target);
                let new_pendant = work.attach(current, target).expect("attachable");
                if seen.insert(topology_fingerprint(&work)) {
                    moves.push(TreeMove::Spr {
                        root: pp.root,
                        attachment: pp.attachment,
                        target: endpoints,
                    });
                }
                current = work.detach(new_pendant, pp.root).expect("detachable");
            }
            let restored = work.attach(current, sub.merged_edge).expect("restorable");
            let p2 = work.other_end(restored, pp.root);
            for (node, len) in around {
                let e = work.edge_between(p2, node).expect("restored adjacency");
                work.set_length(e, len);
            }
        }
        moves
    }

    /// A tree on taxa `0..n` grown by inserting each taxon, in a shuffled
    /// order, into a random edge.
    fn random_tree(n: usize, seed: u64) -> Tree {
        let mut state = seed;
        let mut next = move || {
            state = state
                .wrapping_mul(6364136223846793005)
                .wrapping_add(1442695040888963407);
            (state >> 33) as usize
        };
        let mut taxa: Vec<TaxonId> = (0..n as TaxonId).collect();
        for i in (1..n).rev() {
            taxa.swap(i, next() % (i + 1));
        }
        let mut t = Tree::triplet(taxa[0], taxa[1], taxa[2]);
        for &taxon in &taxa[3..] {
            let edges: Vec<EdgeId> = t.edge_ids().collect();
            t.insert_taxon(taxon, edges[next() % edges.len()]).unwrap();
        }
        t
    }

    #[test]
    fn derived_fingerprints_and_move_lists_match_refingerprinting_on_random_trees() {
        let sizes = [4usize, 5, 6, 7, 9, 13, 24, 50, 101, 120];
        for (i, &n) in sizes.iter().enumerate() {
            for radius in 1..=3 {
                let tree = random_tree(n, 0x5eed + 31 * i as u64 + radius as u64);
                // The same deduplicated moves in the same order.
                assert_eq!(
                    enumerate_spr_moves(&tree, radius),
                    enumerate_spr_moves_refingerprinting(&tree, radius),
                    "{n} taxa, radius {radius}"
                );
                // And, target by target (duplicates included), the derived
                // fingerprint is the candidate's.
                let base = SplitKeys::of(&tree);
                assert_eq!(base.fingerprint, topology_fingerprint(&tree));
                let mut checked = 0;
                for pp in prune_points(&tree) {
                    let mut work = tree.clone();
                    let pendant = work.edge_between(pp.root, pp.attachment).unwrap();
                    let sub = work.detach(pendant, pp.root).unwrap();
                    for (target, fp) in regraft_targets(&work, sub.merged_edge, radius, &base, pp) {
                        let mut candidate = work.clone();
                        candidate.attach(sub, target).unwrap();
                        assert_eq!(
                            fp,
                            topology_fingerprint(&candidate),
                            "{n} taxa, radius {radius}, {pp:?} into {target:?}"
                        );
                        checked += 1;
                    }
                }
                assert!(checked >= 4, "{n} taxa, radius {radius}");
            }
        }
    }

    #[test]
    fn insertion_candidate_count_matches_2i_minus_5() {
        for n in [3usize, 4, 5, 8, 12] {
            let mut t = caterpillar(n);
            let mut count = 0;
            for_each_insertion(&mut t, n as TaxonId, |cand, _| {
                assert_eq!(cand.num_tips(), n + 1);
                count += 1;
            });
            assert_eq!(count, insertion_count(n + 1), "n = {n}");
            t.check_valid().unwrap();
            assert_eq!(t.num_tips(), n);
        }
    }

    #[test]
    fn insertion_candidates_all_distinct() {
        let mut t = caterpillar(6);
        let mut fps = HashSet::new();
        for_each_insertion(&mut t, 6, |cand, _| {
            assert!(fps.insert(topology_fingerprint(cand)));
        });
        assert_eq!(fps.len(), insertion_count(7));
    }

    #[test]
    fn insertion_restores_tree_exactly() {
        let mut t = caterpillar(5);
        for (i, e) in t.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            t.set_length(e, 0.01 * (i + 1) as f64);
        }
        let before = crate::newick::write_tree(&t, &names(5));
        for_each_insertion(&mut t, 9, |_, _| {});
        // Arena ids may be recycled, but topology and lengths round-trip
        // exactly — the deterministic serialization proves it.
        assert_eq!(crate::newick::write_tree(&t, &names(5)), before);
    }

    fn names(n: usize) -> Vec<String> {
        (0..n).map(|i| format!("t{i}")).collect()
    }

    #[test]
    fn radius_one_is_nni_neighbourhood() {
        for n in [4usize, 5, 6, 8, 10] {
            let mut t = caterpillar(n);
            let count = for_each_rearrangement(&mut t, 1, |cand, _| {
                cand.check_valid().unwrap();
                assert_eq!(cand.num_tips(), n);
            });
            assert_eq!(count, nni_count(n), "caterpillar n = {n}");
        }
        let mut t = balanced8();
        let count = for_each_rearrangement(&mut t, 1, |_, _| {});
        assert_eq!(count, nni_count(8), "balanced 8-taxon tree");
    }

    #[test]
    fn rearrangement_never_emits_original() {
        let mut t = balanced8();
        let original = topology_fingerprint(&t);
        for_each_rearrangement(&mut t, 3, |cand, _| {
            assert_ne!(topology_fingerprint(cand), original);
        });
    }

    #[test]
    fn rearrangement_candidates_are_distinct() {
        let mut t = balanced8();
        let mut fps = HashSet::new();
        let count = for_each_rearrangement(&mut t, 3, |cand, _| {
            assert!(
                fps.insert(topology_fingerprint(cand)),
                "duplicate candidate emitted"
            );
        });
        assert_eq!(fps.len(), count);
    }

    #[test]
    fn rearrangement_restores_tree_exactly() {
        let mut t = balanced8();
        for (i, e) in t.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            t.set_length(e, 0.02 * (i + 1) as f64);
        }
        let before_splits = SplitSet::of_tree(&t, 8);
        let before_total = t.total_length();
        for radius in [1, 2, 5] {
            for_each_rearrangement(&mut t, radius, |_, _| {});
            t.check_valid().unwrap();
            assert_eq!(SplitSet::of_tree(&t, 8), before_splits, "radius {radius}");
            assert!(
                (t.total_length() - before_total).abs() < 1e-9,
                "radius {radius}"
            );
        }
    }

    #[test]
    fn larger_radius_superset_of_smaller() {
        let mut t = balanced8();
        let mut r1 = HashSet::new();
        for_each_rearrangement(&mut t, 1, |c, _| {
            r1.insert(topology_fingerprint(c));
        });
        let mut r3 = HashSet::new();
        for_each_rearrangement(&mut t, 3, |c, _| {
            r3.insert(topology_fingerprint(c));
        });
        assert!(r1.is_subset(&r3));
        assert!(r3.len() > r1.len());
    }

    #[test]
    fn radius_zero_and_tiny_trees_yield_nothing() {
        let mut t = balanced8();
        assert_eq!(for_each_rearrangement(&mut t, 0, |_, _| panic!()), 0);
        let mut t3 = Tree::triplet(0, 1, 2);
        assert_eq!(for_each_rearrangement(&mut t3, 5, |_, _| panic!()), 0);
    }

    #[test]
    fn huge_radius_covers_whole_spr_neighbourhood() {
        // With unlimited radius the neighbourhood is the full SPR set,
        // which for n = 5 has exactly 2(n-3)(2n-7) = 12 distinct
        // topologies (Allen & Steel 2001) — 12 of the 14 other trees.
        let mut t = caterpillar(5);
        let count = for_each_rearrangement(&mut t, 100, |_, _| {});
        assert_eq!(count, 12);
    }

    #[test]
    fn move_lists_match_visit_enumeration() {
        let mut t = balanced8();
        // Insertions.
        let moves = enumerate_insertion_moves(&t, 8);
        let mut visited = 0;
        for_each_insertion(&mut t, 8, |_, _| visited += 1);
        assert_eq!(moves.len(), visited);
        // SPRs: applying each move must reproduce the visited fingerprints.
        for radius in [1usize, 3] {
            let moves = enumerate_spr_moves(&t, radius);
            let mut visit_fps = Vec::new();
            for_each_rearrangement(&mut t, radius, |cand, _| {
                visit_fps.push(topology_fingerprint(cand));
            });
            assert_eq!(moves.len(), visit_fps.len(), "radius {radius}");
            for (mv, expected_fp) in moves.iter().zip(&visit_fps) {
                let mut clone = t.clone();
                apply_move(&mut clone, mv).unwrap();
                clone.check_valid().unwrap();
                assert_eq!(topology_fingerprint(&clone), *expected_fp);
            }
        }
    }

    #[test]
    fn apply_insertion_move() {
        let t = balanced8();
        let moves = enumerate_insertion_moves(&t, 9);
        assert_eq!(moves.len(), 13); // 2·8-3 edges
        let mut clone = t.clone();
        apply_move(&mut clone, &moves[0]).unwrap();
        assert_eq!(clone.num_tips(), 9);
        clone.check_valid().unwrap();
    }

    #[test]
    fn apply_move_rejects_stale_targets() {
        let t = balanced8();
        let bogus = TreeMove::Insertion {
            taxon: 9,
            at: (NodeId(0), NodeId(0)),
        };
        let mut clone = t.clone();
        assert!(apply_move(&mut clone, &bogus).is_err());
    }

    #[test]
    fn enumerate_spr_moves_leaves_tree_unchanged() {
        let t = balanced8();
        let before = topology_fingerprint(&t);
        let before_len = t.total_length();
        let _ = enumerate_spr_moves(&t, 4);
        assert_eq!(topology_fingerprint(&t), before);
        assert!((t.total_length() - before_len).abs() < 1e-12);
    }

    #[test]
    fn candidates_preserve_taxon_set() {
        let mut t = balanced8();
        let taxa = t.taxa();
        for_each_rearrangement(&mut t, 2, |cand, _| {
            assert_eq!(cand.taxa(), taxa);
        });
    }
}
