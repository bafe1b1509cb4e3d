//! The full-tree likelihood evaluator.
//!
//! This is the computation a fastDNAml *worker* performs for every tree it
//! receives: build conditional likelihood vectors over the whole tree,
//! optimize every branch length (Newton, Gauss–Seidel sweeps until the
//! lengths stabilize), and report the final log-likelihood.
//!
//! The evaluator anchors a *directional* CLV at each end of every edge:
//! `down[e]` covers the subtree on the far side of `e` from the root tip,
//! `up[e]` covers everything else. Both are computed by sweeps of the
//! CLV-combine kernel (see [`crate::kernels`]); a branch's log-likelihood
//! joins its two directional CLVs through the branch's transition
//! coefficients. Kernels are dispatched through the engine's
//! [`KernelMode`]: the blocked, division-free path by default, the scalar
//! reference oracle on request.

use crate::categories::RateCategories;
use crate::clv::{fill_tip_clv, WTerms, LN_SCALE};
use crate::f84::F84Model;
use crate::kernels::{self, KernelMode, KernelScratch, PatternWeights};
use crate::newton::NewtonOptions;
use crate::work::WorkCounter;
use fdml_phylo::alignment::Alignment;
use fdml_phylo::dna::NUM_STATES;
use fdml_phylo::patterns::PatternAlignment;
use fdml_phylo::tree::{EdgeId, NodeId, Tree};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Options controlling full-tree branch-length optimization.
#[derive(Debug, Clone, Copy)]
pub struct OptimizeOptions {
    /// Maximum Gauss–Seidel sweeps over all branches (fastDNAml's
    /// "smoothings").
    pub max_passes: usize,
    /// Stop sweeping when no branch moved more than this (absolute).
    pub length_tolerance: f64,
    /// Per-branch Newton options.
    pub newton: NewtonOptions,
}

impl Default for OptimizeOptions {
    fn default() -> OptimizeOptions {
        OptimizeOptions {
            max_passes: 8,
            length_tolerance: 1e-5,
            newton: NewtonOptions::default(),
        }
    }
}

/// Outcome of an evaluation: the log-likelihood and the work expended.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct EvalResult {
    /// Natural-log likelihood of the alignment given the tree.
    pub ln_likelihood: f64,
    /// Operation counts (consumed by the cluster simulator).
    pub work: WorkCounter,
}

/// A likelihood engine bound to one pattern-compressed alignment, one F84
/// model, and one rate-category assignment.
#[derive(Debug, Clone)]
pub struct LikelihoodEngine {
    /// Shared with the rate-scaled engines of the DNArates grid scan.
    patterns: Arc<PatternAlignment>,
    model: F84Model,
    categories: RateCategories,
    /// Tip CLVs cached per taxon (they depend on the patterns alone, so
    /// rate-scaled engines share them too).
    tip_clvs: Arc<Vec<Vec<f64>>>,
    /// The pattern weights in the objective kernels' form (shared likewise).
    weights: Arc<PatternWeights>,
    /// Which kernel implementation evaluations route through.
    mode: KernelMode,
    /// Recycled workspace buffers (optimized mode only; the reference mode
    /// allocates per call like the seed implementation it reproduces).
    pool: WorkspacePool,
}

/// Upper bound on retained workspace buffer sets. Evaluations overlap only
/// when a scorer holds its indexed workspace while re-optimizing, so a
/// handful covers every caller without hoarding memory.
const MAX_POOLED_WORKSPACES: usize = 8;

/// A lock-guarded stack of recycled [`PoolEntry`] buffer sets.
///
/// Cloning an engine starts the clone with an empty pool: pooled buffers
/// are a cache, not state.
///
/// Every hand-out moves the entry out of the pool, so two workspaces can
/// never alias one buffer set by construction; debug builds additionally
/// track each entry's lease id and assert that an id is never out twice
/// (nor returned without being out), which would catch any future
/// duplication bug before it corrupts CLVs across threads.
struct WorkspacePool {
    entries: Mutex<Vec<PoolEntry>>,
    /// Lease ids currently handed out (debug builds only).
    #[cfg(debug_assertions)]
    outstanding: Mutex<std::collections::HashSet<u64>>,
}

impl WorkspacePool {
    fn new() -> WorkspacePool {
        WorkspacePool {
            entries: Mutex::new(Vec::new()),
            #[cfg(debug_assertions)]
            outstanding: Mutex::new(std::collections::HashSet::new()),
        }
    }

    /// Hand out a buffer set: a recycled one when available, else fresh.
    fn lease(&self, categories: &RateCategories) -> PoolEntry {
        let entry = self
            .entries
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| PoolEntry::fresh(categories));
        #[cfg(debug_assertions)]
        {
            let inserted = self.outstanding.lock().unwrap().insert(entry.lease);
            assert!(
                inserted,
                "workspace buffer set {} leased twice",
                entry.lease
            );
        }
        entry
    }

    fn put(&self, entry: PoolEntry) {
        #[cfg(debug_assertions)]
        {
            let removed = self.outstanding.lock().unwrap().remove(&entry.lease);
            assert!(
                removed,
                "returned workspace buffer set {} was not leased from this pool",
                entry.lease
            );
        }
        let mut pool = self.entries.lock().unwrap();
        if pool.len() < MAX_POOLED_WORKSPACES {
            pool.push(entry);
        }
    }

    fn clear(&self) {
        self.entries.lock().unwrap().clear();
    }
}

impl Clone for WorkspacePool {
    fn clone(&self) -> WorkspacePool {
        WorkspacePool::new()
    }
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "WorkspacePool({})", self.entries.lock().unwrap().len())
    }
}

impl LikelihoodEngine {
    /// Engine with fastDNAml defaults: empirical base frequencies,
    /// transition/transversion ratio 2.0, one rate category.
    pub fn new(alignment: &Alignment) -> LikelihoodEngine {
        let patterns = PatternAlignment::compress(alignment);
        let model = F84Model::from_alignment(alignment);
        let categories = RateCategories::single(patterns.num_patterns());
        LikelihoodEngine::with_parts(patterns, model, categories)
    }

    /// Engine from explicit parts.
    pub fn with_parts(
        patterns: PatternAlignment,
        model: F84Model,
        categories: RateCategories,
    ) -> LikelihoodEngine {
        assert_eq!(
            categories.num_patterns(),
            patterns.num_patterns(),
            "rate categories must cover every pattern"
        );
        let np = patterns.num_patterns();
        let tip_clvs = (0..patterns.num_taxa())
            .map(|taxon| {
                let mut clv = vec![0.0; np * NUM_STATES];
                fill_tip_clv(&patterns, taxon, &mut clv);
                clv
            })
            .collect();
        LikelihoodEngine {
            weights: Arc::new(PatternWeights::new(patterns.weights())),
            patterns: Arc::new(patterns),
            model,
            categories,
            tip_clvs: Arc::new(tip_clvs),
            mode: KernelMode::default(),
            pool: WorkspacePool::new(),
        }
    }

    /// The same engine routed through a specific kernel implementation
    /// (used by equivalence tests and benchmark baselines).
    pub fn with_kernel_mode(mut self, mode: KernelMode) -> LikelihoodEngine {
        self.mode = mode;
        self
    }

    /// Kernel scratch bound to this engine's categories, for callers whose
    /// scratch outlives a [`Workspace`] (the scorer, the incremental CLV
    /// cache).
    pub(crate) fn kernel_scratch(&self) -> KernelScratch {
        KernelScratch::new(&self.categories)
    }

    /// Switch the kernel implementation in place.
    pub fn set_kernel_mode(&mut self, mode: KernelMode) {
        self.mode = mode;
    }

    /// The active kernel implementation.
    pub fn kernel_mode(&self) -> KernelMode {
        self.mode
    }

    /// The pattern-compressed alignment.
    pub fn patterns(&self) -> &PatternAlignment {
        &self.patterns
    }

    /// The pattern weights as the branch kernels take them
    /// ([`kernels::branch_lnl`], [`kernels::optimize_branch_dispatch`]).
    pub fn pattern_weights(&self) -> &PatternWeights {
        &self.weights
    }

    /// The substitution model.
    pub fn model(&self) -> &F84Model {
        &self.model
    }

    /// The rate categories.
    pub fn categories(&self) -> &RateCategories {
        &self.categories
    }

    /// Replace the rate categories (e.g. with DNArates estimates).
    pub fn set_categories(&mut self, categories: RateCategories) {
        assert_eq!(categories.num_patterns(), self.patterns.num_patterns());
        self.categories = categories;
        // Pooled kernel scratch carries category runs for the old
        // assignment; drop it rather than let stale runs be reused.
        self.pool.clear();
    }

    /// The cached tip CLV of one taxon.
    pub(crate) fn tip_clv(&self, taxon: u32) -> &[f64] {
        &self.tip_clvs[taxon as usize]
    }

    /// Log-likelihood of a tree with its current branch lengths.
    pub fn evaluate(&self, tree: &Tree) -> EvalResult {
        let mut ws = Workspace::new(self, tree);
        let mut work = WorkCounter::new();
        ws.compute_all_down(tree, &mut work);
        let lnl = ws.root_log_likelihood(tree, &mut work);
        work.trees_evaluated = 1;
        EvalResult {
            ln_likelihood: lnl,
            work,
        }
    }

    /// Optimize every branch length in place; returns the final
    /// log-likelihood. This is the worker's full treatment of a tree.
    pub fn optimize(&self, tree: &mut Tree, opts: &OptimizeOptions) -> EvalResult {
        let mut ws = Workspace::new(self, tree);
        let mut work = WorkCounter::new();
        ws.compute_all_down(tree, &mut work);
        for _ in 0..opts.max_passes {
            let (max_delta, _) = ws.smooth_edge(tree, ws.root_edge, opts, &mut work);
            if max_delta <= opts.length_tolerance {
                break;
            }
        }
        let lnl = ws.root_log_likelihood(tree, &mut work);
        work.trees_evaluated = 1;
        EvalResult {
            ln_likelihood: lnl,
            work,
        }
    }

    /// Per-pattern log-likelihood contributions (without pattern weights);
    /// used by the DNArates analog.
    pub fn per_pattern_log_likelihoods(&self, tree: &Tree) -> Vec<f64> {
        self.per_pattern_lnl_at_rate(tree, 1.0)
    }

    /// Per-pattern log-likelihoods with every rate multiplied by
    /// `rate_factor` (the DNArates grid scan).
    pub fn per_pattern_lnl_at_rate(&self, tree: &Tree, rate_factor: f64) -> Vec<f64> {
        let scaled;
        let engine = if (rate_factor - 1.0).abs() < 1e-15 {
            self
        } else {
            scaled = LikelihoodEngine {
                patterns: Arc::clone(&self.patterns),
                model: self.model.clone(),
                categories: self.categories.scaled(rate_factor),
                tip_clvs: Arc::clone(&self.tip_clvs),
                weights: Arc::clone(&self.weights),
                mode: self.mode,
                pool: WorkspacePool::new(),
            };
            &scaled
        };
        let mut ws = Workspace::new(engine, tree);
        let mut work = WorkCounter::new();
        ws.compute_all_down(tree, &mut work);
        ws.per_pattern_root_lnl(tree)
    }
}

/// The directional CLV buffers of one workspace, separated from the rest so
/// kernel scratch (`&mut`) and CLV reads (`&`) can borrow disjoint fields.
#[derive(Default)]
pub(crate) struct ClvBuffers {
    /// Parent node of each edge under the root orientation.
    parent: Vec<NodeId>,
    /// Child node of each edge under the root orientation.
    child: Vec<NodeId>,
    /// Taxon whose cached tip CLV backs `down[e]` (`u32::MAX` when the
    /// buffer itself holds the data). Optimized mode aliases pendant-edge
    /// CLVs to the engine's tip cache instead of copying them.
    down_tip: Vec<u32>,
    /// Same for `up[e]` (only the root pendant edge has a tip parent).
    up_tip: Vec<u32>,
    down: Vec<Vec<f64>>,
    down_scale: Vec<Vec<i32>>,
    up: Vec<Vec<f64>>,
    up_scale: Vec<Vec<i32>>,
    /// Shared all-zero scale vector backing aliased tip CLVs.
    zero_scale: Vec<i32>,
}

impl ClvBuffers {
    /// Re-key the buffers to one tree: size the per-edge tables and rebuild
    /// the orientation index. Existing CLV allocations are kept; their stale
    /// contents are fully overwritten before being read.
    fn prepare(&mut self, cap: usize, order: &[(NodeId, EdgeId, NodeId)]) {
        self.down.resize_with(cap, Vec::new);
        self.down_scale.resize_with(cap, Vec::new);
        self.up.resize_with(cap, Vec::new);
        self.up_scale.resize_with(cap, Vec::new);
        self.parent.clear();
        self.parent.resize(cap, NodeId(u32::MAX));
        self.child.clear();
        self.child.resize(cap, NodeId(u32::MAX));
        self.down_tip.clear();
        self.down_tip.resize(cap, u32::MAX);
        self.up_tip.clear();
        self.up_tip.resize(cap, u32::MAX);
        for &(c, e, p) in order {
            self.parent[e.0 as usize] = p;
            self.child[e.0 as usize] = c;
        }
    }

    /// The `down` CLV of edge `ei` with its scale counts, resolving tip
    /// aliases to the engine's cached tip vectors.
    fn down_of<'a>(&'a self, engine: &'a LikelihoodEngine, ei: usize) -> (&'a [f64], &'a [i32]) {
        match self.down_tip[ei] {
            u32::MAX => (&self.down[ei], &self.down_scale[ei]),
            taxon => (engine.tip_clv(taxon), &self.zero_scale),
        }
    }

    /// The `up` CLV of edge `ei` with its scale counts (see [`Self::down_of`]).
    fn up_of<'a>(&'a self, engine: &'a LikelihoodEngine, ei: usize) -> (&'a [f64], &'a [i32]) {
        match self.up_tip[ei] {
            u32::MAX => (&self.up[ei], &self.up_scale[ei]),
            taxon => (engine.tip_clv(taxon), &self.zero_scale),
        }
    }

    /// The directional CLV of edge `e` anchored at `anchor` (an endpoint of
    /// `e`), covering `anchor`'s component when `e` is cut. Requires both
    /// sweeps to have run on the tree these buffers were prepared for.
    pub(crate) fn directional<'a>(
        &'a self,
        engine: &'a LikelihoodEngine,
        e: EdgeId,
        anchor: NodeId,
    ) -> (&'a [f64], &'a [i32]) {
        let ei = e.0 as usize;
        if self.child[ei] == anchor {
            self.down_of(engine, ei)
        } else {
            debug_assert_eq!(self.parent[ei], anchor);
            self.up_of(engine, ei)
        }
    }
}

/// Source of unique [`PoolEntry`] lease ids (shared by every pool; only
/// uniqueness matters, not density).
static NEXT_LEASE: AtomicU64 = AtomicU64::new(1);

/// One recycled buffer set: CLVs plus the per-workspace kernel state.
struct PoolEntry {
    clvs: ClvBuffers,
    wterms: Vec<WTerms>,
    scratch: KernelScratch,
    /// Unique id backing the pool's debug double-hand-out assertion.
    lease: u64,
}

impl PoolEntry {
    fn fresh(categories: &RateCategories) -> PoolEntry {
        PoolEntry {
            clvs: ClvBuffers::default(),
            wterms: Vec::new(),
            scratch: KernelScratch::new(categories),
            lease: NEXT_LEASE.fetch_add(1, Ordering::Relaxed),
        }
    }
}

/// Directional-CLV workspace for one tree.
pub(crate) struct Workspace<'e> {
    engine: &'e LikelihoodEngine,
    /// Root tip (lowest taxon) and its pendant edge.
    root: NodeId,
    root_edge: EdgeId,
    /// Postorder of directed steps (child, edge, parent) toward `root`.
    order: Vec<(NodeId, EdgeId, NodeId)>,
    /// Per-edge CLV storage and orientation index.
    clvs: ClvBuffers,
    /// Scratch for W-terms.
    wterms: Vec<WTerms>,
    /// Reusable kernel state (category runs + coefficient tables).
    scratch: KernelScratch,
    /// Lease id of the pooled buffer set (see [`WorkspacePool`]).
    lease: u64,
}

impl<'e> Workspace<'e> {
    pub(crate) fn new(engine: &'e LikelihoodEngine, tree: &Tree) -> Workspace<'e> {
        let np = engine.patterns.num_patterns();
        let root = tree
            .tips()
            .min_by_key(|&(_, t)| t)
            .expect("tree must have tips")
            .0;
        let root_edge = tree.incident_edges(root)[0];
        let order = tree.postorder_toward(root);
        let cap = tree.edge_capacity();
        let entry = if engine.mode == KernelMode::Optimized {
            engine.pool.lease(&engine.categories)
        } else {
            // Reference mode reproduces the seed's allocate-per-call
            // behavior and never recycles through the pool.
            PoolEntry::fresh(&engine.categories)
        };
        let PoolEntry {
            mut clvs,
            mut wterms,
            scratch,
            lease,
        } = entry;
        clvs.prepare(cap, &order);
        if engine.mode == KernelMode::Optimized && clvs.zero_scale.len() != np {
            clvs.zero_scale.clear();
            clvs.zero_scale.resize(np, 0);
        }
        if wterms.len() != np {
            wterms.clear();
            wterms.resize(np, WTerms::ZERO);
        }
        Workspace {
            engine,
            root,
            root_edge,
            order,
            clvs,
            wterms,
            scratch,
            lease,
        }
    }

    fn np(&self) -> usize {
        self.engine.patterns.num_patterns()
    }

    /// Compute `down[e]` for every edge, children before parents.
    pub(crate) fn compute_all_down(&mut self, tree: &Tree, work: &mut WorkCounter) {
        for i in 0..self.order.len() {
            let (c, e, _) = self.order[i];
            self.compute_down_edge(tree, c, e, work);
        }
    }

    /// Compute `up[e]` for every edge, parents before children (requires
    /// `compute_all_down` to have run).
    pub(crate) fn compute_all_up(&mut self, tree: &Tree, work: &mut WorkCounter) {
        for i in (0..self.order.len()).rev() {
            let (_, e, _) = self.order[i];
            self.compute_up_edge(tree, e, work);
        }
    }

    /// Extract the computed CLV buffers, consuming the workspace view.
    /// The incremental cache owns its CLVs across tasks instead of
    /// borrowing the engine; `Drop` still recycles the remaining (emptied)
    /// pooled parts, which `prepare` re-sizes on reuse.
    pub(crate) fn into_clv_buffers(mut self) -> ClvBuffers {
        std::mem::take(&mut self.clvs)
    }

    /// Recompute `down[e]` (anchored at its child `c`) from the children of
    /// `c`, or from the tip vector when `c` is a tip.
    fn compute_down_edge(&mut self, tree: &Tree, c: NodeId, e: EdgeId, work: &mut WorkCounter) {
        let np = self.np();
        let ei = e.0 as usize;
        let engine = self.engine;
        if let Some(taxon) = tree.taxon(c) {
            if engine.mode == KernelMode::Optimized {
                // Zero-copy: the pendant CLV aliases the engine's cached
                // tip vector; scale counts alias the shared zero vector.
                self.clvs.down_tip[ei] = taxon;
            } else {
                // Seed behavior: copy the tip CLV into this edge's buffer,
                // reusing its allocation.
                let dst = &mut self.clvs.down[ei];
                dst.clear();
                dst.extend_from_slice(engine.tip_clv(taxon));
                let sc = &mut self.clvs.down_scale[ei];
                sc.clear();
                sc.resize(np, 0);
            }
            return;
        }
        let mut kids = edges_below(tree, c, e);
        let (Some(f1), Some(f2)) = (kids.next(), kids.next()) else {
            unreachable!("an internal node has two edges below it");
        };
        let mut out = std::mem::take(&mut self.clvs.down[ei]);
        let mut out_scale = std::mem::take(&mut self.clvs.down_scale[ei]);
        out.resize(np * NUM_STATES, 0.0);
        out_scale.resize(np, 0);
        let (clv1, sc1) = self.clvs.down_of(engine, f1.0 as usize);
        let (clv2, sc2) = self.clvs.down_of(engine, f2.0 as usize);
        work.clv_pattern_updates += kernels::combine_edges(
            engine.mode,
            &engine.model,
            &engine.categories,
            &mut self.scratch,
            tree.length(f1),
            clv1,
            sc1,
            tree.length(f2),
            clv2,
            sc2,
            &mut out,
            &mut out_scale,
        );
        self.clvs.down[ei] = out;
        self.clvs.down_scale[ei] = out_scale;
    }

    /// Recompute `up[e]` (anchored at its parent `p`) from `p`'s other
    /// edges, or from the tip vector when `p` is a tip (the root).
    fn compute_up_edge(&mut self, tree: &Tree, e: EdgeId, work: &mut WorkCounter) {
        let np = self.np();
        let ei = e.0 as usize;
        let p = self.clvs.parent[ei];
        let engine = self.engine;
        if let Some(taxon) = tree.taxon(p) {
            if engine.mode == KernelMode::Optimized {
                self.clvs.up_tip[ei] = taxon;
            } else {
                let dst = &mut self.clvs.up[ei];
                dst.clear();
                dst.extend_from_slice(engine.tip_clv(taxon));
                let sc = &mut self.clvs.up_scale[ei];
                sc.clear();
                sc.resize(np, 0);
            }
            return;
        }
        // p's other two edges: either down-edges (p is their parent) or p's
        // own rootward edge (p is its child) whose far CLV is `up`.
        let mut others = [(usize::MAX, 0.0f64, false); 2];
        let mut nk = 0;
        for (f, _) in tree.neighbors(p) {
            if f != e {
                let fi = f.0 as usize;
                others[nk] = (fi, tree.length(f), self.clvs.parent[fi] == p);
                nk += 1;
            }
        }
        debug_assert_eq!(nk, 2);
        // When p is the far edge's parent, the far CLV is that edge's down;
        // when p is its child (p's own rootward edge), the far CLV is up.
        let (f1, f1_down) = (others[0].0, others[0].2);
        let (f2, f2_down) = (others[1].0, others[1].2);
        let mut out = std::mem::take(&mut self.clvs.up[ei]);
        let mut out_scale = std::mem::take(&mut self.clvs.up_scale[ei]);
        out.resize(np * NUM_STATES, 0.0);
        out_scale.resize(np, 0);
        let (clv1, sc1) = if f1_down {
            self.clvs.down_of(engine, f1)
        } else {
            self.clvs.up_of(engine, f1)
        };
        let (clv2, sc2) = if f2_down {
            self.clvs.down_of(engine, f2)
        } else {
            self.clvs.up_of(engine, f2)
        };
        work.clv_pattern_updates += kernels::combine_edges(
            engine.mode,
            &engine.model,
            &engine.categories,
            &mut self.scratch,
            others[0].1,
            clv1,
            sc1,
            others[1].1,
            clv2,
            sc2,
            &mut out,
            &mut out_scale,
        );
        self.clvs.up[ei] = out;
        self.clvs.up_scale[ei] = out_scale;
    }

    /// One Gauss–Seidel sweep over `e` and the subtree below it (from the
    /// root edge: the whole tree): preorder down, optimizing each branch
    /// with a fresh `up` CLV, then rebuilding `down` CLVs on the way back
    /// up. Returns the largest length change there and whether any of
    /// those lengths changed a bit.
    ///
    /// `down[e]` is a function of the lengths strictly below `e` alone and
    /// is current when a pass starts (`compute_all_down`, then every pass
    /// that moved one of them), so it is recombined only when one of them
    /// moved in this pass — the skip is exact.
    fn smooth_edge(
        &mut self,
        tree: &mut Tree,
        e: EdgeId,
        opts: &OptimizeOptions,
        work: &mut WorkCounter,
    ) -> (f64, bool) {
        let (t0, t) = self.optimize_edge(tree, e, opts, work);
        let mut max_delta = (t - t0).abs();
        let mut below_moved = false;
        let c = self.clvs.child[e.0 as usize];
        for f in edges_below(tree, c, e) {
            let (delta, moved) = self.smooth_edge(tree, f, opts, work);
            max_delta = max_delta.max(delta);
            below_moved |= moved;
        }
        if below_moved {
            self.compute_down_edge(tree, c, e, work);
        }
        (max_delta, below_moved || t.to_bits() != t0.to_bits())
    }

    /// Refresh `up[e]` and optimize the length of `e` between its two
    /// directional CLVs. Returns the length before and after.
    fn optimize_edge(
        &mut self,
        tree: &mut Tree,
        e: EdgeId,
        opts: &OptimizeOptions,
        work: &mut WorkCounter,
    ) -> (f64, f64) {
        let ei = e.0 as usize;
        self.compute_up_edge(tree, e, work);
        let engine = self.engine;
        let (up_clv, _) = self.clvs.up_of(engine, ei);
        let (down_clv, _) = self.clvs.down_of(engine, ei);
        work.loglik_pattern_evals += kernels::compute_w_terms(
            engine.mode,
            &engine.model,
            up_clv,
            down_clv,
            &mut self.wterms,
        );
        let t0 = tree.length(e);
        let t = kernels::optimize_branch_dispatch(
            engine.mode,
            &engine.model,
            &engine.categories,
            &mut self.scratch,
            &self.wterms,
            &engine.weights,
            t0,
            &opts.newton,
            work,
        );
        tree.set_length(e, t);
        (t0, t)
    }

    /// Final log-likelihood at the root pendant edge.
    fn root_log_likelihood(&mut self, tree: &Tree, work: &mut WorkCounter) -> f64 {
        let ei = self.root_edge.0 as usize;
        let engine = self.engine;
        // up[root_edge] is the root tip vector.
        let root_taxon = tree.taxon(self.root).expect("root is a tip");
        let tip = engine.tip_clv(root_taxon);
        let (down_clv, down_sc) = self.clvs.down_of(engine, ei);
        work.loglik_pattern_evals +=
            kernels::compute_w_terms(engine.mode, &engine.model, tip, down_clv, &mut self.wterms);
        kernels::branch_lnl(
            engine.mode,
            &engine.model,
            &engine.categories,
            &mut self.scratch,
            tree.length(self.root_edge),
            &self.wterms,
            &engine.weights,
            down_sc,
        )
    }

    /// Per-pattern (unweighted) root log-likelihoods (no branch scaling).
    fn per_pattern_root_lnl(&mut self, tree: &Tree) -> Vec<f64> {
        let ei = self.root_edge.0 as usize;
        let engine = self.engine;
        let root_taxon = tree.taxon(self.root).expect("root is a tip");
        let tip = engine.tip_clv(root_taxon);
        let (down_clv, down_sc) = self.clvs.down_of(engine, ei);
        kernels::compute_w_terms(engine.mode, &engine.model, tip, down_clv, &mut self.wterms);
        // Cold path (one call per rate scan); the per-call allocation is fine.
        let co = crate::reference::branch_coefficients(
            &engine.model,
            &engine.categories,
            tree.length(self.root_edge),
        );
        self.wterms
            .iter()
            .enumerate()
            .map(|(p, w)| {
                let c = &co[engine.categories.category_of(p)];
                let f = (c.c1 * w.w1 + c.c2 * w.w2 + c.c3 * w.w3).max(f64::MIN_POSITIVE);
                f.ln() + down_sc[p] as f64 * LN_SCALE
            })
            .collect()
    }
}

/// The edges of `c` other than `e`, its rootward one: two when `c` is
/// internal, none when it is a tip. Owned, so the tree can be edited while
/// they are walked.
fn edges_below(tree: &Tree, c: NodeId, e: EdgeId) -> impl Iterator<Item = EdgeId> {
    let mut kids = [None; 2];
    let others = tree.incident_edges(c).iter().filter(|&&f| f != e);
    for (slot, &f) in kids.iter_mut().zip(others) {
        *slot = Some(f);
    }
    kids.into_iter().flatten()
}

impl Drop for Workspace<'_> {
    /// Recycle the buffer set through the engine's pool (optimized mode
    /// only; the reference mode frees per call like the seed).
    fn drop(&mut self) {
        if self.engine.mode == KernelMode::Optimized {
            self.engine.pool.put(PoolEntry {
                clvs: std::mem::take(&mut self.clvs),
                wterms: std::mem::take(&mut self.wterms),
                scratch: std::mem::take(&mut self.scratch),
                lease: self.lease,
            });
        }
    }
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // 4×4 matrix index math reads clearest
mod tests {
    use super::*;
    use fdml_phylo::dna::Nucleotide;
    use fdml_phylo::tree::DEFAULT_BRANCH_LENGTH;
    use rand::rngs::StdRng;
    use rand::{RngExt, SeedableRng};

    /// Independent brute-force likelihood: per original site, recursive
    /// summation with full 4×4 transition matrices, no pattern compression,
    /// no scaling, no three-term decomposition.
    fn brute_force_lnl(engine: &LikelihoodEngine, alignment: &Alignment, tree: &Tree) -> f64 {
        fn subtree_lnl(
            model: &F84Model,
            alignment: &Alignment,
            tree: &Tree,
            site: usize,
            rate: f64,
            node: NodeId,
            via: EdgeId,
        ) -> [f64; 4] {
            if let Some(taxon) = tree.taxon(node) {
                let mask: Nucleotide = alignment.sequence(taxon)[site];
                let mut v = [0.0; 4];
                for s in 0..4 {
                    v[s] = if mask.allows(s) { 1.0 } else { 0.0 };
                }
                return v;
            }
            let mut out = [1.0f64; 4];
            for (e, next) in tree.neighbors(node) {
                if e == via {
                    continue;
                }
                let sub = subtree_lnl(model, alignment, tree, site, rate, next, e);
                let p = model.transition_matrix(tree.length(e), rate);
                for s in 0..4 {
                    let mut acc = 0.0;
                    for (x, sx) in sub.iter().enumerate() {
                        acc += p[s][x] * sx;
                    }
                    out[s] *= acc;
                }
            }
            out
        }
        let model = engine.model();
        let root = tree.tips().min_by_key(|&(_, t)| t).unwrap().0;
        let e0 = tree.incident_edges(root)[0];
        let c0 = tree.other_end(e0, root);
        let mut lnl = 0.0;
        for site in 0..alignment.num_sites() {
            let pattern = engine.patterns().pattern_of_site(site) as usize;
            let rate = engine.categories().rate_of_pattern(pattern);
            let below = subtree_lnl(model, alignment, tree, site, rate, c0, e0);
            let p = model.transition_matrix(tree.length(e0), rate);
            let root_mask = alignment.sequence(tree.taxon(root).unwrap())[site];
            let mut total = 0.0;
            for s in 0..4 {
                if !root_mask.allows(s) {
                    continue;
                }
                let mut acc = 0.0;
                for (x, bx) in below.iter().enumerate() {
                    acc += p[s][x] * bx;
                }
                total += model.freqs[s] * acc;
            }
            lnl += total.ln();
        }
        lnl
    }

    fn five_taxon_case() -> (Alignment, Tree) {
        let a = Alignment::from_strings(&[
            ("t0", "ACGTACGTACGTTTGA"),
            ("t1", "ACGTACGAACGTTTGA"),
            ("t2", "ACGTTCGAACGATTGA"),
            ("t3", "CCGTTCGAACGATAGA"),
            ("t4", "CCGTTCGAACNATAG-"),
        ])
        .unwrap();
        let mut t = Tree::triplet(0, 1, 2);
        let e = t.incident_edges(t.tip_of(2).unwrap())[0];
        t.insert_taxon(3, e).unwrap();
        let e = t.incident_edges(t.tip_of(3).unwrap())[0];
        t.insert_taxon(4, e).unwrap();
        for (i, e) in t.edge_ids().collect::<Vec<_>>().into_iter().enumerate() {
            t.set_length(e, 0.05 + 0.03 * i as f64);
        }
        (a, t)
    }

    #[test]
    fn evaluate_matches_brute_force() {
        let (a, t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let fast = engine.evaluate(&t).ln_likelihood;
        let brute = brute_force_lnl(&engine, &a, &t);
        assert!((fast - brute).abs() < 1e-8, "fast {fast} vs brute {brute}");
    }

    #[test]
    fn evaluate_matches_brute_force_with_categories() {
        let (a, t) = five_taxon_case();
        let patterns = PatternAlignment::compress(&a);
        let np = patterns.num_patterns();
        let assignment: Vec<u32> = (0..np as u32).map(|p| p % 3).collect();
        let cats = RateCategories::new(vec![0.3, 1.0, 2.5], assignment);
        let engine = LikelihoodEngine::with_parts(patterns, F84Model::from_alignment(&a), cats);
        let fast = engine.evaluate(&t).ln_likelihood;
        let brute = brute_force_lnl(&engine, &a, &t);
        assert!((fast - brute).abs() < 1e-8, "fast {fast} vs brute {brute}");
    }

    #[test]
    fn compression_preserves_likelihood() {
        let (a, t) = five_taxon_case();
        let compressed = LikelihoodEngine::new(&a);
        let uncompressed = LikelihoodEngine::with_parts(
            PatternAlignment::uncompressed(&a),
            F84Model::from_alignment(&a),
            RateCategories::single(a.num_sites()),
        );
        let l1 = compressed.evaluate(&t).ln_likelihood;
        let l2 = uncompressed.evaluate(&t).ln_likelihood;
        assert!((l1 - l2).abs() < 1e-9);
        // Compression does less work.
        assert!(
            compressed.evaluate(&t).work.clv_pattern_updates
                < uncompressed.evaluate(&t).work.clv_pattern_updates
        );
    }

    #[test]
    fn pair_tree_evaluation_works() {
        let a = Alignment::from_strings(&[("x", "ACGTACGT"), ("y", "ACGTACGA")]).unwrap();
        let engine = LikelihoodEngine::new(&a);
        let t = Tree::pair(0, 1);
        let r = engine.evaluate(&t);
        assert!(r.ln_likelihood.is_finite() && r.ln_likelihood < 0.0);
    }

    #[test]
    fn optimize_improves_and_converges() {
        let (a, mut t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let before = engine.evaluate(&t).ln_likelihood;
        let opts = OptimizeOptions::default();
        let after = engine.optimize(&mut t, &opts).ln_likelihood;
        assert!(
            after >= before - 1e-9,
            "optimize must not reduce lnL: {before} → {after}"
        );
        // Idempotence: a second optimization barely moves.
        let mut t2 = t.clone();
        let again = engine.optimize(&mut t2, &opts).ln_likelihood;
        assert!((again - after).abs() < 1e-3, "{after} vs {again}");
    }

    #[test]
    fn optimized_lengths_match_jukes_cantor_formula() {
        // Uniform frequencies + unachievable tt-ratio degenerate to JC.
        // For two sequences with proportion p of differing sites, the ML
        // distance is -(3/4)·ln(1 - 4p/3).
        let n = 400;
        let k = 60; // differing sites
        let s1 = "A".repeat(n);
        let s2 = format!("{}{}", "C".repeat(k), "A".repeat(n - k));
        let a = Alignment::from_strings(&[("x", &s1), ("y", &s2)]).unwrap();
        let engine = LikelihoodEngine::with_parts(
            PatternAlignment::compress(&a),
            F84Model::uniform(0.5),
            RateCategories::single(PatternAlignment::compress(&a).num_patterns()),
        );
        let mut t = Tree::pair(0, 1);
        let opts = OptimizeOptions {
            max_passes: 20,
            length_tolerance: 1e-10,
            newton: NewtonOptions {
                max_iters: 60,
                tolerance: 1e-12,
            },
        };
        engine.optimize(&mut t, &opts);
        let p = k as f64 / n as f64;
        let expected = -0.75 * (1.0 - 4.0 * p / 3.0).ln();
        let e = t.edge_ids().next().unwrap();
        assert!(
            (t.length(e) - expected).abs() < 1e-3,
            "JC distance: expected {expected}, got {}",
            t.length(e)
        );
    }

    #[test]
    fn likelihood_invariant_under_construction_order() {
        // Same topology assembled two ways must evaluate identically.
        let (a, _) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let names: Vec<String> = a.names().to_vec();
        let newick = "((t0:0.1,t1:0.2):0.05,(t2:0.15,t3:0.1):0.07,t4:0.3);";
        let t1 = fdml_phylo::newick::parse_tree_with_names(newick, &names).unwrap();
        // Same tree, serialized and re-parsed.
        let text = fdml_phylo::newick::write_tree(&t1, &names);
        let t2 = fdml_phylo::newick::parse_tree_with_names(&text, &names).unwrap();
        let l1 = engine.evaluate(&t1).ln_likelihood;
        let l2 = engine.evaluate(&t2).ln_likelihood;
        assert!((l1 - l2).abs() < 1e-9);
    }

    #[test]
    fn rate_doubling_equals_length_doubling() {
        let (a, t) = five_taxon_case();
        let patterns = PatternAlignment::compress(&a);
        let np = patterns.num_patterns();
        let model = F84Model::from_alignment(&a);
        let double_rate = LikelihoodEngine::with_parts(
            patterns.clone(),
            model.clone(),
            RateCategories::new(vec![2.0], vec![0; np]),
        );
        let unit_rate = LikelihoodEngine::with_parts(patterns, model, RateCategories::single(np));
        let mut t2 = t.clone();
        for e in t2.edge_ids().collect::<Vec<_>>() {
            let len = t2.length(e);
            t2.set_length(e, len * 2.0);
        }
        let l1 = double_rate.evaluate(&t).ln_likelihood;
        let l2 = unit_rate.evaluate(&t2).ln_likelihood;
        assert!((l1 - l2).abs() < 1e-9);
    }

    #[test]
    fn large_tree_does_not_underflow() {
        // 120-taxon caterpillar with identical-ish sequences: without
        // scaling, per-pattern likelihoods would underflow f64.
        let n = 120usize;
        let rows: Vec<(String, String)> = (0..n)
            .map(|i| {
                let mut s = "ACGTACGTACGTACGTACGT".to_string();
                // a couple of taxon-specific substitutions
                if i % 3 == 0 {
                    s.replace_range(0..1, "T");
                }
                if i % 5 == 0 {
                    s.replace_range(4..5, "C");
                }
                (format!("t{i}"), s)
            })
            .collect();
        let row_refs: Vec<(&str, &str)> =
            rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        let a = Alignment::from_strings(&row_refs).unwrap();
        let mut t = Tree::triplet(0, 1, 2);
        for taxon in 3..n as u32 {
            let e = t.incident_edges(t.tip_of(taxon - 1).unwrap())[0];
            t.insert_taxon(taxon, e).unwrap();
        }
        for e in t.edge_ids().collect::<Vec<_>>() {
            t.set_length(e, 1e-4);
        }
        let engine = LikelihoodEngine::new(&a);
        let r = engine.evaluate(&t);
        assert!(
            r.ln_likelihood.is_finite(),
            "lnL must stay finite: {}",
            r.ln_likelihood
        );
        assert!(r.ln_likelihood < 0.0);
    }

    #[test]
    fn per_pattern_lnl_sums_to_total() {
        let (a, t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let per = engine.per_pattern_log_likelihoods(&t);
        let total: f64 = per
            .iter()
            .zip(engine.patterns().weights())
            .map(|(l, &w)| l * w as f64)
            .sum();
        let direct = engine.evaluate(&t).ln_likelihood;
        assert!((total - direct).abs() < 1e-9);
    }

    #[test]
    fn per_pattern_rate_scan_brackets_optimum() {
        // At very small and very large global rates the likelihood drops.
        let (a, mut t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        engine.optimize(&mut t, &OptimizeOptions::default());
        let sum = |v: Vec<f64>| -> f64 {
            v.iter()
                .zip(engine.patterns().weights())
                .map(|(l, &w)| l * w as f64)
                .sum()
        };
        let tiny = sum(engine.per_pattern_lnl_at_rate(&t, 1e-3));
        let mid = sum(engine.per_pattern_lnl_at_rate(&t, 1.0));
        let huge = sum(engine.per_pattern_lnl_at_rate(&t, 100.0));
        assert!(
            mid > tiny && mid > huge,
            "tiny {tiny}, mid {mid}, huge {huge}"
        );
    }

    #[test]
    fn work_counters_populate() {
        let (a, mut t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let r = engine.optimize(&mut t, &OptimizeOptions::default());
        assert!(r.work.clv_pattern_updates > 0);
        assert!(r.work.newton_pattern_iters > 0);
        assert!(r.work.loglik_pattern_evals > 0);
        assert_eq!(r.work.trees_evaluated, 1);
        assert!(r.work.work_units() > 0);
    }

    #[test]
    fn pooled_workspace_reuse_is_deterministic() {
        // The optimized mode recycles workspace buffers through the
        // engine's pool; repeated evaluations — including across trees of
        // different sizes, where the pooled per-edge tables are re-keyed —
        // must reproduce a fresh engine's results exactly.
        let (a, t) = five_taxon_case();
        let engine = LikelihoodEngine::new(&a);
        let first = engine.evaluate(&t).ln_likelihood;
        for _ in 0..3 {
            assert_eq!(engine.evaluate(&t).ln_likelihood, first);
        }
        // A smaller tree over the same alignment (taxa subset) between two
        // full-size evaluations exercises pool entries shrinking/growing.
        let small = Tree::triplet(0, 1, 2);
        let small_first = engine.evaluate(&small).ln_likelihood;
        assert_eq!(engine.evaluate(&t).ln_likelihood, first);
        assert_eq!(engine.evaluate(&small).ln_likelihood, small_first);
        // And a fresh engine (empty pool) agrees bit-for-bit.
        let fresh = LikelihoodEngine::new(&a);
        assert_eq!(fresh.evaluate(&t).ln_likelihood, first);
        assert_eq!(fresh.evaluate(&small).ln_likelihood, small_first);
    }

    impl Workspace<'_> {
        /// `smooth_edge` as it was before it skipped anything: every
        /// internal edge's `down` is recombined on the way back up.
        fn smooth_edge_recombining(
            &mut self,
            tree: &mut Tree,
            e: EdgeId,
            opts: &OptimizeOptions,
            work: &mut WorkCounter,
        ) -> f64 {
            let (t0, t) = self.optimize_edge(tree, e, opts, work);
            let mut max_delta = (t - t0).abs();
            let c = self.clvs.child[e.0 as usize];
            if tree.is_internal(c) {
                for f in edges_below(tree, c, e) {
                    max_delta = max_delta.max(self.smooth_edge_recombining(tree, f, opts, work));
                }
                self.compute_down_edge(tree, c, e, work);
            }
            max_delta
        }
    }

    /// `LikelihoodEngine::optimize` over [`Workspace::smooth_edge_recombining`].
    fn optimize_recombining(
        engine: &LikelihoodEngine,
        tree: &mut Tree,
        opts: &OptimizeOptions,
    ) -> EvalResult {
        let mut ws = Workspace::new(engine, tree);
        let mut work = WorkCounter::new();
        ws.compute_all_down(tree, &mut work);
        for _ in 0..opts.max_passes {
            let max_delta = ws.smooth_edge_recombining(tree, ws.root_edge, opts, &mut work);
            if max_delta <= opts.length_tolerance {
                break;
            }
        }
        let ln_likelihood = ws.root_log_likelihood(tree, &mut work);
        work.trees_evaluated = 1;
        EvalResult {
            ln_likelihood,
            work,
        }
    }

    /// Sequences with phylogenetic signal: every taxon is a mutated copy
    /// of an earlier one.
    fn related_alignment(rng: &mut StdRng, taxa: usize, sites: usize) -> Alignment {
        const BASES: [char; 4] = ['A', 'C', 'G', 'T'];
        let mut rows: Vec<Vec<char>> = Vec::new();
        for t in 0..taxa {
            let row = match t {
                0 => (0..sites)
                    .map(|_| BASES[rng.random_range(0..4usize)])
                    .collect(),
                _ => rows[rng.random_range(0..t)]
                    .iter()
                    .map(|&b| match rng.random_range(0..100u32) {
                        0..15 => BASES[rng.random_range(0..4usize)],
                        _ => b,
                    })
                    .collect(),
            };
            rows.push(row);
        }
        let rows: Vec<(String, String)> = rows
            .iter()
            .enumerate()
            .map(|(t, row)| (format!("t{t}"), row.iter().collect()))
            .collect();
        let refs: Vec<(&str, &str)> = rows.iter().map(|(n, s)| (n.as_str(), s.as_str())).collect();
        Alignment::from_strings(&refs).unwrap()
    }

    /// Insert `taxon` at a random edge (default pendant length).
    fn insert_at_random(rng: &mut StdRng, tree: &mut Tree, taxon: u32) {
        let edges: Vec<EdgeId> = tree.edge_ids().collect();
        tree.insert_taxon(taxon, edges[rng.random_range(0..edges.len())])
            .unwrap();
    }

    #[test]
    fn skipping_clean_down_clvs_is_exact() {
        let opts = OptimizeOptions::default();
        let mut rng = StdRng::seed_from_u64(0xD0);
        // 300 and 400 sites span more than one fold block.
        for (taxa, sites) in [
            (4usize, 300),
            (5, 60),
            (9, 120),
            (17, 400),
            (33, 90),
            (60, 150),
        ] {
            let a = related_alignment(&mut rng, taxa, sites);
            let patterns = PatternAlignment::compress(&a);
            let np = patterns.num_patterns();
            let mut cold = Tree::triplet(0, 1, 2);
            for taxon in 3..taxa as u32 - 1 {
                insert_at_random(&mut rng, &mut cold, taxon);
            }
            // Warm: the search's candidate, an optimized base plus one
            // insertion. Cold: the same topology at default lengths.
            let mut warm = cold.clone();
            if taxa > 4 {
                LikelihoodEngine::new(&a).optimize(&mut warm, &opts);
            }
            let at = rng.random_range(0..cold.edge_ids().count());
            for tree in [&mut cold, &mut warm] {
                let e = tree.edge_ids().nth(at).unwrap();
                tree.insert_taxon(taxa as u32 - 1, e).unwrap();
            }
            for ncat in [1usize, 4] {
                let cats = match ncat {
                    1 => RateCategories::single(np),
                    _ => RateCategories::new(
                        vec![0.3, 0.8, 1.4, 2.6],
                        (0..np).map(|_| rng.random_range(0..4u32)).collect(),
                    ),
                };
                let base = LikelihoodEngine::with_parts(
                    patterns.clone(),
                    F84Model::from_alignment(&a),
                    cats,
                );
                for mode in [KernelMode::Optimized, KernelMode::Reference] {
                    let engine = base.clone().with_kernel_mode(mode);
                    for (start, tree) in [("cold", &cold), ("warm", &warm)] {
                        let tag = format!(
                            "{taxa} taxa, {np} patterns, {ncat} categories, {mode:?}, {start}"
                        );
                        let (mut got, mut want) = (tree.clone(), tree.clone());
                        let skipping = engine.optimize(&mut got, &opts);
                        let recombining = optimize_recombining(&engine, &mut want, &opts);
                        assert_eq!(
                            fdml_phylo::newick::write_tree(&got, a.names()),
                            fdml_phylo::newick::write_tree(&want, a.names()),
                            "{tag}"
                        );
                        for e in got.edge_ids() {
                            assert_eq!(got.length(e).to_bits(), want.length(e).to_bits(), "{tag}");
                        }
                        assert_eq!(
                            skipping.ln_likelihood.to_bits(),
                            recombining.ln_likelihood.to_bits(),
                            "{tag}"
                        );
                        let (s, r) = (skipping.work, recombining.work);
                        assert_eq!(s.newton_pattern_iters, r.newton_pattern_iters, "{tag}");
                        assert_eq!(s.loglik_pattern_evals, r.loglik_pattern_evals, "{tag}");
                        assert!(s.clv_pattern_updates <= r.clv_pattern_updates, "{tag}");
                        // A small tree can move every subtree in every
                        // pass; from 17 taxa on, some always sit still.
                        if taxa >= 17 {
                            assert!(s.clv_pattern_updates < r.clv_pattern_updates, "{tag}");
                        }
                    }
                }
            }
        }
    }

    #[test]
    fn a_pass_that_moves_nothing_recombines_nothing() {
        // Smooth to the fixed point — every branch's first Newton step
        // within tolerance, so every length keeps its bits — and look at
        // that last pass: it refreshes the `up` CLVs and not one `down`.
        let mut rng = StdRng::seed_from_u64(0xF1);
        let a = related_alignment(&mut rng, 12, 200);
        let mut tree = Tree::triplet(0, 1, 2);
        for taxon in 3..12 {
            insert_at_random(&mut rng, &mut tree, taxon);
        }
        let engine = LikelihoodEngine::new(&a);
        let np = engine.patterns().num_patterns() as u64;
        let opts = OptimizeOptions::default();
        let mut ws = Workspace::new(&engine, &tree);
        let mut work = WorkCounter::new();
        ws.compute_all_down(&tree, &mut work);
        let up_combines = tree.edge_ids().count() as u64 - 1;
        let still = (0..64).any(|_| {
            let before = work.clv_pattern_updates;
            let (max_delta, _) = ws.smooth_edge(&mut tree, ws.root_edge, &opts, &mut work);
            let combines = (work.clv_pattern_updates - before) / np;
            assert!(combines >= up_combines);
            if max_delta == 0.0 {
                assert_eq!(combines, up_combines);
            }
            max_delta == 0.0
        });
        assert!(still, "no fixed point in 64 passes");
        // The fixed point's CLVs are current: the likelihood read off them
        // is the one a fresh workspace computes.
        let lnl = ws.root_log_likelihood(&tree, &mut work);
        assert_eq!(
            lnl.to_bits(),
            engine.evaluate(&tree).ln_likelihood.to_bits()
        );
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "leased twice")]
    fn pool_detects_double_hand_out() {
        let pool = WorkspacePool::new();
        let cats = RateCategories::single(4);
        let first = pool.lease(&cats);
        // Forge an entry aliasing `first`'s lease id and sneak it into the
        // idle stack: handing the same id out twice must trip the debug
        // assertion before two workspaces could share buffers.
        let mut forged = PoolEntry::fresh(&cats);
        forged.lease = first.lease;
        pool.entries.lock().unwrap().push(forged);
        let _second = pool.lease(&cats);
    }

    #[cfg(debug_assertions)]
    #[test]
    #[should_panic(expected = "not leased")]
    fn pool_rejects_unleased_return() {
        let pool = WorkspacePool::new();
        let cats = RateCategories::single(4);
        pool.put(PoolEntry::fresh(&cats));
    }

    #[test]
    fn default_branch_length_constant_sane() {
        // Constant relationship, but pinned here so a constants change
        // cannot silently break insertion defaults.
        let (lo, hi) = (
            crate::newton::MIN_BRANCH_LENGTH,
            crate::newton::MAX_BRANCH_LENGTH,
        );
        assert!((lo..hi).contains(&DEFAULT_BRANCH_LENGTH));
    }
}
