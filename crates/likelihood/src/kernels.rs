//! Optimized likelihood kernels: division-free, allocation-free, blocked,
//! and runtime-dispatched.
//!
//! This module is the default implementation behind
//! [`crate::engine::LikelihoodEngine`]; the original scalar code lives in
//! [`crate::reference`] and serves as the equivalence oracle and benchmark
//! baseline. Six transformations separate the two:
//!
//! 1. **Folded coefficients** ([`EdgeCoefficients`]): the per-branch F84
//!    triple `(c1, c2, c3)` is precomputed per rate category with
//!    `c2/π_R` and `c2/π_Y` folded in, so the propagation inner loop is
//!    pure multiply-adds — the reference kernel divides twice per pattern.
//! 2. **Reusable scratch** ([`KernelScratch`], [`JunctionScratch`]): the
//!    coefficient tables, category runs, and junction buffers are owned by
//!    the caller's workspace and refilled in place, eliminating the
//!    per-call `Vec` allocations of `reference::branch_coefficients` —
//!    most importantly from the per-iteration Newton objective.
//! 3. **Blocked, category-run iteration**: patterns sharing a rate category
//!    form maximal runs ([`CategoryRun`]), so the per-pattern category
//!    lookup disappears from the hot loops and coefficients stay in
//!    registers; the underflow-rescaling check is deferred out of the
//!    multiply-add loop and performed in blocks of [`SCALE_CHECK_BLOCK`]
//!    patterns, with a branch-free fast path when no pattern underflows.
//!    Newton's per-pattern `ln` — the dominant cost of branch-length
//!    optimization — is replaced by a running product in mantissa/exponent
//!    form ([`LnProd`]) that takes a single `ln` per evaluation.
//! 4. **Runtime ISA dispatch** ([`crate::isa`]): the CLV-combine span
//!    kernel selects scalar / AVX2+FMA / AVX-512 (x86-64) or NEON
//!    (aarch64), and the W-term kernel scalar / AVX2+FMA / AVX-512, per
//!    the host's detected features, one probe per process. Every vector
//!    lane performs the exact scalar multiply-add DAG per pattern
//!    (vertical packed ops only), so lane selection never changes a bit
//!    of output.
//! 5. **The canonical fold cut** ([`PAR_BLOCK`]): the likelihood folds cut
//!    pattern space into fixed [`PAR_BLOCK`]-pattern blocks, fold each
//!    block into a partial of its own and merge the partials in block
//!    order. Where the cut falls decides where [`LnProd`] renormalizes, so
//!    it is part of what defines the lnL bits: a function of the pattern
//!    count alone, and changed only with the WAL's numerics epoch. The
//!    combine and W-term kernels are pure per-pattern maps whose rescale
//!    windows are aligned to pattern 0, so they take the whole range at
//!    once.
//! 6. **Two-phase objective** ([`lnl_d012_folded`], [`branch_lnl_folded`]):
//!    a block of one rate category and mostly distinct columns is taken a
//!    stage of 4 patterns at a time.
//!    Everything a pattern contributes on its own — `f`, its
//!    mantissa/exponent split, `w·f'/f`, `w·(f''/f − (f'/f)²)` — is
//!    computed for the stage in one branch-free loop over unit-stride
//!    planes ([`WPlanes`]; phase 1); what is left is a reduction that
//!    visits the patterns in order (phase 2: one multiply and three adds
//!    each), software-pipelined against phase 1 of the next stage. The
//!    reduction order is the scalar loop's, so no likelihood bit moves.
//!    Blocks of any other shape keep the scalar loop, which is as fast on
//!    them.
//!
//! Work accounting is unchanged: both paths count one unit per pattern per
//! kernel invocation, so `WorkCounter` totals are comparable across
//! [`KernelMode::Optimized`] and [`KernelMode::Reference`] runs — and
//! across ISAs.

use crate::categories::RateCategories;
use crate::clv::{WTerms, LN_SCALE, SCALE_FACTOR, SCALE_THRESHOLD};
use crate::f84::{Coefficients, CoefficientsD2, F84Model};
use crate::isa;
use crate::newton::{self, NewtonOptions};
use crate::reference;
use crate::work::WorkCounter;
use fdml_phylo::dna::{A, C, G, T};

/// How many patterns the deferred underflow scan covers per block.
pub const SCALE_CHECK_BLOCK: usize = 32;

/// Patterns per block of the likelihood folds — the canonical cut; see
/// point 5 of the module docs. 256 patterns: a multiple of
/// [`SCALE_CHECK_BLOCK`] and of the widest SIMD quad (8).
pub const PAR_BLOCK: usize = 256;

/// How many [`PAR_BLOCK`] blocks cover `np` patterns.
fn block_count(np: usize) -> usize {
    np.div_ceil(PAR_BLOCK)
}

/// The pattern range of block `b` over `np` patterns.
fn block_range(b: usize, np: usize) -> (usize, usize) {
    let lo = b * PAR_BLOCK;
    (lo, (lo + PAR_BLOCK).min(np))
}

/// Which kernel implementation an engine routes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum KernelMode {
    /// The blocked, division-free kernels in this module (the default).
    #[default]
    Optimized,
    /// The scalar oracle in [`crate::reference`] — the seed implementation,
    /// kept selectable for equivalence tests and benchmark baselines.
    Reference,
}

/// One branch's F84 coefficients for one rate category, with the group
/// divisions pre-folded: `c2r = c2/π_R`, `c2y = c2/π_Y`.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FoldedCoefficients {
    /// Identity-term weight.
    pub c1: f64,
    /// Raw within-group weight (needed where the likelihood itself uses
    /// `c2`, e.g. against W-terms that already carry the division).
    pub c2: f64,
    /// `c2 / π_R`.
    pub c2r: f64,
    /// `c2 / π_Y`.
    pub c2y: f64,
    /// Equilibrium-term weight.
    pub c3: f64,
}

/// Per-category folded coefficients for one branch at one length, refilled
/// in place (no allocation after the first fill at a given category count).
#[derive(Debug, Clone, Default)]
pub struct EdgeCoefficients {
    per_cat: Vec<FoldedCoefficients>,
}

impl EdgeCoefficients {
    /// An empty table; call [`EdgeCoefficients::fill`] before use.
    pub fn new() -> EdgeCoefficients {
        EdgeCoefficients::default()
    }

    /// Recompute the table for a branch of length `t`.
    pub fn fill(&mut self, model: &F84Model, cats: &RateCategories, t: f64) {
        let inv_r = model.inv_freq_r();
        let inv_y = model.inv_freq_y();
        self.per_cat.clear();
        self.per_cat.extend((0..cats.num_categories()).map(|c| {
            let co = model.coefficients(t, cats.rate(c));
            FoldedCoefficients {
                c1: co.c1,
                c2: co.c2,
                c2r: co.c2 * inv_r,
                c2y: co.c2 * inv_y,
                c3: co.c3,
            }
        }));
    }

    /// The folded coefficients, indexed by category.
    pub fn per_cat(&self) -> &[FoldedCoefficients] {
        &self.per_cat
    }
}

/// Per-category value/d1/d2 coefficient triples for one branch, refilled in
/// place each Newton iteration (replacing a per-iteration `Vec` collect).
#[derive(Debug, Clone, Default)]
pub struct EdgeDerivCoefficients {
    per_cat: Vec<CoefficientsD2>,
}

impl EdgeDerivCoefficients {
    /// Recompute the table for a branch of length `t`.
    pub fn fill(&mut self, model: &F84Model, cats: &RateCategories, t: f64) {
        self.per_cat.clear();
        self.per_cat
            .extend((0..cats.num_categories()).map(|c| model.coefficients_d2(t, cats.rate(c))));
    }

    /// The coefficient triples, indexed by category.
    pub fn per_cat(&self) -> &[CoefficientsD2] {
        &self.per_cat
    }
}

/// A maximal run of consecutive patterns sharing one rate category.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CategoryRun {
    /// First pattern of the run.
    pub start: usize,
    /// One past the last pattern of the run.
    pub end: usize,
    /// The shared category index.
    pub category: usize,
}

/// Decompose a category assignment into maximal constant-category runs.
pub fn category_runs(cats: &RateCategories) -> Vec<CategoryRun> {
    let mut runs = Vec::new();
    fill_category_runs(cats, &mut runs);
    runs
}

fn fill_category_runs(cats: &RateCategories, out: &mut Vec<CategoryRun>) {
    out.clear();
    let assignment = cats.assignment();
    let mut p = 0;
    while p < assignment.len() {
        let category = assignment[p] as usize;
        let start = p;
        while p < assignment.len() && assignment[p] as usize == category {
            p += 1;
        }
        out.push(CategoryRun {
            start,
            end: p,
            category,
        });
    }
}

/// The pattern weights as the kernels read them, derived once per
/// alignment (a [`crate::engine::LikelihoodEngine`] builds its own and
/// shares it with the rate-scaled engines) instead of once per
/// pattern-iteration: the counts, and the same numbers as `f64` — phase 1
/// of the objective multiplies the derivative terms by them.
#[derive(Debug, Clone)]
pub struct PatternWeights {
    raw: Vec<u32>,
    as_f64: Vec<f64>,
}

impl PatternWeights {
    /// Derive the constants of one weight vector.
    pub fn new(weights: &[u32]) -> PatternWeights {
        PatternWeights {
            raw: weights.to_vec(),
            as_f64: weights.iter().map(|&w| w as f64).collect(),
        }
    }

    /// The weights themselves, one count per pattern.
    pub fn raw(&self) -> &[u32] {
        &self.raw
    }
}

/// The W-terms of one branch as three planes — every `w1`, every `w2`,
/// every `w3` — so that phase 1 of the objective reads unit-stride. A
/// branch's W-terms are assembled once and its objective evaluated at every
/// Newton iteration, so the dispatchers re-lay them out once per branch
/// ([`KernelScratch`] owns the buffer).
#[derive(Debug, Clone, Default)]
pub struct WPlanes {
    w1: Vec<f64>,
    w2: Vec<f64>,
    w3: Vec<f64>,
}

impl WPlanes {
    /// The planes of `w`.
    pub fn new(w: &[WTerms]) -> WPlanes {
        let mut planes = WPlanes::default();
        planes.fill(w);
        planes
    }

    /// Refill in place (no allocation once sized).
    pub fn fill(&mut self, w: &[WTerms]) {
        for plane in [&mut self.w1, &mut self.w2, &mut self.w3] {
            plane.resize(w.len(), 0.0);
        }
        let planes = self.w1.iter_mut().zip(&mut self.w2).zip(&mut self.w3);
        for (((w1, w2), w3), terms) in planes.zip(w) {
            (*w1, *w2, *w3) = (terms.w1, terms.w2, terms.w3);
        }
    }

    /// How many patterns the planes hold.
    pub fn len(&self) -> usize {
        self.w1.len()
    }

    /// Whether the planes hold no pattern.
    pub fn is_empty(&self) -> bool {
        self.w1.is_empty()
    }
}

/// Reusable per-workspace kernel state: the category-run decomposition,
/// coefficient tables for the (at most two) branches of one kernel call,
/// and the planes of the branch whose objective is being evaluated.
///
/// The `Default` value is an inert placeholder (no runs, no pattern maxes)
/// left behind when a workspace's scratch is recycled; build usable scratch
/// with [`KernelScratch::new`].
#[derive(Debug, Clone, Default)]
pub struct KernelScratch {
    runs: Vec<CategoryRun>,
    co_a: EdgeCoefficients,
    co_b: EdgeCoefficients,
    deriv: EdgeDerivCoefficients,
    maxes: Vec<f64>,
    planes: WPlanes,
}

impl KernelScratch {
    /// Scratch bound to one category assignment (the runs are computed
    /// once here; a `RateCategories` is immutable for the scratch's
    /// lifetime).
    pub fn new(cats: &RateCategories) -> KernelScratch {
        KernelScratch {
            runs: category_runs(cats),
            co_a: EdgeCoefficients::new(),
            co_b: EdgeCoefficients::new(),
            deriv: EdgeDerivCoefficients::default(),
            maxes: vec![0.0; cats.num_patterns()],
            planes: WPlanes::default(),
        }
    }

    /// The category runs.
    pub fn runs(&self) -> &[CategoryRun] {
        &self.runs
    }
}

/// Reusable buffers for three-way junction scoring (`scorer`): the paired
/// CLV, its scale counts, the total-scale buffer, and the W-terms.
#[derive(Debug, Clone)]
pub struct JunctionScratch {
    /// Combined CLV of two junction arms.
    pub pair_clv: Vec<f64>,
    /// Scale counts of `pair_clv`.
    pub pair_scale: Vec<i32>,
    /// `pair_scale + third arm's scale`, for the final likelihood.
    pub scale_total: Vec<i32>,
    /// W-terms between `pair_clv` and the third arm.
    pub wterms: Vec<WTerms>,
}

impl JunctionScratch {
    /// Buffers sized for `np` patterns.
    pub fn new(np: usize) -> JunctionScratch {
        JunctionScratch {
            pair_clv: vec![0.0; np * 4],
            pair_scale: vec![0; np],
            scale_total: vec![0; np],
            wterms: vec![WTerms::ZERO; np],
        }
    }
}

/// A running product `Π f_p^{w_p}` kept as `mantissa · 2^exponent` (plus a
/// plain log-space accumulator for oversized powers), so the branch
/// log-likelihood needs one `ln` per *evaluation* instead of one per
/// pattern.
#[derive(Debug, Clone, Copy)]
pub struct LnProd {
    mantissa: f64,
    exponent: i64,
    extra: f64,
}

/// Largest weight folded into the product via `powi`; beyond this the
/// pattern falls back to `w·ln f` directly (accuracy of `powi` degrades and
/// the fallback is rare enough not to matter).
const POW_LIMIT: u32 = 512;

const MANTISSA_MASK: u64 = 0x000f_ffff_ffff_ffff;
const ONE_EXPONENT: u64 = 0x3ff0_0000_0000_0000;

impl LnProd {
    /// The empty product (value 1, log 0).
    #[allow(clippy::new_without_default)]
    pub fn new() -> LnProd {
        LnProd {
            mantissa: 1.0,
            exponent: 0,
            extra: 0.0,
        }
    }

    #[inline]
    fn renormalize(&mut self) {
        let bits = self.mantissa.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        if e != 0 {
            self.mantissa = f64::from_bits((bits & MANTISSA_MASK) | ONE_EXPONENT);
            self.exponent += e;
        }
    }

    /// Multiply `f^w` into the product. `f` must be positive, finite, and
    /// normal (callers clamp with `max(f64::MIN_POSITIVE)`).
    #[inline]
    pub fn mul_pow(&mut self, f: f64, w: u32) {
        debug_assert!(f >= f64::MIN_POSITIVE && f.is_finite());
        if w == 0 {
            return;
        }
        let bits = f.to_bits();
        let e = ((bits >> 52) & 0x7ff) as i64 - 1023;
        let m = f64::from_bits((bits & MANTISSA_MASK) | ONE_EXPONENT);
        if w == 1 {
            // The common case (pattern weight 1): one multiply, and a
            // renormalize only when the mantissa has drifted far enough
            // that another factor in [1,2) could eventually overflow.
            self.mantissa *= m;
            self.exponent += e;
            if self.mantissa >= 1e128 {
                self.renormalize();
            }
        } else if w <= POW_LIMIT {
            // m ∈ [1,2) and w ≤ 512, so m^w ≤ 2^512 — representable, but
            // keep the running mantissa small around it.
            self.renormalize();
            self.mantissa *= m.powi(w as i32);
            self.exponent += e * w as i64;
            self.renormalize();
        } else {
            self.extra += w as f64 * f.ln();
        }
    }

    /// Multiply another accumulated product in: mantissas multiply,
    /// exponents and log-space accumulators add. This is the merge step of
    /// the fixed-order block reduction. Merging a partial into the identity
    /// is bitwise exact (`1.0 * m == m`, `0 + e == e`, `0.0 + x == x` for
    /// the non-negative-zero values that occur here), so a single-block
    /// fold is bit-identical to the plain serial fold — which is what
    /// keeps historical likelihood bits stable for alignments of at most
    /// [`PAR_BLOCK`] patterns.
    #[inline]
    pub fn merge(&mut self, other: &LnProd) {
        self.mantissa *= other.mantissa;
        self.exponent += other.exponent;
        self.extra += other.extra;
        if self.mantissa >= 1e128 {
            self.renormalize();
        }
    }

    /// `ln` of the accumulated product.
    pub fn value(&self) -> f64 {
        self.mantissa.ln() + self.exponent as f64 * std::f64::consts::LN_2 + self.extra
    }
}

/// Fold `(f, w)` factors through [`LnProd`] in independent chunks of
/// `block` factors, merging the per-chunk partials in chunk order — the
/// reduction shape of the likelihood folds (whose chunk is [`PAR_BLOCK`]
/// patterns). A `block` of at least `factors.len()` degenerates to the
/// plain serial fold, bit for bit.
/// Exposed for the determinism proptests.
pub fn blocked_ln_prod(factors: &[(f64, u32)], block: usize) -> LnProd {
    assert!(block > 0, "block size must be positive");
    let mut total = LnProd::new();
    for chunk in factors.chunks(block) {
        let mut partial = LnProd::new();
        for &(f, w) in chunk {
            partial.mul_pow(f, w);
        }
        total.merge(&partial);
    }
    total
}

/// One pattern of division-free CLV propagation-and-product (the scalar
/// form; also the tail/fallback of the vectorized span kernels). Returns
/// the pattern's maximum entry, feeding the deferred rescale scan without a
/// second pass over the output.
#[inline]
fn combine_pattern(
    freqs: &[f64; 4],
    ca: &FoldedCoefficients,
    cb: &FoldedCoefficients,
    l1: &[f64],
    l2: &[f64],
    op: &mut [f64],
) -> f64 {
    let (fa, fc, fg, ft) = (freqs[A], freqs[C], freqs[G], freqs[T]);
    let sr1 = fa.mul_add(l1[A], fg * l1[G]);
    let sy1 = fc.mul_add(l1[C], ft * l1[T]);
    let s1 = sr1 + sy1;
    let wr1 = ca.c2r.mul_add(sr1, ca.c3 * s1);
    let wy1 = ca.c2y.mul_add(sy1, ca.c3 * s1);
    let sr2 = fa.mul_add(l2[A], fg * l2[G]);
    let sy2 = fc.mul_add(l2[C], ft * l2[T]);
    let s2 = sr2 + sy2;
    let wr2 = cb.c2r.mul_add(sr2, cb.c3 * s2);
    let wy2 = cb.c2y.mul_add(sy2, cb.c3 * s2);
    op[A] = ca.c1.mul_add(l1[A], wr1) * cb.c1.mul_add(l2[A], wr2);
    op[C] = ca.c1.mul_add(l1[C], wy1) * cb.c1.mul_add(l2[C], wy2);
    op[G] = ca.c1.mul_add(l1[G], wr1) * cb.c1.mul_add(l2[G], wr2);
    op[T] = ca.c1.mul_add(l1[T], wy1) * cb.c1.mul_add(l2[T], wy2);
    op[A].max(op[C]).max(op[G]).max(op[T])
}

/// Propagate-and-multiply one constant-category span of patterns, recording
/// each pattern's maximum entry in `maxes` (one slot per pattern).
/// Dispatches through [`crate::isa::active`] to the widest lane the host
/// supports — 8-pattern AVX-512, 4-pattern AVX2+FMA, 2-pattern NEON — with
/// the scalar pattern loop covering the tail and the scalar lane. Every
/// lane performs the identical per-pattern multiply-add DAG, so the output
/// bits do not depend on the dispatch decision.
fn combine_span(
    model: &F84Model,
    ca: &FoldedCoefficients,
    cb: &FoldedCoefficients,
    x1: &[f64],
    x2: &[f64],
    out: &mut [f64],
    maxes: &mut [f64],
) {
    let freqs = &model.freqs;
    let done = match isa::active() {
        // Safety: `isa::active` only ever returns a lane the running host
        // supports (detection probes the CPU; overrides are validated).
        #[cfg(target_arch = "x86_64")]
        isa::KernelIsa::Avx512 => unsafe {
            x86::combine_span_avx512(freqs, ca, cb, x1, x2, out, maxes)
        },
        #[cfg(target_arch = "x86_64")]
        isa::KernelIsa::Avx2 => unsafe {
            x86::combine_span_avx2(freqs, ca, cb, x1, x2, out, maxes)
        },
        #[cfg(target_arch = "aarch64")]
        isa::KernelIsa::Neon => unsafe {
            neon::combine_span_neon(freqs, ca, cb, x1, x2, out, maxes)
        },
        _ => 0,
    };
    for (((l1, l2), op), mx) in x1[done..]
        .chunks_exact(4)
        .zip(x2[done..].chunks_exact(4))
        .zip(out[done..].chunks_exact_mut(4))
        .zip(maxes[done / 4..].iter_mut())
    {
        *mx = combine_pattern(freqs, ca, cb, l1, l2, op);
    }
}

/// Explicitly vectorized x86-64 kernels, compiled unconditionally behind
/// `#[target_feature]` and selected at runtime by [`crate::isa`]. The CLV
/// layout is pattern-major (`[A,C,G,T]` per pattern), so cross-pattern SIMD
/// needs a transpose to state-major registers; after that every step is a
/// vertical packed multiply-add over 4 (AVX2) or 8 (AVX-512) patterns at
/// once, which the scalar form's per-pattern horizontal reductions (`sr`,
/// `sy`) prevent the autovectorizer from discovering on its own.
#[cfg(target_arch = "x86_64")]
mod x86 {
    use super::FoldedCoefficients;
    use crate::clv::WTerms;
    use core::arch::x86_64::*;

    /// 4×4 transpose: four pattern rows → four state lanes (or back).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn transpose4(r0: __m256d, r1: __m256d, r2: __m256d, r3: __m256d) -> [__m256d; 4] {
        let t0 = _mm256_unpacklo_pd(r0, r1); // [r0.0 r1.0 r0.2 r1.2]
        let t1 = _mm256_unpackhi_pd(r0, r1); // [r0.1 r1.1 r0.3 r1.3]
        let t2 = _mm256_unpacklo_pd(r2, r3);
        let t3 = _mm256_unpackhi_pd(r2, r3);
        [
            _mm256_permute2f128_pd(t0, t2, 0x20),
            _mm256_permute2f128_pd(t1, t3, 0x20),
            _mm256_permute2f128_pd(t0, t2, 0x31),
            _mm256_permute2f128_pd(t1, t3, 0x31),
        ]
    }

    /// Load four consecutive patterns and transpose to state-major lanes
    /// `[vA, vC, vG, vT]`.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn load4(src: *const f64) -> [__m256d; 4] {
        let r0 = _mm256_loadu_pd(src);
        let r1 = _mm256_loadu_pd(src.add(4));
        let r2 = _mm256_loadu_pd(src.add(8));
        let r3 = _mm256_loadu_pd(src.add(12));
        transpose4(r0, r1, r2, r3)
    }

    /// Propagate four patterns of one child through its branch:
    /// state-major lanes in, state-major propagated lanes out.
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn propagate4(
        co: &FoldedCoefficients,
        f: [__m256d; 4],
        v: [__m256d; 4],
    ) -> [__m256d; 4] {
        let [va, vc, vg, vt] = v;
        let [fa, fc, fg, ft] = f;
        let sr = _mm256_fmadd_pd(fa, va, _mm256_mul_pd(fg, vg));
        let sy = _mm256_fmadd_pd(fc, vc, _mm256_mul_pd(ft, vt));
        let s = _mm256_add_pd(sr, sy);
        let c1 = _mm256_set1_pd(co.c1);
        let c3s = _mm256_mul_pd(_mm256_set1_pd(co.c3), s);
        let wr = _mm256_fmadd_pd(_mm256_set1_pd(co.c2r), sr, c3s);
        let wy = _mm256_fmadd_pd(_mm256_set1_pd(co.c2y), sy, c3s);
        [
            _mm256_fmadd_pd(c1, va, wr),
            _mm256_fmadd_pd(c1, vc, wy),
            _mm256_fmadd_pd(c1, vg, wr),
            _mm256_fmadd_pd(c1, vt, wy),
        ]
    }

    /// The combine kernel over `x1.len()/4` patterns, four at a time, with
    /// per-pattern maxima recorded into `maxes` while the products are
    /// still in state-major registers (three packed `max` ops per quad).
    /// Returns how many *doubles* were processed (a multiple of 16); the
    /// caller's scalar loop finishes the remainder.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; the three CLV slices must share
    /// one length with `maxes` covering a quarter of it.
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn combine_span_avx2(
        freqs: &[f64; 4],
        ca: &FoldedCoefficients,
        cb: &FoldedCoefficients,
        x1: &[f64],
        x2: &[f64],
        out: &mut [f64],
        maxes: &mut [f64],
    ) -> usize {
        let quads = x1.len() / 16;
        let f = [
            _mm256_set1_pd(freqs[0]),
            _mm256_set1_pd(freqs[1]),
            _mm256_set1_pd(freqs[2]),
            _mm256_set1_pd(freqs[3]),
        ];
        for q in 0..quads {
            let base = q * 16;
            // Safety: `base + 16 <= x1.len()` and the three slices share
            // that length by the kernel's contract.
            let p1 = propagate4(ca, f, load4(x1.as_ptr().add(base)));
            let p2 = propagate4(cb, f, load4(x2.as_ptr().add(base)));
            let oa = _mm256_mul_pd(p1[0], p2[0]);
            let oc = _mm256_mul_pd(p1[1], p2[1]);
            let og = _mm256_mul_pd(p1[2], p2[2]);
            let ot = _mm256_mul_pd(p1[3], p2[3]);
            let vmax = _mm256_max_pd(_mm256_max_pd(oa, oc), _mm256_max_pd(og, ot));
            _mm256_storeu_pd(maxes.as_mut_ptr().add(q * 4), vmax);
            let rows = transpose4(oa, oc, og, ot);
            let dst = out.as_mut_ptr().add(base);
            _mm256_storeu_pd(dst, rows[0]);
            _mm256_storeu_pd(dst.add(4), rows[1]);
            _mm256_storeu_pd(dst.add(8), rows[2]);
            _mm256_storeu_pd(dst.add(12), rows[3]);
        }
        quads * 16
    }

    /// Three planes `[w1; 4]`, `[w2; 4]`, `[w3; 4]` stored as four `WTerms`
    /// (`[w1 w2 w3]` per pattern, 12 doubles).
    #[inline]
    #[target_feature(enable = "avx2,fma")]
    unsafe fn store_w4(dst: *mut f64, w1: __m256d, w2: __m256d, w3: __m256d) {
        let m0 = _mm256_shuffle_pd(w1, w2, 0b0000); // a0 b0 | a2 b2
        let m1 = _mm256_shuffle_pd(w3, w1, 0b1010); // c0 a1 | c2 a3
        let m2 = _mm256_shuffle_pd(w2, w3, 0b1111); // b1 c1 | b3 c3
        _mm256_storeu_pd(dst, _mm256_permute2f128_pd(m0, m1, 0x20));
        _mm256_storeu_pd(dst.add(4), _mm256_permute2f128_pd(m2, m0, 0x30));
        _mm256_storeu_pd(dst.add(8), _mm256_permute2f128_pd(m1, m2, 0x31));
    }

    /// W-term assembly over `out.len()/4` quads — the scalar DAG of
    /// [`super::w_terms_pattern`], four wide. Returns how many *patterns*
    /// were processed.
    ///
    /// # Safety
    /// The host must support AVX2 and FMA; `u` and `d` hold four doubles
    /// per element of `out`.
    #[target_feature(enable = "avx2,fma")]
    pub unsafe fn w_terms_avx2(
        freqs: &[f64; 4],
        inv_r: f64,
        inv_y: f64,
        u: &[f64],
        d: &[f64],
        out: &mut [WTerms],
    ) -> usize {
        let quads = out.len() / 4;
        let [fa, fc, fg, ft] = [
            _mm256_set1_pd(freqs[0]),
            _mm256_set1_pd(freqs[1]),
            _mm256_set1_pd(freqs[2]),
            _mm256_set1_pd(freqs[3]),
        ];
        for q in 0..quads {
            // Safety: `q * 16 + 16 <= u.len()` by the quad count.
            let [ua, uc, ug, ut] = load4(u.as_ptr().add(q * 16));
            let [da, dc, dg, dt] = load4(d.as_ptr().add(q * 16));
            let w1 = _mm256_fmadd_pd(
                _mm256_mul_pd(fa, ua),
                da,
                _mm256_fmadd_pd(
                    _mm256_mul_pd(fc, uc),
                    dc,
                    _mm256_fmadd_pd(
                        _mm256_mul_pd(fg, ug),
                        dg,
                        _mm256_mul_pd(_mm256_mul_pd(ft, ut), dt),
                    ),
                ),
            );
            let ur = _mm256_fmadd_pd(fa, ua, _mm256_mul_pd(fg, ug));
            let uy = _mm256_fmadd_pd(fc, uc, _mm256_mul_pd(ft, ut));
            let dr = _mm256_fmadd_pd(fa, da, _mm256_mul_pd(fg, dg));
            let dy = _mm256_fmadd_pd(fc, dc, _mm256_mul_pd(ft, dt));
            let w2 = _mm256_fmadd_pd(
                _mm256_mul_pd(ur, dr),
                _mm256_set1_pd(inv_r),
                _mm256_mul_pd(_mm256_mul_pd(uy, dy), _mm256_set1_pd(inv_y)),
            );
            let w3 = _mm256_mul_pd(_mm256_add_pd(ur, uy), _mm256_add_pd(dr, dy));
            store_w4(out.as_mut_ptr().add(q * 4).cast(), w1, w2, w3);
        }
        quads * 4
    }

    /// An AVX-512 permutation index vector.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn idx8(i: [i64; 8]) -> __m512i {
        _mm512_setr_epi64(i[0], i[1], i[2], i[3], i[4], i[5], i[6], i[7])
    }

    /// Propagate eight patterns of one child through its branch — the same
    /// multiply-add DAG as [`propagate4`], two registers wider.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn propagate8(
        co: &FoldedCoefficients,
        f: [__m512d; 4],
        v: [__m512d; 4],
    ) -> [__m512d; 4] {
        let [va, vc, vg, vt] = v;
        let [fa, fc, fg, ft] = f;
        let sr = _mm512_fmadd_pd(fa, va, _mm512_mul_pd(fg, vg));
        let sy = _mm512_fmadd_pd(fc, vc, _mm512_mul_pd(ft, vt));
        let s = _mm512_add_pd(sr, sy);
        let c1 = _mm512_set1_pd(co.c1);
        let c3s = _mm512_mul_pd(_mm512_set1_pd(co.c3), s);
        let wr = _mm512_fmadd_pd(_mm512_set1_pd(co.c2r), sr, c3s);
        let wy = _mm512_fmadd_pd(_mm512_set1_pd(co.c2y), sy, c3s);
        [
            _mm512_fmadd_pd(c1, va, wr),
            _mm512_fmadd_pd(c1, vc, wy),
            _mm512_fmadd_pd(c1, vg, wr),
            _mm512_fmadd_pd(c1, vt, wy),
        ]
    }

    /// Load eight consecutive pattern-major patterns (`[A C G T]` each) and
    /// transpose to state-major lanes `[vA, vC, vG, vT]`: four two-source
    /// permutes split row pairs into `[A×4 C×4]` / `[G×4 T×4]`, four more
    /// splice the halves into eight-lane state vectors.
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn load8(src: *const f64) -> [__m512d; 4] {
        let lo = idx8([0, 4, 8, 12, 1, 5, 9, 13]);
        let hi = idx8([2, 6, 10, 14, 3, 7, 11, 15]);
        let merge_lo = idx8([0, 1, 2, 3, 8, 9, 10, 11]);
        let merge_hi = idx8([4, 5, 6, 7, 12, 13, 14, 15]);
        let r0 = _mm512_loadu_pd(src);
        let r1 = _mm512_loadu_pd(src.add(8));
        let r2 = _mm512_loadu_pd(src.add(16));
        let r3 = _mm512_loadu_pd(src.add(24));
        let s_lo = _mm512_permutex2var_pd(r0, lo, r1); // A0..A3 C0..C3
        let s_hi = _mm512_permutex2var_pd(r0, hi, r1); // G0..G3 T0..T3
        let u_lo = _mm512_permutex2var_pd(r2, lo, r3); // A4..A7 C4..C7
        let u_hi = _mm512_permutex2var_pd(r2, hi, r3);
        [
            _mm512_permutex2var_pd(s_lo, merge_lo, u_lo), // vA
            _mm512_permutex2var_pd(s_lo, merge_hi, u_lo), // vC
            _mm512_permutex2var_pd(s_hi, merge_lo, u_hi), // vG
            _mm512_permutex2var_pd(s_hi, merge_hi, u_hi), // vT
        ]
    }

    /// The combine kernel over eight patterns at a time (AVX-512F). The
    /// 8×4 pattern-major ↔ state-major transposes are pairs of two-source
    /// permutes (`vpermt2pd`), eight per direction. Returns how many
    /// *doubles* were processed (a multiple of 32).
    ///
    /// # Safety
    /// The host must support AVX-512F; slice contract as for
    /// [`combine_span_avx2`].
    #[allow(clippy::too_many_arguments)]
    #[target_feature(enable = "avx512f")]
    pub unsafe fn combine_span_avx512(
        freqs: &[f64; 4],
        ca: &FoldedCoefficients,
        cb: &FoldedCoefficients,
        x1: &[f64],
        x2: &[f64],
        out: &mut [f64],
        maxes: &mut [f64],
    ) -> usize {
        let octets = x1.len() / 32;
        let f = [
            _mm512_set1_pd(freqs[0]),
            _mm512_set1_pd(freqs[1]),
            _mm512_set1_pd(freqs[2]),
            _mm512_set1_pd(freqs[3]),
        ];
        // Scatter indices for the inverse transpose (see the store below).
        let pair = idx8([0, 8, 1, 9, 2, 10, 3, 11]);
        let pair_hi = idx8([4, 12, 5, 13, 6, 14, 7, 15]);
        let quad_lo = idx8([0, 1, 8, 9, 2, 3, 10, 11]);
        let quad_hi = idx8([4, 5, 12, 13, 6, 7, 14, 15]);
        for o in 0..octets {
            let base = o * 32;
            // Safety: `base + 32 <= x1.len()` by the octet count.
            let p1 = propagate8(ca, f, load8(x1.as_ptr().add(base)));
            let p2 = propagate8(cb, f, load8(x2.as_ptr().add(base)));
            let oa = _mm512_mul_pd(p1[0], p2[0]);
            let oc = _mm512_mul_pd(p1[1], p2[1]);
            let og = _mm512_mul_pd(p1[2], p2[2]);
            let ot = _mm512_mul_pd(p1[3], p2[3]);
            let vmax = _mm512_max_pd(_mm512_max_pd(oa, oc), _mm512_max_pd(og, ot));
            _mm512_storeu_pd(maxes.as_mut_ptr().add(o * 8), vmax);
            // Inverse transpose: interleave (A,C) and (G,T) per pattern,
            // then splice AC pairs with GT pairs into pattern-major rows.
            let ac_lo = _mm512_permutex2var_pd(oa, pair, oc); // A0 C0 .. A3 C3
            let ac_hi = _mm512_permutex2var_pd(oa, pair_hi, oc);
            let gt_lo = _mm512_permutex2var_pd(og, pair, ot);
            let gt_hi = _mm512_permutex2var_pd(og, pair_hi, ot);
            let dst = out.as_mut_ptr().add(base);
            _mm512_storeu_pd(dst, _mm512_permutex2var_pd(ac_lo, quad_lo, gt_lo));
            _mm512_storeu_pd(dst.add(8), _mm512_permutex2var_pd(ac_lo, quad_hi, gt_lo));
            _mm512_storeu_pd(dst.add(16), _mm512_permutex2var_pd(ac_hi, quad_lo, gt_hi));
            _mm512_storeu_pd(dst.add(24), _mm512_permutex2var_pd(ac_hi, quad_hi, gt_hi));
        }
        octets * 32
    }

    /// Three planes `[w1; 8]`, `[w2; 8]`, `[w3; 8]` stored as eight `WTerms`
    /// (24 doubles).
    #[inline]
    #[target_feature(enable = "avx512f")]
    unsafe fn store_w8(dst: *mut f64, w1: __m512d, w2: __m512d, w3: __m512d) {
        // Rows `a0 b0 c0 a1 b1 c1 a2 b2`, `c2 a3 b3 c3 a4 b4 c4 a5`,
        // `b5 c5 a6 b6 c6 a7 b7 c7` (a = w1, b = w2, c = w3): interleave
        // w1 with w2 at their final lanes, then drop w3 into the gaps.
        let r0 = _mm512_permutex2var_pd(w1, idx8([0, 8, 0, 1, 9, 0, 2, 10]), w2);
        let r1 = _mm512_permutex2var_pd(w1, idx8([0, 3, 11, 0, 4, 12, 0, 5]), w2);
        let r2 = _mm512_permutex2var_pd(w1, idx8([13, 0, 6, 14, 0, 7, 15, 0]), w2);
        let r0 = _mm512_permutex2var_pd(r0, idx8([0, 1, 8, 3, 4, 9, 6, 7]), w3);
        let r1 = _mm512_permutex2var_pd(r1, idx8([10, 1, 2, 11, 4, 5, 12, 7]), w3);
        let r2 = _mm512_permutex2var_pd(r2, idx8([0, 13, 2, 3, 14, 5, 6, 15]), w3);
        _mm512_storeu_pd(dst, r0);
        _mm512_storeu_pd(dst.add(8), r1);
        _mm512_storeu_pd(dst.add(16), r2);
    }

    /// W-term assembly over `out.len()/8` octets — the DAG of
    /// [`w_terms_avx2`], two registers wider. Returns how many *patterns*
    /// were processed.
    ///
    /// # Safety
    /// The host must support AVX-512F; slice contract as for
    /// [`w_terms_avx2`].
    #[target_feature(enable = "avx512f")]
    pub unsafe fn w_terms_avx512(
        freqs: &[f64; 4],
        inv_r: f64,
        inv_y: f64,
        u: &[f64],
        d: &[f64],
        out: &mut [WTerms],
    ) -> usize {
        let octets = out.len() / 8;
        let [fa, fc, fg, ft] = [
            _mm512_set1_pd(freqs[0]),
            _mm512_set1_pd(freqs[1]),
            _mm512_set1_pd(freqs[2]),
            _mm512_set1_pd(freqs[3]),
        ];
        for o in 0..octets {
            // Safety: `o * 32 + 32 <= u.len()` by the octet count.
            let [ua, uc, ug, ut] = load8(u.as_ptr().add(o * 32));
            let [da, dc, dg, dt] = load8(d.as_ptr().add(o * 32));
            let w1 = _mm512_fmadd_pd(
                _mm512_mul_pd(fa, ua),
                da,
                _mm512_fmadd_pd(
                    _mm512_mul_pd(fc, uc),
                    dc,
                    _mm512_fmadd_pd(
                        _mm512_mul_pd(fg, ug),
                        dg,
                        _mm512_mul_pd(_mm512_mul_pd(ft, ut), dt),
                    ),
                ),
            );
            let ur = _mm512_fmadd_pd(fa, ua, _mm512_mul_pd(fg, ug));
            let uy = _mm512_fmadd_pd(fc, uc, _mm512_mul_pd(ft, ut));
            let dr = _mm512_fmadd_pd(fa, da, _mm512_mul_pd(fg, dg));
            let dy = _mm512_fmadd_pd(fc, dc, _mm512_mul_pd(ft, dt));
            let w2 = _mm512_fmadd_pd(
                _mm512_mul_pd(ur, dr),
                _mm512_set1_pd(inv_r),
                _mm512_mul_pd(_mm512_mul_pd(uy, dy), _mm512_set1_pd(inv_y)),
            );
            let w3 = _mm512_mul_pd(_mm512_add_pd(ur, uy), _mm512_add_pd(dr, dy));
            store_w8(out.as_mut_ptr().add(o * 8).cast(), w1, w2, w3);
        }
        octets * 8
    }
}

/// NEON kernels for aarch64, two patterns per iteration. NEON is baseline
/// on aarch64, so no feature probe gates the call — the dispatch exists so
/// `--isa scalar` exercises the portable loop there too.
#[cfg(target_arch = "aarch64")]
mod neon {
    use super::FoldedCoefficients;
    use core::arch::aarch64::*;

    /// Propagate two patterns of one child — the scalar DAG, two wide.
    #[inline]
    unsafe fn propagate2(
        co: &FoldedCoefficients,
        f: [float64x2_t; 4],
        v: [float64x2_t; 4],
    ) -> [float64x2_t; 4] {
        let [va, vc, vg, vt] = v;
        let [fa, fc, fg, ft] = f;
        let sr = vfmaq_f64(vmulq_f64(fg, vg), fa, va);
        let sy = vfmaq_f64(vmulq_f64(ft, vt), fc, vc);
        let s = vaddq_f64(sr, sy);
        let c1 = vdupq_n_f64(co.c1);
        let c3s = vmulq_f64(vdupq_n_f64(co.c3), s);
        let wr = vfmaq_f64(c3s, vdupq_n_f64(co.c2r), sr);
        let wy = vfmaq_f64(c3s, vdupq_n_f64(co.c2y), sy);
        [
            vfmaq_f64(wr, c1, va),
            vfmaq_f64(wy, c1, vc),
            vfmaq_f64(wr, c1, vg),
            vfmaq_f64(wy, c1, vt),
        ]
    }

    /// The combine kernel over two patterns at a time. Returns how many
    /// *doubles* were processed (a multiple of 8).
    ///
    /// # Safety
    /// Slice contract as for the x86 span kernels.
    #[allow(clippy::too_many_arguments)]
    pub unsafe fn combine_span_neon(
        freqs: &[f64; 4],
        ca: &FoldedCoefficients,
        cb: &FoldedCoefficients,
        x1: &[f64],
        x2: &[f64],
        out: &mut [f64],
        maxes: &mut [f64],
    ) -> usize {
        let pairs = x1.len() / 8;
        let f = [
            vdupq_n_f64(freqs[0]),
            vdupq_n_f64(freqs[1]),
            vdupq_n_f64(freqs[2]),
            vdupq_n_f64(freqs[3]),
        ];
        let load2 = |src: *const f64| -> [float64x2_t; 4] {
            let p0 = vld1q_f64(src); // [A0 C0]
            let p0h = vld1q_f64(src.add(2)); // [G0 T0]
            let p1 = vld1q_f64(src.add(4)); // [A1 C1]
            let p1h = vld1q_f64(src.add(6)); // [G1 T1]
            [
                vzip1q_f64(p0, p1),   // [A0 A1]
                vzip2q_f64(p0, p1),   // [C0 C1]
                vzip1q_f64(p0h, p1h), // [G0 G1]
                vzip2q_f64(p0h, p1h), // [T0 T1]
            ]
        };
        for i in 0..pairs {
            let base = i * 8;
            // Safety: `base + 8 <= x1.len()` by the pair count.
            let p1 = propagate2(ca, f, load2(x1.as_ptr().add(base)));
            let p2 = propagate2(cb, f, load2(x2.as_ptr().add(base)));
            let oa = vmulq_f64(p1[0], p2[0]);
            let oc = vmulq_f64(p1[1], p2[1]);
            let og = vmulq_f64(p1[2], p2[2]);
            let ot = vmulq_f64(p1[3], p2[3]);
            let vmax = vmaxq_f64(vmaxq_f64(oa, oc), vmaxq_f64(og, ot));
            vst1q_f64(maxes.as_mut_ptr().add(i * 2), vmax);
            let dst = out.as_mut_ptr().add(base);
            vst1q_f64(dst, vzip1q_f64(oa, oc)); // [A0 C0]
            vst1q_f64(dst.add(2), vzip1q_f64(og, ot)); // [G0 T0]
            vst1q_f64(dst.add(4), vzip2q_f64(oa, oc)); // [A1 C1]
            vst1q_f64(dst.add(6), vzip2q_f64(og, ot)); // [T1 …]
        }
        pairs * 8
    }
}

/// The category runs intersecting `[lo, hi)`: the suffix of `runs` whose
/// first element is the run containing `lo` (runs are sorted and disjoint;
/// callers clip each run to the block themselves).
#[inline]
fn runs_from(runs: &[CategoryRun], lo: usize) -> &[CategoryRun] {
    &runs[runs.partition_point(|r| r.end <= lo)..]
}

/// Optimized [`reference::combine_children`]: folded coefficients, category
/// runs, multiply-add inner loop, deferred blocked rescaling. Numerics
/// agree with the reference to rounding (≤1e-12 per entry in the
/// equivalence suite); every per-pattern output is a pure map and the
/// rescale decision is pattern-local.
#[allow(clippy::too_many_arguments)]
pub fn combine_folded(
    model: &F84Model,
    runs: &[CategoryRun],
    co1: &[FoldedCoefficients],
    clv1: &[f64],
    scale1: &[i32],
    co2: &[FoldedCoefficients],
    clv2: &[f64],
    scale2: &[i32],
    out: &mut [f64],
    scale_out: &mut [i32],
    maxes: &mut [f64],
) -> u64 {
    let np = scale_out.len();
    for run in runs {
        if run.start >= np {
            break;
        }
        let ca = co1[run.category];
        let cb = co2[run.category];
        let (s, e) = (run.start, run.end.min(np));
        combine_span(
            model,
            &ca,
            &cb,
            &clv1[s * 4..e * 4],
            &clv2[s * 4..e * 4],
            &mut out[s * 4..e * 4],
            &mut maxes[s..e],
        );
    }
    // Deferred rescaling: scan the per-pattern maxima (recorded by the
    // combine loop while the products were in registers) a
    // [`SCALE_CHECK_BLOCK`] at a time. The fast path (every max comfortably
    // above threshold — the overwhelmingly common case) only copies scale
    // sums; the cold path replicates the reference per-pattern decision
    // exactly.
    let mut p = 0;
    while p < np {
        let end = (p + SCALE_CHECK_BLOCK).min(np);
        let mut all_above = true;
        for &m in &maxes[p..end] {
            all_above &= m >= SCALE_THRESHOLD;
        }
        if all_above {
            for q in p..end {
                scale_out[q] = scale1[q] + scale2[q];
            }
        } else {
            for q in p..end {
                let m = maxes[q];
                let mut sc = scale1[q] + scale2[q];
                if m < SCALE_THRESHOLD && m > 0.0 {
                    for v in &mut out[q * 4..q * 4 + 4] {
                        *v *= SCALE_FACTOR;
                    }
                    sc += 1;
                }
                scale_out[q] = sc;
            }
        }
        p = end;
    }
    np as u64
}

/// One pattern of W-term assembly (the scalar form; also the tail of the
/// vector lanes).
#[inline]
fn w_terms_pattern(f: &[f64; 4], inv_r: f64, inv_y: f64, uu: &[f64], dd: &[f64]) -> WTerms {
    let (fa, fc, fg, ft) = (f[A], f[C], f[G], f[T]);
    let w1 = (fa * uu[A]).mul_add(
        dd[A],
        (fc * uu[C]).mul_add(dd[C], (fg * uu[G]).mul_add(dd[G], ft * uu[T] * dd[T])),
    );
    let ur = fa.mul_add(uu[A], fg * uu[G]);
    let uy = fc.mul_add(uu[C], ft * uu[T]);
    let dr = fa.mul_add(dd[A], fg * dd[G]);
    let dy = fc.mul_add(dd[C], ft * dd[T]);
    let w2 = (ur * dr).mul_add(inv_r, uy * dy * inv_y);
    let w3 = (ur + uy) * (dr + dy);
    WTerms { w1, w2, w3 }
}

/// Optimized [`reference::edge_w_terms`]: cached reciprocal group
/// frequencies and the multiply-add form, dispatched through
/// [`crate::isa::active`] like [`combine_span`]: the x86-64 lanes run the
/// per-pattern DAG of [`w_terms_pattern`] 8 / 4 patterns wide and the
/// scalar loop covers the tail (and every other target: a NEON lane could
/// not be compiled where this was written) — bit-identical on any lane.
pub fn w_terms_folded(model: &F84Model, u: &[f64], d: &[f64], out: &mut [WTerms]) -> u64 {
    let f = &model.freqs;
    let (inv_r, inv_y) = (model.inv_freq_r(), model.inv_freq_y());
    assert!(u.len() == out.len() * 4 && d.len() == u.len());
    let done = match isa::active() {
        // Safety: the lane is one the host supports (see `combine_span`);
        // the slice lengths were checked above.
        #[cfg(target_arch = "x86_64")]
        isa::KernelIsa::Avx512 => unsafe { x86::w_terms_avx512(f, inv_r, inv_y, u, d, out) },
        #[cfg(target_arch = "x86_64")]
        isa::KernelIsa::Avx2 => unsafe { x86::w_terms_avx2(f, inv_r, inv_y, u, d, out) },
        _ => 0,
    };
    for ((w, uu), dd) in out[done..]
        .iter_mut()
        .zip(u[done * 4..].chunks_exact(4))
        .zip(d[done * 4..].chunks_exact(4))
    {
        *w = w_terms_pattern(f, inv_r, inv_y, uu, dd);
    }
    out.len() as u64
}

/// Patterns per pipeline stage of the two-phase objective. Small on
/// purpose — a stage's reduction (a 4-cycle multiply per pattern) and the
/// next stage's phase 1 must sit in the out-of-order window together for
/// the two to overlap: 4 measured 2.4 ns per pattern-iteration where 8
/// measured 2.8 and 16 3.6 (2 ties with 4 and pays more per stage).
const STAGE: usize = 4;

/// What one pattern contributes to the objective on its own: `f = c·W`
/// clamped to the smallest normal, and with `DERIV` the derivative terms
/// `w·f'/f` and `w·(f''/f − (f'/f)²)` (0 without). `co` is the `(value,
/// d/dt, d²/dt²)` coefficient triples; the last two are not read without
/// `DERIV`.
#[inline(always)]
fn pattern_terms<const DERIV: bool>(
    co: &[Coefficients; 3],
    (w1, w2, w3): (f64, f64, f64),
    wgt: f64,
) -> (f64, f64, f64) {
    let dot = |c: &Coefficients| c.c1.mul_add(w1, c.c2.mul_add(w2, c.c3 * w3));
    let f = dot(&co[0]).max(f64::MIN_POSITIVE);
    if !DERIV {
        return (f, 0.0, 0.0);
    }
    let inv = 1.0 / f;
    let r = dot(&co[1]) * inv;
    (f, wgt * r, wgt * r.mul_add(-r, dot(&co[2]) * inv))
}

/// Phase-1 output for one stage of patterns, consumed in order by phase 2:
/// per pattern the mantissa of `f`, in `[1, 2)`, its binary exponent, and
/// the two derivative terms.
struct Stage {
    m: [f64; STAGE],
    e: [i64; STAGE],
    a: [f64; STAGE],
    b: [f64; STAGE],
}

impl Stage {
    const EMPTY: Stage = Stage {
        m: [0.0; STAGE],
        e: [0; STAGE],
        a: [0.0; STAGE],
        b: [0.0; STAGE],
    };

    /// Phase 1: [`pattern_terms`] of a stage of patterns that share their
    /// coefficients, `w` their three planes and `wgt` their weights. No
    /// pattern depends on another and every load is unit-stride, so the
    /// loop is the compiler's to vectorize.
    #[inline(always)]
    fn fill<const DERIV: bool>(
        &mut self,
        co: &[Coefficients; 3],
        w: [&[f64; STAGE]; 3],
        wgt: &[f64; STAGE],
    ) {
        for slot in 0..STAGE {
            let terms = (w[0][slot], w[1][slot], w[2][slot]);
            let (f, a, b) = pattern_terms::<DERIV>(co, terms, wgt[slot]);
            let bits = f.to_bits();
            self.m[slot] = f64::from_bits((bits & MANTISSA_MASK) | ONE_EXPONENT);
            self.e[slot] = ((bits >> 52) & 0x7ff) as i64 - 1023;
            if DERIV {
                (self.a[slot], self.b[slot]) = (a, b);
            }
        }
    }

    /// The `f` that [`Stage::fill`] split, whole again.
    #[inline(always)]
    fn f(&self, slot: usize) -> f64 {
        f64::from_bits(
            (self.m[slot].to_bits() & MANTISSA_MASK) | ((self.e[slot] + 1023) as u64) << 52,
        )
    }
}

/// Per-block partial of a likelihood fold: the running product and, for
/// the Newton objective, the two derivative sums.
#[derive(Clone, Copy)]
struct D012Partial {
    prod: LnProd,
    d1: f64,
    d2: f64,
}

impl D012Partial {
    const IDENTITY: D012Partial = D012Partial {
        prod: LnProd {
            mantissa: 1.0,
            exponent: 0,
            extra: 0.0,
        },
        d1: 0.0,
        d2: 0.0,
    };

    /// Phase 2 over a stage through [`LnProd::mul_pow`] itself; `raw` is the
    /// stage's weights. Out of line, as is everything the plain stage does
    /// not need, so that the pipeline's loop keeps its accumulators in
    /// registers; `#[cold]` says where to put the spills, not how often this
    /// runs — on an alignment of many repeated columns it is every stage.
    #[cold]
    #[inline(never)]
    fn fold_mul_pow<const DERIV: bool>(&mut self, st: &Stage, raw: &[u32; STAGE]) {
        let mut next = *self;
        for (slot, &w) in raw.iter().enumerate() {
            next.prod.mul_pow(st.f(slot), w);
            if DERIV {
                next.d1 += st.a[slot];
                next.d2 += st.b[slot];
            }
        }
        *self = next;
    }

    /// Both phases fused, one pattern at a time over `lo..hi` — the scalar
    /// loop the pipeline replaced, kept for what the pipeline does not
    /// take. `runs` starts at the run holding `lo`.
    fn fold_patterns<const DERIV: bool>(
        &mut self,
        coef: &impl Fn(usize) -> [Coefficients; 3],
        runs: &[CategoryRun],
        w: &WPlanes,
        weights: &PatternWeights,
        lo: usize,
        hi: usize,
    ) {
        // A local copy, so the accumulators live in registers instead of
        // being stored and reloaded through `self` pattern by pattern.
        let mut part = *self;
        for run in runs {
            if run.start >= hi {
                break;
            }
            let co = coef(run.category);
            let span = run.start.max(lo)..run.end.min(hi);
            let planes = w.w1[span.clone()]
                .iter()
                .zip(&w.w2[span.clone()])
                .zip(&w.w3[span.clone()]);
            let weights = weights.as_f64[span.clone()].iter().zip(&weights.raw[span]);
            for (((&w1, &w2), &w3), (&wgt, &raw)) in planes.zip(weights) {
                let (f, a, b) = pattern_terms::<DERIV>(&co, (w1, w2, w3), wgt);
                part.prod.mul_pow(f, raw);
                if DERIV {
                    part.d1 += a;
                    part.d2 += b;
                }
            }
        }
        *self = part;
    }
}

/// The patterns `lo..hi` — whole stages of one category run — in two
/// phases a [`STAGE`] at a time.
///
/// Phase 1 ([`Stage::fill`]) leaves the mantissa and exponent of each
/// pattern's `f` and its derivative terms in a [`Stage`]. Phase 2 folds
/// the stage in pattern order — `mantissa *= m; exponent += e; d1 += a;
/// d2 += b` — and is the only part that carries a dependency from pattern
/// to pattern. The next stage's phase 1 is issued before this stage's
/// phase 2, so its work hides under the reduction's latency chain.
///
/// Phase 2 is [`LnProd::mul_pow`] per pattern, bit for bit. With every
/// weight 1 the factors are in `[1, 2)`, so the running mantissa only
/// grows: it crossed `1e128` — where `mul_pow` renormalizes, because
/// another factor could eventually overflow — somewhere in the stage
/// exactly when it is past it at the end. Such a stage is folded as bare
/// multiplies and adds, and folded again through `mul_pow`
/// ([`D012Partial::fold_mul_pow`]), from the state before it, in the
/// (every ~850 patterns) case that the test would have fired; so is a
/// stage that carries another weight.
fn pipeline<const DERIV: bool>(
    co: &[Coefficients; 3],
    w: &WPlanes,
    weights: &PatternWeights,
    lo: usize,
    hi: usize,
) -> D012Partial {
    // The accumulators are bare locals, gathered into a partial only where
    // the out-of-line fold wants one: a partial whose address is taken
    // lives in memory, and the chain with it.
    let (mut mantissa, mut exponent, mut extra, mut d1, mut d2) = (1.0, 0, 0.0, 0.0, 0.0);
    let mut stages = [Stage::EMPTY, Stage::EMPTY];
    let [mut filling, mut folding] = stages.each_mut();
    // The range of each array phase 1 reads, and of the weights phase 2
    // tests: sliced once, so that a stage is a constant-length window.
    let n = hi - lo;
    let (w1, w2, w3) = (&w.w1[lo..hi], &w.w2[lo..hi], &w.w3[lo..hi]);
    let (wgt, raw) = (&weights.as_f64[lo..hi], &weights.raw[lo..hi]);
    fn stage<T>(of: &[T], at: usize) -> &[T; STAGE] {
        of[at..at + STAGE]
            .try_into()
            .expect("a window of STAGE elements")
    }
    // The stage at `at` is filled on one turn and folded on the next.
    for at in (0..n + STAGE).step_by(STAGE) {
        if at < n {
            filling.fill::<DERIV>(
                co,
                [stage(w1, at), stage(w2, at), stage(w3, at)],
                stage(wgt, at),
            );
        }
        std::mem::swap(&mut filling, &mut folding);
        if at == 0 {
            continue;
        }
        let raw = stage(raw, at - STAGE);
        let st = &*filling;
        // One OR over the stage instead of a branch per weight.
        if raw.iter().fold(0, |odd, &w| odd | (w ^ 1)) == 0 {
            let (mut m, mut e, mut s1, mut s2) = (mantissa, exponent, d1, d2);
            for slot in 0..STAGE {
                m *= st.m[slot];
                e += st.e[slot];
                if DERIV {
                    s1 += st.a[slot];
                    s2 += st.b[slot];
                }
            }
            if m < 1e128 {
                (mantissa, exponent, d1, d2) = (m, e, s1, s2);
                continue;
            }
        }
        let mut part = D012Partial {
            prod: LnProd {
                mantissa,
                exponent,
                extra,
            },
            d1,
            d2,
        };
        part.fold_mul_pow::<DERIV>(st, raw);
        (mantissa, exponent, extra) = (part.prod.mantissa, part.prod.exponent, part.prod.extra);
        (d1, d2) = (part.d1, part.d2);
    }
    D012Partial {
        prod: LnProd {
            mantissa,
            exponent,
            extra,
        },
        d1,
        d2,
    }
}

/// One block of a likelihood fold, the patterns `lo..hi`.
///
/// The [`pipeline`] takes the whole stages of a block that it is faster
/// on: one rate category throughout (it pays a stage's latency to start
/// and to drain, which a short run does not earn back) and at most an
/// eighth of the weights not 1 (a stage that carries one goes through
/// `mul_pow` on top of its phase 1). The rest of such a block, and any
/// other block, is [`D012Partial::fold_patterns`]'s.
fn objective_block<const DERIV: bool>(
    coef: &impl Fn(usize) -> [Coefficients; 3],
    runs: &[CategoryRun],
    w: &WPlanes,
    weights: &PatternWeights,
    lo: usize,
    hi: usize,
) -> D012Partial {
    let runs = runs_from(runs, lo);
    let repeated = weights.raw[lo..hi].iter().filter(|&&w| w != 1).count();
    let staged = if runs[0].end >= hi && repeated * 8 <= hi - lo {
        lo + (hi - lo) / STAGE * STAGE
    } else {
        lo
    };
    let mut part = pipeline::<DERIV>(&coef(runs[0].category), w, weights, lo, staged);
    part.fold_patterns::<DERIV>(coef, runs, w, weights, staged, hi);
    part
}

/// Run [`objective_block`] per [`PAR_BLOCK`] pattern block and merge each
/// block's partial, in block order, as soon as it is computed: the
/// canonical fixed-order reduction.
fn objective_folded<const DERIV: bool>(
    coef: &impl Fn(usize) -> [Coefficients; 3],
    runs: &[CategoryRun],
    w: &WPlanes,
    weights: &PatternWeights,
) -> D012Partial {
    let np = w.len();
    assert_eq!(weights.raw.len(), np, "weights must cover every pattern");
    let mut total = D012Partial::IDENTITY;
    for b in 0..block_count(np) {
        let (lo, hi) = block_range(b, np);
        let part = objective_block::<DERIV>(coef, runs, w, weights, lo, hi);
        total.prod.merge(&part.prod);
        total.d1 += part.d1;
        total.d2 += part.d2;
    }
    total
}

/// Optimized [`reference::edge_log_likelihood`] over a prefilled coefficient
/// table: the value-only two-phase fold (one `ln` total instead of one per
/// pattern) plus the scale offset, which is accumulated exactly in
/// integers. Bit-identical on any lane.
pub fn branch_lnl_folded(
    co: &EdgeCoefficients,
    runs: &[CategoryRun],
    w: &WPlanes,
    weights: &PatternWeights,
    scale: &[i32],
) -> f64 {
    let coef = |cat: usize| {
        let c = &co.per_cat[cat];
        let value = Coefficients {
            c1: c.c1,
            c2: c.c2,
            c3: c.c3,
        };
        [value; 3]
    };
    let prod = objective_folded::<false>(&coef, runs, w, weights).prod;
    assert_eq!(
        scale.len(),
        w.len(),
        "scale counts must cover every pattern"
    );
    let scale_sum: i64 = weights
        .raw
        .iter()
        .zip(scale)
        .map(|(&wt, &sc)| wt as i64 * sc as i64)
        .sum();
    prod.value() + scale_sum as f64 * LN_SCALE
}

fn deriv_coef(deriv: &EdgeDerivCoefficients) -> impl Fn(usize) -> [Coefficients; 3] + '_ {
    move |cat| {
        let c = &deriv.per_cat[cat];
        [c.value, c.d1, c.d2]
    }
}

/// Fused W-terms → (lnL, d1, d2) evaluation for Newton from a prefilled
/// derivative-coefficient table. Matches
/// [`crate::newton::log_likelihood_d012`] (which excludes the constant
/// scaling offset) to rounding. Folded per pattern block exactly like
/// [`branch_lnl_folded`]: the derivative sums merge in block order too.
pub fn lnl_d012_folded(
    deriv: &EdgeDerivCoefficients,
    runs: &[CategoryRun],
    w: &WPlanes,
    weights: &PatternWeights,
) -> (f64, f64, f64) {
    let total = objective_folded::<true>(&deriv_coef(deriv), runs, w, weights);
    (total.prod.value(), total.d1, total.d2)
}

/// Mode-dispatched internal-node CLV combine: fills the scratch coefficient
/// tables from the two branch lengths and runs the selected kernel.
/// `Reference` reproduces the seed behavior including its per-call
/// allocations, so benchmark baselines stay honest.
#[allow(clippy::too_many_arguments)]
pub fn combine_edges(
    mode: KernelMode,
    model: &F84Model,
    cats: &RateCategories,
    scratch: &mut KernelScratch,
    t1: f64,
    clv1: &[f64],
    scale1: &[i32],
    t2: f64,
    clv2: &[f64],
    scale2: &[i32],
    out: &mut [f64],
    scale_out: &mut [i32],
) -> u64 {
    match mode {
        KernelMode::Reference => {
            let co1 = reference::branch_coefficients(model, cats, t1);
            let co2 = reference::branch_coefficients(model, cats, t2);
            reference::combine_children(
                model, cats, &co1, clv1, scale1, &co2, clv2, scale2, out, scale_out,
            )
        }
        KernelMode::Optimized => {
            let KernelScratch {
                runs,
                co_a,
                co_b,
                maxes,
                ..
            } = scratch;
            co_a.fill(model, cats, t1);
            co_b.fill(model, cats, t2);
            combine_folded(
                model,
                runs,
                &co_a.per_cat,
                clv1,
                scale1,
                &co_b.per_cat,
                clv2,
                scale2,
                out,
                scale_out,
                maxes,
            )
        }
    }
}

/// Mode-dispatched W-term assembly.
pub fn compute_w_terms(
    mode: KernelMode,
    model: &F84Model,
    u: &[f64],
    d: &[f64],
    out: &mut [WTerms],
) -> u64 {
    match mode {
        KernelMode::Reference => reference::edge_w_terms(model, u, d, out),
        KernelMode::Optimized => w_terms_folded(model, u, d, out),
    }
}

/// Mode-dispatched branch log-likelihood.
#[allow(clippy::too_many_arguments)]
pub fn branch_lnl(
    mode: KernelMode,
    model: &F84Model,
    cats: &RateCategories,
    scratch: &mut KernelScratch,
    t: f64,
    w: &[WTerms],
    weights: &PatternWeights,
    scale: &[i32],
) -> f64 {
    match mode {
        KernelMode::Reference => {
            reference::edge_log_likelihood(model, cats, t, w, weights.raw(), scale)
        }
        KernelMode::Optimized => {
            scratch.co_a.fill(model, cats, t);
            scratch.planes.fill(w);
            branch_lnl_folded(
                &scratch.co_a,
                &scratch.runs,
                &scratch.planes,
                weights,
                scale,
            )
        }
    }
}

/// Mode-dispatched Newton branch-length optimization. The optimized arm
/// shares the safeguarded iteration in [`crate::newton`] but evaluates the
/// objective through the fused kernel with a reusable coefficient table —
/// no allocation per iteration (the reference arm keeps the seed's
/// per-iteration `Vec` collect).
#[allow(clippy::too_many_arguments)]
pub fn optimize_branch_dispatch(
    mode: KernelMode,
    model: &F84Model,
    cats: &RateCategories,
    scratch: &mut KernelScratch,
    w: &[WTerms],
    weights: &PatternWeights,
    t0: f64,
    opts: &NewtonOptions,
    work: &mut WorkCounter,
) -> f64 {
    match mode {
        KernelMode::Reference => {
            newton::optimize_branch(model, cats, w, weights.raw(), t0, opts, work)
        }
        KernelMode::Optimized => {
            let KernelScratch {
                runs,
                deriv,
                planes,
                ..
            } = scratch;
            planes.fill(w);
            newton::newton_loop(t0, opts, &mut |t| {
                deriv.fill(model, cats, t);
                work.newton_pattern_iters += w.len() as u64;
                lnl_d012_folded(deriv, runs, planes, weights)
            })
        }
    }
}

/// The scalar originals of the objective and W-term kernels, kept as the
/// bit-for-bit oracle of the two-phase and vectorized forms: one pattern at
/// a time, [`LnProd::mul_pow`] in the loop, the group reciprocals divided
/// per block.
#[cfg(test)]
mod oracle {
    use super::*;

    pub fn lnl_d012_block(
        deriv: &EdgeDerivCoefficients,
        runs: &[CategoryRun],
        w: &[WTerms],
        weights: &[u32],
        lo: usize,
        hi: usize,
    ) -> (LnProd, f64, f64) {
        let mut prod = LnProd::new();
        let mut d1 = 0.0;
        let mut d2 = 0.0;
        for run in runs_from(runs, lo) {
            if run.start >= hi {
                break;
            }
            let co = &deriv.per_cat[run.category];
            let (v, g, h) = (&co.value, &co.d1, &co.d2);
            for p in run.start.max(lo)..run.end.min(hi) {
                let terms = &w[p];
                let f =
                    v.c1.mul_add(terms.w1, v.c2.mul_add(terms.w2, v.c3 * terms.w3))
                        .max(f64::MIN_POSITIVE);
                let fp =
                    g.c1.mul_add(terms.w1, g.c2.mul_add(terms.w2, g.c3 * terms.w3));
                let fpp =
                    h.c1.mul_add(terms.w1, h.c2.mul_add(terms.w2, h.c3 * terms.w3));
                let wgt = weights[p] as f64;
                let inv = 1.0 / f;
                let r = fp * inv;
                prod.mul_pow(f, weights[p]);
                d1 += wgt * r;
                d2 += wgt * r.mul_add(-r, fpp * inv);
            }
        }
        (prod, d1, d2)
    }

    pub fn lnl_d012_folded(
        deriv: &EdgeDerivCoefficients,
        runs: &[CategoryRun],
        w: &[WTerms],
        weights: &[u32],
    ) -> (f64, f64, f64) {
        let np = w.len();
        let mut prod = LnProd::new();
        let mut d1 = 0.0;
        let mut d2 = 0.0;
        for b in 0..block_count(np) {
            let (lo, hi) = block_range(b, np);
            let part = lnl_d012_block(deriv, runs, w, weights, lo, hi);
            prod.merge(&part.0);
            d1 += part.1;
            d2 += part.2;
        }
        (prod.value(), d1, d2)
    }

    pub fn branch_lnl_folded(
        co: &EdgeCoefficients,
        runs: &[CategoryRun],
        w: &[WTerms],
        weights: &[u32],
        scale: &[i32],
    ) -> f64 {
        let np = w.len();
        let mut total = LnProd::new();
        let mut scale_sum: i64 = 0;
        for b in 0..block_count(np) {
            let (lo, hi) = block_range(b, np);
            let mut prod = LnProd::new();
            for run in runs_from(runs, lo) {
                if run.start >= hi {
                    break;
                }
                let c = &co.per_cat[run.category];
                for p in run.start.max(lo)..run.end.min(hi) {
                    let terms = &w[p];
                    let f =
                        c.c1.mul_add(terms.w1, c.c2.mul_add(terms.w2, c.c3 * terms.w3))
                            .max(f64::MIN_POSITIVE);
                    prod.mul_pow(f, weights[p]);
                    scale_sum += weights[p] as i64 * scale[p] as i64;
                }
            }
            total.merge(&prod);
        }
        total.value() + scale_sum as f64 * LN_SCALE
    }

    pub fn w_terms(model: &F84Model, u: &[f64], d: &[f64], out: &mut [WTerms]) {
        let f = &model.freqs;
        let (fa, fc, fg, ft) = (f[A], f[C], f[G], f[T]);
        let inv_r = 1.0 / model.freq_r();
        let inv_y = 1.0 / model.freq_y();
        for ((w, uu), dd) in out.iter_mut().zip(u.chunks_exact(4)).zip(d.chunks_exact(4)) {
            let w1 = (fa * uu[A]).mul_add(
                dd[A],
                (fc * uu[C]).mul_add(dd[C], (fg * uu[G]).mul_add(dd[G], ft * uu[T] * dd[T])),
            );
            let ur = fa.mul_add(uu[A], fg * uu[G]);
            let uy = fc.mul_add(uu[C], ft * uu[T]);
            let dr = fa.mul_add(dd[A], fg * dd[G]);
            let dy = fc.mul_add(dd[C], ft * dd[T]);
            let w2 = (ur * dr).mul_add(inv_r, uy * dy * inv_y);
            let w3 = (ur + uy) * (dr + dy);
            *w = WTerms { w1, w2, w3 };
        }
    }

    /// The optimizer over the scalar objective, every evaluation in full.
    #[allow(clippy::too_many_arguments)]
    pub fn optimize_branch(
        model: &F84Model,
        cats: &RateCategories,
        runs: &[CategoryRun],
        w: &[WTerms],
        weights: &[u32],
        t0: f64,
        opts: &NewtonOptions,
        work: &mut WorkCounter,
    ) -> f64 {
        let mut deriv = EdgeDerivCoefficients::default();
        newton::newton_loop(t0, opts, &mut |t| {
            deriv.fill(model, cats, t);
            work.newton_pattern_iters += w.len() as u64;
            lnl_d012_folded(&deriv, runs, w, weights)
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_mode_is_optimized() {
        assert_eq!(KernelMode::default(), KernelMode::Optimized);
    }

    #[test]
    fn category_runs_cover_assignment() {
        let cats = RateCategories::new(vec![1.0, 2.0, 3.0], vec![0, 0, 1, 1, 1, 2, 0, 0]);
        let runs = category_runs(&cats);
        assert_eq!(
            runs,
            vec![
                CategoryRun {
                    start: 0,
                    end: 2,
                    category: 0
                },
                CategoryRun {
                    start: 2,
                    end: 5,
                    category: 1
                },
                CategoryRun {
                    start: 5,
                    end: 6,
                    category: 2
                },
                CategoryRun {
                    start: 6,
                    end: 8,
                    category: 0
                },
            ]
        );
        let covered: usize = runs.iter().map(|r| r.end - r.start).sum();
        assert_eq!(covered, cats.num_patterns());
    }

    #[test]
    fn category_runs_empty_assignment() {
        let cats = RateCategories::new(vec![1.0], vec![]);
        assert!(category_runs(&cats).is_empty());
    }

    #[test]
    fn runs_from_skips_completed_runs() {
        let cats = RateCategories::new(vec![1.0, 2.0], vec![0, 0, 0, 1, 1, 0, 0, 0]);
        let runs = category_runs(&cats);
        assert_eq!(runs_from(&runs, 0).len(), 3);
        assert_eq!(runs_from(&runs, 3).len(), 2);
        assert_eq!(runs_from(&runs, 4)[0].category, 1);
        assert_eq!(runs_from(&runs, 5).len(), 1);
        assert!(runs_from(&runs, 8).is_empty());
    }

    #[test]
    fn folded_coefficients_match_divisions() {
        let m = F84Model::new([0.3, 0.2, 0.25, 0.25], 2.0);
        let cats = RateCategories::new(vec![0.5, 1.0, 2.0], vec![0, 1, 2]);
        let mut table = EdgeCoefficients::new();
        table.fill(&m, &cats, 0.37);
        for (c, folded) in table.per_cat().iter().enumerate() {
            let raw = m.coefficients(0.37, cats.rate(c));
            assert_eq!(folded.c1, raw.c1);
            assert_eq!(folded.c2, raw.c2);
            let rel = |x: f64, y: f64| (x - y).abs() <= 1e-15 * y.abs().max(1e-300);
            assert!(rel(folded.c2r, raw.c2 / m.freq_r()));
            assert!(rel(folded.c2y, raw.c2 / m.freq_y()));
            assert_eq!(folded.c3, raw.c3);
        }
        // Refill shrinks/reuses without reallocating semantics breakage.
        table.fill(&m, &cats, 1.2);
        assert_eq!(table.per_cat().len(), 3);
    }

    #[test]
    fn ln_prod_matches_direct_log_sum() {
        let mut prod = LnProd::new();
        let mut direct = 0.0;
        let factors = [
            (0.3_f64, 1_u32),
            (1.7e-102, 3),
            (0.999, 200),
            (2.5e-5, 1),
            (0.04, 1000), // beyond POW_LIMIT → ln fallback
            (0.87, 512),
            (f64::MIN_POSITIVE, 2),
        ];
        for &(f, w) in &factors {
            prod.mul_pow(f, w);
            direct += w as f64 * f.ln();
        }
        let got = prod.value();
        assert!(
            (got - direct).abs() < 1e-9 * direct.abs().max(1.0),
            "{got} vs {direct}"
        );
    }

    #[test]
    fn ln_prod_survives_many_tiny_factors() {
        // 10^5 factors of ~1e-100 would underflow any plain product; the
        // mantissa/exponent split keeps the log exact to rounding.
        let mut prod = LnProd::new();
        for i in 0..100_000u32 {
            let f = 1e-100 * (1.0 + (i % 7) as f64 * 0.1);
            prod.mul_pow(f, 1);
        }
        let got = prod.value();
        assert!(got.is_finite());
        let mut direct = 0.0;
        for i in 0..100_000u32 {
            direct += (1e-100 * (1.0 + (i % 7) as f64 * 0.1)).ln();
        }
        assert!(
            (got - direct).abs() < 1e-7 * direct.abs(),
            "{got} vs {direct}"
        );
    }

    #[test]
    fn zero_weight_is_identity() {
        let mut prod = LnProd::new();
        prod.mul_pow(0.5, 0);
        assert_eq!(prod.value(), 0.0);
    }

    /// Deterministic factor stream for the fold tests (xorshift64*).
    fn factor_stream(seed: u64, n: usize) -> Vec<(f64, u32)> {
        let mut state = seed.max(1);
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        (0..n)
            .map(|_| {
                let f = 1e-120_f64.powf((next() % 1000) as f64 / 999.0) * 0.999;
                let w = 1 + (next() % 600) as u32;
                (f.max(f64::MIN_POSITIVE), w)
            })
            .collect()
    }

    #[test]
    fn block_partition_covers_patterns_exactly() {
        for np in [0, 1, 255, 256, 257, 1000, 4096] {
            let mut covered = 0;
            for b in 0..block_count(np) {
                let (lo, hi) = block_range(b, np);
                assert_eq!(lo, covered);
                assert!(hi > lo);
                covered = hi;
            }
            assert_eq!(covered, np);
        }
    }

    #[test]
    fn single_block_fold_is_bitwise_serial() {
        // Merging one partial into the identity must reproduce the plain
        // serial fold bit for bit — the guarantee that keeps historical
        // likelihoods stable for ≤ PAR_BLOCK-pattern alignments.
        for seed in [3, 17, 99] {
            let factors = factor_stream(seed, 700);
            let mut serial = LnProd::new();
            for &(f, w) in &factors {
                serial.mul_pow(f, w);
            }
            let blocked = blocked_ln_prod(&factors, factors.len());
            assert_eq!(serial.value().to_bits(), blocked.value().to_bits());
        }
    }

    #[test]
    fn blocked_fold_merge_order_is_canonical() {
        // Computing the partials in any schedule and merging them in block
        // order must equal the sequential blocked fold bit for bit.
        let factors = factor_stream(42, 1000);
        for block in [1, 7, 64, 256, 999, 1000] {
            let sequential = blocked_ln_prod(&factors, block);
            let mut partials: Vec<LnProd> = factors
                .chunks(block)
                .map(|chunk| {
                    let mut p = LnProd::new();
                    for &(f, w) in chunk {
                        p.mul_pow(f, w);
                    }
                    p
                })
                .collect();
            partials.reverse(); // "compute" in reverse schedule
            partials.reverse(); // …then merge in canonical block order
            let mut merged = LnProd::new();
            for p in &partials {
                merged.merge(p);
            }
            assert_eq!(
                sequential.value().to_bits(),
                merged.value().to_bits(),
                "block {block}"
            );
        }
    }

    /// xorshift64* in `[0, 1)`.
    fn unit_stream(seed: u64) -> impl FnMut() -> f64 {
        let mut state = seed.max(1);
        move || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            (state.wrapping_mul(0x2545_f491_4f6c_dd1d) >> 11) as f64 / (1u64 << 53) as f64
        }
    }

    /// `ncat` categories whose runs end mid-lane (5, 11), mid-stage and on
    /// both sides of the first `PAR_BLOCK` boundary (250, 260).
    fn cut_categories(np: usize, ncat: usize) -> RateCategories {
        let cuts = [5usize, 11, 100, 250, 260, 600, 601];
        let assignment = (0..np)
            .map(|p| (cuts.iter().filter(|&&c| c <= p).count() % ncat) as u32)
            .collect();
        RateCategories::new(
            (0..ncat).map(|c| 0.4 + 0.7 * c as f64).collect(),
            assignment,
        )
    }

    /// W-terms of random CLVs, salted with the values the clamp exists
    /// for: all-zero, subnormal and NaN terms.
    fn salted_w_terms(model: &F84Model, np: usize, seed: u64) -> Vec<WTerms> {
        let mut next = unit_stream(seed);
        let u: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
        let d: Vec<f64> = (0..np * 4).map(|_| 0.01 + next()).collect();
        let mut w = vec![WTerms::ZERO; np];
        oracle::w_terms(model, &u, &d, &mut w);
        for (p, terms) in w.iter_mut().enumerate() {
            if p % 29 == 5 {
                *terms = WTerms::ZERO;
            } else if p % 31 == 7 {
                terms.w1 = 5e-324;
                terms.w2 = 0.0;
                terms.w3 = 1e-310;
            } else if p % 37 == 11 {
                terms.w1 = f64::NAN;
            }
        }
        w
    }

    /// 1, except at every `stride`-th pattern and on the stage and block
    /// boundaries, where the other classes of weight take turns: 17 is an
    /// alignment of mostly distinct columns, 2 one of mostly repeated ones
    /// (every stage carries weights), 1 leaves no unit weight at all (and
    /// two log-space fallbacks in one stage).
    fn salted_weights(np: usize, stride: usize) -> Vec<u32> {
        let classes = [0u32, 2, 14, POW_LIMIT, POW_LIMIT + 1];
        let mut k = 0;
        (0..np)
            .map(|p| {
                if p % stride == 3 % stride || [7, 8, 255, 256].contains(&p) {
                    k += 1;
                    classes[k % classes.len()]
                } else {
                    1
                }
            })
            .collect()
    }

    fn supported_lanes() -> Vec<isa::KernelIsa> {
        isa::KernelIsa::ALL
            .into_iter()
            .filter(|lane| lane.supported())
            .collect()
    }

    /// Bit equality — except that a NaN only has to meet a NaN: IEEE 754
    /// leaves the sign and payload an operation gives a NaN result open
    /// (`r.mul_add(-r, x)` and a fused negate-multiply-add differ in it),
    /// and nothing downstream reads them.
    fn assert_bits(got: f64, want: f64, what: &str, tag: &str) {
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "{what}: {got} ({:#x}) vs {want} ({:#x}) ({tag})",
            got.to_bits(),
            want.to_bits()
        );
    }

    /// The two-phase objective against the scalar original, bit for bit,
    /// at every share of non-unit weights: `(lnL, d1, d2)`, the branch lnL,
    /// and the optimizer's `t` and work count. (The objective has no ISA
    /// lanes of its own: phase 1 is one portable loop.)
    #[test]
    fn objective_matches_the_scalar_original_bit_for_bit() {
        let model = F84Model::new([0.31, 0.19, 0.27, 0.23], 2.0);
        let sizes = [1usize, 7, 8, 9, 255, 256, 257, 1000];
        for (np, stride) in sizes.into_iter().flat_map(|np| [17, 2, 1].map(|s| (np, s))) {
            let w = salted_w_terms(&model, np, 0xD012 + np as u64);
            let planes = WPlanes::new(&w);
            let weights = salted_weights(np, stride);
            let bound = PatternWeights::new(&weights);
            let scale: Vec<i32> = (0..np).map(|p| (p % 3) as i32).collect();
            for ncat in 1..=4usize.min(np) {
                let cats = cut_categories(np, ncat);
                let runs = category_runs(&cats);
                let mut deriv = EdgeDerivCoefficients::default();
                deriv.fill(&model, &cats, 0.37);
                let mut co = EdgeCoefficients::new();
                co.fill(&model, &cats, 0.37);
                let want = oracle::lnl_d012_folded(&deriv, &runs, &w, &weights);
                let want_lnl = oracle::branch_lnl_folded(&co, &runs, &w, &weights, &scale);
                let opts = NewtonOptions::default();
                let mut want_work = WorkCounter::new();
                let want_t = oracle::optimize_branch(
                    &model,
                    &cats,
                    &runs,
                    &w,
                    &weights,
                    0.2,
                    &opts,
                    &mut want_work,
                );
                let tag = format!("np={np} stride={stride} ncat={ncat}");
                let got = lnl_d012_folded(&deriv, &runs, &planes, &bound);
                assert_bits(got.0, want.0, "lnL", &tag);
                assert_bits(got.1, want.1, "d1", &tag);
                assert_bits(got.2, want.2, "d2", &tag);
                let lnl = branch_lnl_folded(&co, &runs, &planes, &bound, &scale);
                assert_bits(lnl, want_lnl, "branch lnL", &tag);
                let mut scratch = KernelScratch::new(&cats);
                let mut work = WorkCounter::new();
                let t = optimize_branch_dispatch(
                    KernelMode::Optimized,
                    &model,
                    &cats,
                    &mut scratch,
                    &w,
                    &bound,
                    0.2,
                    &opts,
                    &mut work,
                );
                assert_bits(t, want_t, "optimized t", &tag);
                assert_eq!(work, want_work, "work ({tag})");
            }
        }
    }

    /// Enough factors close to 2 in one block that the running mantissa
    /// passes `1e128` in the middle of a stage: the fold must renormalize
    /// at the pattern where `mul_pow` does — in a stage of unit weights,
    /// and in one that carries a weight. (`PAR_BLOCK` factors cannot get
    /// there — 2^256 < 1e128 — so the block kernel is driven directly over
    /// a longer range.)
    #[test]
    fn renormalize_fires_mid_stage_like_mul_pow() {
        let model = F84Model::new([0.3, 0.2, 0.25, 0.25], 2.0);
        let np = 1000;
        let cats = RateCategories::single(np);
        let runs = category_runs(&cats);
        let mut deriv = EdgeDerivCoefficients::default();
        deriv.fill(&model, &cats, 0.37);
        let c1 = deriv.per_cat[0].value.c1;
        let mut next = unit_stream(0x1e128);
        let w: Vec<WTerms> = (0..np)
            .map(|_| WTerms {
                w1: (1.9 + 0.0999 * next()) / c1,
                w2: 0.0,
                w3: 0.0,
            })
            .collect();
        // Every factor has exponent 0, so the running exponent leaves 0 at
        // the renormalize: it happens, and not on a stage's last pattern.
        let mut prod = LnProd::new();
        let crossing = (0..np)
            .find(|&p| {
                prod.mul_pow(c1 * w[p].w1, 1);
                prod.exponent != 0
            })
            .expect("the product crosses 1e128");
        assert!(crossing % STAGE != STAGE - 1, "crossing at {crossing}");
        // A weight right behind the crossing puts it in a weighted stage.
        for (at, tag) in [(700, "unit stage"), (crossing + 1, "weighted stage")] {
            let mut weights = vec![1u32; np];
            weights[at] = 3;
            let bound = PatternWeights::new(&weights);
            let want = oracle::lnl_d012_block(&deriv, &runs, &w, &weights, 0, np);
            let planes = WPlanes::new(&w);
            let got = objective_block::<true>(&deriv_coef(&deriv), &runs, &planes, &bound, 0, np);
            assert_eq!(
                got.prod.mantissa.to_bits(),
                want.0.mantissa.to_bits(),
                "{tag}"
            );
            assert_eq!(got.prod.exponent, want.0.exponent, "{tag}");
            assert_bits(got.prod.value(), want.0.value(), "lnL", tag);
            assert_bits(got.d1, want.1, "d1", tag);
            assert_bits(got.d2, want.2, "d2", tag);
        }
    }

    /// The vectorized W-term assembly against the scalar original, bit for
    /// bit, on every lane, at sizes that exercise each lane's tail.
    #[test]
    fn w_terms_match_the_scalar_original_bit_for_bit() {
        let model = F84Model::new([0.31, 0.19, 0.27, 0.23], 2.0);
        for np in [1usize, 7, 8, 9, 37, 257] {
            let mut next = unit_stream(0xBEEF + np as u64);
            let u: Vec<f64> = (0..np * 4).map(|_| 1e-3 + next()).collect();
            let d: Vec<f64> = (0..np * 4).map(|_| 1e-30 * next()).collect();
            let mut want = vec![WTerms::ZERO; np];
            oracle::w_terms(&model, &u, &d, &mut want);
            for lane in supported_lanes() {
                isa::set_isa(Some(lane)).unwrap();
                let mut got = vec![WTerms::ZERO; np];
                w_terms_folded(&model, &u, &d, &mut got);
                for (p, (g, w)) in got.iter().zip(&want).enumerate() {
                    let tag = format!("np={np} lane={lane} pattern {p}");
                    assert_bits(g.w1, w.w1, "w1", &tag);
                    assert_bits(g.w2, w.w2, "w2", &tag);
                    assert_bits(g.w3, w.w3, "w3", &tag);
                }
            }
        }
        isa::set_isa(None).unwrap();
    }

    #[cfg(target_arch = "x86_64")]
    #[test]
    fn vector_lanes_match_scalar_bitwise() {
        use crate::isa::KernelIsa;
        // 37 patterns: exercises the 8-wide, 4-wide, and scalar tails.
        let np = 37;
        let mut state = 0xfeed_beef_u64;
        let mut next = || {
            state ^= state >> 12;
            state ^= state << 25;
            state ^= state >> 27;
            state.wrapping_mul(0x2545_f491_4f6c_dd1d)
        };
        let mut rand_clv = |scale: f64| -> Vec<f64> {
            (0..np * 4)
                .map(|_| (next() % 10_000) as f64 / 10_000.0 * scale + 1e-9)
                .collect()
        };
        let x1 = rand_clv(1.0);
        let x2 = rand_clv(1e-3);
        let freqs = [0.31, 0.19, 0.27, 0.23];
        let ca = FoldedCoefficients {
            c1: 0.8,
            c2: 0.1,
            c2r: 0.17,
            c2y: 0.24,
            c3: 0.05,
        };
        let cb = FoldedCoefficients {
            c1: 0.6,
            c2: 0.2,
            c2r: 0.35,
            c2y: 0.48,
            c3: 0.11,
        };
        let mut out_s = vec![0.0; np * 4];
        let mut maxes_s = vec![0.0; np];
        for p in 0..np {
            maxes_s[p] = combine_pattern(
                &freqs,
                &ca,
                &cb,
                &x1[p * 4..p * 4 + 4],
                &x2[p * 4..p * 4 + 4],
                &mut out_s[p * 4..p * 4 + 4],
            );
        }
        type SpanFn<'a> = &'a dyn Fn(&mut [f64], &mut [f64]) -> usize;
        let lanes: [(KernelIsa, SpanFn); 2] = [
            (KernelIsa::Avx2, &|out, maxes| unsafe {
                x86::combine_span_avx2(&freqs, &ca, &cb, &x1, &x2, out, maxes)
            }),
            (KernelIsa::Avx512, &|out, maxes| unsafe {
                x86::combine_span_avx512(&freqs, &ca, &cb, &x1, &x2, out, maxes)
            }),
        ];
        for (lane, run) in lanes {
            if !lane.supported() {
                continue;
            }
            let mut out_v = vec![0.0; np * 4];
            let mut maxes_v = vec![0.0; np];
            let done = run(&mut out_v, &mut maxes_v);
            assert!(done > 0 && done % 4 == 0, "{lane}: processed {done}");
            for i in 0..done {
                assert_eq!(
                    out_s[i].to_bits(),
                    out_v[i].to_bits(),
                    "{lane}: double {i} differs"
                );
            }
            for p in 0..done / 4 {
                assert_eq!(
                    maxes_s[p].to_bits(),
                    maxes_v[p].to_bits(),
                    "{lane}: max {p} differs"
                );
            }
        }
    }
}
