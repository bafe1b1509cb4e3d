//! Conditional likelihood vector (CLV) layout, scaling constants, and tip
//! vectors: the pieces shared by both kernel implementations.
//!
//! A CLV anchored at node `m` for a region `X` of the tree stores, for every
//! site pattern `p` and state `s`, `P(data of X at pattern p | state(m)=s)`.
//! CLVs are laid out flat as `clv[p*4 + s]`, with a per-pattern scaling
//! exponent vector alongside to prevent underflow on large trees (the
//! normalization the paper lists among fastDNAml's improvements: "the
//! conditional likelihoods … have been normalized to prevent floating point
//! underflow in the case of very large trees").
//!
//! Propagation through a branch uses the F84 three-term decomposition: for
//! a CLV `L` crossing a branch with coefficients `(c1, c2, c3)`,
//!
//! ```text
//! prop(L)(x) = c1·L(x) + c2·S_group(x)/π_group(x) + c3·S
//! S_R = Σ_{s∈{A,G}} π_s L(s),   S_Y = Σ_{s∈{C,T}} π_s L(s),   S = S_R + S_Y
//! ```
//!
//! which is 4 multiply-adds for the sums plus ~3 flops per state — the whole
//! kernel is O(patterns), independent of any 4×4 matrix multiplication.
//!
//! The kernels themselves live in two sibling modules:
//! [`crate::kernels`] (blocked, division-free, autovectorization-friendly —
//! the default) and [`crate::reference`] (the original scalar code, kept as
//! the equivalence oracle and benchmark baseline).

use fdml_phylo::dna::NUM_STATES;
use fdml_phylo::patterns::PatternAlignment;

/// Rescaling threshold: when every state's CLV entry for a pattern drops
/// below this, the pattern is rescaled.
pub const SCALE_THRESHOLD: f64 = 1e-100;
/// The rescaling multiplier (1 / SCALE_THRESHOLD).
pub const SCALE_FACTOR: f64 = 1e100;
/// Natural log of the *true* factor each scale count represents
/// (`ln(1e-100)`), added per count when assembling the final log-likelihood.
pub const LN_SCALE: f64 = -230.25850929940458;

/// Fill `clv` with the tip vector of `taxon`: 1.0 for every state compatible
/// with the observed (possibly ambiguous) character, else 0.0.
pub fn fill_tip_clv(patterns: &PatternAlignment, taxon: usize, clv: &mut [f64]) {
    let np = patterns.num_patterns();
    debug_assert_eq!(clv.len(), np * NUM_STATES);
    for p in 0..np {
        let mask = patterns.state(p, taxon);
        for s in 0..NUM_STATES {
            clv[p * NUM_STATES + s] = if mask.allows(s) { 1.0 } else { 0.0 };
        }
    }
}

/// The three per-pattern terms of the F84 edge likelihood
/// `f_p(t) = c1·W1 + c2·W2 + c3·W3` between two CLVs anchored at the two
/// ends of a branch.
///
/// `repr(C)`: the vector lanes of the W-term kernel in [`crate::kernels`]
/// store a `[WTerms]` as a flat run of `f64` triples, interleaved in
/// registers.
#[derive(Debug, Clone, Copy, PartialEq)]
#[repr(C)]
pub struct WTerms {
    /// Identity term `Σ_s π_s U(s) D(s)`.
    pub w1: f64,
    /// Within-group term `Σ_g R_g(U)·R_g(D)/π_g`.
    pub w2: f64,
    /// Equilibrium term `(Σ_s π_s U(s))·(Σ_s π_s D(s))`.
    pub w3: f64,
}

impl WTerms {
    /// The all-zero terms, used to size scratch buffers.
    pub const ZERO: WTerms = WTerms {
        w1: 0.0,
        w2: 0.0,
        w3: 0.0,
    };
}

#[cfg(test)]
mod tests {
    use super::*;
    use fdml_phylo::alignment::Alignment;

    #[test]
    fn tip_clv_respects_masks() {
        let a = Alignment::from_strings(&[("x", "ACGTN"), ("y", "AAGTC"), ("z", "TCGAA")]).unwrap();
        let p = PatternAlignment::compress(&a);
        let mut clv = vec![0.0; p.num_patterns() * 4];
        fill_tip_clv(&p, 0, &mut clv);
        for pat in 0..p.num_patterns() {
            let mask = p.state(pat, 0);
            for s in 0..4 {
                let v = clv[pat * 4 + s];
                assert_eq!(v, if mask.allows(s) { 1.0 } else { 0.0 });
            }
        }
    }

    #[test]
    fn ln_scale_constant_is_consistent() {
        assert!((LN_SCALE - SCALE_THRESHOLD.ln()).abs() < 1e-9);
        assert!((SCALE_FACTOR * SCALE_THRESHOLD - 1.0).abs() < 1e-12);
    }
}
