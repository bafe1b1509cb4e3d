//! The F84 substitution model (Felsenstein 1984), the model of DNAml and
//! fastDNAml.
//!
//! F84 is a continuous-time reversible Markov model over `{A, C, G, T}` with
//! two kinds of events:
//!
//! * at rate `μ`, the base is replaced by a draw from the equilibrium
//!   frequencies `π` (possibly the same base);
//! * at rate `μ·k`, the base is replaced by a draw from `π` restricted to
//!   its own group (purines `{A,G}` or pyrimidines `{C,T}`), which generates
//!   the excess of transitions over transversions.
//!
//! The transition probability matrix has the closed form
//!
//! ```text
//! P(t) = c1(u)·I + c2(u)·B + c3(u)·Π
//! c1 = e^{-u(1+k)},   c2 = e^{-u}(1 - e^{-uk}),   c3 = 1 - e^{-u}
//! ```
//!
//! where `B[i][j] = [group(i)=group(j)]·π_j/π_group(j)`, `Π[i][j] = π_j`,
//! and `u = t·rate/fracchange` converts a branch length `t` in *expected
//! substitutions per site* into event time. `k` is derived from the
//! user-visible transition/transversion ratio exactly as PHYLIP's
//! `getbasefreqs` does. Derivatives of the three coefficients with respect
//! to `t` are available in closed form, which is what makes Newton
//! branch-length optimization cheap (see [`crate::newton`]).

use fdml_phylo::dna::{A, C, G, NUM_STATES, T};
use serde::{Deserialize, Serialize};

/// Default transition/transversion ratio, fastDNAml's default.
pub const DEFAULT_TT_RATIO: f64 = 2.0;

/// A fully specified F84 model.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct F84Model {
    /// Equilibrium frequencies `π` (sum to one).
    pub freqs: [f64; NUM_STATES],
    /// Transition/transversion ratio `R` the model was built from.
    pub tt_ratio: f64,
    /// Within-group event rate multiplier `k` implied by `R`.
    k: f64,
    /// Expected substitutions per unit event-time: the normalizer that makes
    /// branch lengths mean substitutions per site.
    fracchange: f64,
    /// π_A + π_G.
    freq_r: f64,
    /// π_C + π_T.
    freq_y: f64,
    /// `1/π_R`, divided once here: the combine and W-term kernels
    /// multiply by it on every coefficient fill and pattern block.
    inv_freq_r: f64,
    /// `1/π_Y`.
    inv_freq_y: f64,
}

impl F84Model {
    /// Build an F84 model from equilibrium frequencies and a
    /// transition/transversion ratio.
    ///
    /// Follows PHYLIP: `k = aa/bb` with
    /// `aa = R·π_R·π_Y − π_Aπ_G − π_Cπ_T` and
    /// `bb = π_Aπ_G/π_R + π_Cπ_T/π_Y`. Ratios too small to be achievable
    /// (`aa ≤ 0`) are clamped to a minimal transition excess, mirroring
    /// DNAml's warning-and-clamp behaviour.
    pub fn new(freqs: [f64; NUM_STATES], tt_ratio: f64) -> F84Model {
        let sum: f64 = freqs.iter().sum();
        assert!(
            (sum - 1.0).abs() < 1e-9 && freqs.iter().all(|&f| f > 0.0),
            "frequencies must be positive and sum to 1, got {freqs:?}"
        );
        let freq_r = freqs[A] + freqs[G];
        let freq_y = freqs[C] + freqs[T];
        let ag = freqs[A] * freqs[G];
        let ct = freqs[C] * freqs[T];
        let aa = tt_ratio * freq_r * freq_y - ag - ct;
        let bb = ag / freq_r + ct / freq_y;
        let k = if aa > 0.0 { aa / bb } else { 1e-6 };
        // Expected substitutions per unit time with event rates (1, k):
        //   type-1 events change the base with prob 1 - Σπ²;
        //   type-2 events with prob 2π_Aπ_G/π_R + 2π_Cπ_T/π_Y.
        let pi2: f64 = freqs.iter().map(|f| f * f).sum();
        let fracchange = (1.0 - pi2) + k * (2.0 * ag / freq_r + 2.0 * ct / freq_y);
        F84Model {
            freqs,
            tt_ratio,
            k,
            fracchange,
            freq_r,
            freq_y,
            inv_freq_r: 1.0 / freq_r,
            inv_freq_y: 1.0 / freq_y,
        }
    }

    /// Model with uniform frequencies: F84 degenerates toward Kimura's
    /// two-parameter model (and to Jukes–Cantor when `tt_ratio = 0.5`).
    pub fn uniform(tt_ratio: f64) -> F84Model {
        F84Model::new([0.25; NUM_STATES], tt_ratio)
    }

    /// Model from an alignment's empirical base composition with the default
    /// transition/transversion ratio — fastDNAml's defaults.
    pub fn from_alignment(alignment: &fdml_phylo::alignment::Alignment) -> F84Model {
        F84Model::new(alignment.empirical_frequencies(), DEFAULT_TT_RATIO)
    }

    /// The within-group rate multiplier `k` implied by the tt-ratio.
    pub fn k(&self) -> f64 {
        self.k
    }

    /// The branch-length normalizer.
    pub fn fracchange(&self) -> f64 {
        self.fracchange
    }

    /// Frequency of the group (purines or pyrimidines) containing `state`.
    #[inline]
    pub fn group_freq(&self, state: usize) -> f64 {
        if state == A || state == G {
            self.freq_r
        } else {
            self.freq_y
        }
    }

    /// Purine total frequency π_R.
    pub fn freq_r(&self) -> f64 {
        self.freq_r
    }

    /// Pyrimidine total frequency π_Y.
    pub fn freq_y(&self) -> f64 {
        self.freq_y
    }

    /// `1/π_R`, cached at construction.
    pub fn inv_freq_r(&self) -> f64 {
        self.inv_freq_r
    }

    /// `1/π_Y`, cached at construction.
    pub fn inv_freq_y(&self) -> f64 {
        self.inv_freq_y
    }

    /// The coefficient triple `(c1, c2, c3)` for a branch of length `t`
    /// (expected substitutions per site) evolving at `rate`.
    #[inline]
    pub fn coefficients(&self, t: f64, rate: f64) -> Coefficients {
        let u = t * rate / self.fracchange;
        let e1 = (-u).exp();
        let ek = (-u * self.k).exp();
        let c1 = e1 * ek;
        Coefficients {
            c1,
            c2: e1 - c1,
            c3: 1.0 - e1,
        }
    }

    /// Coefficients plus their first and second derivatives with respect to
    /// the branch length `t` (at evolution rate `rate`).
    #[inline]
    pub fn coefficients_d2(&self, t: f64, rate: f64) -> CoefficientsD2 {
        let q = rate / self.fracchange;
        let u = t * q;
        let e1 = (-u).exp();
        let ek = (-u * self.k).exp();
        let c1 = e1 * ek;
        let kp1 = 1.0 + self.k;
        let value = Coefficients {
            c1,
            c2: e1 - c1,
            c3: 1.0 - e1,
        };
        let d1 = Coefficients {
            c1: -q * kp1 * c1,
            c2: q * (kp1 * c1 - e1),
            c3: q * e1,
        };
        let d2 = Coefficients {
            c1: q * q * kp1 * kp1 * c1,
            c2: q * q * (e1 - kp1 * kp1 * c1),
            c3: -q * q * e1,
        };
        CoefficientsD2 { value, d1, d2 }
    }

    /// The full 4×4 transition probability matrix `P[i][j](t)` at `rate`.
    /// Row `i` is the current state; column `j` the state after time `t`.
    #[allow(clippy::needless_range_loop)] // i/j index math over a 4×4 matrix
    pub fn transition_matrix(&self, t: f64, rate: f64) -> [[f64; NUM_STATES]; NUM_STATES] {
        let Coefficients { c1, c2, c3 } = self.coefficients(t, rate);
        let mut p = [[0.0; NUM_STATES]; NUM_STATES];
        for i in 0..NUM_STATES {
            for j in 0..NUM_STATES {
                let same_group =
                    self.group_freq(i) == self.group_freq(j) && is_purine(i) == is_purine(j);
                let within = if same_group {
                    self.freqs[j] / self.group_freq(j)
                } else {
                    0.0
                };
                p[i][j] = c3 * self.freqs[j] + c2 * within + if i == j { c1 } else { 0.0 };
            }
        }
        p
    }
}

#[inline]
fn is_purine(state: usize) -> bool {
    state == A || state == G
}

/// The F84 coefficient triple.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Coefficients {
    /// Weight of the identity term.
    pub c1: f64,
    /// Weight of the within-group term.
    pub c2: f64,
    /// Weight of the equilibrium term.
    pub c3: f64,
}

/// Coefficients with first and second branch-length derivatives.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CoefficientsD2 {
    /// `(c1, c2, c3)` at `t`.
    pub value: Coefficients,
    /// `d/dt` of each coefficient.
    pub d1: Coefficients,
    /// `d²/dt²` of each coefficient.
    pub d2: Coefficients,
}

#[cfg(test)]
#[allow(clippy::needless_range_loop)] // 4×4 matrix index math reads clearest
mod tests {
    use super::*;

    fn hiv_like() -> F84Model {
        F84Model::new([0.36, 0.18, 0.24, 0.22], 2.0)
    }

    fn mat_mul(a: &[[f64; 4]; 4], b: &[[f64; 4]; 4]) -> [[f64; 4]; 4] {
        let mut out = [[0.0; 4]; 4];
        for i in 0..4 {
            for j in 0..4 {
                for (k, bk) in b.iter().enumerate() {
                    out[i][j] += a[i][k] * bk[j];
                }
            }
        }
        out
    }

    #[test]
    fn rows_sum_to_one() {
        let m = hiv_like();
        for t in [0.0, 0.01, 0.1, 1.0, 10.0] {
            let p = m.transition_matrix(t, 1.0);
            for (i, row) in p.iter().enumerate() {
                let s: f64 = row.iter().sum();
                assert!((s - 1.0).abs() < 1e-12, "t={t} row {i} sums to {s}");
                assert!(row.iter().all(|&x| (0.0..=1.0 + 1e-12).contains(&x)));
            }
        }
    }

    #[test]
    fn p_zero_is_identity() {
        let p = hiv_like().transition_matrix(0.0, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                let expected = if i == j { 1.0 } else { 0.0 };
                assert!((p[i][j] - expected).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn p_infinity_is_equilibrium() {
        let m = hiv_like();
        let p = m.transition_matrix(500.0, 1.0);
        for row in &p {
            for j in 0..4 {
                assert!((row[j] - m.freqs[j]).abs() < 1e-9);
            }
        }
    }

    #[test]
    fn detailed_balance() {
        let m = hiv_like();
        let p = m.transition_matrix(0.3, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!(
                    (m.freqs[i] * p[i][j] - m.freqs[j] * p[j][i]).abs() < 1e-12,
                    "π_{i}P[{i}{j}] ≠ π_{j}P[{j}{i}]"
                );
            }
        }
    }

    #[test]
    fn chapman_kolmogorov() {
        let m = hiv_like();
        let p1 = m.transition_matrix(0.2, 1.0);
        let p2 = m.transition_matrix(0.5, 1.0);
        let p12 = m.transition_matrix(0.7, 1.0);
        let prod = mat_mul(&p1, &p2);
        for i in 0..4 {
            for j in 0..4 {
                assert!((prod[i][j] - p12[i][j]).abs() < 1e-10, "entry {i}{j}");
            }
        }
    }

    #[test]
    fn branch_length_is_expected_substitutions() {
        // d/dt of P(change) at t=0 must equal 1 (per-site substitution rate).
        let m = hiv_like();
        let dt = 1e-7;
        let p = m.transition_matrix(dt, 1.0);
        let p_change: f64 = (0..4).map(|i| m.freqs[i] * (1.0 - p[i][i])).sum();
        assert!(
            (p_change / dt - 1.0).abs() < 1e-4,
            "expected change rate 1, got {}",
            p_change / dt
        );
    }

    #[test]
    fn rate_multiplier_scales_time() {
        let m = hiv_like();
        let a = m.transition_matrix(0.1, 3.0);
        let b = m.transition_matrix(0.3, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((a[i][j] - b[i][j]).abs() < 1e-14);
            }
        }
    }

    #[test]
    fn tt_ratio_observed_matches_requested() {
        // At equilibrium, instantaneous transition/transversion flux ratio
        // should equal the requested R (when achievable: R = 0.5 is below
        // the zero-excess baseline for these frequencies and gets clamped,
        // which `unachievable_tt_ratio_clamped` covers).
        for r in [1.0, 2.0, 10.0] {
            let m = F84Model::new([0.3, 0.2, 0.25, 0.25], r);
            let dt = 1e-7;
            let p = m.transition_matrix(dt, 1.0);
            let mut ts = 0.0; // transitions
            let mut tv = 0.0; // transversions
            for i in 0..4 {
                for j in 0..4 {
                    if i == j {
                        continue;
                    }
                    let flux = m.freqs[i] * p[i][j];
                    if is_purine(i) == is_purine(j) {
                        ts += flux;
                    } else {
                        tv += flux;
                    }
                }
            }
            assert!(
                (ts / tv - r).abs() < 1e-3,
                "requested R={r}, observed {}",
                ts / tv
            );
        }
    }

    #[test]
    fn unachievable_tt_ratio_clamped() {
        // Very small R cannot be realized; k clamps near zero rather than
        // going negative.
        let m = F84Model::new([0.25; 4], 0.01);
        assert!(m.k() >= 0.0);
        let p = m.transition_matrix(0.1, 1.0);
        for row in &p {
            assert!((row.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn coefficients_sum_to_one_on_rows() {
        // c1 + c2 + c3 = 1 ensures stochasticity.
        let m = hiv_like();
        for t in [0.001, 0.1, 2.0] {
            let c = m.coefficients(t, 1.0);
            assert!((c.c1 + c.c2 + c.c3 - 1.0).abs() < 1e-12);
            assert!(c.c1 >= 0.0 && c.c2 >= 0.0 && c.c3 >= 0.0);
        }
    }

    #[test]
    fn derivative_coefficients_match_finite_differences() {
        let m = hiv_like();
        let t = 0.37;
        let h = 1e-6;
        let d = m.coefficients_d2(t, 1.3);
        let plus = m.coefficients(t + h, 1.3);
        let minus = m.coefficients(t - h, 1.3);
        for (get, name) in [
            (|c: &Coefficients| c.c1, "c1"),
            (|c: &Coefficients| c.c2, "c2"),
            (|c: &Coefficients| c.c3, "c3"),
        ] as [(fn(&Coefficients) -> f64, &str); 3]
        {
            let fd1 = (get(&plus) - get(&minus)) / (2.0 * h);
            let fd2 = (get(&plus) - 2.0 * get(&d.value) + get(&minus)) / (h * h);
            assert!((fd1 - get(&d.d1)).abs() < 1e-6, "{name} first derivative");
            assert!((fd2 - get(&d.d2)).abs() < 1e-3, "{name} second derivative");
        }
    }

    #[test]
    #[should_panic]
    fn bad_frequencies_panic() {
        F84Model::new([0.5, 0.5, 0.5, 0.5], 2.0);
    }

    #[test]
    fn uniform_model_is_symmetric() {
        let m = F84Model::uniform(2.0);
        let p = m.transition_matrix(0.4, 1.0);
        for i in 0..4 {
            for j in 0..4 {
                assert!((p[i][j] - p[j][i]).abs() < 1e-14);
            }
        }
    }
}
