//! Newton–Raphson branch-length optimization.
//!
//! Given the per-pattern W-terms of one branch (see [`crate::clv`]), the
//! branch log-likelihood and its first two derivatives with respect to the
//! branch length cost O(patterns) per candidate length — no CLV updates —
//! because only the three F84 coefficients depend on `t`:
//!
//! ```text
//! ℓ(t)  = Σ_p w_p ln f_p(t),      f_p = c1·W1 + c2·W2 + c3·W3
//! ℓ'(t) = Σ_p w_p f'_p / f_p
//! ℓ''(t)= Σ_p w_p (f''_p/f_p − (f'_p/f_p)²)
//! ```
//!
//! The iteration is the safeguarded Newton ascent DNAml uses: take the
//! Newton step when the curvature is negative, otherwise double or halve,
//! and clamp to the representable branch-length range.

use crate::categories::RateCategories;
use crate::clv::WTerms;
use crate::f84::F84Model;
use crate::work::WorkCounter;

/// Smallest representable branch length (DNAml's `zmin` analog).
pub const MIN_BRANCH_LENGTH: f64 = 1e-8;
/// Largest branch length considered (effectively saturated).
pub const MAX_BRANCH_LENGTH: f64 = 30.0;

/// Options for one branch optimization.
#[derive(Debug, Clone, Copy)]
pub struct NewtonOptions {
    /// Maximum Newton iterations per branch.
    pub max_iters: usize,
    /// Convergence threshold on the relative length change.
    pub tolerance: f64,
}

impl Default for NewtonOptions {
    fn default() -> NewtonOptions {
        NewtonOptions {
            max_iters: 12,
            tolerance: 1e-6,
        }
    }
}

/// Branch log-likelihood (up to the constant scaling offset) and its first
/// and second derivatives at `t`.
pub fn log_likelihood_d012(
    model: &F84Model,
    cats: &RateCategories,
    t: f64,
    w: &[WTerms],
    weights: &[u32],
) -> (f64, f64, f64) {
    let per_cat: Vec<_> = (0..cats.num_categories())
        .map(|c| model.coefficients_d2(t, cats.rate(c)))
        .collect();
    let mut lnl = 0.0;
    let mut d1 = 0.0;
    let mut d2 = 0.0;
    for (p, terms) in w.iter().enumerate() {
        let co = &per_cat[cats.category_of(p)];
        let f = (co.value.c1 * terms.w1 + co.value.c2 * terms.w2 + co.value.c3 * terms.w3)
            .max(f64::MIN_POSITIVE);
        let fp = co.d1.c1 * terms.w1 + co.d1.c2 * terms.w2 + co.d1.c3 * terms.w3;
        let fpp = co.d2.c1 * terms.w1 + co.d2.c2 * terms.w2 + co.d2.c3 * terms.w3;
        let wgt = weights[p] as f64;
        let r = fp / f;
        lnl += wgt * f.ln();
        d1 += wgt * r;
        d2 += wgt * (fpp / f - r * r);
    }
    (lnl, d1, d2)
}

/// First and second derivative of the branch log-likelihood at `t`.
pub fn log_likelihood_derivatives(
    model: &F84Model,
    cats: &RateCategories,
    t: f64,
    w: &[WTerms],
    weights: &[u32],
) -> (f64, f64) {
    let (_, d1, d2) = log_likelihood_d012(model, cats, t, w, weights);
    (d1, d2)
}

/// The safeguarded Newton ascent shared by both kernel paths: `eval(t)`
/// returns `(lnL, d1, d2)` at a candidate length (and does its own work
/// accounting). Factored out so the optimized fused-kernel objective in
/// [`crate::kernels`] and the scalar reference objective iterate through
/// byte-identical control flow.
///
/// The result is always a point `eval` has measured, the best of them, so
/// it is never worse than `t0`. A step within tolerance ends the loop
/// without being taken: it lies within tolerance of a measured point, so
/// measuring it buys nothing (DNAml's `makenewz` has no such step either),
/// and a branch that starts converged costs one evaluation and keeps `t0`
/// bit for bit. Running out of `max_iters` is different: a branch climbing
/// off [`MIN_BRANCH_LENGTH`] by doubling ends on a step of a factor of two,
/// and skipping its measurement lands `optimize` in other local optima —
/// that exit measures its last step.
pub(crate) fn newton_loop(
    t0: f64,
    opts: &NewtonOptions,
    eval: &mut dyn FnMut(f64) -> (f64, f64, f64),
) -> f64 {
    if opts.max_iters == 0 {
        // Optimization disabled: keep the starting length exactly (the
        // clamp below would perturb lengths outside the representable
        // range, breaking "evaluate at given lengths" semantics).
        return t0;
    }
    let mut t = t0.clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH);
    let mut best_t = t;
    let mut best_lnl = f64::NEG_INFINITY;
    for _ in 0..opts.max_iters {
        let (lnl, d1, d2) = eval(t);
        // Track the best point actually visited: Newton steps can overshoot
        // and reduce the likelihood, but returning the argmax over visited
        // points makes the optimization monotone (never worse than t0).
        if lnl > best_lnl {
            best_lnl = lnl;
            best_t = t;
        }
        let next = if d2 < 0.0 {
            // Newton ascent step.
            (t - d1 / d2).clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH)
        } else if d1 > 0.0 {
            // Convex region, likelihood still rising: move outward.
            (t * 2.0).min(MAX_BRANCH_LENGTH)
        } else {
            // Convex region, likelihood falling: move inward aggressively
            // (boundary optima at t → 0 are common for identical sequences).
            (t * 0.1).max(MIN_BRANCH_LENGTH)
        };
        if (next - t).abs() <= opts.tolerance * next.max(1e-3) {
            return best_t;
        }
        t = next;
    }
    // Out of iterations: the last step is reached but not yet measured.
    let (lnl, _, _) = eval(t);
    if lnl > best_lnl {
        best_t = t;
    }
    best_t
}

/// Maximize the branch log-likelihood over the branch length, starting from
/// `t0`. Returns the optimized length; accumulates per-pattern Newton work
/// into `work`. This is the scalar-objective entry point (the seed's code
/// path, including its per-evaluation coefficient allocation); the engine's
/// default path goes through
/// [`crate::kernels::optimize_branch_dispatch`].
pub fn optimize_branch(
    model: &F84Model,
    cats: &RateCategories,
    w: &[WTerms],
    weights: &[u32],
    t0: f64,
    opts: &NewtonOptions,
    work: &mut WorkCounter,
) -> f64 {
    newton_loop(t0, opts, &mut |t| {
        work.newton_pattern_iters += w.len() as u64;
        log_likelihood_d012(model, cats, t, w, weights)
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::reference::edge_log_likelihood;

    fn model() -> F84Model {
        F84Model::new([0.3, 0.2, 0.25, 0.25], 2.0)
    }

    /// W-terms for a two-tip system where both tips observe the same
    /// unambiguous base — the likelihood should be maximized at t → 0.
    fn identical_tip_terms() -> (Vec<WTerms>, Vec<u32>) {
        // U = D = indicator of A.
        let m = model();
        let mut terms = vec![WTerms {
            w1: 0.0,
            w2: 0.0,
            w3: 0.0,
        }];
        let u = [1.0, 0.0, 0.0, 0.0];
        crate::reference::edge_w_terms(&m, &u, &u, &mut terms);
        (terms, vec![1])
    }

    /// The loop before converged exits stopped measuring their last step:
    /// every exit closes with an evaluation. The exhausted exit must still
    /// agree with it bit for bit.
    fn closing_loop(
        t0: f64,
        opts: &NewtonOptions,
        eval: &mut dyn FnMut(f64) -> (f64, f64, f64),
    ) -> f64 {
        let mut t = t0.clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH);
        let (mut best_t, mut best_lnl) = (t, f64::NEG_INFINITY);
        for _ in 0..opts.max_iters {
            let (lnl, d1, d2) = eval(t);
            if lnl > best_lnl {
                (best_t, best_lnl) = (t, lnl);
            }
            let next = if d2 < 0.0 {
                (t - d1 / d2).clamp(MIN_BRANCH_LENGTH, MAX_BRANCH_LENGTH)
            } else if d1 > 0.0 {
                (t * 2.0).min(MAX_BRANCH_LENGTH)
            } else {
                (t * 0.1).max(MIN_BRANCH_LENGTH)
            };
            let delta = (next - t).abs();
            t = next;
            if delta <= opts.tolerance * t.max(1e-3) {
                break;
            }
        }
        if eval(t).0 > best_lnl {
            best_t = t;
        }
        best_t
    }

    /// Run `newton_loop` over `objective`, recording where it was called.
    fn counted(
        t0: f64,
        opts: &NewtonOptions,
        objective: impl Fn(f64) -> (f64, f64, f64),
    ) -> (f64, Vec<f64>) {
        let mut calls = Vec::new();
        let t = newton_loop(t0, opts, &mut |t| {
            calls.push(t);
            objective(t)
        });
        (t, calls)
    }

    /// `-(t - 0.3)²`: the Newton step lands on 0.3 from anywhere.
    fn parabola(t: f64) -> (f64, f64, f64) {
        (-(t - 0.3) * (t - 0.3), -2.0 * (t - 0.3), -2.0)
    }

    #[test]
    fn converged_start_costs_one_evaluation_and_keeps_t0() {
        let opts = NewtonOptions::default();
        for t0 in [0.3, 0.3 + 1e-8, 0.3 - 2e-7] {
            let (t, calls) = counted(t0, &opts, parabola);
            assert_eq!(calls, [t0]);
            assert_eq!(t.to_bits(), t0.to_bits());
        }
    }

    #[test]
    fn converged_exit_returns_a_measured_point_without_a_closing_call() {
        // `-(t - 0.3)⁴`: Newton closes a third of the gap per step, so the
        // loop runs many iterations before a step falls within tolerance.
        let quartic = |t: f64| {
            let x = t - 0.3;
            (-x.powi(4), -4.0 * x.powi(3), -12.0 * x * x)
        };
        let opts = NewtonOptions {
            max_iters: 60,
            tolerance: 1e-6,
        };
        let (t, calls) = counted(0.05, &opts, quartic);
        assert!(calls.len() > 10 && calls.len() < opts.max_iters);
        // The last call is the iteration whose step was within tolerance —
        // nothing was evaluated behind it — and every earlier step was not.
        let converged = |at: f64| {
            let (_, d1, d2) = quartic(at);
            let next = at - d1 / d2;
            (next - at).abs() <= opts.tolerance * next.max(1e-3)
        };
        let (last, earlier) = calls.split_last().unwrap();
        assert!(converged(*last));
        assert!(earlier.iter().all(|&at| !converged(at)));
        // The objective rises along the way, so the best measured point is
        // the last one.
        assert_eq!(t.to_bits(), last.to_bits());
        // One step from the parabola's far side: two calls, none closing.
        let (t, calls) = counted(0.05, &NewtonOptions::default(), parabola);
        assert_eq!(calls.len(), 2);
        assert_eq!(t.to_bits(), calls[1].to_bits());
    }

    #[test]
    fn exhausted_exit_measures_its_last_step_like_the_closing_loop() {
        type Objective = fn(f64) -> (f64, f64, f64);
        // No curvature, so every step is a doubling or a ×0.1 and none is
        // ever within tolerance; the best point is the unmeasured last one.
        let rising: Objective = |t| (t, 1.0, 0.0);
        let falling: Objective = |t| (-t, -1.0, 0.0);
        // Doubling off the floor past a peak at 1.5e-6: the last step is
        // measured and found worse than the one before it.
        let peaked: Objective = |t| (-(t - 1.5e-6).abs(), 1.0, 0.0);
        let cases = [
            (rising, MIN_BRANCH_LENGTH, 12, MIN_BRANCH_LENGTH * 4096.0),
            (
                falling,
                MAX_BRANCH_LENGTH,
                5,
                MAX_BRANCH_LENGTH * 0.1f64.powi(5),
            ),
            (peaked, MIN_BRANCH_LENGTH, 8, MIN_BRANCH_LENGTH * 128.0),
        ];
        for (objective, t0, max_iters, want) in cases {
            let opts = NewtonOptions {
                max_iters,
                tolerance: 1e-6,
            };
            let (t, calls) = counted(t0, &opts, objective);
            assert_eq!(calls.len(), max_iters + 1);
            let mut parent_calls = 0;
            let parent = closing_loop(t0, &opts, &mut |t| {
                parent_calls += 1;
                objective(t)
            });
            assert_eq!(parent_calls, max_iters + 1);
            assert_eq!(t.to_bits(), parent.to_bits());
            assert!((t / want - 1.0).abs() < 1e-12, "{t} vs {want}");
        }
    }

    #[test]
    fn derivatives_match_finite_differences() {
        let m = model();
        let cats = RateCategories::new(vec![0.7, 1.8], vec![0, 1, 0]);
        let w = vec![
            WTerms {
                w1: 0.05,
                w2: 0.3,
                w3: 0.2,
            },
            WTerms {
                w1: 0.4,
                w2: 0.1,
                w3: 0.25,
            },
            WTerms {
                w1: 0.15,
                w2: 0.45,
                w3: 0.1,
            },
        ];
        let weights = [2u32, 1, 3];
        let scales = [0i32; 3];
        let t = 0.27;
        let h = 1e-6;
        let f = |x: f64| edge_log_likelihood(&m, &cats, x, &w, &weights, &scales);
        let (d1, d2) = log_likelihood_derivatives(&m, &cats, t, &w, &weights);
        let fd1 = (f(t + h) - f(t - h)) / (2.0 * h);
        let fd2 = (f(t + h) - 2.0 * f(t) + f(t - h)) / (h * h);
        assert!((d1 - fd1).abs() < 1e-5, "d1 {d1} vs fd {fd1}");
        assert!((d2 - fd2).abs() < 1e-2, "d2 {d2} vs fd {fd2}");
    }

    #[test]
    fn identical_sequences_drive_length_to_minimum() {
        let m = model();
        let cats = RateCategories::single(1);
        let (w, weights) = identical_tip_terms();
        let mut work = WorkCounter::new();
        let t = optimize_branch(
            &m,
            &cats,
            &w,
            &weights,
            0.5,
            &NewtonOptions::default(),
            &mut work,
        );
        assert!(t <= MIN_BRANCH_LENGTH * 10.0, "optimized length {t}");
        assert!(work.newton_pattern_iters > 0);
    }

    #[test]
    fn optimum_is_a_stationary_point() {
        // Mixed data: some sites agree, some differ → interior optimum.
        let m = model();
        let cats = RateCategories::single(2);
        let same = [1.0, 0.0, 0.0, 0.0];
        let diff = [0.0, 1.0, 0.0, 0.0];
        let mut w = vec![
            WTerms {
                w1: 0.0,
                w2: 0.0,
                w3: 0.0
            };
            2
        ];
        crate::reference::edge_w_terms(&m, &same, &same, &mut w[0..1]);
        crate::reference::edge_w_terms(&m, &same, &diff, &mut w[1..2]);
        let weights = [8u32, 2];
        let mut work = WorkCounter::new();
        let opts = NewtonOptions {
            max_iters: 40,
            tolerance: 1e-10,
        };
        let t = optimize_branch(&m, &cats, &w, &weights, 0.1, &opts, &mut work);
        assert!(t > MIN_BRANCH_LENGTH && t < MAX_BRANCH_LENGTH);
        let (d1, _) = log_likelihood_derivatives(&m, &cats, t, &w, &weights);
        assert!(d1.abs() < 1e-4, "gradient at optimum: {d1}");
        // And it is actually a maximum: nearby values are worse.
        let scales = [0i32; 2];
        let at = edge_log_likelihood(&m, &cats, t, &w, &weights, &scales);
        let lo = edge_log_likelihood(&m, &cats, t * 0.8, &w, &weights, &scales);
        let hi = edge_log_likelihood(&m, &cats, t * 1.25, &w, &weights, &scales);
        assert!(at >= lo && at >= hi);
    }

    #[test]
    fn optimum_independent_of_start() {
        let m = model();
        let cats = RateCategories::single(2);
        let same = [1.0, 0.0, 0.0, 0.0];
        let diff = [0.0, 0.0, 1.0, 0.0];
        let mut w = vec![
            WTerms {
                w1: 0.0,
                w2: 0.0,
                w3: 0.0
            };
            2
        ];
        crate::reference::edge_w_terms(&m, &same, &same, &mut w[0..1]);
        crate::reference::edge_w_terms(&m, &same, &diff, &mut w[1..2]);
        let weights = [5u32, 1];
        let opts = NewtonOptions {
            max_iters: 60,
            tolerance: 1e-12,
        };
        let mut wk = WorkCounter::new();
        let t_a = optimize_branch(&m, &cats, &w, &weights, 0.01, &opts, &mut wk);
        let t_b = optimize_branch(&m, &cats, &w, &weights, 3.0, &opts, &mut wk);
        assert!((t_a - t_b).abs() < 1e-5, "{t_a} vs {t_b}");
    }

    #[test]
    fn saturated_data_hits_max_length() {
        // Anti-correlated tips at every site push the length to saturation.
        let m = F84Model::uniform(2.0);
        let cats = RateCategories::single(1);
        let u = [1.0, 0.0, 0.0, 0.0];
        let d = [0.0, 1.0, 0.0, 0.0];
        let mut w = vec![WTerms {
            w1: 0.0,
            w2: 0.0,
            w3: 0.0,
        }];
        crate::reference::edge_w_terms(&m, &u, &d, &mut w);
        let mut wk = WorkCounter::new();
        let opts = NewtonOptions {
            max_iters: 60,
            tolerance: 1e-9,
        };
        let t = optimize_branch(&m, &cats, &w, &[1], 0.1, &opts, &mut wk);
        assert!(
            t > 1.0,
            "fully conflicting single site should favor a long branch, got {t}"
        );
    }
}
