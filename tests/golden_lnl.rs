//! Golden log-likelihood regression pin.
//!
//! A fixed simulated dataset evaluated on its true tree must keep producing
//! the same log-likelihood across kernel rewrites. The pinned value was
//! computed with the scalar reference kernels; the default (optimized)
//! engine must reproduce it, which guards both kernel paths against silent
//! numerical drift.

use fdml_datagen::evolve::{evolve, EvolutionConfig};
use fdml_datagen::randtree::yule_tree;
use fdml_likelihood::engine::LikelihoodEngine;
use fdml_likelihood::isa::{self, KernelIsa};
use fdml_likelihood::kernels::KernelMode;

const TAXA: usize = 16;
const SITES: usize = 300;
const GOLDEN_LNL: f64 = -2121.215219389715;

fn fixture() -> (fdml_phylo::tree::Tree, fdml_phylo::alignment::Alignment) {
    let tree = yule_tree(TAXA, 0.08, 42);
    let alignment = evolve(&tree, SITES, &EvolutionConfig::default(), 7, "t");
    (tree, alignment)
}

#[test]
fn golden_lnl_is_stable() {
    let (tree, alignment) = fixture();
    let engine = LikelihoodEngine::new(&alignment);
    let lnl = engine.evaluate(&tree).ln_likelihood;
    assert!(
        (lnl - GOLDEN_LNL).abs() < 1e-6,
        "default engine drifted from golden value: {lnl} vs {GOLDEN_LNL}"
    );
}

#[test]
fn golden_lnl_matches_reference_kernels() {
    let (tree, alignment) = fixture();
    let engine = LikelihoodEngine::new(&alignment).with_kernel_mode(KernelMode::Reference);
    let lnl = engine.evaluate(&tree).ln_likelihood;
    assert!(
        (lnl - GOLDEN_LNL).abs() < 1e-6,
        "reference engine drifted from golden value: {lnl} vs {GOLDEN_LNL}"
    );
}

/// Every ISA lane the host supports reproduces the golden value — and, a
/// stronger pin, the exact bits of the auto-dispatched engine. The SIMD
/// lanes perform the scalar FMA DAG with vertical packed operations only,
/// so the lanes are not merely close: they are the same computation.
#[test]
fn golden_lnl_is_identical_on_every_supported_isa() {
    let (tree, alignment) = fixture();
    let auto_bits = LikelihoodEngine::new(&alignment)
        .evaluate(&tree)
        .ln_likelihood
        .to_bits();
    for lane in [
        KernelIsa::Scalar,
        KernelIsa::Avx2,
        KernelIsa::Avx512,
        KernelIsa::Neon,
    ] {
        if !lane.supported() {
            continue;
        }
        isa::set_isa(Some(lane)).unwrap();
        let lnl = LikelihoodEngine::new(&alignment)
            .evaluate(&tree)
            .ln_likelihood;
        assert_eq!(
            lnl.to_bits(),
            auto_bits,
            "lane {} changed the log-likelihood bits",
            lane.name()
        );
        assert!(
            (lnl - GOLDEN_LNL).abs() < 1e-6,
            "lane {} drifted from golden value: {lnl} vs {GOLDEN_LNL}",
            lane.name()
        );
    }
    isa::set_isa(None).unwrap();
}
