//! Runtime instruction-set dispatch for the vectorized kernels.
//!
//! The seed gated the AVX2 combine kernel behind compile-time
//! `#[cfg(target_feature)]`, so one binary was either scalar everywhere or
//! assumed AVX2 everywhere. This module replaces that with a one-time
//! runtime probe (`is_x86_feature_detected!` on x86-64, always-on NEON on
//! aarch64): the widest supported [`KernelIsa`] is detected once and cached
//! in an atomic, and every SIMD path is compiled unconditionally behind
//! `#[target_feature]`, so which *hand-written lane* runs is the running
//! host's choice, not the build's. That is not the same as a portable
//! binary: the repository builds with `-C target-cpu=native`
//! (`.cargo/config.toml`, for hardware FMA in the scalar code and
//! autovectorized pattern loops), which lets the compiler use the build
//! machine's whole instruction set everywhere, the scalar lane included —
//! so a binary built here on an AVX-512 host is not expected to run on an
//! SSE2-only one. Only a build without that flag gets "fast on AVX-512
//! servers, correct on SSE2-only hosts" from this module.
//!
//! All lanes are bit-identical by construction: each vector kernel performs
//! the exact same per-pattern multiply-add DAG as the scalar form (vertical
//! packed ops only — no horizontal reductions, no reassociation), so
//! selecting a different ISA can never change a likelihood bit. That is
//! what makes `--isa scalar` a pure *testing* override rather than a
//! numerics switch, and it is pinned by the cross-path equivalence suite.

use std::sync::atomic::{AtomicU8, Ordering};

/// Which SIMD lane the combine kernel routes through.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum KernelIsa {
    /// Portable scalar path (the tail/fallback loop), available everywhere.
    Scalar,
    /// 4-patterns-wide AVX2+FMA (x86-64).
    Avx2,
    /// 8-patterns-wide AVX-512F (x86-64).
    Avx512,
    /// 2-patterns-wide NEON (aarch64, baseline — always available).
    Neon,
}

impl KernelIsa {
    /// Every lane, narrowest first (a host supports the scalar lane and at
    /// most one family of the others); filter with [`KernelIsa::supported`].
    pub const ALL: [KernelIsa; 4] = [
        KernelIsa::Scalar,
        KernelIsa::Neon,
        KernelIsa::Avx2,
        KernelIsa::Avx512,
    ];

    /// Stable lowercase name, as accepted by [`KernelIsa::parse`] and the
    /// `--isa` flag, and as reported in `RunReport.kernel_isa`.
    pub fn name(self) -> &'static str {
        match self {
            KernelIsa::Scalar => "scalar",
            KernelIsa::Avx2 => "avx2",
            KernelIsa::Avx512 => "avx512",
            KernelIsa::Neon => "neon",
        }
    }

    /// Parse a `--isa` flag value.
    pub fn parse(s: &str) -> Option<KernelIsa> {
        match s {
            "scalar" => Some(KernelIsa::Scalar),
            "avx2" => Some(KernelIsa::Avx2),
            "avx512" => Some(KernelIsa::Avx512),
            "neon" => Some(KernelIsa::Neon),
            _ => None,
        }
    }

    /// Whether the running host can execute this lane.
    pub fn supported(self) -> bool {
        match self {
            KernelIsa::Scalar => true,
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx2 => {
                std::arch::is_x86_feature_detected!("avx2")
                    && std::arch::is_x86_feature_detected!("fma")
            }
            #[cfg(target_arch = "x86_64")]
            KernelIsa::Avx512 => std::arch::is_x86_feature_detected!("avx512f"),
            #[cfg(target_arch = "aarch64")]
            KernelIsa::Neon => true,
            #[cfg(not(any(target_arch = "x86_64", target_arch = "aarch64")))]
            _ => false,
            #[cfg(any(target_arch = "x86_64", target_arch = "aarch64"))]
            _ => false,
        }
    }

    fn encode(self) -> u8 {
        match self {
            KernelIsa::Scalar => 1,
            KernelIsa::Avx2 => 2,
            KernelIsa::Avx512 => 3,
            KernelIsa::Neon => 4,
        }
    }

    fn decode(v: u8) -> Option<KernelIsa> {
        match v {
            1 => Some(KernelIsa::Scalar),
            2 => Some(KernelIsa::Avx2),
            3 => Some(KernelIsa::Avx512),
            4 => Some(KernelIsa::Neon),
            _ => None,
        }
    }
}

impl std::fmt::Display for KernelIsa {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Probe the host once: the widest lane this build can execute.
fn probe() -> KernelIsa {
    KernelIsa::ALL
        .into_iter()
        .rev()
        .find(|lane| lane.supported())
        .expect("the scalar lane is supported everywhere")
}

// 0 = not yet probed; otherwise an encoded KernelIsa.
static DETECTED: AtomicU8 = AtomicU8::new(0);
// 0 = auto (use detected); otherwise an encoded KernelIsa override.
static OVERRIDE: AtomicU8 = AtomicU8::new(0);

/// The widest ISA the host supports (probed once, then cached).
pub fn detected() -> KernelIsa {
    match KernelIsa::decode(DETECTED.load(Ordering::Relaxed)) {
        Some(isa) => isa,
        None => {
            let isa = probe();
            DETECTED.store(isa.encode(), Ordering::Relaxed);
            isa
        }
    }
}

/// The ISA the kernels will actually use: the process-wide override if one
/// is set (`--isa`), else the detected best.
pub fn active() -> KernelIsa {
    KernelIsa::decode(OVERRIDE.load(Ordering::Relaxed)).unwrap_or_else(detected)
}

/// The explicit override, if one is set — `None` means auto dispatch.
/// Spawning launchers use this to forward `--isa` to child processes so a
/// whole universe runs the same lane.
pub fn override_isa() -> Option<KernelIsa> {
    KernelIsa::decode(OVERRIDE.load(Ordering::Relaxed))
}

/// Set (or with `None`, clear) the process-wide ISA override. Rejects lanes
/// the host cannot execute — an override may narrow the dispatch, never
/// fake hardware.
pub fn set_isa(isa: Option<KernelIsa>) -> Result<(), String> {
    if let Some(isa) = isa {
        if !isa.supported() {
            return Err(format!("isa `{}` is not supported on this host", isa));
        }
        OVERRIDE.store(isa.encode(), Ordering::Relaxed);
    } else {
        OVERRIDE.store(0, Ordering::Relaxed);
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_is_always_supported() {
        assert!(KernelIsa::Scalar.supported());
        assert!(probe().supported());
    }

    #[test]
    fn names_round_trip() {
        for isa in KernelIsa::ALL {
            assert_eq!(KernelIsa::parse(isa.name()), Some(isa));
            assert_eq!(KernelIsa::decode(isa.encode()), Some(isa));
        }
        assert_eq!(KernelIsa::parse("mmx"), None);
    }

    #[test]
    fn detected_is_widest_supported() {
        let d = detected();
        assert!(d.supported());
        if KernelIsa::Avx512.supported() {
            assert_eq!(d, KernelIsa::Avx512);
        } else if KernelIsa::Avx2.supported() {
            assert_eq!(d, KernelIsa::Avx2);
        }
    }

    #[test]
    fn override_rejects_unsupported_lane() {
        #[cfg(target_arch = "x86_64")]
        assert!(set_isa(Some(KernelIsa::Neon)).is_err());
        #[cfg(target_arch = "aarch64")]
        assert!(set_isa(Some(KernelIsa::Avx2)).is_err());
        assert!(set_isa(Some(KernelIsa::Scalar)).is_ok());
        assert_eq!(active(), KernelIsa::Scalar);
        assert!(set_isa(None).is_ok());
        assert_eq!(active(), detected());
    }
}
