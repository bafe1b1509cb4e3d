//! Maximum-likelihood kernels for the fastDNAml reproduction.
//!
//! Implements the model and numerics that fastDNAml inherits from
//! Felsenstein's DNAml:
//!
//! * the **F84** substitution model with empirical base frequencies and a
//!   transition/transversion ratio ([`f84`]),
//! * per-site **rate categories** ([`categories`]),
//! * **Felsenstein pruning** over conditional likelihood vectors with
//!   underflow scaling (layout and constants in [`clv`]; the blocked,
//!   division-free default kernels in [`kernels`]; the scalar oracle in
//!   [`reference`]; runtime SIMD lane selection in [`isa`]),
//! * **Newton–Raphson branch-length optimization** using the three-term
//!   F84 decomposition ([`newton`]),
//! * the full-tree evaluator with Gauss–Seidel smoothing passes
//!   ([`engine`]),
//! * exact **work accounting** used by the cluster simulator ([`work`]),
//! * pairwise **ML distances** feeding the neighbor-joining baseline
//!   ([`distances`]).

#![warn(missing_docs)]

pub mod categories;
pub mod clv;
pub mod distances;
pub mod engine;
pub mod f84;
pub mod incremental;
pub mod isa;
pub mod kernels;
pub mod newton;
pub mod reference;
pub mod scorer;
pub mod work;

pub use categories::RateCategories;
pub use engine::{EvalResult, LikelihoodEngine, OptimizeOptions};
pub use f84::F84Model;
pub use incremental::{ClvCache, EditScore};
pub use isa::KernelIsa;
pub use kernels::{KernelMode, PAR_BLOCK};
pub use scorer::ScoredMove;
pub use work::WorkCounter;
