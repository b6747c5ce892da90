//! # gaia-backends
//!
//! Parallel compute backends for the AVU-GSR `aprod` kernels.
//!
//! The paper ports the same two sparse products — `aprod1` (`b̃ += A x̃`) and
//! `aprod2` (`x̃ += Aᵀ b̃`) — to CUDA, HIP, SYCL, OpenMP-GPU, and C++ PSTL,
//! and studies how each framework's *properties* (explicit kernel tuning,
//! atomic-update code generation, asynchronous streams) interact with the
//! hardware. Rust has no production GPU-offload story, so this crate
//! reproduces the framework axis on the CPU with strategies that exercise
//! the same algorithmic trade-offs the paper discusses in §IV.
//!
//! Every strategy is selected by registry name ([`backend_by_name`]). All
//! names but `seq`, `rayon` and the out-of-registry [`CsrBackend`] are rows
//! of [`registry::POLICIES`]: a [`LaunchPlan`] preset run by one
//! [`PlanBackend`].
//!
//! | Name | Paper analogue | Plan: `aprod2` conflict strategy |
//! |---|---|---|
//! | `seq` ([`SeqBackend`]) | reference / oracle | none (serial) |
//! | `chunked` | OpenMP target teams (owner-computes) | column-range ownership |
//! | `atomic` | CUDA/HIP atomicAdd (RMW) | hardware atomics on `f64` |
//! | `casloop` | compilers that emit CAS loops instead of RMW (§V-B, MI250X discussion) | compare-and-swap retry loops |
//! | `replicated` | privatization + reduction | per-chunk private buffers |
//! | `striped` | lock-based fallback | `4 × threads` striped mutexes |
//! | `rayon` ([`RayonBackend`]) | C++ PSTL (tuning-oblivious runtime) | star-chunk split + fold/reduce |
//! | `streamed` | CUDA streams overlapping the four `aprod2` kernels | owner-computes, concurrent block streams |
//! | `hybrid` | the production composition: per-block strategy mix in streams | privatized attitude + owner-computes instrumental, streamed |
//! | `unrolled` / `blocked` | hand-unrolled / cache-blocked kernel interiors | owner-computes, non-scalar [`KernelVariant`] |
//! | `ell` | coalesced (slot-major) value layout | owner-computes over the ELL mirror |
//! | `tiled` | the out-of-core traversal on a resident system | owner-computes, one star-aligned row tile at a time |
//! | `tuned` ([`TunedBackend`]) | the per-platform tuned launch of §V-B | the persisted profile's plan, else owner-computes |
//!
//! All backends implement [`Backend`] and are validated against each other
//! and against a dense oracle; the astrometric part of `aprod2` is always
//! parallelized over *stars* (collision-free thanks to the block-diagonal
//! structure, exactly as in the production CUDA code), while the attitude,
//! instrumental, and global parts need a conflict strategy.

#![warn(missing_docs)]
#![deny(unsafe_op_in_unsafe_fn)]

pub mod atomicf64;
pub mod blas;
pub mod chaos;
pub mod exec;
pub mod instrumented;
pub mod kernels;
pub mod launch;
pub mod plan_check;
pub mod profile;
pub mod registry;
pub mod traits;
pub mod tuning;

mod backend_csr;
mod backend_plan;
mod backend_rayon;
mod backend_seq;
mod backend_tuned;

pub use backend_csr::CsrBackend;
pub use backend_plan::PlanBackend;
pub use backend_rayon::RayonBackend;
pub use backend_seq::SeqBackend;
pub use backend_tuned::TunedBackend;
pub use chaos::{ChaosBackend, ChaosMode, ChaosTarget};
pub use exec::ExecutorPool;
pub use instrumented::InstrumentedBackend;
pub use launch::{
    Aprod2Spec, Aprod2Strategy, AtomicFlavor, KernelVariant, LaunchPlan, WorkerBudget,
};
pub use plan_check::{
    access_model_rows, check_sections, PlanDims, PlanError, PlanProof, PlanViolation, ReadAccess,
    ReadSpace, ReadSync, SectionId, SectionModel, WriteAccess,
};
pub use profile::{LaunchProfile, ProfileError, PROFILE_SCHEMA};
pub use registry::{
    all_backends, backend_by_name, backend_names, grid_backends, instrumented_by_name,
};
pub use traits::Backend;
pub use tuning::Tuning;
