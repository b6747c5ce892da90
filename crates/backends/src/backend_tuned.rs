//! Profile-driven backend: runs the persisted tuner winner per layout.
//!
//! The paper pins a tuned launch configuration per platform after its §V-B
//! search; [`TunedBackend`] is that pinning made executable. At
//! construction it loads every valid `gaia-tune-profile/v1` file from the
//! tuning directory (see [`crate::profile::tuning_dir`]); at solve time it
//! matches the live system's shape against the loaded profiles and runs
//! the pinned [`LaunchPlan`] — or the registry's `tuned` plan when no
//! profile matches, recording the fallback in telemetry so a silent
//! mismatch shows up in run reports.

use gaia_sparse::{SparseSystem, SystemLayout};
use parking_lot::Mutex;

use crate::backend_plan::PlanBackend;
use crate::launch::LaunchPlan;
use crate::profile::{self, LaunchProfile};
use crate::registry::TUNED;
use crate::traits::Backend;
use crate::tuning::Tuning;

/// The registry's `tuned` policy plus shape → profile resolution.
#[derive(Debug)]
pub struct TunedBackend {
    fallback: PlanBackend,
    profiles: Vec<LaunchProfile>,
    /// Resolution cache: the last shape seen and the plan picked for it
    /// (LSQR alternates `aprod1`/`aprod2` on one system, so one entry is
    /// a perfect cache).
    resolved: Mutex<Option<(SystemLayout, LaunchPlan)>>,
}

impl TunedBackend {
    /// Create with explicit tuning, loading profiles from the default
    /// tuning directory (`GAIA_TUNING_DIR` or `<results>/tuning`).
    pub fn new(tuning: Tuning) -> Self {
        let (profiles, _rejected) = profile::load_profiles();
        TunedBackend::with_profiles(tuning, profiles)
    }

    /// Create with an explicit profile set (tests, in-process tuners).
    pub fn with_profiles(tuning: Tuning, profiles: Vec<LaunchProfile>) -> Self {
        TunedBackend {
            fallback: PlanBackend::new(&TUNED, tuning),
            profiles,
            resolved: Mutex::new(None),
        }
    }

    /// How many profiles were loaded and validated.
    pub fn profile_count(&self) -> usize {
        self.profiles.len()
    }

    /// The plan this backend would run for a system of shape `shape`:
    /// the first matching profile's plan (re-tuned to this backend's
    /// thread budget is *not* applied — the profile's own tuning wins,
    /// that is what was measured), else the default plan.
    pub fn plan_for(&self, shape: &SystemLayout) -> LaunchPlan {
        for p in &self.profiles {
            if p.shape == *shape {
                if let Ok(plan) = p.to_plan() {
                    return plan;
                }
            }
        }
        gaia_telemetry::record_tune_fallback();
        self.fallback.plan()
    }

    fn resolve(&self, sys: &SparseSystem) -> LaunchPlan {
        let shape = *sys.layout();
        let mut cached = self.resolved.lock();
        if let Some((s, plan)) = *cached {
            if s == shape {
                return plan;
            }
        }
        let plan = self.plan_for(&shape);
        *cached = Some((shape, plan));
        plan
    }
}

impl Backend for TunedBackend {
    fn name(&self) -> String {
        self.fallback.name()
    }

    fn description(&self) -> &'static str {
        self.fallback.description()
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.fallback.aprod1_with(&self.resolve(sys), sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.fallback.aprod2_with(&self.resolve(sys), sys, y, out);
    }

    /// The *default* plan — the one shape-independent answer. Per-shape
    /// profile plans are each proven sound when loaded
    /// ([`LaunchProfile::to_plan`] runs the canonical battery), so the
    /// registry's static check on this plan plus the load-time checks
    /// cover everything this backend can execute.
    fn launch_plan(&self) -> Option<LaunchPlan> {
        Some(self.fallback.plan())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::launch::{Aprod2Spec, Aprod2Strategy, KernelVariant, WorkerBudget};
    use crate::SeqBackend;
    use gaia_sparse::{Generator, GeneratorConfig, MatrixLayout};

    fn tiny_profile() -> LaunchProfile {
        let plan = LaunchPlan::new(
            Tuning {
                threads: 3,
                chunks_per_thread: 2,
            },
            Aprod2Spec {
                att: Aprod2Strategy::Replicated,
                instr: Aprod2Strategy::Atomic,
                glob: Aprod2Strategy::OwnerComputes,
                budget: WorkerBudget::Uniform,
            },
        )
        .with_variant(KernelVariant::Unrolled)
        .with_matrix_layout(MatrixLayout::Ell);
        LaunchProfile::from_plan("tiny", SystemLayout::tiny(), &plan)
    }

    #[test]
    fn matching_profile_selects_its_plan() {
        let b = TunedBackend::with_profiles(Tuning::with_threads(2), vec![tiny_profile()]);
        let plan = b.plan_for(&SystemLayout::tiny());
        assert_eq!(plan.variant, KernelVariant::Unrolled);
        assert_eq!(plan.matrix_layout, MatrixLayout::Ell);
        assert_eq!(plan.tuning.threads, 3);
        // An unseen shape falls back to the default plan.
        let fallback = b.plan_for(&SystemLayout::small());
        assert_eq!(fallback, b.launch_plan().unwrap());
    }

    #[test]
    fn tuned_solve_matches_sequential() {
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(5)).generate();
        let b = TunedBackend::with_profiles(Tuning::with_threads(3), vec![tiny_profile()]);
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.3).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.7).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut got1 = vec![0.0; sys.n_rows()];
        b.aprod1(&sys, &x, &mut got1);
        for (g, w) in got1.iter().zip(&want1) {
            assert!((g - w).abs() < 1e-10);
        }
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        let mut got2 = vec![0.0; sys.n_cols()];
        b.aprod2(&sys, &y, &mut got2);
        for (g, w) in got2.iter().zip(&want2) {
            assert!((g - w).abs() < 1e-10);
        }
    }

    #[test]
    fn empty_profile_set_is_the_tuned_policy() {
        let b = TunedBackend::with_profiles(Tuning::with_threads(8), Vec::new());
        assert_eq!(b.name(), "tuned-t8");
        assert_eq!(b.profile_count(), 0);
    }
}
