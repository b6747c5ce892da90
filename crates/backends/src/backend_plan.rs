//! The plan-driven backend: a registry [`Policy`] — a named
//! [`LaunchPlan`] preset — run on the shared executor pool.

use std::ops::Range;
use std::sync::Arc;

use gaia_sparse::SparseSystem;

use crate::exec::ExecutorPool;
use crate::launch::{star_row_tiles, LaunchPlan};
use crate::registry::{tuned_name, Policy};
use crate::traits::Backend;
use crate::tuning::Tuning;

/// Row tiles a [`Policy::tiled`] policy cuts each system into.
const TILE_COUNT: usize = 4;

/// One registry policy's [`LaunchPlan`] over the shared pool for its
/// thread budget. Every conflict strategy, stream budget, kernel variant
/// and value layout lives in the plan; the backend only walks row tiles —
/// one `0..n_rows` tile, or star-aligned tiles for a tiled policy.
#[derive(Debug, Clone)]
pub struct PlanBackend {
    policy: &'static Policy,
    plan: LaunchPlan,
    pool: Arc<ExecutorPool>,
}

impl PlanBackend {
    /// Build `policy`'s plan for `tuning` on the shared pool.
    pub fn new(policy: &'static Policy, tuning: Tuning) -> Self {
        PlanBackend {
            policy,
            plan: (policy.plan)(tuning),
            pool: ExecutorPool::shared(tuning.threads),
        }
    }

    /// The plan this backend runs.
    pub(crate) fn plan(&self) -> LaunchPlan {
        self.plan
    }

    /// The row tiles `sys` is traversed in: one tile of every star unless
    /// the policy is tiled.
    fn row_tiles(&self, sys: &SparseSystem) -> Vec<Range<usize>> {
        let n_stars = sys.layout().n_stars as usize;
        let tile_stars = if self.policy.tiled {
            n_stars.div_ceil(TILE_COUNT)
        } else {
            n_stars
        };
        star_row_tiles(sys, tile_stars)
    }

    /// `out += A x` under `plan` (this backend's own, or a tuned profile's).
    pub(crate) fn aprod1_with(
        &self,
        plan: &LaunchPlan,
        sys: &SparseSystem,
        x: &[f64],
        out: &mut [f64],
    ) {
        self.check_aprod1(sys, x, out);
        for rows in self.row_tiles(sys) {
            let mine = &mut out[rows.clone()];
            plan.aprod1_rows(&self.pool, sys, x, rows, mine);
        }
    }

    /// `out += Aᵀ y` under `plan`.
    pub(crate) fn aprod2_with(
        &self,
        plan: &LaunchPlan,
        sys: &SparseSystem,
        y: &[f64],
        out: &mut [f64],
    ) {
        self.check_aprod2(sys, y, out);
        for rows in self.row_tiles(sys) {
            plan.aprod2_rows(&self.pool, sys, y, rows, out);
        }
    }
}

impl Backend for PlanBackend {
    fn name(&self) -> String {
        tuned_name(self.policy.name, self.plan.tuning)
    }

    fn description(&self) -> &'static str {
        self.policy.description
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        self.aprod1_with(&self.plan, sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        self.aprod2_with(&self.plan, sys, y, out);
    }

    fn launch_plan(&self) -> Option<LaunchPlan> {
        Some(self.plan())
    }
}
