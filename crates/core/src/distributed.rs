//! Distributed (observation-sharded) LSQR — the MPI + accelerator shape
//! of the production solver.
//!
//! Mirrors the production decomposition (§IV): each rank owns a
//! star-aligned *shard* of the rows as a real [`SparseSystem`] of its own
//! (so any [`Backend`] — the per-rank "GPU" — can drive it, exactly the
//! MPI+CUDA hybrid of the paper), while the unknown-sized vectors `v`,
//! `w`, `x` are replicated.
//!
//! There is no distributed copy of the LSQR recurrence. Every rank steps
//! the one core, [`OperatorLsqr`], over a `ShardOperator` — the
//! rank's view of the full system through the [`Operator`] seam, as in the
//! production MPI+CUDA solver, where every rank runs the same iteration
//! with the `MPI_Allreduce` inside the products:
//!
//! * `aprod1` is purely local: the rank's rows of `A x`, on its backend,
//!   from the shard's slice of the replicated `x`;
//! * `aprod2` computes the rank's partial `Aᵀ u`, scatters it into the
//!   global column space and `Sum`-allreduces it — the deterministic
//!   rank-ordered reduction of [`gaia_mpi_sim`] keeps the replicated
//!   state bit-identical on every rank;
//! * the norm of the sharded `u` ([`Operator::row_nrm2`]) is an allreduce
//!   of local sums of squares; column-space norms and scalings are local
//!   [`gaia_backends::blas`] calls, never a rank backend's overrides, so
//!   ranks with different backends cannot diverge;
//! * once per iteration [`Operator::agree`] takes the `Max` over ranks of
//!   the iteration time (the paper reports the slowest rank) and of the
//!   stop flag, so a breakdown or cancellation seen by any rank stops
//!   every rank at the same iteration.
//!
//! A small per-rank driver adds what only a distributed solve needs:
//! slicing a resumed global state to the rank's rows, and assembling
//! periodic (and cancellation) checkpoints with an `allgather` of `u`.
//!
//! Shards renumber the astrometric columns locally (stars are
//! partitioned), so the only index translation is a fixed offset for the
//! astro section; the attitude / instrumental / global columns are shared
//! verbatim. Because the collectives are deterministic, a distributed
//! solve on any rank count equals the single-rank solve to
//! reduction-order noise — the integration tests assert this.

use gaia_backends::{Backend, SeqBackend};
use gaia_mpi_sim::{try_run, Communicator, FaultError, ReduceOp, WorldOptions};
use gaia_sparse::system::{ASTRO_NNZ_PER_ROW, ATT_NNZ_PER_ROW, INSTR_NNZ_PER_ROW};
use gaia_sparse::{RowPartition, SparseSystem, SystemLayout};

use crate::cancel::CancellationToken;
use crate::config::LsqrConfig;
use crate::lsqr::{LsqrState, OperatorLsqr};
use crate::operator::{Operator, OperatorError};
use crate::solution::{Solution, StopReason};

/// One rank's slice of the system: a self-contained [`SparseSystem`] over
/// the rank's stars (astro columns renumbered locally) plus the shared
/// attitude / instrumental / global columns.
pub struct Shard {
    /// Owning rank.
    pub rank: usize,
    /// First global star owned by this shard.
    pub star0: u64,
    /// Global row range owned by this shard.
    pub rows: std::ops::Range<usize>,
    /// The shard as a standalone system.
    pub sys: SparseSystem,
}

/// Build rank `rank`'s shard of `full` under `partition`.
pub fn make_shard(full: &SparseSystem, partition: &RowPartition, rank: usize) -> Shard {
    let layout = *full.layout();
    let range = partition.range(rank);
    let rows = range.start as usize..range.end as usize;
    let is_last = rank == partition.n_ranks() - 1;
    let obs_rows = rows.start..rows.end.min(full.n_obs_rows());
    let star0 = if obs_rows.is_empty() {
        0
    } else {
        layout.star_of_row(obs_rows.start as u64)
    };
    let shard_stars = (obs_rows.len() as u64) / layout.obs_per_star;
    debug_assert_eq!(
        obs_rows.len() as u64,
        shard_stars * layout.obs_per_star,
        "partition must be star-aligned"
    );

    let shard_layout = SystemLayout {
        n_stars: shard_stars,
        obs_per_star: layout.obs_per_star,
        n_deg_freedom_att: layout.n_deg_freedom_att,
        n_instr_params: layout.n_instr_params,
        n_glob_params: layout.n_glob_params,
        n_constraint_rows: if is_last { layout.n_constraint_rows } else { 0 },
    };

    // Slice the arrays; astro indices are renumbered to local stars.
    let a = obs_rows.start * ASTRO_NNZ_PER_ROW..obs_rows.end * ASTRO_NNZ_PER_ROW;
    let t = rows.start * ATT_NNZ_PER_ROW..rows.end * ATT_NNZ_PER_ROW;
    let i = obs_rows.start * INSTR_NNZ_PER_ROW..obs_rows.end * INSTR_NNZ_PER_ROW;
    let g = if layout.n_glob_params > 0 {
        obs_rows.clone()
    } else {
        0..0
    };
    let matrix_index_astro: Vec<u64> = full.matrix_index_astro()[obs_rows.clone()]
        .iter()
        .map(|&idx| idx - star0 * ASTRO_NNZ_PER_ROW as u64)
        .collect();
    let sys = SparseSystem::from_parts_shard(
        shard_layout,
        full.values_astro()[a].to_vec(),
        full.values_att()[t].to_vec(),
        full.values_instr()[i.clone()].to_vec(),
        full.values_glob()[g].to_vec(),
        matrix_index_astro,
        full.matrix_index_att()[rows.clone()].to_vec(),
        full.instr_col()[i].to_vec(),
        full.known_terms()[rows.clone()].to_vec(),
    )
    .expect("shard construction preserves invariants");

    Shard {
        rank,
        star0,
        rows,
        sys,
    }
}

impl Shard {
    /// Gather this shard's view of a global unknown vector: the shard's
    /// astro columns followed by the shared sections.
    pub fn local_x(&self, global: &[f64], full_layout: &SystemLayout) -> Vec<f64> {
        let astro0 = (self.star0 * ASTRO_NNZ_PER_ROW as u64) as usize;
        let astro_len = (self.sys.layout().n_stars * ASTRO_NNZ_PER_ROW as u64) as usize;
        let shared0 = full_layout.n_astro_cols() as usize;
        let mut local = Vec::with_capacity(self.sys.n_cols());
        local.extend_from_slice(&global[astro0..astro0 + astro_len]);
        local.extend_from_slice(&global[shared0..]);
        debug_assert_eq!(local.len(), self.sys.n_cols());
        local
    }

    /// Scatter-add this shard's local column vector into a global one.
    pub fn add_to_global(&self, local: &[f64], global: &mut [f64], full_layout: &SystemLayout) {
        debug_assert_eq!(local.len(), self.sys.n_cols());
        let astro0 = (self.star0 * ASTRO_NNZ_PER_ROW as u64) as usize;
        let astro_len = (self.sys.layout().n_stars * ASTRO_NNZ_PER_ROW as u64) as usize;
        let shared0 = full_layout.n_astro_cols() as usize;
        for (slot, &v) in global[astro0..astro0 + astro_len]
            .iter_mut()
            .zip(&local[..astro_len])
        {
            *slot += v;
        }
        for (slot, &v) in global[shared0..].iter_mut().zip(&local[astro_len..]) {
            *slot += v;
        }
    }
}

/// Checkpoint sink invoked on rank 0 with the assembled global state.
pub type CheckpointSink<'a> = &'a (dyn Fn(&LsqrState) + Sync);

/// Options of a fault-aware / resumable distributed solve.
#[derive(Default)]
pub struct DistOptions<'a> {
    /// Fault-injection plan and collective timeout for the simulated
    /// world; defaults to a fault-free world.
    pub world: WorldOptions,
    /// Resume from a (checkpoint-restored) global state instead of
    /// starting fresh. The state must belong to the same system/config
    /// (use [`crate::checkpoint::Checkpoint::restore`] to enforce that).
    pub resume: Option<&'a LsqrState>,
    /// Assemble the replicated state (plus an allgather of the sharded
    /// `u`) every this many iterations and hand it to `checkpoint_sink`
    /// on rank 0. `0` disables periodic checkpointing.
    pub checkpoint_every: usize,
    /// Receiver of the periodic snapshots (rank 0 only).
    pub checkpoint_sink: Option<CheckpointSink<'a>>,
    /// Cooperative cancellation (deadline or explicit). Each rank reads
    /// the token locally, but the stop decision is collective: the
    /// cancel flag rides the per-iteration Max-allreduce, so every rank
    /// stops at the same iteration with identical replicated state. When
    /// periodic checkpointing is on, a final checkpoint is taken at the
    /// cancellation iteration before returning.
    pub cancel: Option<CancellationToken>,
}

/// Solve `sys` on `n_ranks` simulated MPI ranks, each running the
/// sequential reference backend on its shard; returns rank 0's solution
/// (all ranks produce identical results by construction).
pub fn solve_distributed(sys: &SparseSystem, n_ranks: usize, config: &LsqrConfig) -> Solution {
    solve_hybrid(sys, n_ranks, config, |_| Box::new(SeqBackend))
}

/// Hybrid MPI+X solve: `backend_for(rank)` supplies each rank's compute
/// backend (the per-rank "GPU"), mirroring the production MPI+CUDA
/// structure. All ranks produce identical replicated state; rank 0's
/// solution is returned.
pub fn solve_hybrid<F>(
    sys: &SparseSystem,
    n_ranks: usize,
    config: &LsqrConfig,
    backend_for: F,
) -> Solution
where
    F: Fn(usize) -> Box<dyn Backend> + Sync,
{
    try_solve_hybrid(sys, n_ranks, config, backend_for, &DistOptions::default())
        .expect("rank panicked")
}

/// Fault-aware hybrid solve: run under `opts` (fault plan, collective
/// timeout, resume state, periodic checkpoint sink). Rank failures and
/// collective timeouts — injected or real — surface as `Err(FaultError)`
/// instead of hanging or crashing the caller; the resilient supervisor
/// ([`crate::resilient`]) builds its retry loop on this.
pub fn try_solve_hybrid<F>(
    sys: &SparseSystem,
    n_ranks: usize,
    config: &LsqrConfig,
    backend_for: F,
    opts: &DistOptions<'_>,
) -> Result<Solution, FaultError>
where
    F: Fn(usize) -> Box<dyn Backend> + Sync,
{
    config.validate().expect("invalid LSQR configuration");
    let partition = RowPartition::new(sys.layout(), n_ranks);
    let mut results = try_run(n_ranks, opts.world.clone(), |comm| {
        let backend = backend_for(comm.rank());
        let shard = make_shard(sys, &partition, comm.rank());
        let op = ShardOperator {
            full: sys,
            shard: &shard,
            backend: backend.as_ref(),
            comm: &comm,
            flag_in_payload: config.health.enabled || opts.cancel.is_some(),
        };
        let mut solver = OperatorLsqr::new(op, *config).expect(SHARD_INFALLIBLE);
        if let Some(token) = &opts.cancel {
            solver = solver.with_cancel(token.clone());
        }
        drive_rank(&solver, opts)
    })?;
    Ok(results.swap_remove(0))
}

const SHARD_INFALLIBLE: &str = "shard operator cannot fail";

/// One rank's view of the full system: its shard's rows through its own
/// backend, in the replicated global column space (see the module docs).
struct ShardOperator<'a> {
    full: &'a SparseSystem,
    shard: &'a Shard,
    backend: &'a dyn Backend,
    comm: &'a Communicator,
    /// Whether the stop flag rides the per-iteration `Max`-allreduce (it
    /// can only be set with health guards on or a token attached);
    /// otherwise only the seconds do.
    flag_in_payload: bool,
}

impl Operator for ShardOperator<'_> {
    /// The full row count: it is what the solution reports.
    fn n_rows(&self) -> usize {
        self.full.n_rows()
    }

    fn n_cols(&self) -> usize {
        self.full.n_cols()
    }

    /// This rank's rows of `b`.
    fn known_terms(&self) -> &[f64] {
        self.shard.sys.known_terms()
    }

    /// Full-system column norms, so every rank preconditions identically.
    fn column_norms(&self) -> Result<Vec<f64>, OperatorError> {
        Ok(self.full.column_norms())
    }

    fn aprod1(&self, x: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let local_x = self.shard.local_x(x, self.full.layout());
        self.backend.aprod1(&self.shard.sys, &local_x, out);
        Ok(())
    }

    fn aprod2(&self, y: &[f64], out: &mut [f64]) -> Result<(), OperatorError> {
        let mut local = vec![0.0; self.shard.sys.n_cols()];
        self.backend.aprod2(&self.shard.sys, y, &mut local);
        let mut partial = vec![0.0; out.len()];
        self.shard
            .add_to_global(&local, &mut partial, self.full.layout());
        {
            let mut t = gaia_telemetry::collective_scope();
            t.add_bytes(partial.len() as u64 * 8);
            self.comm.allreduce(ReduceOp::Sum, &mut partial);
        }
        for (o, p) in out.iter_mut().zip(&partial) {
            *o += p;
        }
        Ok(())
    }

    fn row_nrm2(&self, u: &[f64]) -> f64 {
        let local_sq: f64 = u.iter().map(|x| x * x).sum();
        let _t = gaia_telemetry::collective_scope();
        self.comm.allreduce_scalar(ReduceOp::Sum, local_sq).sqrt()
    }

    fn agree(&self, seconds: f64, stop_flag: f64) -> (f64, f64) {
        let _t = gaia_telemetry::collective_scope();
        if self.flag_in_payload {
            let mut payload = [seconds, stop_flag];
            self.comm.allreduce(ReduceOp::Max, &mut payload);
            (payload[0], payload[1])
        } else {
            (
                self.comm.allreduce_scalar(ReduceOp::Max, seconds),
                stop_flag,
            )
        }
    }
}

/// Step one rank to completion: resume or initialize, iterate, and take
/// the periodic checkpoints plus one at a cancellation.
fn drive_rank(solver: &OperatorLsqr<ShardOperator<'_>>, opts: &DistOptions<'_>) -> Solution {
    let op = solver.operator();
    let mut state = match opts.resume {
        // A checkpoint-restored global state: everything but `u` is
        // replicated; `u` is sliced to this rank's rows. The reductions
        // are rank-ordered deterministic, so the resumed trajectory is
        // bit-identical to the uninterrupted one at the same rank count.
        Some(global) => {
            debug_assert_eq!(global.u.len(), op.n_rows(), "resume needs the full u");
            let mut state = global.clone();
            state.u = global.u[op.shard.rows.clone()].to_vec();
            state
        }
        None => solver.try_init_state().expect(SHARD_INFALLIBLE),
    };
    let every = opts.checkpoint_every;
    while !state.is_done() {
        let checkpoint_due = match solver.try_step(&mut state).expect(SHARD_INFALLIBLE) {
            None => every > 0 && state.itn % every == 0,
            // Recovery resumes exactly where the deadline struck.
            Some(StopReason::Cancelled) => every > 0,
            Some(_) => false,
        };
        if checkpoint_due {
            checkpoint(&state, op.comm, opts.checkpoint_sink);
        }
    }
    solver.finish(state)
}

/// Allgather the sharded `u` and hand the assembled global state, as a
/// resumable (not stopped) snapshot, to the sink on rank 0. A collective:
/// every rank calls it at the same iteration.
fn checkpoint(state: &LsqrState, comm: &Communicator, sink: Option<CheckpointSink<'_>>) {
    let gathered = {
        let mut t = gaia_telemetry::collective_scope();
        t.add_bytes(state.u.len() as u64 * 8);
        comm.allgather(&state.u)
    };
    if let (0, Some(sink)) = (comm.rank(), sink) {
        let mut snapshot = state.clone();
        snapshot.u = gathered.concat();
        snapshot.stopped = None;
        sink(&snapshot);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::lsqr::solve;
    use gaia_backends::{backend_by_name, SeqBackend};
    use gaia_sparse::{Generator, GeneratorConfig, Rhs, SystemLayout};

    fn system(seed: u64) -> SparseSystem {
        let cfg = GeneratorConfig::new(SystemLayout::tiny())
            .seed(seed)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 });
        Generator::new(cfg).generate()
    }

    #[test]
    fn shards_tile_the_full_system() {
        let sys = system(300);
        let partition = RowPartition::new(sys.layout(), 3);
        let mut covered_rows = 0usize;
        let mut covered_stars = 0u64;
        for rank in 0..3 {
            let shard = make_shard(&sys, &partition, rank);
            covered_rows += shard.sys.n_rows();
            covered_stars += shard.sys.layout().n_stars;
            // The shard's rows reproduce the full system's row dots.
            let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.31).sin()).collect();
            let local_x = shard.local_x(&x, sys.layout());
            for (li, gi) in shard.rows.clone().enumerate() {
                let want = sys.row_dot(gi, &x);
                let got = shard.sys.row_dot(li, &local_x);
                assert!((want - got).abs() < 1e-12, "rank {rank} row {gi}");
            }
        }
        assert_eq!(covered_rows, sys.n_rows());
        assert_eq!(covered_stars, sys.layout().n_stars);
    }

    #[test]
    fn shard_scatter_gather_round_trip() {
        let sys = system(301);
        let partition = RowPartition::new(sys.layout(), 4);
        // Sum of per-shard aprod2 equals the full aprod2.
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
        let mut want = vec![0.0; sys.n_cols()];
        SeqBackend.aprod2(&sys, &y, &mut want);
        let mut got = vec![0.0; sys.n_cols()];
        for rank in 0..4 {
            let shard = make_shard(&sys, &partition, rank);
            let mut local = vec![0.0; shard.sys.n_cols()];
            let local_y = &y[shard.rows.clone()];
            SeqBackend.aprod2(&shard.sys, local_y, &mut local);
            shard.add_to_global(&local, &mut got, sys.layout());
        }
        for (g, w) in got.iter().zip(&want) {
            assert!((g - w).abs() < 1e-11);
        }
    }

    #[test]
    fn distributed_matches_single_rank_reference() {
        let sys = system(302);
        let reference = solve(&sys, &SeqBackend, &LsqrConfig::new());
        for n_ranks in [1usize, 2, 3, 5] {
            let dist = solve_distributed(&sys, n_ranks, &LsqrConfig::new());
            assert_eq!(dist.stop.converged(), reference.stop.converged());
            let max_diff = dist
                .x
                .iter()
                .zip(&reference.x)
                .map(|(a, b)| (a - b).abs())
                .fold(0.0, f64::max);
            assert!(
                max_diff < 1e-6,
                "{n_ranks} ranks deviate by {max_diff} (stop {:?})",
                dist.stop
            );
        }
    }

    #[test]
    fn hybrid_ranks_with_parallel_backends_agree() {
        // MPI + threads: each rank drives its shard with a different
        // parallel backend — heterogeneity must not change the solution
        // beyond float noise. Iteration counts are compared only within
        // a noise window, not for equality: the parallel backends sum
        // `aprod2` contributions in different (for `atomic`,
        // scheduling-dependent — see tests/restart_props.rs) orders, so
        // the iteration at which the convergence test first trips may
        // legitimately shift by one or two around the sequential
        // reference's crossing.
        let sys = system(303);
        let reference = solve_distributed(&sys, 3, &LsqrConfig::new());
        let hybrid = solve_hybrid(&sys, 3, &LsqrConfig::new(), |rank| {
            let names = ["atomic", "replicated", "streamed"];
            backend_by_name(names[rank % 3], 2).unwrap()
        });
        assert!(
            reference.stop.converged(),
            "reference must converge, stopped with {:?}",
            reference.stop
        );
        assert!(
            hybrid.stop.converged(),
            "hybrid must converge, stopped with {:?}",
            hybrid.stop
        );
        let max_diff = hybrid
            .x
            .iter()
            .zip(&reference.x)
            .map(|(a, b)| (a - b).abs())
            .fold(0.0, f64::max);
        assert!(max_diff < 1e-8, "hybrid deviates by {max_diff}");
        let delta = hybrid.iterations.abs_diff(reference.iterations);
        assert!(
            delta <= 2,
            "hybrid took {} iterations vs reference {} — beyond \
             summation-order noise, likely an aprod defect",
            hybrid.iterations,
            reference.iterations
        );
    }

    #[test]
    fn cancelled_distributed_solve_stops_consistently_and_checkpoints() {
        use crate::cancel::CancellationToken;
        use std::sync::Mutex;
        let sys = system(305);
        let token = CancellationToken::new();
        token.cancel();
        let taken: Mutex<Option<LsqrState>> = Mutex::new(None);
        let sink = |st: &LsqrState| {
            *taken.lock().unwrap() = Some(st.clone());
        };
        let sol = try_solve_hybrid(
            &sys,
            3,
            &LsqrConfig::new(),
            |_| Box::new(SeqBackend),
            &DistOptions {
                checkpoint_every: 2,
                checkpoint_sink: Some(&sink),
                cancel: Some(token),
                ..Default::default()
            },
        )
        .expect("cancellation is a clean stop, not a fault");
        // A token cancelled before launch stops every rank at the first
        // iteration boundary — one complete iteration, then Cancelled.
        assert_eq!(sol.stop, StopReason::Cancelled);
        assert_eq!(sol.iterations, 1);
        // The cancellation checkpoint exists and resumes to convergence.
        let st = taken.lock().unwrap().clone().expect("cancel checkpoint");
        assert_eq!(st.itn, 1);
        let resumed = try_solve_hybrid(
            &sys,
            3,
            &LsqrConfig::new(),
            |_| Box::new(SeqBackend),
            &DistOptions {
                resume: Some(&st),
                ..Default::default()
            },
        )
        .unwrap();
        let reference = solve_distributed(&sys, 3, &LsqrConfig::new());
        assert!(resumed.stop.converged(), "{:?}", resumed.stop);
        assert_eq!(resumed.x, reference.x, "resume must be bit-identical");
    }

    #[test]
    fn fixed_iteration_distributed_run_records_max_rank_time() {
        let sys = system(304);
        let sol = solve_distributed(&sys, 3, &LsqrConfig::fixed_iterations(5));
        assert_eq!(sol.iterations, 5);
        assert!(sol.history.iter().all(|s| s.seconds >= 0.0));
    }
}
