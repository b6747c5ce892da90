//! `resident-dram`: the paper's timing configuration on a resident
//! system several times the last-level cache, through the `tuned`
//! registry backend at host parallelism.

use std::time::Instant;

use gaia_backends::{backend_by_name, ExecutorPool, SeqBackend};
use gaia_lsqr::{Checkpoint, LsqrConfig, OperatorLsqr, SystemOperator};
use gaia_sparse::{footprint, Generator, GeneratorConfig, SparseSystem};

use crate::host::Host;
use crate::probes::{self, KernelAxis};
use crate::solve::{self, step_loop};
use crate::stats::median;
use crate::trace;
use crate::wrap::{TimedBackend, TimedOperator};
use crate::{Params, Report, BACKEND};

/// Resident matrix bytes must be at least this many times the L3.
pub const L3_MULTIPLE: u64 = 4;

pub fn run(p: &Params, host: &Host) -> Result<Report, String> {
    let layout = p.resident;
    let mut report = Report::new(footprint::device_bytes(&layout));
    report.check_ratio(host, L3_MULTIPLE as f64);
    let k = p.resident_iters;
    let cfg = LsqrConfig::fixed_iterations(k);
    let pool = ExecutorPool::shared(host.nproc);
    let mut setups = Vec::new();
    trace::set_enabled(p.traced);

    for rep in 0..p.setup_reps {
        let t0 = Instant::now();
        let sys = trace::scoped("sparse.generate", || {
            Generator::new(GeneratorConfig::new(layout).seed(p.seed)).generate()
        });
        let backend = backend_by_name(BACKEND, host.nproc).ok_or("no tuned backend")?;
        let timed = TimedBackend::new(&*backend);
        let lsqr = trace::scoped("core.new", || {
            OperatorLsqr::new(TimedOperator::new(SystemOperator::new(&sys, &timed)), cfg)
        })
        .map_err(|e| e.to_string())?;
        let mut state =
            trace::scoped("core.init", || lsqr.try_init_state()).map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < p.setup_reps {
            continue;
        }

        let t_solve = Instant::now();
        let steps = step_loop(&lsqr, &mut state, p.traced, &pool, |_| Ok(()))?;
        let checkpoint = p
            .traced
            .then(|| checkpoint_probe(&sys, &cfg, &state, p))
            .transpose()?;
        let solution = trace::scoped("core.finish", || lsqr.finish(state));
        let solve_s = t_solve.elapsed().as_secs_f64();
        trace::set_enabled(false);

        report.attempted = 1;
        let reference = reference(&sys, cfg, p)?;
        if solution.iterations != k {
            report.fail(format!(
                "solve ran {} iterations, expected {k}",
                solution.iterations
            ));
        } else if let Some(diff) = solve::bitwise_mismatch(&solution.x, &reference) {
            report.fail(format!("solution differs from the seq reference: {diff}"));
        }

        if !p.traced {
            report.single_solve(&setups, &steps.seconds, solve_s);
            return Ok(report);
        }
        let mut axis = KernelAxis::default();
        axis.add_system(&sys, p.kernel_reps);
        let spans = trace::snapshot();
        let v = &mut report.values;
        solve::solver_layers(v, &spans, solve::aprod_bytes(&layout), host.triad_gbps);
        v.insert(
            "sparse.generate_s",
            median(&trace::durations(&spans, "sparse.generate")),
        );
        crate::not_on_path(v, crate::TILES_ONLY);
        solve::loop_layers(v, &steps);
        axis.record(v);
        let (ckpt_s, ckpt_bytes) = checkpoint.expect("traced runs probe a checkpoint");
        v.insert("core.checkpoint_s", ckpt_s);
        v.insert("core.checkpoint_mb", ckpt_bytes as f64 / 1e6);
        probes::mpi_sim(v, sys.n_cols(), p.probe_reps);
        report.artifact_log = axis.artifact_log(steps.mean());
        return Ok(report);
    }
    Err("no setup repetitions".into())
}

/// The `seq` solution of the same system after the same iterations,
/// cached per seed. `OperatorLsqr` over `seq` and over an owner-computes
/// plan accumulate every output slot in the same row order, so the
/// measured solve must match it bit for bit.
fn reference(sys: &SparseSystem, cfg: LsqrConfig, p: &Params) -> Result<Vec<f64>, String> {
    let path = p.out.join("ref").join(format!(
        "resident-s{}-k{}-r{}.bin",
        p.seed,
        cfg.max_iters,
        sys.n_rows()
    ));
    if let Some(x) = solve::load_vector(&path).filter(|x| x.len() == sys.n_cols()) {
        return Ok(x);
    }
    let x = OperatorLsqr::new(SystemOperator::new(sys, &SeqBackend), cfg)
        .and_then(|l| l.try_run())
        .map_err(|e| e.to_string())?
        .x;
    solve::save_vector(&path, &x)?;
    Ok(x)
}

/// Capture and save one checkpoint of the finished state: seconds and
/// bytes on disk. A resident solve does not checkpoint; this prices what
/// one would cost at this state size.
fn checkpoint_probe(
    sys: &SparseSystem,
    cfg: &LsqrConfig,
    state: &gaia_lsqr::lsqr::LsqrState,
    p: &Params,
) -> Result<(f64, u64), String> {
    let rotation = crate::rotation(&p.out, &format!("resident-s{}", p.seed), 1)?;
    let t = Instant::now();
    {
        let _s = trace::span("core.checkpoint");
        rotation
            .save(state.itn, &Checkpoint::capture(sys, cfg, state))
            .map_err(|e| e.to_string())?;
    }
    let secs = t.elapsed().as_secs_f64();
    let bytes = crate::latest_slot_bytes(&rotation);
    rotation.clear();
    Ok((secs, bytes))
}
