//! `ooc-tiles`: LSQR over a `gaia-tiles/v1` directory opened with a
//! capacity budget of half the matrix, checkpointing as it goes.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gaia_backends::{backend_by_name, ExecutorPool, SeqBackend};
use gaia_lsqr::{Checkpoint, LsqrConfig, OperatorLsqr, SystemOperator, TiledOperator};
use gaia_sparse::{CapacityBudget, Generator, GeneratorConfig, TiledSystem};

use crate::host::Host;
use crate::probes::{self, KernelAxis};
use crate::solve::{self, step_loop};
use crate::stats::median;
use crate::trace;
use crate::wrap::{TimedBackend, TimedOperator};
use crate::{Params, Report, BACKEND};

/// Tiled matrix bytes must be at least this many times the L3.
pub const L3_MULTIPLE: u64 = 2;

/// A per-seed tile directory with the `seq` reference solution of its
/// system, generated once and reused by later runs of the same seed.
struct Fixture {
    dir: PathBuf,
    matrix_bytes: u64,
    /// In-memory generation plus spilling to tiles.
    generate_s: f64,
    reference: Vec<f64>,
}

pub fn run(p: &Params, host: &Host) -> Result<Report, String> {
    let layout = p.ooc;
    let k = p.ooc_iters;
    let cfg = LsqrConfig::fixed_iterations(k);
    trace::set_enabled(false);
    let fx = fixture(p, cfg)?;
    let mut report = Report::new(fx.matrix_bytes);
    if !crate::host::reset_peak_rss() {
        report.warn("VmHWM not reset; peak_rss_mb includes the fixture build".into());
    }
    report.check_ratio(host, L3_MULTIPLE as f64);
    let budget = fx.matrix_bytes / 2;
    let pool = ExecutorPool::shared(host.nproc);
    let mut setups = Vec::new();
    trace::set_enabled(p.traced);

    for rep in 0..p.setup_reps {
        let t0 = Instant::now();
        let tiles = trace::scoped("sparse.open", || {
            TiledSystem::open_with_budget(&fx.dir, CapacityBudget::limited(budget))
        })
        .map_err(|e| e.to_string())?;
        let backend = backend_by_name(BACKEND, host.nproc).ok_or("no tuned backend")?;
        let timed = TimedBackend::new(&*backend);
        let lsqr = trace::scoped("core.new", || {
            OperatorLsqr::new(TimedOperator::new(TiledOperator::new(&tiles, &timed)), cfg)
        })
        .map_err(|e| e.to_string())?;
        let mut state =
            trace::scoped("core.init", || lsqr.try_init_state()).map_err(|e| e.to_string())?;
        setups.push(t0.elapsed().as_secs_f64());
        if rep + 1 < p.setup_reps {
            continue;
        }

        let rotation = crate::rotation(&p.out, &format!("ooc-s{}", p.seed), 2)?;
        let mut ckpt_bytes = Vec::new();
        let before = tiles.stats();
        let t_solve = Instant::now();
        let steps = step_loop(&lsqr, &mut state, p.traced, &pool, |st| {
            if st.itn.is_multiple_of(p.checkpoint_every) {
                let _s = trace::span("core.checkpoint");
                rotation
                    .save(st.itn, &Checkpoint::capture_tiled(&tiles, &cfg, st))
                    .map_err(|e| e.to_string())?;
                ckpt_bytes.push(crate::latest_slot_bytes(&rotation) as f64);
            }
            Ok(())
        })?;
        let after = tiles.stats();
        let solution = trace::scoped("core.finish", || lsqr.finish(state));
        let solve_s = t_solve.elapsed().as_secs_f64();
        trace::set_enabled(false);
        rotation.clear();

        report.attempted = 1;
        if solution.iterations != k {
            report.fail(format!(
                "solve ran {} iterations, expected {k}",
                solution.iterations
            ));
        } else if let Some(diff) = solve::bitwise_mismatch(&solution.x, &fx.reference) {
            report.fail(format!("solution differs from the seq reference: {diff}"));
        }
        if after.peak_resident_bytes > budget {
            report.fail(format!(
                "tile cache peaked at {} bytes over its {budget}-byte budget",
                after.peak_resident_bytes
            ));
        }

        if !p.traced {
            report.single_solve(&setups, &steps.seconds, solve_s);
            return Ok(report);
        }
        trace::set_enabled(true);
        let mut axis = KernelAxis::default();
        for t in 0..tiles.n_tiles() {
            let (shard, _) = tiles.tile(t).map_err(|e| e.to_string())?;
            axis.add_system(&shard.system, p.kernel_reps);
        }
        let spans = trace::snapshot();
        let v = &mut report.values;
        solve::solver_layers(v, &spans, solve::aprod_bytes(&layout), host.triad_gbps);
        let (loads, hits) = (after.loads - before.loads, after.hits - before.hits);
        let loaded = (after.loaded_bytes - before.loaded_bytes) as f64;
        let fetch_s = v["sparse.tile_fetch_s"];
        v.insert("sparse.generate_s", fx.generate_s);
        v.insert("sparse.tile_load_gbps", loaded / k as f64 / fetch_s / 1e9);
        v.insert("sparse.tile_loads_per_iter", loads as f64 / k as f64);
        v.insert(
            "sparse.tile_hit_ratio",
            if loads + hits > 0 {
                hits as f64 / (loads + hits) as f64
            } else {
                0.0
            },
        );
        solve::loop_layers(v, &steps);
        axis.record(v);
        v.insert(
            "core.checkpoint_s",
            median(&trace::durations(&spans, "core.checkpoint")),
        );
        v.insert("core.checkpoint_mb", median(&ckpt_bytes) / 1e6);
        probes::mpi_sim(v, tiles.n_cols(), p.probe_reps);
        report.artifact_log = axis.artifact_log(steps.mean());
        return Ok(report);
    }
    Err("no setup repetitions".into())
}

/// The fixture for `seed`, generated when absent. Generation writes to a
/// temporary directory renamed into place at the end, so an interrupted
/// run never leaves a half-written fixture; other seeds' fixtures are
/// removed first to bound disk use.
fn fixture(p: &Params, cfg: LsqrConfig) -> Result<Fixture, String> {
    let (layout, seed) = (&p.ooc, p.seed);
    let root = p.out.join("fixtures");
    let name = format!("ooc-s{seed}-k{}-r{}", cfg.max_iters, layout.n_rows());
    let dir = root.join(&name);
    if let Some(fx) = load_fixture(&dir) {
        return Ok(fx);
    }
    if let Ok(entries) = std::fs::read_dir(&root) {
        for e in entries.flatten() {
            std::fs::remove_dir_all(e.path()).map_err(io_err(&e.path()))?;
        }
    }
    let tmp = root.join(format!("{name}.tmp"));
    let t0 = Instant::now();
    let sys = Generator::new(GeneratorConfig::new(*layout).seed(seed)).generate();
    let tile_stars = layout.n_stars.div_ceil(p.ooc_tiles).max(1);
    gaia_sparse::write_tiles(&sys, &tmp, tile_stars).map_err(|e| e.to_string())?;
    let generate_s = t0.elapsed().as_secs_f64();
    let reference = OperatorLsqr::new(SystemOperator::new(&sys, &SeqBackend), cfg)
        .and_then(|l| l.try_run())
        .map_err(|e| e.to_string())?
        .x;
    drop(sys);
    let matrix_bytes = TiledSystem::open(&tmp)
        .map_err(|e| e.to_string())?
        .matrix_bytes();
    solve::save_vector(&tmp.join("reference.bin"), &reference)?;
    let meta = format!("{{\"matrix_bytes\":{matrix_bytes},\"generate_s\":{generate_s}}}\n");
    std::fs::write(tmp.join("fixture.json"), meta).map_err(io_err(&tmp))?;
    std::fs::rename(&tmp, &dir).map_err(io_err(&dir))?;
    Ok(Fixture {
        dir,
        matrix_bytes,
        generate_s,
        reference,
    })
}

fn load_fixture(dir: &Path) -> Option<Fixture> {
    let meta: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(dir.join("fixture.json")).ok()?).ok()?;
    Some(Fixture {
        dir: dir.to_path_buf(),
        matrix_bytes: meta.get("matrix_bytes")?.as_u64()?,
        generate_s: meta.get("generate_s")?.as_f64()?,
        reference: solve::load_vector(&dir.join("reference.bin"))?,
    })
}

fn io_err(path: &Path) -> impl Fn(std::io::Error) -> String + '_ {
    move |e| format!("{}: {e}", path.display())
}
