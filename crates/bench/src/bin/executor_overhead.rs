//! Executor-pool overhead study: per-iteration wall time of the pooled
//! launch path vs the legacy spawn-per-call pattern the backends used
//! before the [`gaia_backends::ExecutorPool`] refactor.
//!
//! The legacy baseline lives *here*, not in `gaia-backends`: it re-creates
//! the old chunked owner-computes backend with `std::thread::scope`
//! spawning fresh OS threads on every `aprod1`/`aprod2` call, which is
//! exactly the overhead the persistent pool eliminates. Keeping it in the
//! bench bin means no spawn-per-call code remains in any backend hot path.
//!
//! Timing is median-of-K with IQR dispersion (same [`gaia_bench::stats`]
//! summaries as the perf gate) at the host's available parallelism —
//! never a hardcoded thread count, because spawn-per-call overhead scales
//! with the threads actually spawned.
//!
//! Artifact: `results/bench/executor_overhead.json` (the committed
//! `BENCH_executor.json` is owned by `--bin gate -- --refresh` now).
//! Flags: `--quick` (CI smoke), `--threads N` (capped by the host),
//! `--repeats K` (default 5).

use std::time::Instant;

use gaia_backends::kernels;
use gaia_backends::launch::split_ranges;
use gaia_backends::{backend_by_name, Backend};
use gaia_bench::stats::Summary;
use gaia_bench::{fatal, must_write_artifact};
use gaia_sparse::{Generator, GeneratorConfig, SparseSystem, SystemLayout};

/// Legacy `out += A x`: fresh scoped threads per call, one per row chunk.
fn legacy_aprod1(sys: &SparseSystem, x: &[f64], out: &mut [f64], threads: usize) {
    let ranges = split_ranges(sys.n_rows(), threads.max(1));
    // gaia-analyze: allow(thread-spawn): spawn-per-call *is* the legacy
    // baseline this benchmark measures against the pool.
    std::thread::scope(|scope| {
        let mut rest = out;
        for rows in ranges {
            let (mine, tail) = rest.split_at_mut(rows.len());
            rest = tail;
            scope.spawn(move || kernels::aprod1_range(sys, x, rows, mine));
        }
    });
}

/// Legacy `out += Aᵀ y`: fresh scoped threads per call — star chunks for
/// the astrometric block, owner-computes column splits for attitude and
/// instrumental, one thread for the global sum.
fn legacy_aprod2(sys: &SparseSystem, y: &[f64], out: &mut [f64], threads: usize) {
    let c = sys.columns();
    let n_att = (c.instr - c.att) as usize;
    let n_instr = (c.glob - c.instr) as usize;
    let (astro, rest) = out.split_at_mut(c.att as usize);
    let (att, rest2) = rest.split_at_mut(n_att);
    let (instr, glob) = rest2.split_at_mut(n_instr);
    let n_stars = sys.layout().n_stars as usize;
    let n_rows = sys.n_rows();
    let n_obs = sys.n_obs_rows();
    let threads = threads.max(1);

    // gaia-analyze: allow(thread-spawn): spawn-per-call *is* the legacy
    // baseline this benchmark measures against the pool.
    std::thread::scope(|scope| {
        let mut astro_rest = astro;
        for stars in split_ranges(n_stars, threads) {
            let (mine, tail) = astro_rest.split_at_mut(stars.len() * 5);
            astro_rest = tail;
            scope.spawn(move || kernels::aprod2_astro(sys, y, stars, mine));
        }
        let mut att_rest = att;
        for own in split_ranges(n_att, threads) {
            let (mine, tail) = att_rest.split_at_mut(own.len());
            att_rest = tail;
            scope.spawn(move || kernels::aprod2_att_owned(sys, y, 0..n_rows, own, mine));
        }
        let mut instr_rest = instr;
        for own in split_ranges(n_instr, threads) {
            let (mine, tail) = instr_rest.split_at_mut(own.len());
            instr_rest = tail;
            scope.spawn(move || kernels::aprod2_instr_owned(sys, y, 0..n_obs, own, mine));
        }
        if !glob.is_empty() {
            scope.spawn(move || kernels::aprod2_glob(sys, y, 0..n_obs, glob));
        }
    });
}

/// Per-repeat mean seconds of `aprod1`+`aprod2`, split per kernel, over
/// `repeats` timed repeats of `iters` iterations each (after warmup).
fn time_case<F1, F2>(
    sys: &SparseSystem,
    warmup: usize,
    iters: usize,
    repeats: usize,
    mut k1: F1,
    mut k2: F2,
) -> (Summary, Summary, Summary)
where
    F1: FnMut(&SparseSystem, &[f64], &mut [f64]),
    F2: FnMut(&SparseSystem, &[f64], &mut [f64]),
{
    let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
    let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.17).cos()).collect();
    let mut out1 = vec![0.0; sys.n_rows()];
    let mut out2 = vec![0.0; sys.n_cols()];
    for _ in 0..warmup {
        k1(sys, &x, &mut out1);
        k2(sys, &y, &mut out2);
    }
    let (mut s1, mut s2, mut si) = (Vec::new(), Vec::new(), Vec::new());
    for _ in 0..repeats {
        let (mut a1, mut a2) = (0.0f64, 0.0f64);
        for _ in 0..iters {
            // gaia-analyze: allow(timing): per-kernel wall-clock is this
            // benchmark's deliverable; telemetry scopes time inside
            // kernels, this bin times the launch path itself.
            let t = Instant::now();
            k1(sys, &x, &mut out1);
            a1 += t.elapsed().as_secs_f64();
            // gaia-analyze: allow(timing): second half of the same
            // per-kernel measurement (aprod2 timed apart from aprod1).
            let t = Instant::now();
            k2(sys, &y, &mut out2);
            a2 += t.elapsed().as_secs_f64();
        }
        s1.push(a1 / iters as f64);
        s2.push(a2 / iters as f64);
        si.push((a1 + a2) / iters as f64);
    }
    // Keep the outputs observable so the work cannot be optimized away.
    assert!(out1.iter().chain(out2.iter()).all(|v| v.is_finite()));
    (
        Summary::from_samples(&s1),
        Summary::from_samples(&s2),
        Summary::from_samples(&si),
    )
}

struct Case {
    label: &'static str,
    layout: SystemLayout,
    warmup: usize,
    iters: usize,
}

fn summary_json(s: &Summary) -> serde_json::Value {
    serde_json::to_value(s).unwrap_or(serde_json::Value::Null)
}

fn main() {
    let mut quick = false;
    let available = std::thread::available_parallelism().map_or(1, |n| n.get());
    let mut threads = available;
    let mut repeats = 5usize;
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => quick = true,
            "--threads" => {
                threads = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fatal("--threads needs a positive integer"));
            }
            "--repeats" => {
                repeats = args
                    .next()
                    .and_then(|v| v.parse().ok())
                    .unwrap_or_else(|| fatal("--repeats needs a positive integer"));
            }
            other => fatal(&format!(
                "unknown flag `{other}` (flags: --quick, --threads N, --repeats K)"
            )),
        }
    }
    // Effective budget: never more threads than the host actually has —
    // the whole point is measuring real spawn overhead, and a baseline
    // recorded at a fictitious thread count compares against nothing.
    let threads = threads.clamp(1, available);
    let repeats = repeats.max(1);
    println!(
        "executor_overhead: {threads} thread(s) (host parallelism {available}), \
         median-of-{repeats}{}",
        if quick { ", quick" } else { "" }
    );

    let cases: Vec<Case> = if quick {
        vec![Case {
            label: "tiny",
            layout: SystemLayout::tiny(),
            warmup: 2,
            iters: 10,
        }]
    } else {
        vec![
            Case {
                label: "small",
                layout: SystemLayout::small(),
                warmup: 5,
                iters: 30,
            },
            Case {
                label: "medium",
                layout: SystemLayout::medium(),
                warmup: 3,
                iters: 12,
            },
        ]
    };

    let mut rows = Vec::new();
    for case in &cases {
        let sys = Generator::new(GeneratorConfig::new(case.layout).seed(7)).generate();
        let (l1, l2, li) = time_case(
            &sys,
            case.warmup,
            case.iters,
            repeats,
            |s, x, o| legacy_aprod1(s, x, o, threads),
            |s, y, o| legacy_aprod2(s, y, o, threads),
        );
        let pooled_backend =
            backend_by_name(&format!("chunked-t{threads}"), threads).expect("registered backend");
        let (p1, p2, pi) = time_case(
            &sys,
            case.warmup,
            case.iters,
            repeats,
            |s, x, o| pooled_backend.aprod1(s, x, o),
            |s, y, o| pooled_backend.aprod2(s, y, o),
        );
        let speedup = if pi.median_s > 0.0 {
            li.median_s / pi.median_s
        } else {
            1.0
        };
        println!(
            "{:<8} rows={:<8} legacy {:>10.3} µs/iter   pooled {:>10.3} µs/iter   speedup {:.2}x",
            case.label,
            sys.n_rows(),
            1e6 * li.median_s,
            1e6 * pi.median_s,
            speedup,
        );
        rows.push(serde_json::json!({
            "layout": case.label,
            "n_rows": sys.n_rows(),
            "n_cols": sys.n_cols(),
            "threads": threads,
            "iterations": case.iters,
            "legacy_spawn": serde_json::json!({
                "aprod1": summary_json(&l1),
                "aprod2": summary_json(&l2),
                "iteration": summary_json(&li),
            }),
            "pooled": serde_json::json!({
                "aprod1": summary_json(&p1),
                "aprod2": summary_json(&p2),
                "iteration": summary_json(&pi),
            }),
            "speedup_pooled_over_legacy": speedup,
        }));
    }

    let report = serde_json::json!({
        "schema": "gaia-bench-executor-overhead/v2",
        "threads": threads,
        "available_parallelism": available,
        "repeats": repeats,
        "quick": quick,
        "backend": "chunked (owner-computes policy on the shared pool)",
        "baseline": "identical kernels, std::thread::scope spawn per call",
        "cases": rows,
    });
    must_write_artifact("bench/executor_overhead.json", &report);
}
