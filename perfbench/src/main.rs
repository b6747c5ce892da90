//! Solve-level benchmark of the Gaia AVU-GSR workspace.
//!
//! ```text
//! perfbench --workload <resident-dram|ooc-tiles|serve-small> --seed <n> --seconds <n> --trace <0|1>
//! ```
//!
//! An untraced run (`--trace 0`) prints every end-to-end metric; a traced
//! run (`--trace 1`) prints every per-layer metric and writes a Chrome
//! trace. Both check the program's outputs, print a host fingerprint, and
//! end with one JSON result line. See README.md for the workloads and the
//! metric definitions.

mod host;
mod metrics;
mod ooc;
mod probes;
mod resident;
mod serve;
mod solve;
mod stats;
mod trace;
mod wrap;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use gaia_lsqr::CheckpointRotation;
use gaia_sparse::SystemLayout;

use host::Host;
use metrics::Values;

/// Registry backend of the resident and out-of-core workloads: the one
/// the repository picks by system shape, at host parallelism.
pub const BACKEND: &str = "tuned";

/// Per-layer metrics only `serve-small` exercises; 0 elsewhere.
pub const SERVE_ONLY: &[&str] = &[
    "core.resilient_solve_s",
    "serve.overhead_s",
    "serve.submit_us",
    "serve.converged_ratio",
    "req_p99_s",
];

/// Tile-cache metrics only `ooc-tiles` exercises; 0 elsewhere.
pub const TILES_ONLY: &[&str] = &[
    "sparse.tile_load_gbps",
    "sparse.tile_loads_per_iter",
    "sparse.tile_hit_ratio",
];

/// The workloads, by name.
pub const WORKLOADS: [&str; 3] = ["resident-dram", "ooc-tiles", "serve-small"];

/// Sizes and repetition counts of one run.
#[derive(Debug, Clone)]
pub struct Params {
    pub seed: u64,
    pub seconds: u64,
    pub traced: bool,
    /// Fixtures, references, checkpoints and traces go here.
    pub out: PathBuf,
    /// Set-ups per run; `setup_s` is their median.
    pub setup_reps: usize,
    pub resident: SystemLayout,
    pub resident_iters: usize,
    pub ooc: SystemLayout,
    pub ooc_iters: usize,
    pub ooc_tiles: u64,
    pub checkpoint_every: usize,
    pub serve: SystemLayout,
    /// Requests of a `serve-small` loop (at least; it also runs for
    /// `seconds`), split into `windows` equal slices for the p99 and the
    /// mean rate.
    pub min_requests: usize,
    pub windows: usize,
    pub warmup_requests: usize,
    /// Calls per kernel in the per-block axis.
    pub kernel_reps: usize,
    /// Worlds per `mpi-sim` probe.
    pub probe_reps: usize,
    /// Single-rank layer solves of the served systems in a traced
    /// `serve-small` run.
    pub direct_solves: usize,
}

impl Params {
    /// The benchmark's sizes. Iteration counts scale with `seconds` so
    /// that stepping takes about that long on a 2-core host with a
    /// 300 MiB L3 (about 0.5 s and 3 s per iteration).
    pub fn new(workload: &str, seed: u64, seconds: u64, traced: bool) -> Params {
        let s = seconds as f64;
        let serve = workload == "serve-small";
        Params {
            seed,
            seconds,
            traced,
            out: solve::out_dir(),
            setup_reps: if serve { 15 } else { 5 },
            resident: SystemLayout::from_gb(1.3),
            resident_iters: ((1.6 * s).round() as usize).max(4),
            ooc: SystemLayout::from_gb(0.65),
            ooc_iters: ((0.4 * s).round() as usize).max(2),
            ooc_tiles: 16,
            checkpoint_every: 2,
            serve: SystemLayout::small(),
            min_requests: 3000,
            windows: 3,
            warmup_requests: 10,
            kernel_reps: if serve { 25 } else { 5 },
            probe_reps: 100,
            direct_solves: 20,
        }
    }
}

/// What a workload measured and checked.
#[derive(Debug, Default)]
pub struct Report {
    pub values: Values,
    pub attempted: u64,
    pub failed: u64,
    /// Bytes of the system the workload solves.
    pub problem_bytes: u64,
    pub failures: Vec<String>,
    pub warnings: Vec<String>,
    /// Latency samples behind the `req_*` metrics.
    pub samples: usize,
    /// Highest percentile with at least 10 samples beyond it, and its value.
    pub tail: Option<(f64, f64)>,
    /// PP-Gaia artifact log lines of a traced run.
    pub artifact_log: String,
    /// Sample summaries printed with the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn new(problem_bytes: u64) -> Report {
        Report {
            problem_bytes,
            ..Report::default()
        }
    }

    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.failures.push(why);
    }

    pub fn warn(&mut self, why: String) {
        self.warnings.push(why);
    }

    /// Warn unless the problem is at least `multiple` times the L3.
    pub fn check_ratio(&mut self, host: &Host, multiple: f64) {
        if let Some(l3) = host.l3_bytes {
            let ratio = self.problem_bytes as f64 / l3 as f64;
            if ratio < multiple {
                self.warn(format!(
                    "working set is {ratio:.2} x L3, below the workload's {multiple} x"
                ));
            }
        }
    }

    /// Note the spread of `samples` seconds under `label`.
    pub fn note_samples(&mut self, label: &str, samples: &[f64]) {
        let v = |pct| stats::percentile(samples, pct);
        self.notes.push(format!(
            "{label}: {} samples, min {:.6} / median {:.6} / max {:.6} s",
            samples.len(),
            v(0.0),
            stats::median(samples),
            v(100.0)
        ));
    }

    /// End-to-end metrics of a workload that runs one solve: the solve is
    /// its one request.
    pub fn single_solve(&mut self, setups: &[f64], steps: &[f64], solve_s: f64) {
        for (name, v) in [
            ("setup_s", stats::median(setups)),
            ("iter_s", stats::median(steps)),
            ("solve_s", solve_s),
            ("req_p50_s", solve_s),
            ("req_per_s", 1.0 / solve_s),
        ] {
            self.values.insert(name, v);
        }
        self.samples = 1;
        self.note_samples("set-ups", setups);
        self.note_samples("iterations", steps);
    }
}

/// Record 0 for layers the workload does not pass through.
pub fn not_on_path(values: &mut Values, names: &[&'static str]) {
    for n in names {
        values.insert(n, 0.0);
    }
}

/// A checkpoint rotation under `out/ckpt`, its directory created.
pub fn rotation(out: &Path, name: &str, retain: usize) -> Result<CheckpointRotation, String> {
    let dir = out.join("ckpt");
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    Ok(CheckpointRotation::new(dir.join(name), retain))
}

/// Size on disk of the newest snapshot of `rotation`.
pub fn latest_slot_bytes(rotation: &CheckpointRotation) -> u64 {
    rotation
        .slots()
        .last()
        .and_then(|(_, path)| std::fs::metadata(path).ok())
        .map_or(0, |m| m.len())
}

/// Run one workload with the trace recorder cleared.
pub fn run_workload(workload: &str, p: &Params, host: &Host) -> Result<Report, String> {
    trace::clear();
    let mut report = match workload {
        "resident-dram" => resident::run(p, host),
        "ooc-tiles" => ooc::run(p, host),
        "serve-small" => serve::run(p, host),
        other => Err(format!("unknown workload `{other}`")),
    }?;
    trace::set_enabled(false);
    let v = &mut report.values;
    if p.traced {
        v.insert("host.triad_gbps", host.triad_gbps);
        v.insert("host.triad_gbps_1t", host.triad_gbps_1t);
    } else {
        v.insert("peak_rss_mb", host::peak_rss_mb().unwrap_or(f64::NAN));
    }
    let bad: Vec<&str> = v
        .iter()
        .filter(|(_, x)| !x.is_finite())
        .map(|(&n, _)| n)
        .collect();
    for m in metrics::mismatches(&report.values, p.traced) {
        report.fail(format!("metric set: {m}"));
    }
    if !bad.is_empty() {
        report.fail(format!("non-finite metrics: {}", bad.join(", ")));
    }
    Ok(report)
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    traced: bool,
}

fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut traced) = (None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or(format!("{flag} needs a value"))?;
        let num = |v: &str| v.parse::<u64>().map_err(|e| format!("{flag} {v}: {e}"));
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(num(&value)?),
            "--seconds" => seconds = Some(num(&value)?.max(1)),
            "--trace" => {
                traced = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value}")),
                })
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!(
            "unknown workload `{workload}`; one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(Args {
        workload,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        traced: traced.unwrap_or(false),
    })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <n> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    // Timing instrumented kernels would measure the probes, not the
    // program: the benchmark's own spans are its only tracing.
    if gaia_telemetry::is_enabled() {
        eprintln!(
            "error: gaia-telemetry recording is compiled in; build without its `enabled` feature"
        );
        return ExitCode::from(2);
    }
    let p = Params::new(&args.workload, args.seed, args.seconds, args.traced);
    println!(
        "perfbench {} seed={} seconds={} trace={}",
        args.workload, args.seed, args.seconds, args.traced as u8
    );
    let host = Host::probe(4);
    if !host::reset_peak_rss() {
        eprintln!("warning: VmHWM not reset; peak_rss_mb includes the triad arrays");
    }
    let report = match run_workload(&args.workload, &p, &host) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("error: {} failed: {e}", args.workload);
            return ExitCode::from(2);
        }
    };

    println!("host {}", host.json(report.problem_bytes));
    for w in &report.warnings {
        eprintln!("warning: {w}");
    }
    for f in &report.failures {
        eprintln!("FAILED: {f}");
    }
    for m in metrics::catalogue(args.traced) {
        let v = report.values.get(m.name).copied().unwrap_or(f64::NAN);
        println!(
            "  {:<36} {:>14.6} {:<6} ({} is better)",
            m.name,
            v,
            m.unit,
            m.better.as_str()
        );
    }
    println!(
        "  fail_frac {} ({} of {} failed)",
        report.failed as f64 / report.attempted.max(1) as f64,
        report.failed,
        report.attempted
    );
    for n in &report.notes {
        println!("  {n}");
    }
    if !args.traced {
        match report.tail {
            Some((pct, v)) => println!(
                "  requests: {} samples; tail p{pct} = {v:.6} s",
                report.samples
            ),
            None => println!(
                "  requests: {} sample(s); too few for a tail percentile",
                report.samples
            ),
        }
    }
    if args.traced {
        print!("{}", report.artifact_log);
        let path = p
            .out
            .join("traces")
            .join(format!("{}-s{}.json", args.workload, args.seed));
        let written = std::fs::create_dir_all(path.parent().expect("trace path has a parent"))
            .and_then(|()| std::fs::write(&path, trace::chrome_json(&trace::snapshot())));
        match written {
            Ok(()) => println!("  trace: {}", path.display()),
            Err(e) => eprintln!("warning: trace not written to {}: {e}", path.display()),
        }
    }
    let correct = report.failed == 0 && report.attempted > 0;
    println!(
        "{}",
        metrics::result_line(
            correct,
            report.attempted.max(1),
            report.failed,
            &report.values,
            args.traced
        )
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use trace::TEST_LOCK;

    fn tiny(workload: &str, traced: bool, out: &Path) -> Params {
        Params {
            out: out.to_path_buf(),
            setup_reps: 2,
            resident: SystemLayout::small(),
            resident_iters: 6,
            ooc: SystemLayout::small(),
            ooc_iters: 4,
            ooc_tiles: 4,
            serve: SystemLayout::tiny(),
            min_requests: 24,
            warmup_requests: 2,
            kernel_reps: 3,
            probe_reps: 3,
            direct_solves: 4,
            ..Params::new(workload, 5, 1, traced)
        }
    }

    fn test_host() -> Host {
        Host {
            nproc: 2,
            l2_bytes: None,
            l3_bytes: None,
            triad_gbps: 10.0,
            triad_gbps_1t: 9.0,
            triad_bytes: 0,
            revision: "test".into(),
        }
    }

    #[test]
    fn every_workload_reports_its_whole_catalogue_and_passes_its_gate() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = solve::out_dir().join(format!("test-{}", std::process::id()));
        for workload in WORKLOADS {
            for traced in [false, true] {
                let p = tiny(workload, traced, &out);
                let r = run_workload(workload, &p, &test_host()).unwrap();
                assert!(
                    r.failures.is_empty(),
                    "{workload} traced={traced}: {:?}",
                    r.failures
                );
                assert!(r.attempted >= 1);
                assert!(metrics::mismatches(&r.values, traced).is_empty());
                if traced {
                    assert!(r.artifact_log.starts_with("Average iteration time: "));
                    assert!(r.artifact_log.contains("Average kernel Aprod2Att time: "));
                }
            }
        }
        std::fs::remove_dir_all(&out).unwrap();
    }

    #[test]
    fn serve_small_counts_every_request() {
        let _lock = TEST_LOCK.lock().unwrap_or_else(|e| e.into_inner());
        let out = solve::out_dir().join(format!("test-serve-{}", std::process::id()));
        let p = tiny("serve-small", false, &out);
        let r = run_workload("serve-small", &p, &test_host()).unwrap();
        assert_eq!(r.attempted as usize, p.warmup_requests + r.samples);
        assert!(r.samples >= p.min_requests);
        let (_, tail) = r.tail.expect("enough requests for a tail percentile");
        assert!(tail >= r.values["req_p50_s"]);
        let p = tiny("serve-small", true, &out);
        let r = run_workload("serve-small", &p, &test_host()).unwrap();
        assert!(r.values["req_p99_s"] > 0.0);
        let _ = std::fs::remove_dir_all(&out);
    }

    #[test]
    fn arguments_are_checked() {
        let parse = |s: &str| parse_args(s.split_whitespace().map(String::from));
        let a = parse("--workload ooc-tiles --seed 3 --seconds 10 --trace 1").unwrap();
        assert_eq!(
            (a.workload.as_str(), a.seed, a.seconds, a.traced),
            ("ooc-tiles", 3, 10, true)
        );
        assert!(parse("--workload nope --seed 3 --seconds 10 --trace 0").is_err());
        assert!(parse("--workload ooc-tiles --seconds 10 --trace 0").is_err());
        assert!(parse("--workload ooc-tiles --seed 3 --seconds 10 --trace 2").is_err());
        assert!(parse("--workload ooc-tiles --seed x --seconds 10 --trace 0").is_err());
    }
}
