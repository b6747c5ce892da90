//! `serve-small`: a closed loop of one client against `SolveService`,
//! alternating two tenants with their own small systems, each request a
//! 2-rank distributed solve on `seq`.

use std::sync::Arc;
use std::time::Instant;

use gaia_backends::{backend_by_name, ExecutorPool};
use gaia_lsqr::{
    solve_resilient, Checkpoint, LsqrConfig, OperatorLsqr, RecoveryReport, ResilienceOptions,
    SystemOperator,
};
use gaia_serve::{
    DegradeConfig, Outcome, OutcomeKind, ServiceConfig, ServiceEvent, SolveRequest, SolveService,
};
use gaia_sparse::{footprint, Generator, GeneratorConfig, SparseSystem};

use crate::host::Host;
use crate::probes::{self, KernelAxis};
use crate::solve::{self, step_loop};
use crate::stats::{median, percentile};
use crate::trace;
use crate::wrap::{TimedBackend, TimedOperator};
use crate::{Params, Report};

/// Ranks of every request.
pub const RANKS: usize = 2;
/// Backend of every request.
pub const SERVE_BACKEND: &str = "seq";

fn service_config() -> ServiceConfig {
    ServiceConfig {
        workers: 1,
        degrade: DegradeConfig {
            full_threads: 1,
            min_threads: 1,
            ..DegradeConfig::default()
        },
        ..ServiceConfig::default()
    }
}

fn request(tenant: &str, system: &Arc<SparseSystem>) -> SolveRequest {
    SolveRequest {
        config: LsqrConfig::new(),
        backend: SERVE_BACKEND.into(),
        ranks: RANKS,
        ..SolveRequest::new(tenant, Arc::clone(system))
    }
}

/// The request solved directly by the supervisor the service runs, with
/// the service's options: the reference every served reply must match.
fn solve_direct(sys: &SparseSystem, cfg: &ServiceConfig) -> Result<RecoveryReport, String> {
    solve_resilient(
        sys,
        RANKS,
        &LsqrConfig::new(),
        |_| backend_by_name(SERVE_BACKEND, 1).expect("seq is registered"),
        &ResilienceOptions {
            policy: cfg.supervisor,
            collective_timeout: cfg.collective_timeout,
            ..ResilienceOptions::default()
        },
    )
    .map_err(|e| e.to_string())
}

/// One served reply, checked against its tenant's reference.
struct Reply {
    latency: f64,
    /// Loop seconds at completion, set-up repetitions excluded.
    done: f64,
    iterations: usize,
    traced: bool,
}

/// The nearest-rank p99 of each of `n` consecutive equal slices of the
/// latencies `lat`.
fn window_p99s(lat: &[f64], n: usize) -> Vec<f64> {
    let m = lat.len() / n.max(1);
    (0..n)
        .map(|k| percentile(&lat[k * m..(k + 1) * m], 99.0))
        .collect()
}

/// Seconds between consecutive completions of the loop: the round trip
/// of each request, client side included.
fn cycles(replies: &[Reply]) -> Vec<f64> {
    let mut prev = 0.0;
    replies
        .iter()
        .map(|r| {
            let c = r.done - prev;
            prev = r.done;
            c
        })
        .collect()
}

/// The throughput of each of `n` consecutive equal slices of the loop's
/// replies.
fn window_rates(replies: &[Reply], n: usize) -> Vec<f64> {
    let m = replies.len() / n.max(1);
    (0..n)
        .map(|k| {
            let start = if k == 0 { 0.0 } else { replies[k * m - 1].done };
            m as f64 / (replies[(k + 1) * m - 1].done - start)
        })
        .collect()
}

pub fn run(p: &Params, host: &Host) -> Result<Report, String> {
    let layout = p.serve;
    let mut report = Report::new(footprint::device_bytes(&layout));
    let l2 = host.l2_bytes.unwrap_or(u64::MAX);
    if report.problem_bytes > l2 {
        report.warn(format!(
            "each tenant system is {} bytes, more than the {l2}-byte L2 it should fit in",
            report.problem_bytes
        ));
    }
    let cfg = service_config();
    let seeds = [
        p.seed.wrapping_mul(2),
        p.seed.wrapping_mul(2).wrapping_add(1),
    ];
    let tenants = ["tenant-a", "tenant-b"];
    let mut setups = Vec::new();
    trace::set_enabled(p.traced);

    // One set-up: both tenants' systems and a started service. The
    // repetitions behind `setup_s` are spread through the request loop, so
    // their median samples the same stretch of time as the latencies.
    let setup = || {
        let t0 = Instant::now();
        let systems = seeds.map(|s| {
            Arc::new(trace::scoped("sparse.generate", || {
                Generator::new(GeneratorConfig::new(layout).seed(s)).generate()
            }))
        });
        let service = trace::scoped("serve.start", || SolveService::start(cfg));
        (t0.elapsed().as_secs_f64(), systems, service)
    };
    let setup_every = (p.min_requests / p.setup_reps.max(1)).max(1);
    let (setup_s, systems, service) = setup();
    setups.push(setup_s);
    trace::set_enabled(false);
    let references = [
        solve_direct(&systems[0], &cfg)?,
        solve_direct(&systems[1], &cfg)?,
    ];
    for (t, r) in references.iter().enumerate() {
        if !r.solution.stop.converged() {
            return Err(format!(
                "{}: reference solve stopped with {:?}",
                tenants[t], r.solution.stop
            ));
        }
    }
    let requests = [
        request(tenants[0], &systems[0]),
        request(tenants[1], &systems[1]),
    ];
    let submit = |i: usize, traced: bool, report: &mut Report| -> Reply {
        let t = i % 2;
        trace::set_enabled(traced);
        trace::set_id(i as u64);
        let start = Instant::now();
        let outcome = {
            let _r = trace::span("serve.request");
            let (_, ticket) = trace::scoped("serve.submit", || service.submit(requests[t].clone()));
            ticket.wait()
        };
        let latency = start.elapsed().as_secs_f64();
        trace::set_enabled(false);
        report.attempted += 1;
        let reference = &references[t].solution;
        let iterations = match &outcome {
            Outcome::Converged(s) => {
                if s.solution.iterations != reference.iterations {
                    report.fail(format!(
                        "request {i}: {} iterations, the seed's reference takes {}",
                        s.solution.iterations, reference.iterations
                    ));
                } else if let Some(d) = solve::bitwise_mismatch(&s.solution.x, &reference.x) {
                    report.fail(format!(
                        "request {i}: solution differs from the direct solve: {d}"
                    ));
                }
                s.solution.iterations
            }
            other => {
                report.fail(format!("request {i}: {}", other.kind()));
                0
            }
        };
        Reply {
            latency,
            done: 0.0,
            iterations,
            traced,
        }
    };

    for i in 0..p.warmup_requests {
        submit(i, false, &mut report);
    }
    let mut replies: Vec<Reply> = Vec::new();
    let t_loop = Instant::now();
    let mut excluded = 0.0;
    while t_loop.elapsed().as_secs_f64() < p.seconds as f64 || replies.len() < p.min_requests {
        let i = p.warmup_requests + replies.len();
        // Pairs of requests (one per tenant) alternate traced/untraced.
        let traced = p.traced && (replies.len() / 2).is_multiple_of(2);
        let mut reply = submit(i, traced, &mut report);
        reply.done = t_loop.elapsed().as_secs_f64() - excluded;
        replies.push(reply);
        if replies.len().is_multiple_of(setup_every) && setups.len() < p.setup_reps {
            let t = Instant::now();
            let (setup_s, _, spare) = setup();
            setups.push(setup_s);
            spare.shutdown();
            excluded += t.elapsed().as_secs_f64();
        }
        if traced {
            // The same request solved directly, interleaved with the
            // served ones so both see the same machine.
            trace::set_enabled(true);
            let _s = trace::span("core.resilient_solve");
            solve_direct(&systems[i % 2], &cfg)?;
        }
    }
    let events = service.shutdown();
    let converged = audit_events(&events, &mut report);

    let lat = |traced: Option<bool>| -> Vec<f64> {
        replies
            .iter()
            .filter(|r| traced.is_none_or(|t| r.traced == t))
            .map(|r| r.latency)
            .collect()
    };
    report.samples = replies.len();
    if !p.traced {
        let all = lat(None);
        let per_iter: Vec<f64> = replies
            .iter()
            .filter(|r| r.iterations > 0)
            .map(|r| r.latency / r.iterations as f64)
            .collect();
        let v = &mut report.values;
        v.insert("setup_s", median(&setups));
        v.insert("iter_s", median(&per_iter));
        v.insert("solve_s", median(&all));
        v.insert("req_p50_s", median(&all));
        // The median round trip, not the mean: the host's preemptions
        // stretch a varying share of requests from one run to the next,
        // and the mean follows them (the window rates noted below).
        v.insert("req_per_s", 1.0 / median(&cycles(&replies)));
        report.tail = crate::stats::tail(&all);
        report.note_samples("set-ups", &setups);
        report.note_samples("requests", &all);
        let p99s = window_p99s(&all, p.windows);
        let rates = window_rates(&replies, p.windows);
        report.notes.push(format!(
            "windows of {} requests: p99 {p99s:.6?} s (median {:.6} s), mean rate {rates:.2?} req/s",
            replies.len() / p.windows,
            median(&p99s)
        ));
        return Ok(report);
    }

    trace::set_enabled(true);
    let mut axis = KernelAxis::default();
    axis.add_system(&systems[0], p.kernel_reps);
    let ckpt = layer_solves(p, &systems, &mut report)?;
    let spans = trace::snapshot();
    let resilient = median(&trace::durations(&spans, "core.resilient_solve"));
    let v = &mut report.values;
    solve::solver_layers(v, &spans, solve::aprod_bytes(&layout), host.triad_gbps);
    v.insert(
        "sparse.generate_s",
        median(&trace::durations(&spans, "sparse.generate")),
    );
    crate::not_on_path(v, crate::TILES_ONLY);
    axis.record(v);
    v.insert(
        "core.checkpoint_s",
        median(&trace::durations(&spans, "core.checkpoint")),
    );
    v.insert("core.checkpoint_mb", ckpt as f64 / 1e6);
    v.insert(
        "core.iters_to_tol",
        (references[0].solution.iterations + references[1].solution.iterations) as f64 / 2.0,
    );
    v.insert("core.resilient_solve_s", resilient);
    v.insert("serve.overhead_s", median(&lat(Some(true))) - resilient);
    v.insert(
        "serve.submit_us",
        median(&trace::durations(&spans, "serve.submit")) * 1e6,
    );
    v.insert("serve.converged_ratio", converged);
    v.insert(
        "req_p99_s",
        median(&window_p99s(&lat(Some(false)), p.windows)),
    );
    v.insert(
        "trace.overhead_frac",
        solve::overhead(&lat(Some(true)), &lat(Some(false))),
    );
    probes::mpi_sim(v, systems[0].n_cols(), p.probe_reps);
    report.artifact_log = axis.artifact_log(median(&trace::durations(&spans, "core.try_step")));
    Ok(report)
}

/// Every submitted request must be admitted, started and finished exactly
/// once, and none shed. Returns the converged share of submissions.
fn audit_events(events: &[ServiceEvent], report: &mut Report) -> f64 {
    let count = |f: &dyn Fn(&ServiceEvent) -> bool| events.iter().filter(|e| f(e)).count();
    let submitted = count(&|e| matches!(e, ServiceEvent::Submitted { .. }));
    let admitted = count(&|e| matches!(e, ServiceEvent::Admitted { .. }));
    let finished = count(&|e| matches!(e, ServiceEvent::Finished { .. }));
    let converged = count(&|e| {
        matches!(
            e,
            ServiceEvent::Finished {
                kind: OutcomeKind::Converged,
                ..
            }
        )
    });
    if admitted != submitted || finished != submitted {
        report.fail(format!(
            "event log: {submitted} submitted, {admitted} admitted, {finished} finished"
        ));
    }
    converged as f64 / submitted.max(1) as f64
}

/// Single-rank `OperatorLsqr` solves of the served systems with spans on
/// every layer: the served solve steps inside the distributed core, which
/// has no public seam, so its solver layers are read off these. Returns
/// the size of one checkpoint of the final state.
fn layer_solves(
    p: &Params,
    systems: &[Arc<SparseSystem>; 2],
    report: &mut Report,
) -> Result<u64, String> {
    let backend = backend_by_name(SERVE_BACKEND, 1).ok_or("no seq backend")?;
    let timed = TimedBackend::new(&*backend);
    let pool = ExecutorPool::shared(1);
    let rotation = crate::rotation(&p.out, &format!("serve-s{}", p.seed), 1)?;
    let mut bytes = 0;
    for i in 0..p.direct_solves {
        let sys = &systems[i % 2];
        trace::set_id(i as u64);
        let cfg = LsqrConfig::new();
        let lsqr = trace::scoped("core.new", || {
            OperatorLsqr::new(TimedOperator::new(SystemOperator::new(sys, &timed)), cfg)
        })
        .map_err(|e| e.to_string())?;
        let mut state =
            trace::scoped("core.init", || lsqr.try_init_state()).map_err(|e| e.to_string())?;
        let steps = step_loop(&lsqr, &mut state, true, &pool, |_| Ok(()))?;
        {
            let _s = trace::span("core.checkpoint");
            rotation
                .save(state.itn, &Checkpoint::capture(sys, &cfg, &state))
                .map_err(|e| e.to_string())?;
        }
        bytes = crate::latest_slot_bytes(&rotation);
        let v = &mut report.values;
        v.insert(
            "backends.pool_launches_per_iter",
            steps.pool_launches as f64 / state.itn as f64,
        );
        v.insert(
            "backends.pool_jobs_per_iter",
            steps.pool_jobs as f64 / state.itn as f64,
        );
        let _ = lsqr.finish(state);
    }
    rotation.clear();
    Ok(bytes)
}
