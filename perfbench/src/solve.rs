//! The LSQR stepping loop shared by the resident and out-of-core
//! workloads, and the per-layer metrics read off its spans.

use std::path::{Path, PathBuf};
use std::time::Instant;

use gaia_backends::ExecutorPool;
use gaia_lsqr::lsqr::LsqrState;
use gaia_lsqr::{Operator, OperatorLsqr};
use gaia_sparse::{footprint, BlockKind, SystemLayout};

use crate::metrics::Values;
use crate::stats::median;
use crate::trace::{self, Span};

/// Wall time of every iteration of one solve, and whether it was traced.
#[derive(Debug, Default)]
pub struct Steps {
    pub seconds: Vec<f64>,
    pub traced: Vec<bool>,
    /// `ExecutorPool` launches and jobs over the whole loop.
    pub pool_launches: u64,
    pub pool_jobs: u64,
}

impl Steps {
    pub fn mean(&self) -> f64 {
        crate::stats::mean(&self.seconds)
    }

    fn split(&self, traced: bool) -> Vec<f64> {
        self.seconds
            .iter()
            .zip(&self.traced)
            .filter(|(_, &t)| t == traced)
            .map(|(&s, _)| s)
            .collect()
    }

    /// Traced minus untraced median iteration, over the untraced median.
    pub fn trace_overhead(&self) -> f64 {
        overhead(&self.split(true), &self.split(false))
    }
}

/// `(median(traced) − median(untraced)) / median(untraced)`.
pub fn overhead(traced: &[f64], untraced: &[f64]) -> f64 {
    let base = median(untraced);
    (median(traced) - base) / base
}

/// Step `state` to completion. In a traced run every other iteration is
/// recorded (the rest measure the untraced cost in the same solve);
/// `after_step` runs after each iteration, traced in a traced run.
pub fn step_loop<O: Operator>(
    lsqr: &OperatorLsqr<O>,
    state: &mut LsqrState,
    traced_run: bool,
    pool: &ExecutorPool,
    mut after_step: impl FnMut(&LsqrState) -> Result<(), String>,
) -> Result<Steps, String> {
    let mut steps = Steps::default();
    let (launches, jobs) = (pool.launch_count(), pool.jobs_run_count());
    while !state.is_done() {
        let traced = traced_run && state.itn.is_multiple_of(2);
        trace::set_enabled(traced);
        let t = Instant::now();
        {
            let _s = trace::span("core.try_step");
            lsqr.try_step(state).map_err(|e| e.to_string())?;
        }
        steps.seconds.push(t.elapsed().as_secs_f64());
        steps.traced.push(traced);
        trace::set_enabled(traced_run);
        after_step(state)?;
    }
    steps.pool_launches = pool.launch_count() - launches;
    steps.pool_jobs = pool.jobs_run_count() - jobs;
    Ok(steps)
}

/// Layer metrics the fixed-iteration workloads read off their solve loop:
/// pool counts per iteration, the iteration count, the tracing overhead,
/// and 0 for the serving layers they do not pass through.
pub fn loop_layers(values: &mut Values, steps: &Steps) {
    let k = steps.seconds.len() as f64;
    values.insert(
        "backends.pool_launches_per_iter",
        steps.pool_launches as f64 / k,
    );
    values.insert("backends.pool_jobs_per_iter", steps.pool_jobs as f64 / k);
    values.insert("core.iters_to_tol", k);
    values.insert("trace.overhead_frac", steps.trace_overhead());
    crate::not_on_path(values, crate::SERVE_ONLY);
}

/// Bytes one `aprod1` plus one `aprod2` moves over the whole of `layout`,
/// as computed by `gaia_sparse::footprint` (not measured).
pub fn aprod_bytes(layout: &SystemLayout) -> u64 {
    BlockKind::ALL
        .iter()
        .map(|&k| {
            footprint::aprod1_traffic_bytes(layout, k) + footprint::aprod2_traffic_bytes(layout, k)
        })
        .sum()
}

/// Median over traced iterations of the summed duration of spans `name`.
fn per_step(spans: &[Span], name: &str) -> f64 {
    median(&trace::per_root_sum(spans, "core.try_step", name))
}

/// The solver-side layer metrics of the traced iterations in `spans`:
/// operator fetch time, backend products and BLAS-1, LSQR self time,
/// column norms and initialisation. `bytes_per_iter` and `triad_gbps` set
/// `backends.aprod_bw_frac`.
pub fn solver_layers(values: &mut Values, spans: &[Span], bytes_per_iter: u64, triad_gbps: f64) {
    let self_t = trace::self_times(spans);
    let fetch = trace::per_root(spans, "core.try_step", |i| {
        matches!(spans[i].name, "sparse.aprod1" | "sparse.aprod2").then_some(self_t[i])
    });
    let step_self: Vec<f64> = (0..spans.len())
        .filter(|&i| spans[i].name == "core.try_step")
        .map(|i| self_t[i])
        .collect();
    let a1 = per_step(spans, "backends.aprod1");
    let a2 = per_step(spans, "backends.aprod2");
    values.insert("sparse.tile_fetch_s", median(&fetch));
    values.insert(
        "sparse.column_norms_s",
        median(&trace::durations(spans, "sparse.column_norms")),
    );
    values.insert("backends.aprod1_s", a1);
    values.insert("backends.aprod2_s", a2);
    values.insert("backends.blas_s", per_step(spans, "backends.blas"));
    values.insert(
        "backends.aprod_bw_frac",
        bytes_per_iter as f64 / (a1 + a2) / 1e9 / triad_gbps,
    );
    values.insert("core.step_self_s", median(&step_self));
    values.insert("core.init_s", median(&trace::durations(spans, "core.init")));
}

/// The run's working directory for fixtures, references, checkpoints and
/// traces: `perfbench/out` in the checkout the benchmark was built from.
pub fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Write `x` as little-endian doubles.
pub fn save_vector(path: &Path, x: &[f64]) -> Result<(), String> {
    let bytes: Vec<u8> = x.iter().flat_map(|v| v.to_le_bytes()).collect();
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, bytes).map_err(|e| format!("{}: {e}", path.display()))
}

/// Read a vector written by [`save_vector`]; `None` when absent or
/// malformed.
pub fn load_vector(path: &Path) -> Option<Vec<f64>> {
    let bytes = std::fs::read(path).ok()?;
    if bytes.len() % 8 != 0 {
        return None;
    }
    Some(
        bytes
            .chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().expect("chunks are 8 bytes")))
            .collect(),
    )
}

/// Bitwise agreement of a solution with its reference: `None` when every
/// component has the same bits, else a description of the first
/// difference and the largest relative one.
pub fn bitwise_mismatch(x: &[f64], reference: &[f64]) -> Option<String> {
    if x.len() != reference.len() {
        return Some(format!(
            "length {} vs reference {}",
            x.len(),
            reference.len()
        ));
    }
    let first = x
        .iter()
        .zip(reference)
        .position(|(a, b)| a.to_bits() != b.to_bits())?;
    let worst = x
        .iter()
        .zip(reference)
        .map(|(a, b)| (a - b).abs() / b.abs().max(f64::MIN_POSITIVE))
        .fold(0.0, f64::max);
    Some(format!(
        "x[{first}] = {:e} vs reference {:e}; largest relative difference {worst:e}",
        x[first], reference[first]
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn vectors_round_trip_bitwise() {
        let dir = out_dir().join(format!("test-vec-{}", std::process::id()));
        let path = dir.join("x.bin");
        let x = vec![1.0, -0.0, f64::MIN_POSITIVE, 1e300];
        save_vector(&path, &x).unwrap();
        let back = load_vector(&path).unwrap();
        assert!(bitwise_mismatch(&back, &x).is_none());
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn mismatch_names_first_difference() {
        let a = [1.0, 2.0, 3.0];
        let b = [1.0, 2.0 + 1e-15, 3.5];
        let msg = bitwise_mismatch(&a, &b).unwrap();
        assert!(msg.starts_with("x[1]"), "{msg}");
        assert!(bitwise_mismatch(&a, &a).is_none());
        assert!(bitwise_mismatch(&a, &a[..2]).is_some());
    }

    #[test]
    fn overhead_is_relative_to_the_untraced_median() {
        assert!((overhead(&[1.1, 1.1, 5.0], &[1.0, 1.0, 0.9]) - 0.1).abs() < 1e-12);
    }
}
