//! Layer probes of a traced run: the single-thread per-block kernel axis
//! (the paper's six `aprod` kernels plus glob) and `gaia-mpi-sim` world
//! start-up and allreduce.

use std::hint::black_box;
use std::time::Instant;

use gaia_backends::kernels;
use gaia_mpi_sim::ReduceOp;
use gaia_sparse::{footprint, BlockKind, SparseSystem};

use crate::metrics::Values;
use crate::stats::median;
use crate::trace;

/// One per-block kernel: its product, block, metric names and the label
/// the PP-Gaia artifact logs use.
pub struct Kernel {
    pub phase: u8,
    pub kind: BlockKind,
    pub secs: &'static str,
    pub gbps: &'static str,
    pub span: &'static str,
    pub log: &'static str,
}

const fn kernel(phase: u8, kind: BlockKind, names: [&'static str; 4]) -> Kernel {
    Kernel {
        phase,
        kind,
        secs: names[0],
        gbps: names[1],
        span: names[2],
        log: names[3],
    }
}

/// The eight per-block kernels in the artifact's launch order.
pub const KERNELS: [Kernel; 8] = [
    kernel(
        1,
        BlockKind::Astrometric,
        [
            "backends.seq.aprod1_astro_s",
            "backends.seq.aprod1_astro_gbps",
            "kernel.aprod1_astro",
            "Aprod1Astro",
        ],
    ),
    kernel(
        1,
        BlockKind::Attitude,
        [
            "backends.seq.aprod1_att_s",
            "backends.seq.aprod1_att_gbps",
            "kernel.aprod1_att",
            "Aprod1Att",
        ],
    ),
    kernel(
        1,
        BlockKind::Instrumental,
        [
            "backends.seq.aprod1_instr_s",
            "backends.seq.aprod1_instr_gbps",
            "kernel.aprod1_instr",
            "Aprod1Instr",
        ],
    ),
    kernel(
        1,
        BlockKind::Global,
        [
            "backends.seq.aprod1_glob_s",
            "backends.seq.aprod1_glob_gbps",
            "kernel.aprod1_glob",
            "Aprod1Glob",
        ],
    ),
    kernel(
        2,
        BlockKind::Astrometric,
        [
            "backends.seq.aprod2_astro_s",
            "backends.seq.aprod2_astro_gbps",
            "kernel.aprod2_astro",
            "Aprod2Astro",
        ],
    ),
    kernel(
        2,
        BlockKind::Attitude,
        [
            "backends.seq.aprod2_att_s",
            "backends.seq.aprod2_att_gbps",
            "kernel.aprod2_att",
            "Aprod2Att",
        ],
    ),
    kernel(
        2,
        BlockKind::Instrumental,
        [
            "backends.seq.aprod2_instr_s",
            "backends.seq.aprod2_instr_gbps",
            "kernel.aprod2_instr",
            "Aprod2Instr",
        ],
    ),
    kernel(
        2,
        BlockKind::Global,
        [
            "backends.seq.aprod2_glob_s",
            "backends.seq.aprod2_glob_gbps",
            "kernel.aprod2_glob",
            "Aprod2Glob",
        ],
    ),
];

/// Seconds and computed bytes of each kernel in [`KERNELS`] order.
#[derive(Debug, Clone, Default)]
pub struct KernelAxis {
    pub seconds: [f64; 8],
    pub bytes: [u64; 8],
}

impl KernelAxis {
    /// Time every kernel over the whole of `sys` at one thread (median of
    /// `reps` calls each) and add it to the axis. Bytes are computed from
    /// `gaia_sparse::footprint`, not measured.
    pub fn add_system(&mut self, sys: &SparseSystem, reps: usize) {
        let layout = *sys.layout();
        let x: Vec<f64> = (0..sys.n_cols())
            .map(|i| 1.0 / (1 + i % 7) as f64)
            .collect();
        let y: Vec<f64> = (0..sys.n_rows())
            .map(|i| 1.0 / (1 + i % 5) as f64)
            .collect();
        let (n_rows, n_obs) = (sys.n_rows(), sys.n_obs_rows());
        let c = sys.columns();
        let section = |kind: BlockKind| {
            let r = c.range(kind);
            r.start as usize..r.end as usize
        };
        let mut rows_out = vec![0.0f64; n_rows];
        let mut cols_out = vec![0.0f64; sys.n_cols()];
        for (k, kern) in KERNELS.iter().enumerate() {
            let (phase, kind) = (kern.phase, kern.kind);
            let mut samples = Vec::with_capacity(reps);
            for _ in 0..reps {
                let _s = trace::span(kern.span);
                let t = Instant::now();
                match (phase, kind) {
                    (1, BlockKind::Astrometric) => {
                        kernels::aprod1_astro(sys, &x, 0..n_obs, &mut rows_out[..n_obs])
                    }
                    (1, BlockKind::Attitude) => {
                        kernels::aprod1_att(sys, &x, 0..n_rows, &mut rows_out)
                    }
                    (1, BlockKind::Instrumental) => {
                        kernels::aprod1_instr(sys, &x, 0..n_obs, &mut rows_out[..n_obs])
                    }
                    (1, BlockKind::Global) => {
                        kernels::aprod1_glob(sys, &x, 0..n_obs, &mut rows_out[..n_obs])
                    }
                    (_, BlockKind::Astrometric) => kernels::aprod2_astro(
                        sys,
                        &y,
                        0..layout.n_stars as usize,
                        &mut cols_out[section(kind)],
                    ),
                    (_, BlockKind::Attitude) => {
                        kernels::aprod2_att(sys, &y, 0..n_rows, &mut cols_out[section(kind)])
                    }
                    (_, BlockKind::Instrumental) => {
                        kernels::aprod2_instr(sys, &y, 0..n_obs, &mut cols_out[section(kind)])
                    }
                    (_, BlockKind::Global) => {
                        kernels::aprod2_glob(sys, &y, 0..n_obs, &mut cols_out[section(kind)])
                    }
                }
                samples.push(t.elapsed().as_secs_f64());
                black_box(&rows_out);
                black_box(&cols_out);
            }
            self.seconds[k] += median(&samples);
            self.bytes[k] += if phase == 1 {
                footprint::aprod1_traffic_bytes(&layout, kind)
            } else {
                footprint::aprod2_traffic_bytes(&layout, kind)
            };
        }
    }

    /// `backends.seq.aprod{1,2}_{block}_{s,gbps}` into `values`.
    pub fn record(&self, values: &mut Values) {
        for (k, kern) in KERNELS.iter().enumerate() {
            let s = self.seconds[k];
            let gbps = if s > 0.0 {
                self.bytes[k] as f64 / s / 1e9
            } else {
                0.0
            };
            values.insert(kern.secs, s);
            values.insert(kern.gbps, gbps);
        }
    }

    /// The PP-Gaia artifact log block: average iteration time, then one
    /// line per kernel.
    pub fn artifact_log(&self, iteration_s: f64) -> String {
        let mut out = format!("Average iteration time: {iteration_s:.6} \n");
        for (k, kern) in KERNELS.iter().enumerate() {
            out.push_str(&format!(
                "Average kernel {} time: {:.6} \n",
                kern.log, self.seconds[k]
            ));
        }
        out
    }
}

/// `mpi_sim.run_us` (a 2-rank world with an empty body) and
/// `mpi_sim.allreduce_us` (one sum-allreduce of `n_cols` doubles inside
/// such a world, as each rank sees it), medians of `reps` runs, from
/// their spans.
pub fn mpi_sim(values: &mut Values, n_cols: usize, reps: usize) {
    trace::set_enabled(true);
    let first = trace::snapshot().len();
    for _ in 0..reps {
        let _s = trace::span("mpi_sim.run");
        gaia_mpi_sim::run(2, |_comm| ());
    }
    for _ in 0..reps {
        gaia_mpi_sim::run(2, |comm| {
            let mut buf = vec![1.0f64; n_cols];
            let _s = trace::span("mpi_sim.allreduce");
            comm.allreduce(ReduceOp::Sum, &mut buf);
            black_box(&buf);
        });
    }
    let spans = trace::snapshot().split_off(first);
    let us = |name| median(&trace::durations(&spans, name)) * 1e6;
    values.insert("mpi_sim.run_us", us("mpi_sim.run"));
    values.insert("mpi_sim.allreduce_us", us("mpi_sim.allreduce"));
}
