//! Parity pin for the distributed solve.
//!
//! The digests below were recorded from the rank loop that predates the
//! shared LSQR core; every distributed solve must keep reproducing them
//! bit for bit. A digest covers `x`, `var`, `iterations`, `stop`, the
//! per-iteration history scalars (not the wall-clock `seconds`), every
//! checkpoint handed to the sink, and each rank's final collective
//! sequence number — fault plans index collectives by that number, so a
//! changed collective schedule is a changed solve even when `x` agrees.
//!
//! A rank's final sequence number is not observable directly; it is the
//! smallest `seq` at which a scripted rank panic no longer fires.

use std::sync::{Arc, Mutex};

use gaia_backends::{backend_by_name, Backend, SeqBackend};
use gaia_lsqr::distributed::DistOptions;
use gaia_lsqr::lsqr::LsqrState;
use gaia_lsqr::{solve_distributed, solve_hybrid, try_solve_hybrid, LsqrConfig, Solution};
use gaia_mpi_sim::{install_quiet_panic_hook, FaultKind, FaultPlan, WorldOptions};
use gaia_sparse::{Generator, GeneratorConfig, Rhs, SparseSystem, SystemLayout};

const RANKS: [usize; 4] = [1, 2, 3, 5];
const CHECKPOINT_EVERY: usize = 3;

fn system() -> SparseSystem {
    Generator::new(
        GeneratorConfig::new(SystemLayout::tiny())
            .seed(700)
            .rhs(Rhs::FromTrueSolution { noise_sigma: 1e-8 }),
    )
    .generate()
}

fn config(var: bool) -> LsqrConfig {
    LsqrConfig::new().compute_var(var)
}

/// FNV-1a over the bytes fed to it.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn f64s(&mut self, v: &[f64]) {
        self.u64(v.len() as u64);
        for x in v {
            self.u64(x.to_bits());
        }
    }

    fn solution(&mut self, sol: &Solution) {
        self.f64s(&sol.x);
        self.f64s(&sol.var);
        self.u64(sol.iterations as u64);
        self.u64(sol.n_rows as u64);
        self.bytes(format!("{:?}", sol.stop).as_bytes());
        self.f64s(&[
            sol.rnorm, sol.arnorm, sol.anorm, sol.acond, sol.xnorm, sol.bnorm,
        ]);
        for h in &sol.history {
            self.u64(h.iteration as u64);
            self.f64s(&[h.rnorm, h.arnorm, h.anorm, h.acond, h.xnorm]);
        }
    }

    fn state(&mut self, st: &LsqrState) {
        self.u64(st.itn as u64);
        for v in [&st.x, &st.v, &st.w, &st.u, &st.var] {
            self.f64s(v);
        }
        self.f64s(&[
            st.alfa, st.beta, st.rhobar, st.phibar, st.anorm, st.acond, st.ddnorm, st.res2,
            st.rnorm, st.arnorm, st.xnorm, st.xxnorm, st.z, st.cs2, st.sn2, st.bnorm,
        ]);
        self.bytes(format!("{:?}", st.stopped).as_bytes());
        for h in &st.history {
            self.u64(h.iteration as u64);
            self.f64s(&[h.rnorm, h.arnorm, h.anorm, h.acond, h.xnorm]);
        }
    }
}

/// One `try_solve_hybrid` run; `faults` scripts a fault plan.
fn hybrid(
    sys: &SparseSystem,
    ranks: usize,
    cfg: &LsqrConfig,
    backend: &str,
    resume: Option<&LsqrState>,
    faults: Option<FaultPlan>,
) -> (Option<Solution>, Vec<LsqrState>) {
    let snapshots = Mutex::new(Vec::new());
    let sink = |st: &LsqrState| snapshots.lock().unwrap().push(st.clone());
    let opts = DistOptions {
        world: WorldOptions {
            faults: faults.map(Arc::new),
            ..Default::default()
        },
        resume,
        checkpoint_every: if resume.is_some() {
            0
        } else {
            CHECKPOINT_EVERY
        },
        checkpoint_sink: Some(&sink),
        ..Default::default()
    };
    let sol = try_solve_hybrid(
        sys,
        ranks,
        cfg,
        |_| backend_by_name(backend, 2).expect("registered backend"),
        &opts,
    )
    .ok();
    (sol, snapshots.into_inner().unwrap())
}

/// Each rank's collective count at the end of the run.
fn collective_seqs(
    sys: &SparseSystem,
    ranks: usize,
    cfg: &LsqrConfig,
    backend: &str,
    resume: Option<&LsqrState>,
) -> Vec<u64> {
    let fires = |rank: usize, seq: u64| {
        let plan = FaultPlan::scripted(1).with_event(0, rank, seq, FaultKind::RankPanic);
        hybrid(sys, ranks, cfg, backend, resume, Some(plan))
            .0
            .is_none()
    };
    // Rank 0: exponential then binary search for the first silent seq.
    let (mut lo, mut hi) = (0u64, 1u64);
    while fires(0, hi) {
        lo = hi;
        hi *= 2;
    }
    while hi - lo > 1 {
        let mid = lo + (hi - lo) / 2;
        if fires(0, mid) {
            lo = mid;
        } else {
            hi = mid;
        }
    }
    // Every other rank: the same count, checked from both sides.
    for rank in 1..ranks {
        assert!(
            fires(rank, hi - 1) && !fires(rank, hi),
            "rank {rank} ends at a different collective than rank 0 ({hi})"
        );
    }
    vec![hi; ranks]
}

/// Digest of one fresh (checkpointing) solve plus the solve resumed from
/// its middle checkpoint.
fn hybrid_digests(backend: &str, ranks: usize, var: bool) -> (u64, u64) {
    let sys = system();
    let cfg = config(var);
    let (sol, snapshots) = hybrid(&sys, ranks, &cfg, backend, None, None);
    let sol = sol.expect("fault-free solve");
    assert!(sol.stop.converged(), "{backend} x{ranks}: {:?}", sol.stop);
    assert!(snapshots.len() >= 2, "need a mid-solve checkpoint");
    let mut fresh = Fnv::new();
    fresh.solution(&sol);
    for st in &snapshots {
        fresh.state(st);
    }
    for seq in collective_seqs(&sys, ranks, &cfg, backend, None) {
        fresh.u64(seq);
    }

    let mid = &snapshots[snapshots.len() / 2];
    let (resumed_sol, _) = hybrid(&sys, ranks, &cfg, backend, Some(mid), None);
    let resumed_sol = resumed_sol.expect("fault-free resume");
    assert_eq!(resumed_sol.x, sol.x, "resume must be bit-identical");
    let mut resumed = Fnv::new();
    resumed.solution(&resumed_sol);
    for seq in collective_seqs(&sys, ranks, &cfg, backend, Some(mid)) {
        resumed.u64(seq);
    }
    (fresh.0, resumed.0)
}

/// `(backend, ranks, var, fresh digest, resumed digest)`.
const HYBRID_PINS: [(&str, usize, bool, u64, u64); 16] = [
    ("seq", 1, true, 0xfd590d1c13857099, 0xb7a127e936dac55d),
    ("seq", 1, false, 0xf7e25524a863b23b, 0x761238bc53aaaf49),
    ("seq", 2, true, 0xf275fc92794e0882, 0xcadc35c7537a5747),
    ("seq", 2, false, 0x5420c40077a8a0c9, 0xe583e657309a62fd),
    ("seq", 3, true, 0xbf9dac5a91b5ec5d, 0x45ac60a3320c5707),
    ("seq", 3, false, 0xf0c7f5ff26260bc2, 0x3f3800a2440f17fc),
    ("seq", 5, true, 0x21230933de1916ba, 0xbb6f886c6ea08088),
    ("seq", 5, false, 0xcf0fb157c1f9c8a8, 0x847db086100b7d06),
    (
        "chunked-t2",
        1,
        true,
        0xfd590d1c13857099,
        0xb7a127e936dac55d,
    ),
    (
        "chunked-t2",
        1,
        false,
        0xf7e25524a863b23b,
        0x761238bc53aaaf49,
    ),
    (
        "chunked-t2",
        2,
        true,
        0xf275fc92794e0882,
        0xcadc35c7537a5747,
    ),
    (
        "chunked-t2",
        2,
        false,
        0x5420c40077a8a0c9,
        0xe583e657309a62fd,
    ),
    (
        "chunked-t2",
        3,
        true,
        0xbf9dac5a91b5ec5d,
        0x45ac60a3320c5707,
    ),
    (
        "chunked-t2",
        3,
        false,
        0xf0c7f5ff26260bc2,
        0x3f3800a2440f17fc,
    ),
    (
        "chunked-t2",
        5,
        true,
        0x21230933de1916ba,
        0xbb6f886c6ea08088,
    ),
    (
        "chunked-t2",
        5,
        false,
        0xcf0fb157c1f9c8a8,
        0x847db086100b7d06,
    ),
];

/// `(ranks, var, digest)` of `solve_distributed`.
const DISTRIBUTED_PINS: [(usize, bool, u64); 8] = [
    (1, true, 0xb9bd8b1a4a0dabd4),
    (1, false, 0x70312493557dd040),
    (2, true, 0x2e6913c18760ae27),
    (2, false, 0x2497d3db9724f6dd),
    (3, true, 0xf19178b69cc1a86e),
    (3, false, 0x75cf845ae494e3f5),
    (5, true, 0x5f502e4717fc31a1),
    (5, false, 0x74b060635d9366ef),
];

#[test]
fn solve_distributed_matches_the_pinned_digests() {
    let sys = system();
    let mut got = Vec::new();
    for ranks in RANKS {
        for var in [true, false] {
            let mut h = Fnv::new();
            h.solution(&solve_distributed(&sys, ranks, &config(var)));
            got.push((ranks, var, h.0));
        }
    }
    assert_eq!(got, DISTRIBUTED_PINS.to_vec());
}

#[test]
fn try_solve_hybrid_matches_the_pinned_digests() {
    install_quiet_panic_hook();
    let mut got = Vec::new();
    for backend in ["seq", "chunked-t2"] {
        for ranks in RANKS {
            for var in [true, false] {
                let (fresh, resumed) = hybrid_digests(backend, ranks, var);
                got.push((backend, ranks, var, fresh, resumed));
            }
        }
    }
    assert_eq!(got, HYBRID_PINS.to_vec());
}

/// A rank backend whose BLAS-1 hooks return garbage. The replicated
/// vectors must go through the shared BLAS kernels, never a rank's
/// backend (ranks may run different backends, and `rayon` overrides
/// `nrm2`), so this backend must not change the solve by a single bit.
struct GarbageBlas;

impl Backend for GarbageBlas {
    fn name(&self) -> String {
        "garbage-blas".to_string()
    }

    fn description(&self) -> &'static str {
        "sequential products, garbage BLAS-1"
    }

    fn aprod1(&self, sys: &SparseSystem, x: &[f64], out: &mut [f64]) {
        SeqBackend.aprod1(sys, x, out);
    }

    fn aprod2(&self, sys: &SparseSystem, y: &[f64], out: &mut [f64]) {
        SeqBackend.aprod2(sys, y, out);
    }

    fn nrm2(&self, _v: &[f64]) -> f64 {
        1.0e300
    }

    fn scal(&self, v: &mut [f64], _s: f64) {
        v.fill(-7.0);
    }

    fn axpy(&self, y: &mut [f64], _a: f64, _x: &[f64]) {
        y.fill(3.0);
    }
}

#[test]
fn rank_blas_overrides_never_touch_the_solve() {
    let sys = system();
    for var in [true, false] {
        let cfg = config(var);
        let want = solve_distributed(&sys, 2, &cfg);
        let got = solve_hybrid(&sys, 2, &cfg, |_| Box::new(GarbageBlas));
        let (mut a, mut b) = (Fnv::new(), Fnv::new());
        a.solution(&want);
        b.solution(&got);
        assert_eq!(a.0, b.0, "var={var}");
        assert_eq!(got.n_rows, sys.n_rows());
    }
}
