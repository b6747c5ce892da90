//! Backend registry: construct every strategy by name, the way the paper's
//! harness selects a framework per run.
//!
//! Names follow the grammar `<policy>[-t<threads>[-c<chunks>]]`, e.g.
//! `chunked`, `atomic-t8`, `striped-t4-c2`. Tuned names — exactly what
//! [`crate::traits::Backend::name`] emits into telemetry reports — parse
//! back to an equivalent backend, so every reported name round-trips.
//!
//! Every policy except `seq` and `rayon` is a row of [`POLICIES`]: a name,
//! a description and the [`LaunchPlan`] it runs for a tuning, executed by
//! one [`PlanBackend`] (and, for `tuned`, by [`TunedBackend`] when no
//! persisted profile matches the system).

use crate::backend_plan::PlanBackend;
use crate::instrumented::InstrumentedBackend;
use crate::launch::{Aprod2Spec, Aprod2Strategy, KernelVariant, LaunchPlan, WorkerBudget};
use crate::traits::Backend;
use crate::tuning::Tuning;
use crate::{RayonBackend, SeqBackend, TunedBackend};
use gaia_sparse::MatrixLayout;

/// A plan-driven registry policy.
#[derive(Debug)]
pub struct Policy {
    /// Registry name (the `<policy>` of the name grammar).
    pub name: &'static str,
    /// One-line description of the strategy.
    pub description: &'static str,
    /// The launch plan the policy runs for a tuning.
    pub plan: fn(Tuning) -> LaunchPlan,
    /// Run the products one star-aligned row tile at a time — the
    /// out-of-core launch shape on a resident system.
    pub tiled: bool,
}

fn uniform(tuning: Tuning, strategy: Aprod2Strategy) -> LaunchPlan {
    LaunchPlan::new(tuning, Aprod2Spec::uniform(strategy))
}

fn owner_computes(tuning: Tuning) -> LaunchPlan {
    uniform(tuning, Aprod2Strategy::OwnerComputes)
}

/// Every plan-driven policy. Paper analogues are in the crate docs.
pub const POLICIES: &[Policy] = &[
    Policy {
        name: "chunked",
        description: "pooled workers, owner-computes columns (OpenMP-teams analogue)",
        plan: owner_computes,
        tiled: false,
    },
    Policy {
        name: "atomic",
        description: "row-parallel, atomic f64 RMW updates (CUDA/HIP analogue)",
        plan: |t| uniform(t, Aprod2Strategy::Atomic),
        tiled: false,
    },
    Policy {
        name: "casloop",
        description: "row-parallel, SeqCst CAS-loop updates (non-RMW compiler fallback)",
        plan: |t| uniform(t, Aprod2Strategy::CasLoop),
        tiled: false,
    },
    Policy {
        name: "replicated",
        description: "row-parallel, per-chunk private buffers + reduction",
        plan: |t| uniform(t, Aprod2Strategy::Replicated),
        tiled: false,
    },
    Policy {
        name: "striped",
        description: "row-parallel, striped-mutex batched updates",
        plan: |t| {
            let stripes = (t.threads * 4).max(1);
            uniform(t, Aprod2Strategy::LockStriped { stripes })
        },
        tiled: false,
    },
    Policy {
        name: "streamed",
        description: "four concurrent aprod2 block streams over disjoint x̃ sections",
        plan: |t| LaunchPlan::new(t, Aprod2Spec::streamed(Aprod2Strategy::OwnerComputes)),
        tiled: false,
    },
    Policy {
        name: "hybrid",
        description: "per-block strategy mix: star-chunks + privatized attitude + owner-computes instrumental, overlapped",
        plan: |t| {
            let spec = Aprod2Spec {
                att: Aprod2Strategy::Replicated,
                instr: Aprod2Strategy::OwnerComputes,
                glob: Aprod2Strategy::OwnerComputes,
                budget: WorkerBudget::Streamed,
            };
            LaunchPlan::new(t, spec)
        },
        tiled: false,
    },
    Policy {
        name: "unrolled",
        description: "owner-computes columns, unrolled 5/12/6-wide kernel interiors",
        plan: |t| owner_computes(t).with_variant(KernelVariant::Unrolled),
        tiled: false,
    },
    Policy {
        name: "blocked",
        description: "owner-computes columns, cache-blocked attitude accumulation",
        plan: |t| owner_computes(t).with_variant(KernelVariant::Blocked),
        tiled: false,
    },
    Policy {
        name: "ell",
        description: "owner-computes columns over the slot-major ELL value layout",
        plan: |t| owner_computes(t).with_matrix_layout(MatrixLayout::Ell),
        tiled: false,
    },
    Policy {
        name: "tiled",
        description: "star-aligned row tiles through owner-computes interiors (out-of-core launch shape)",
        plan: owner_computes,
        tiled: true,
    },
    TUNED,
];

/// The `tuned` policy: [`TunedBackend`]'s plan when no persisted profile
/// matches the system.
pub(crate) const TUNED: Policy = Policy {
    name: "tuned",
    description: "persisted tuner winner per layout (falls back to owner-computes)",
    plan: owner_computes,
    tiled: false,
};

/// The plan-driven policy registered under `name`.
fn policy_by_name(name: &str) -> Option<&'static Policy> {
    POLICIES.iter().find(|p| p.name == name)
}

/// Names of all registered backend strategies.
pub fn backend_names() -> &'static [&'static str] {
    &[
        "seq",
        "chunked",
        "atomic",
        "casloop",
        "replicated",
        "striped",
        "rayon",
        "streamed",
        "hybrid",
        "unrolled",
        "blocked",
        "ell",
        "tiled",
        "tuned",
    ]
}

/// The canonical tuned name for a policy: `<policy>-t<threads>` with a
/// `-c<chunks>` suffix only when `chunks_per_thread > 1`.
pub fn tuned_name(policy: &str, tuning: Tuning) -> String {
    if tuning.chunks_per_thread > 1 {
        format!("{policy}-t{}-c{}", tuning.threads, tuning.chunks_per_thread)
    } else {
        format!("{policy}-t{}", tuning.threads)
    }
}

/// Parse `<policy>[-t<threads>[-c<chunks>]]` into its components.
/// Returns `None` on malformed suffixes (wrong marker, empty or
/// non-numeric digits, trailing segments).
fn parse_name(name: &str) -> Option<(&str, Option<usize>, Option<usize>)> {
    let mut parts = name.split('-');
    let policy = parts.next()?;
    if policy.is_empty() {
        return None;
    }
    let mut threads = None;
    let mut chunks = None;
    if let Some(seg) = parts.next() {
        threads = Some(seg.strip_prefix('t')?.parse().ok()?);
        if let Some(seg) = parts.next() {
            chunks = Some(seg.strip_prefix('c')?.parse().ok()?);
            if parts.next().is_some() {
                return None;
            }
        }
    }
    Some((policy, threads, chunks))
}

/// Instantiate every backend with the given thread budget.
pub fn all_backends(threads: usize) -> Vec<Box<dyn Backend>> {
    backend_names()
        .iter()
        .map(|n| backend_by_name(n, threads).expect("registry is self-consistent"))
        .collect()
}

/// The full policy × tuning grid: every tuned (non-oblivious) policy at
/// every `(threads, chunks_per_thread)` combination.
pub fn grid_backends(threads: &[usize], chunks_per_thread: &[usize]) -> Vec<Box<dyn Backend>> {
    let mut grid = Vec::new();
    for &t in threads {
        for &c in chunks_per_thread {
            for name in backend_names() {
                if matches!(*name, "seq" | "rayon") {
                    continue; // tuning-oblivious: one instance is enough
                }
                let tuned = tuned_name(
                    name,
                    Tuning {
                        threads: t,
                        chunks_per_thread: c,
                    },
                );
                grid.push(backend_by_name(&tuned, t).expect("grid name parses"));
            }
        }
    }
    grid
}

/// Instantiate a backend by name. `threads` is the default thread budget,
/// used when the name carries no `-t<threads>` suffix.
///
/// Every plan-driven backend's [`crate::LaunchPlan`] is statically
/// verified against the canonical shape battery before it is handed out
/// (see [`crate::plan_check`]); an unsound plan is a registry bug and
/// panics with the checker's diagnostic rather than returning a backend
/// that would race or drop output columns at solve time.
pub fn backend_by_name(name: &str, threads: usize) -> Option<Box<dyn Backend>> {
    let (policy, t, c) = parse_name(name)?;
    let tuning = Tuning {
        threads: t.unwrap_or(threads).max(1),
        chunks_per_thread: c.unwrap_or(1).max(1),
    };
    let backend: Box<dyn Backend> = match policy {
        "seq" => Box::new(SeqBackend),
        "rayon" => Box::new(RayonBackend),
        "tuned" => Box::new(TunedBackend::new(tuning)),
        _ => Box::new(PlanBackend::new(policy_by_name(policy)?, tuning)),
    };
    if let Some(plan) = backend.launch_plan() {
        if let Err(e) = plan.analyze_canonical() {
            panic!("registry produced an unsound launch plan for `{name}`: {e}");
        }
    }
    Some(backend)
}

/// Instantiate a backend by name, wrapped in an [`InstrumentedBackend`] so
/// whole-call `aprod1`/`aprod2` timing lands in the telemetry registry.
/// Free when the `telemetry` feature is off.
pub fn instrumented_by_name(name: &str, threads: usize) -> Option<Box<dyn Backend>> {
    backend_by_name(name, threads)
        .map(|b| Box::new(InstrumentedBackend::new(b)) as Box<dyn Backend>)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_instantiates_every_name() {
        for name in backend_names() {
            let b = backend_by_name(name, 2).unwrap();
            assert!(!b.description().is_empty());
        }
        assert_eq!(all_backends(2).len(), backend_names().len());
        // Every name but seq and rayon is a preset-table row.
        assert_eq!(POLICIES.len() + 2, backend_names().len());
        for p in POLICIES {
            assert_eq!(
                backend_by_name(p.name, 2).unwrap().description(),
                p.description
            );
        }
    }

    #[test]
    fn unknown_name_is_none() {
        assert!(backend_by_name("cuda", 2).is_none());
        assert!(instrumented_by_name("cuda", 2).is_none());
    }

    #[test]
    fn malformed_suffixes_are_none() {
        for name in [
            "chunked-x4",
            "chunked-t",
            "chunked-tfour",
            "chunked-t4-k2",
            "chunked-t4-c",
            "chunked-t4-c2-extra",
            "-t4",
        ] {
            assert!(backend_by_name(name, 2).is_none(), "{name}");
        }
    }

    /// The round-trip bugfix: every name a backend emits (into telemetry
    /// JSON, bench reports, ...) must re-instantiate an identically named
    /// backend.
    #[test]
    fn every_emitted_name_round_trips() {
        for threads in [1usize, 3, 8] {
            for b in all_backends(threads) {
                let name = b.name();
                let again = backend_by_name(&name, 1)
                    .unwrap_or_else(|| panic!("{name} does not round-trip"));
                assert_eq!(again.name(), name);
            }
        }
        // Chunked suffixes round-trip too.
        for b in grid_backends(&[2, 5], &[1, 4]) {
            let name = b.name();
            let again =
                backend_by_name(&name, 1).unwrap_or_else(|| panic!("{name} does not round-trip"));
            assert_eq!(again.name(), name);
        }
    }

    /// The tuned-profile names obey the same `-t/-c` suffix grammar as
    /// every other policy (the PR-8 grammar satellite).
    #[test]
    fn variant_and_tuned_names_round_trip_with_suffixes() {
        for name in [
            "unrolled-t2",
            "unrolled-t3",
            "blocked-t2-c4",
            "ell-t1",
            "tuned-t5",
            "tuned-t8",
            "tuned-t3-c2",
            "chunked-t2-c4",
            "tiled-t2-c3",
        ] {
            let b = backend_by_name(name, 9).unwrap_or_else(|| panic!("{name}"));
            assert_eq!(b.name(), name);
        }
        for bad in ["unrolled-c2", "tuned-t0x", "ell-t2-c2-x"] {
            assert!(backend_by_name(bad, 2).is_none(), "{bad}");
        }
    }

    #[test]
    fn explicit_suffix_overrides_the_thread_argument() {
        let b = backend_by_name("chunked-t6", 2).unwrap();
        assert_eq!(b.name(), "chunked-t6");
        let b = backend_by_name("atomic-t3-c5", 64).unwrap();
        assert_eq!(b.name(), "atomic-t3-c5");
        // Bare names keep using the argument.
        for (name, want) in [
            ("chunked", "chunked-t7"),
            ("atomic", "atomic-t7"),
            ("casloop", "casloop-t7"),
        ] {
            assert_eq!(backend_by_name(name, 7).unwrap().name(), want);
        }
    }

    #[test]
    fn grid_covers_every_tuned_policy() {
        let threads = [1usize, 3];
        let chunks = [1usize, 4];
        let grid = grid_backends(&threads, &chunks);
        let tuned_policies = backend_names()
            .iter()
            .filter(|n| !matches!(**n, "seq" | "rayon"))
            .count();
        assert_eq!(grid.len(), tuned_policies * threads.len() * chunks.len());
    }

    /// Every plan-driven backend the registry hands out must carry a plan
    /// the static checker accepts — and every name except seq / rayon is
    /// plan-driven (including the variant-interior names and the
    /// profile-driven `tuned` backend, whose default plan is checked here
    /// and whose per-shape profile plans are checked at load time).
    #[test]
    fn registry_plans_pass_static_analysis() {
        for threads in [1usize, 4, 64] {
            let mut with_plan = 0;
            for b in all_backends(threads) {
                if let Some(plan) = b.launch_plan() {
                    with_plan += 1;
                    plan.analyze_canonical()
                        .unwrap_or_else(|e| panic!("{}: {e}", b.name()));
                }
            }
            assert_eq!(with_plan, backend_names().len() - 2, "threads={threads}");
        }
        // Wrappers forward the inner plan.
        let wrapped = instrumented_by_name("hybrid", 3).unwrap();
        assert!(wrapped.launch_plan().is_some());
    }

    #[test]
    fn instrumented_wrapper_preserves_identity() {
        for name in backend_names() {
            let plain = backend_by_name(name, 2).unwrap();
            let wrapped = instrumented_by_name(name, 2).unwrap();
            assert_eq!(wrapped.name(), plain.name());
            assert_eq!(wrapped.description(), plain.description());
        }
    }

    /// Boundary audit for `Tuning::effective_chunks` across every tuned
    /// policy: a registry `-c` suffix of `usize::MAX` used to overflow the
    /// raw `threads × chunks_per_thread` multiply (panic in debug, tiny
    /// wrapped chunk count in release); the saturating clamp must instead
    /// bound the chunk budget by the work count and keep results exact.
    #[test]
    fn extreme_chunk_suffixes_are_clamped_not_overflowed() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(11)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.13).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.31).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for policy in backend_names()
            .iter()
            .filter(|n| !matches!(**n, "seq" | "rayon"))
        {
            let name = format!("{policy}-t3-c{}", usize::MAX);
            let b = backend_by_name(&name, 2).unwrap_or_else(|| panic!("{name} must parse"));
            let mut got1 = vec![0.0; sys.n_rows()];
            b.aprod1(&sys, &x, &mut got1);
            let mut got2 = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut got2);
            for (g, w) in got1.iter().zip(&want1) {
                assert!((g - w).abs() < 1e-10, "{name} aprod1");
            }
            for (g, w) in got2.iter().zip(&want2) {
                assert!((g - w).abs() < 1e-10, "{name} aprod2");
            }
        }
    }

    /// Degenerate thread budgets (1) and budgets far above the row count
    /// (64 on a tiny system, forcing `split_ranges` to hand out empty
    /// ranges) must neither panic nor change any result.
    #[test]
    fn every_backend_survives_oversized_thread_budgets() {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        let sys = Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(77)).generate();
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.17).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.29).cos()).collect();
        let seq = SeqBackend;
        let mut want1 = vec![0.0; sys.n_rows()];
        seq.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        seq.aprod2(&sys, &y, &mut want2);
        for threads in [1usize, 2, 3, 7, 64] {
            for backend in all_backends(threads) {
                let mut got1 = vec![0.0; sys.n_rows()];
                backend.aprod1(&sys, &x, &mut got1);
                let mut got2 = vec![0.0; sys.n_cols()];
                backend.aprod2(&sys, &y, &mut got2);
                for (g, w) in got1.iter().zip(&want1) {
                    assert!(
                        (g - w).abs() < 1e-10,
                        "{} aprod1 at {threads} threads",
                        backend.name()
                    );
                }
                for (g, w) in got2.iter().zip(&want2) {
                    assert!(
                        (g - w).abs() < 1e-10,
                        "{} aprod2 at {threads} threads",
                        backend.name()
                    );
                }
            }
        }
    }

    fn tiny(seed: u64) -> gaia_sparse::SparseSystem {
        use gaia_sparse::{Generator, GeneratorConfig, SystemLayout};
        Generator::new(GeneratorConfig::new(SystemLayout::tiny()).seed(seed)).generate()
    }

    #[test]
    fn variant_policies_carry_their_axis_in_the_plan() {
        for (name, variant, layout) in [
            ("unrolled", KernelVariant::Unrolled, MatrixLayout::RowMajor),
            ("blocked", KernelVariant::Blocked, MatrixLayout::RowMajor),
            ("ell", KernelVariant::Scalar, MatrixLayout::Ell),
        ] {
            let plan = backend_by_name(name, 2).unwrap().launch_plan().unwrap();
            assert_eq!(plan.variant, variant, "{name}");
            assert_eq!(plan.matrix_layout, layout, "{name}");
        }
    }

    /// The accumulate contract at its sharpest: `aprod2` of a zero `y`
    /// leaves prior `out` contents untouched (privatized buffers must be
    /// reduced *into* `out`, not copied over it).
    #[test]
    fn zero_input_keeps_prior_out_contents() {
        let sys = tiny(52);
        let y = vec![0.0; sys.n_rows()];
        for b in all_backends(3) {
            let mut out = vec![7.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut out);
            assert!(out.iter().all(|&v| v == 7.0), "{}", b.name());
        }
    }

    /// With `y` non-zero only on the constraint rows, only the attitude
    /// section of `out` may change — each stream writes its own section.
    #[test]
    fn constraint_rows_write_only_the_attitude_section() {
        let sys = tiny(82);
        let mut y = vec![0.0; sys.n_rows()];
        for slot in y.iter_mut().skip(sys.n_obs_rows()) {
            *slot = 1.0;
        }
        let c = sys.columns();
        for b in all_backends(4) {
            let mut out = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut out);
            let name = b.name();
            assert!(out[..c.att as usize].iter().all(|&v| v == 0.0), "{name}");
            assert!(out[c.instr as usize..].iter().all(|&v| v == 0.0), "{name}");
            let att = &out[c.att as usize..c.instr as usize];
            assert!(att.iter().any(|&v| v != 0.0), "{name}");
        }
    }

    /// `⟨A x, y⟩ = ⟨x, Aᵀ y⟩` — the identity LSQR's recurrence relies on.
    #[test]
    fn every_backend_satisfies_the_adjoint_identity() {
        let sys = tiny(92);
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.11).cos()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.05).sin()).collect();
        for b in all_backends(4) {
            let mut ax = vec![0.0; sys.n_rows()];
            b.aprod1(&sys, &x, &mut ax);
            let mut aty = vec![0.0; sys.n_cols()];
            b.aprod2(&sys, &y, &mut aty);
            let lhs: f64 = ax.iter().zip(&y).map(|(a, b)| a * b).sum();
            let rhs: f64 = x.iter().zip(&aty).map(|(a, b)| a * b).sum();
            assert!(
                (lhs - rhs).abs() < 1e-9 * (1.0 + lhs.abs()),
                "{}: {lhs} vs {rhs}",
                b.name()
            );
        }
    }

    /// Owner-computes accumulates every slot in ascending row order, whole
    /// or tile by tile, so these policies are bitwise the oracle.
    #[test]
    fn owner_computes_policies_are_bitwise_seq() {
        let sys = tiny(12);
        let x: Vec<f64> = (0..sys.n_cols()).map(|i| (i as f64 * 0.19).sin()).collect();
        let y: Vec<f64> = (0..sys.n_rows()).map(|i| (i as f64 * 0.23).cos()).collect();
        let mut want1 = vec![0.0; sys.n_rows()];
        SeqBackend.aprod1(&sys, &x, &mut want1);
        let mut want2 = vec![0.0; sys.n_cols()];
        SeqBackend.aprod2(&sys, &y, &mut want2);
        for policy in ["chunked", "tiled"] {
            for threads in [1usize, 3, 8] {
                let b = backend_by_name(policy, threads).unwrap();
                let mut got1 = vec![0.0; sys.n_rows()];
                b.aprod1(&sys, &x, &mut got1);
                let mut got2 = vec![0.0; sys.n_cols()];
                b.aprod2(&sys, &y, &mut got2);
                assert_eq!(got1, want1, "{}", b.name());
                assert_eq!(got2, want2, "{}", b.name());
            }
        }
    }
}
