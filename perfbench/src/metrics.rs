//! The metric catalogue and the result line.
//!
//! Every workload reports every metric of a catalogue: [`END_TO_END`] in
//! an untraced run, [`PER_LAYER`] in a traced one. `BENCHMARK.json` at the
//! repository root declares the same names, units and directions (a test
//! keeps the two in step).

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// Whether a smaller or a larger value is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }
}

/// One metric: its name, unit and direction.
#[derive(Debug, Clone, Copy)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub better: Better,
}

const fn lower(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Lower,
    }
}

const fn higher(name: &'static str, unit: &'static str) -> Metric {
    Metric {
        name,
        unit,
        better: Better::Higher,
    }
}

/// What a user of each workload sees. See the README for how each is
/// defined on each workload.
pub const END_TO_END: &[Metric] = &[
    lower("setup_s", "s"),
    lower("iter_s", "s"),
    lower("solve_s", "s"),
    lower("req_p50_s", "s"),
    higher("req_per_s", "1/s"),
    lower("peak_rss_mb", "MB"),
];

/// Per-layer numbers of a traced run, grouped by crate.
pub const PER_LAYER: &[Metric] = &[
    higher("host.triad_gbps", "GB/s"),
    higher("host.triad_gbps_1t", "GB/s"),
    lower("sparse.generate_s", "s"),
    lower("sparse.column_norms_s", "s"),
    lower("sparse.tile_fetch_s", "s"),
    higher("sparse.tile_load_gbps", "GB/s"),
    lower("sparse.tile_loads_per_iter", "count"),
    higher("sparse.tile_hit_ratio", "ratio"),
    lower("backends.aprod1_s", "s"),
    lower("backends.aprod2_s", "s"),
    higher("backends.aprod_bw_frac", "ratio"),
    lower("backends.blas_s", "s"),
    lower("backends.pool_launches_per_iter", "count"),
    lower("backends.pool_jobs_per_iter", "count"),
    lower("backends.seq.aprod1_astro_s", "s"),
    lower("backends.seq.aprod1_att_s", "s"),
    lower("backends.seq.aprod1_instr_s", "s"),
    lower("backends.seq.aprod1_glob_s", "s"),
    lower("backends.seq.aprod2_astro_s", "s"),
    lower("backends.seq.aprod2_att_s", "s"),
    lower("backends.seq.aprod2_instr_s", "s"),
    lower("backends.seq.aprod2_glob_s", "s"),
    higher("backends.seq.aprod1_astro_gbps", "GB/s"),
    higher("backends.seq.aprod1_att_gbps", "GB/s"),
    higher("backends.seq.aprod1_instr_gbps", "GB/s"),
    higher("backends.seq.aprod1_glob_gbps", "GB/s"),
    higher("backends.seq.aprod2_astro_gbps", "GB/s"),
    higher("backends.seq.aprod2_att_gbps", "GB/s"),
    higher("backends.seq.aprod2_instr_gbps", "GB/s"),
    higher("backends.seq.aprod2_glob_gbps", "GB/s"),
    lower("core.init_s", "s"),
    lower("core.step_self_s", "s"),
    lower("core.checkpoint_s", "s"),
    lower("core.checkpoint_mb", "MB"),
    lower("core.iters_to_tol", "count"),
    lower("core.resilient_solve_s", "s"),
    lower("serve.overhead_s", "s"),
    lower("serve.submit_us", "us"),
    higher("serve.converged_ratio", "ratio"),
    lower("req_p99_s", "s"),
    lower("mpi_sim.run_us", "us"),
    lower("mpi_sim.allreduce_us", "us"),
    lower("trace.overhead_frac", "ratio"),
];

/// The catalogue a run reports.
pub fn catalogue(traced: bool) -> &'static [Metric] {
    if traced {
        PER_LAYER
    } else {
        END_TO_END
    }
}

/// The metric-name grammar: 1 to 64 of `[A-Za-z0-9_.-]`, starting with a
/// letter or digit.
pub fn valid_name(name: &str) -> bool {
    let b = name.as_bytes();
    !b.is_empty()
        && b.len() <= 64
        && b[0].is_ascii_alphanumeric()
        && b.iter()
            .all(|&c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Metric values of one run, by name.
pub type Values = BTreeMap<&'static str, f64>;

/// The names in `values` that are missing from, or not part of, the
/// catalogue, or break the name grammar; empty when `values` is exactly
/// the catalogue.
pub fn mismatches(values: &Values, traced: bool) -> Vec<String> {
    let cat = catalogue(traced);
    let missing = cat
        .iter()
        .filter(|m| !values.contains_key(m.name))
        .map(|m| format!("missing {}", m.name));
    let extra = values
        .keys()
        .filter(|k| !cat.iter().any(|m| m.name == **k))
        .map(|k| format!("unexpected {k}"));
    let invalid = values
        .keys()
        .filter(|k| !valid_name(k))
        .map(|k| format!("invalid name {k}"));
    missing.chain(extra).chain(invalid).collect()
}

/// The run's last output line: correctness, counts and every metric of
/// the catalogue with its unit, in catalogue order. Non-finite values
/// (an empty sample) are written as 0 and flagged by the caller.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    values: &Values,
    traced: bool,
) -> String {
    let mut out = format!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{"
    );
    for (i, m) in catalogue(traced).iter().enumerate() {
        let v = values
            .get(m.name)
            .copied()
            .filter(|v| v.is_finite())
            .unwrap_or(0.0);
        if i > 0 {
            out.push(',');
        }
        let _ = write!(
            out,
            "\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            m.name, v, m.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn name_grammar() {
        for ok in [
            "setup_s",
            "backends.seq.aprod1_astro_gbps",
            "a-b.c_9",
            "9lives",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", "_x", ".x", "a b", "a/b", "é", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
    }

    #[test]
    fn catalogue_names_are_valid_and_unique() {
        let all: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.name).collect();
        for n in &all {
            assert!(valid_name(n), "{n}");
        }
        let mut dedup = all.clone();
        dedup.sort_unstable();
        dedup.dedup();
        assert_eq!(dedup.len(), all.len());
        assert!(END_TO_END.len() <= 16 && PER_LAYER.len() <= 128);
    }

    #[test]
    fn catalogue_matches_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json at the repository root");
        let doc: serde_json::Value = serde_json::from_str(&text).unwrap();
        for (key, cat) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared = doc.get(key).unwrap().as_array().unwrap();
            assert_eq!(declared.len(), cat.len(), "{key}");
            for (d, m) in declared.iter().zip(cat) {
                assert_eq!(d.get("name").unwrap().as_str(), Some(m.name));
                assert_eq!(d.get("unit").unwrap().as_str(), Some(m.unit));
                assert_eq!(d.get("better").unwrap().as_str(), Some(m.better.as_str()));
            }
        }
        let setup = doc
            .get("end_to_end")
            .unwrap()
            .as_array()
            .unwrap()
            .iter()
            .find(|d| d.get("name").unwrap().as_str() == Some("setup_s"));
        assert!(setup.is_some(), "setup_s must be declared");
    }

    #[test]
    fn result_line_lists_the_whole_catalogue() {
        let mut v = Values::new();
        for m in END_TO_END {
            v.insert(m.name, 1.5);
        }
        assert!(mismatches(&v, false).is_empty());
        assert_eq!(
            mismatches(&v, true).len(),
            END_TO_END.len() + PER_LAYER.len()
        );
        let line = result_line(true, 3, 0, &v, false);
        let doc: serde_json::Value = serde_json::from_str(&line).unwrap();
        let metrics = doc.get("metrics").unwrap().as_object().unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        assert_eq!(doc.get("attempted").unwrap().as_u64(), Some(3));
        assert_eq!(
            metrics
                .get("setup_s")
                .unwrap()
                .get("unit")
                .unwrap()
                .as_str(),
            Some("s")
        );
    }
}
