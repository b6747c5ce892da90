//! Host fingerprint: core count, cache sizes, triad bandwidth ceiling,
//! peak resident memory and the source revision.

use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// Facts about the machine a result was measured on.
#[derive(Debug, Clone)]
pub struct Host {
    pub nproc: usize,
    pub l2_bytes: Option<u64>,
    pub l3_bytes: Option<u64>,
    /// Triad GB/s at `nproc` threads.
    pub triad_gbps: f64,
    /// Triad GB/s at one thread.
    pub triad_gbps_1t: f64,
    pub triad_bytes: u64,
    pub revision: String,
}

/// Default triad working set when sysfs reports no L3.
const FALLBACK_LLC: u64 = 32 << 20;

impl Host {
    /// Probe the host. The triad's three arrays together span
    /// `llc_multiple` times the last-level cache.
    pub fn probe(llc_multiple: u64) -> Host {
        let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
        let l3_bytes = cache_bytes(3);
        let triad_bytes = llc_multiple * l3_bytes.unwrap_or(FALLBACK_LLC);
        let (triad_gbps, triad_gbps_1t) = triad(triad_bytes, nproc);
        Host {
            nproc,
            l2_bytes: cache_bytes(2),
            l3_bytes,
            triad_gbps,
            triad_gbps_1t,
            triad_bytes,
            revision: revision(),
        }
    }

    /// The fingerprint as one JSON object.
    pub fn json(&self, problem_bytes: u64) -> String {
        let opt = |v: Option<u64>| v.map_or("null".to_string(), |b| b.to_string());
        let ratio = self.l3_bytes.map_or("null".to_string(), |l3| {
            (problem_bytes as f64 / l3 as f64).to_string()
        });
        format!(
            "{{\"nproc\":{},\"l2_bytes\":{},\"l3_bytes\":{},\"triad_gbps\":{},\
             \"triad_gbps_1t\":{},\"triad_bytes\":{},\"problem_bytes\":{},\
             \"problem_over_l3\":{},\"revision\":\"{}\"}}",
            self.nproc,
            opt(self.l2_bytes),
            opt(self.l3_bytes),
            self.triad_gbps,
            self.triad_gbps_1t,
            self.triad_bytes,
            problem_bytes,
            ratio,
            self.revision
        )
    }
}

/// Size of the unified or data cache at `level` of CPU 0, from sysfs.
pub fn cache_bytes(level: u32) -> Option<u64> {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    std::fs::read_dir(base).ok()?.flatten().find_map(|e| {
        let read = |f: &str| std::fs::read_to_string(e.path().join(f)).ok();
        let lvl: u32 = read("level")?.trim().parse().ok()?;
        let kind = read("type")?;
        if lvl != level || kind.trim() == "Instruction" {
            return None;
        }
        parse_size(read("size")?.trim())
    })
}

fn parse_size(s: &str) -> Option<u64> {
    let (digits, mult) = match s.as_bytes().last()? {
        b'K' => (&s[..s.len() - 1], 1 << 10),
        b'M' => (&s[..s.len() - 1], 1 << 20),
        b'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    digits.parse::<u64>().ok().map(|d| d * mult)
}

/// STREAM triad `a = b + s·c` over three arrays totalling `total_bytes`,
/// best of four timed passes after one warm-up, at `threads` threads and
/// at one thread. Bytes counted as three arrays per pass (no
/// write-allocate), as STREAM does.
pub fn triad(total_bytes: u64, threads: usize) -> (f64, f64) {
    let n = (total_bytes / 24).max(1) as usize;
    let mut a = vec![0.0f64; n];
    let b = vec![1.0f64; n];
    let c = vec![2.0f64; n];
    let pass = |a: &mut [f64], threads: usize| -> f64 {
        let chunk = n.div_ceil(threads);
        let t = Instant::now();
        std::thread::scope(|s| {
            for ((a, b), c) in a
                .chunks_mut(chunk)
                .zip(b.chunks(chunk))
                .zip(c.chunks(chunk))
            {
                s.spawn(move || {
                    for ((a, b), c) in a.iter_mut().zip(b).zip(c) {
                        *a = b + 3.0 * c;
                    }
                });
            }
        });
        black_box(&a[n / 2]);
        (24 * n) as f64 / t.elapsed().as_secs_f64() / 1e9
    };
    let best = |a: &mut [f64], threads: usize| {
        pass(a, threads);
        (0..4).map(|_| pass(a, threads)).fold(0.0, f64::max)
    };
    let host = best(&mut a, threads);
    let one = best(&mut a, 1);
    (host, one)
}

/// Peak resident set size (`VmHWM`) of this process, in MB (10^6 bytes).
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024.0 / 1e6)
}

/// Reset the peak resident set size to the current one, so memory a
/// probe freed does not count against the workload. Returns false when
/// the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// The source revision, when the benchmark runs at the root of a git
/// checkout (git is not asked to search the directories above it).
fn revision() -> String {
    if !Path::new(".git").exists() {
        return "unknown".to_string();
    }
    std::process::Command::new("git")
        .args(["rev-parse", "--short=12", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map(|s| s.trim().to_string())
        .filter(|s| !s.is_empty())
        .unwrap_or_else(|| "unknown".to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_sysfs_cache_sizes() {
        assert_eq!(parse_size("307200K"), Some(300 << 20));
        assert_eq!(parse_size("2M"), Some(2 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("xK"), None);
    }

    #[test]
    fn triad_reports_positive_bandwidth() {
        let (host, one) = triad(3 << 20, 2);
        assert!(host > 0.0 && one > 0.0);
    }
}
