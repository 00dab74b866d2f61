//! Clocks, counters and order statistics shared by the workloads.

use std::collections::BTreeMap;
use std::time::Instant;

use crate::{Args, Metric};

/// Process user+system CPU seconds, all threads, at nanosecond
/// resolution (`/proc/self/stat` counts only 10 ms ticks).
#[cfg(all(target_os = "linux", target_pointer_width = "64"))]
pub fn cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        tv_sec: i64,
        tv_nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a live, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux), and the clock id is a constant the kernel
    // always supports; the call writes nothing else.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// Process user+system CPU seconds (10 ms resolution).
#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
pub fn cpu_s() -> f64 {
    asdf_rpc::meter::process_cpu_seconds().expect("/proc/self/stat is readable")
}

/// Peak resident memory of this process, MB.
pub fn peak_rss_mb() -> f64 {
    asdf_rpc::meter::process_peak_rss_mb().expect("/proc/self/status is readable")
}

/// Collector bytes moved over the accounted wire so far (Table 4's bytes:
/// payload, frame prefix and per-message header estimate).
pub fn wire_bytes() -> u64 {
    asdf_obs::registry().counter("rpc.bytes_total").get()
}

/// Collector messages moved over the accounted wire so far.
pub fn wire_messages() -> u64 {
    asdf_obs::registry().counter("rpc.messages_total").get()
}

/// Envelope clones made by engine routing so far, summed over instances.
pub fn env_clones() -> u64 {
    asdf_obs::registry()
        .snapshot()
        .counters
        .iter()
        .filter(|(name, _)| name.starts_with("engine.env_clones."))
        .map(|(_, v)| *v)
        .sum()
}

/// Seconds since `t`.
pub fn secs(t: Instant) -> f64 {
    t.elapsed().as_secs_f64()
}

/// The `q`-quantile (0..=1) of `values` by linear interpolation between
/// closest ranks. `values` need not be sorted.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// The highest of the usual percentiles that leaves at least ten of
/// `guaranteed` samples beyond it (the median when none does). Workloads
/// pass the sample count every run is guaranteed to reach, so the
/// percentile a metric reports is fixed per workload.
pub fn tail_quantile(guaranteed: usize) -> f64 {
    [0.999, 0.99, 0.95, 0.9]
        .into_iter()
        .find(|q| (guaranteed as f64) * (1.0 - q) + 1e-9 >= 10.0)
        .unwrap_or(0.5)
}

/// CPU seconds of this process's `asdf-*` threads (serve feeders and
/// online-engine threads), split by thread name. Threads end while a
/// stretch is served, so callers [`ThreadCpu::sample`] repeatedly and each
/// thread keeps the largest reading seen.
#[derive(Debug, Default, Clone)]
pub struct ThreadCpu {
    /// `tid -> (is a feeder, CPU seconds)`.
    seen: BTreeMap<u64, (bool, f64)>,
}

impl ThreadCpu {
    /// Reads every thread's name and on-CPU nanoseconds (the first field
    /// of `/proc/self/task/<tid>/schedstat`) once.
    pub fn sample(&mut self) {
        let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
            return;
        };
        for entry in dir.flatten() {
            let Some(tid) = entry.file_name().to_str().and_then(|t| t.parse().ok()) else {
                continue;
            };
            // Either read fails when the thread ended after the listing.
            let Ok(comm) = std::fs::read_to_string(entry.path().join("comm")) else {
                continue;
            };
            if !comm.starts_with("asdf-") {
                continue;
            }
            let Some(ns) = std::fs::read_to_string(entry.path().join("schedstat"))
                .ok()
                .and_then(|s| s.split_whitespace().next()?.parse::<f64>().ok())
            else {
                continue;
            };
            let e = self
                .seen
                .entry(tid)
                .or_insert((comm.starts_with("asdf-feed-"), 0.0));
            e.1 = e.1.max(ns * 1e-9);
        }
    }

    /// CPU seconds of the feeder threads.
    pub fn feeders(&self) -> f64 {
        self.seen.values().filter(|t| t.0).map(|t| t.1).sum()
    }

    /// CPU seconds of the other `asdf-*` threads.
    pub fn engine(&self) -> f64 {
        self.seen.values().filter(|t| !t.0).map(|t| t.1).sum()
    }

    /// Distinct `asdf-*` threads seen.
    pub fn threads(&self) -> usize {
        self.seen.len()
    }
}

/// Writes the traced run's per-layer metrics as JSON under the
/// benchmark's own directory (`perfbench/out/`).
pub fn write_trace_file(args: &Args, metrics: &[Metric]) -> std::io::Result<()> {
    let dir = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir)?;
    let s = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"metrics\": {}}}\n",
        args.workload,
        args.seed,
        args.seconds,
        crate::metrics_json(metrics)
    );
    std::fs::write(
        dir.join(format!("trace-{}-{}.json", args.workload, args.seed)),
        s,
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quantiles_interpolate_between_ranks() {
        let v = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(median(&v), 2.5);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 4.0);
    }

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        assert_eq!(tail_quantile(20_000), 0.999);
        assert_eq!(tail_quantile(1_000), 0.99);
        assert_eq!(tail_quantile(200), 0.95);
        assert_eq!(tail_quantile(100), 0.9);
        assert_eq!(tail_quantile(40), 0.5);
    }
}
