//! What the benchmark reads from the host: memory, CPU time, hardware
//! threads, and a fixed calibration kernel that makes host drift visible.

use std::time::Instant;

fn status_kb(field: &str) -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with(field))
                .and_then(|l| l.split_whitespace().nth(1)?.parse::<f64>().ok())
        })
        .unwrap_or(0.0)
}

/// Resident set size right now, MB.
pub fn rss_mb() -> f64 {
    status_kb("VmRSS:") / 1024.0
}

/// Peak resident set size of the process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:") / 1024.0
}

/// User + system CPU time of the whole process (every thread), µs, from
/// `/proc/self/stat` (fields 14 and 15, in 100 Hz clock ticks).
pub fn cpu_us() -> f64 {
    let Ok(stat) = std::fs::read_to_string("/proc/self/stat") else {
        return 0.0;
    };
    // The command name (field 2) may contain spaces; fields are counted
    // after its closing parenthesis.
    let Some(rest) = stat.rfind(')').map(|i| &stat[i + 1..]) else {
        return 0.0;
    };
    let mut fields = rest.split_whitespace().skip(11);
    let utime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    let stime: f64 = fields.next().and_then(|f| f.parse().ok()).unwrap_or(0.0);
    (utime + stime) * 10_000.0
}

/// Hardware threads the process may use.
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, usize::from)
}

/// Runs the fixed single-thread calibration kernel (~3 ms of integer work
/// with no memory traffic) and returns its wall time in ms. The benchmark
/// runs it between segments and windows: a run whose calibration times
/// are slow or spread out ran on a disturbed host. It explains an outlier;
/// it never rescales a metric.
pub fn calibrate_ms() -> f64 {
    let start = Instant::now();
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    let mut acc: u64 = 0;
    for _ in 0..1_500_000u32 {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        acc = acc.wrapping_add(x);
    }
    std::hint::black_box(acc);
    start.elapsed().as_secs_f64() * 1e3
}
