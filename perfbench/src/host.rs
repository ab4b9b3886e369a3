//! The host a result was measured on, and process-level resource readings.

use std::hint::black_box;
use std::time::Instant;

/// What a result needs beside it to be compared with another host's.
pub struct Host {
    pub nproc: usize,
    pub kinet_threads: String,
    pub cpu_model: String,
    pub rustc: String,
    pub commit: String,
    /// Median wall time of [`calibration_kernel`], in microseconds.
    pub calibration_us: f64,
}

impl Host {
    /// Reads the host. `rustc` and `commit` come from the launcher's
    /// environment (`PERFBENCH_RUSTC`, `PERFBENCH_COMMIT`).
    pub fn probe() -> Self {
        let cpu_model = std::fs::read_to_string("/proc/cpuinfo")
            .ok()
            .and_then(|info| {
                info.lines()
                    .find(|l| l.starts_with("model name"))
                    .and_then(|l| l.split_once(':'))
                    .map(|(_, v)| v.trim().to_string())
            })
            .unwrap_or_else(|| "unknown".into());
        let env = |k: &str| std::env::var(k).unwrap_or_else(|_| "unknown".into());
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            kinet_threads: env("KINET_THREADS"),
            cpu_model,
            rustc: env("PERFBENCH_RUSTC"),
            commit: env("PERFBENCH_COMMIT"),
            calibration_us: calibrate(),
        }
    }

    pub fn to_json(&self) -> String {
        format!(
            "{{\"nproc\": {}, \"kinet_threads\": {}, \"cpu_model\": {}, \"rustc\": {}, \
             \"commit\": {}, \"calibration_us\": {:.3}}}",
            self.nproc,
            json_str(&self.kinet_threads),
            json_str(&self.cpu_model),
            json_str(&self.rustc),
            json_str(&self.commit),
            self.calibration_us
        )
    }
}

/// A fixed scalar kernel independent of the program under test: a 64×64
/// f64 matrix product in plain loops. Its median time tracks the host's
/// single-core speed, so results from two hosts can be put side by side.
fn calibration_kernel(a: &[f64], b: &[f64], c: &mut [f64]) {
    const N: usize = 64;
    for i in 0..N {
        for j in 0..N {
            let mut acc = 0.0;
            for k in 0..N {
                acc += a[i * N + k] * b[k * N + j];
            }
            c[i * N + j] = acc;
        }
    }
}

fn calibrate() -> f64 {
    let a: Vec<f64> = (0..64 * 64).map(|i| (i % 17) as f64 * 0.25).collect();
    let b: Vec<f64> = (0..64 * 64).map(|i| (i % 13) as f64 * 0.5).collect();
    let mut c = vec![0.0; 64 * 64];
    let mut times: Vec<f64> = (0..31)
        .map(|_| {
            let t = now();
            calibration_kernel(black_box(&a), black_box(&b), &mut c);
            black_box(&c);
            t.elapsed().as_secs_f64() * 1e6
        })
        .collect();
    median(&mut times)
}

/// The benchmark's one wall-clock read: everything it reports is wall
/// time, kept out of the program's outputs.
pub fn now() -> Instant {
    // kinet-lint: allow(wall-clock) — the benchmark's timing source; no program output reads it
    Instant::now()
}

/// Peak resident set size of this process (VmHWM), in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Median of `xs` (sorts in place; the mean of the middle two for an
/// even count); 0 when empty.
pub fn median(xs: &mut [f64]) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let n = xs.len();
    if n % 2 == 1 {
        xs[n / 2]
    } else {
        (xs[n / 2 - 1] + xs[n / 2]) / 2.0
    }
}

/// Nearest-rank quantile of `xs` (sorts in place); 0 when empty.
pub fn quantile(xs: &mut [f64], q: f64) -> f64 {
    if xs.is_empty() {
        return 0.0;
    }
    xs.sort_by(f64::total_cmp);
    let rank = (q * xs.len() as f64).ceil() as usize;
    xs[rank.clamp(1, xs.len()) - 1]
}

pub fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}
