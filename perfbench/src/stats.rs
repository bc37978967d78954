//! Small measurement helpers: quantiles, the host's resident-set peak,
//! and the tally of attempted and failed operations.

/// Linear-interpolated quantile of an ascending slice (`q` in 0..=1).
/// Panics on an empty slice: every caller measures at least once.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    assert!(!sorted.is_empty(), "quantile of no samples");
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    sorted[lo] + (sorted[hi] - sorted[lo]) * (pos - lo as f64)
}

/// Median of unsorted samples.
pub fn median(samples: &[f64]) -> f64 {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    quantile(&s, 0.5)
}

fn status_kb(key: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with(key))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

/// Peak resident set of this process since start or the last
/// [`reset_peak_rss`], in MB.
pub fn peak_rss_mb() -> f64 {
    status_kb("VmHWM:").map_or(f64::NAN, |kb| kb / 1024.0)
}

/// Restart the resident-set peak at the current resident set, so a
/// phase's peak excludes the input generated before it. Returns false
/// where the kernel refuses.
pub fn reset_peak_rss() -> bool {
    std::fs::write("/proc/self/clear_refs", "5").is_ok()
}

/// Operations attempted and failed in one run: jobs run, output checks,
/// and control messages offered to the daemon.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
    /// One line per failure, printed before the result.
    pub failures: Vec<String>,
}

impl Tally {
    /// Count `n` operations of which `bad` failed.
    pub fn ops(&mut self, n: u64, bad: u64, what: &str) {
        self.attempted += n;
        self.failed += bad;
        if bad > 0 {
            self.failures.push(format!("{bad} of {n} {what} failed"));
        }
    }

    /// Count one output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.failures.push(what());
        }
    }

    pub fn error_rate(&self) -> f64 {
        self.failed as f64 / self.attempted.max(1) as f64
    }
}
