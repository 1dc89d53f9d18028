//! The result line, the correctness ledger and the human-readable lines
//! printed before it.

use std::fmt::Write as _;

/// End-to-end metrics every workload reports with tracing off: the
/// benchmark's gate. Each workload defines its own *op* (see
/// `WORKLOADS.md`); the workload-specific names are printed as `metric`
/// lines alongside.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "ratio"),
    ("ops_per_s", "1/s"),
    ("op_p75_us", "us"),
    ("op_p90_us", "us"),
];

#[derive(Default)]
pub struct Report {
    metrics: Vec<(String, f64, &'static str)>,
    pub attempted: u64,
    pub failed: u64,
}

impl Report {
    /// A metric that goes into the result line.
    pub fn metric(&mut self, name: impl Into<String>, value: f64, unit: &'static str) {
        self.metrics.push((name.into(), value, unit));
    }

    /// Counts one checked operation; a failed one is named on stderr.
    pub fn check(&mut self, ok: bool, what: &str) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            eprintln!("check failed: {what}");
        }
    }

    /// Counts a batch of operations of which `failed` failed.
    pub fn ops(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 {
            eprintln!("check failed: {failed} of {attempted} {what}");
        }
    }

    pub fn ok_frac(&self) -> f64 {
        1.0 - self.failed as f64 / self.attempted.max(1) as f64
    }

    /// Prints the result line with exactly `names`, in that order, and
    /// returns the process exit code: 0 only when every check passed and
    /// every metric was measured as a finite number.
    pub fn finish(self, names: &[(&str, &str)]) -> i32 {
        let mut correct = self.failed == 0 && self.attempted > 0;
        let mut body = String::new();
        for (i, (name, unit)) in names.iter().enumerate() {
            let found = self.metrics.iter().find(|(n, _, _)| n == name);
            let value = match found {
                Some((_, v, u)) if v.is_finite() && u == unit => *v,
                _ => {
                    eprintln!("metric {name} missing, not finite or not in {unit}");
                    correct = false;
                    0.0
                }
            };
            if i > 0 {
                body.push_str(", ");
            }
            let _ = write!(
                body,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        println!(
            "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{body}}}}}",
            self.attempted.max(1),
            self.failed
        );
        i32::from(!correct)
    }
}

/// A workload-specific or informational figure, printed by name with its
/// unit (not part of the result line).
pub fn line(kind: &str, name: &str, value: f64, unit: &str) {
    println!("{kind} {name} = {value} {unit}");
}
