//! What a run prints: named metrics with units and sample counts, the host
//! block, the benchmark's own spans, and the final one-line JSON result.

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::time::Instant;

use crate::stats::{beyond, median, ratio, valid_name, valid_unit};

/// One reported number.
#[derive(Clone, Debug)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples the value summarizes (1 for a single measurement or count).
    pub samples: usize,
}

/// Everything one invocation reports.
#[derive(Default)]
pub struct Report {
    pub metrics: Vec<Metric>,
    /// Operations whose outputs were checked (runs, exchanges, digests).
    pub attempted: u64,
    /// Checked operations that failed; each failure is also in `problems`.
    pub failed: u64,
    pub problems: Vec<String>,
    /// Free-form lines printed before the metrics (digests, replay table).
    pub notes: Vec<String>,
    /// Figures printed by name, unit and sample count but kept out of the
    /// JSON result: they are not gated (see `BENCHMARK.json`).
    pub info: Vec<Metric>,
}

impl Report {
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        debug_assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        self.metrics.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Print a figure like a metric, outside the JSON result.
    pub fn info(&mut self, name: &'static str, value: f64, unit: &'static str, samples: usize) {
        debug_assert!(valid_name(name) && valid_unit(unit), "{name} [{unit}]");
        self.info.push(Metric {
            name,
            value,
            unit,
            samples,
        });
    }

    /// Record one checked operation; `Err` counts it as failed.
    pub fn check(&mut self, outcome: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = outcome {
            self.failed += 1;
            if self.problems.len() < 20 {
                self.problems.push(why);
            }
        }
    }

    /// Fold a batch of checks that were counted elsewhere (e.g. on another
    /// thread): `failed` of `attempted` operations failed.
    pub fn check_many(&mut self, attempted: u64, failed: u64, why: &str) {
        self.attempted += attempted;
        self.failed += failed;
        if failed > 0 && self.problems.len() < 20 {
            self.problems
                .push(format!("{failed} of {attempted}: {why}"));
        }
    }

    pub fn fail_ratio(&self) -> f64 {
        ratio(self.failed, self.attempted)
    }

    /// Human-readable lines, then the one-line JSON result.
    pub fn render(&self) -> String {
        let mut out = String::new();
        for n in &self.notes {
            let _ = writeln!(out, "{n}");
        }
        for p in &self.problems {
            let _ = writeln!(out, "FAILED: {p}");
        }
        for (kind, m) in self
            .info
            .iter()
            .map(|m| ("info", m))
            .chain(self.metrics.iter().map(|m| ("metric", m)))
        {
            // a tail percentile is resolved only with ten samples beyond it
            let tail = match m
                .name
                .rsplit_once("_p")
                .and_then(|(_, p)| p.parse::<f64>().ok())
            {
                Some(p) if p != 50.0 => {
                    let k = beyond(m.samples, p);
                    format!(", {k} beyond{}", if k < 10 { ", unresolved" } else { "" })
                }
                _ => String::new(),
            };
            let _ = writeln!(
                out,
                "{kind:<6} {:<30} {:>18} {:<6} (n={}{tail})",
                m.name,
                fmt_num(m.value),
                m.unit,
                m.samples
            );
        }
        let _ = writeln!(
            out,
            "metric {:<30} {:>18} {:<6} (n={}, {} failed)",
            "fail_ratio",
            fmt_num(self.fail_ratio()),
            "ratio",
            self.attempted,
            self.failed
        );
        out.push_str(&self.json());
        out.push('\n');
        out
    }

    /// `{"correct", "attempted", "failed", "metrics": {name: {value, unit}}}`.
    pub fn json(&self) -> String {
        let mut s = format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.failed == 0 && self.attempted > 0,
            self.attempted.max(1),
            self.failed
        );
        for (i, m) in self.metrics.iter().enumerate() {
            let sep = if i == 0 { "" } else { ", " };
            let _ = write!(
                s,
                "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name,
                fmt_num(m.value),
                m.unit
            );
        }
        s.push_str("}}");
        s
    }
}

/// A JSON number with every digit the measurement has; non-finite values
/// (never expected) become 0 rather than invalid JSON.
pub fn fmt_num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".to_string()
    }
}

/// One timed call from the benchmark into a layer.
#[derive(Clone, Copy, Debug)]
pub struct Span {
    /// Crate the call goes into (`ckd-charm`, `ckd-apps`, ...).
    pub layer: &'static str,
    pub name: &'static str,
    /// The run (or replay trial) the span belongs to: spans of one run
    /// share it.
    pub run: u64,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// The benchmark's own spans, kept in memory and written out at the end.
pub struct Spans {
    origin: Instant,
    pub list: Vec<Span>,
}

impl Spans {
    /// Room reserved up front so recording never reallocates mid-run:
    /// the benchmark's own bookkeeping must not move the program's peak
    /// RSS (`peak_rss_mb`) by how many runs fit in the time budget.
    pub const RESERVED: usize = 1 << 16;

    pub fn new() -> Spans {
        Spans {
            origin: Instant::now(),
            list: Vec::with_capacity(Self::RESERVED),
        }
    }

    /// Time `f` as one span.
    pub fn time<R>(
        &mut self,
        layer: &'static str,
        name: &'static str,
        run: u64,
        f: impl FnOnce() -> R,
    ) -> R {
        let t0 = Instant::now();
        let r = f();
        let dur_ns = t0.elapsed().as_nanos() as u64;
        self.list.push(Span {
            layer,
            name,
            run,
            start_ns: t0.duration_since(self.origin).as_nanos() as u64,
            dur_ns,
        });
        r
    }

    /// Duration of the most recent span.
    pub fn last_ns(&self) -> u64 {
        self.list.last().map_or(0, |s| s.dur_ns)
    }

    /// Write every span as a Chrome trace (`chrome://tracing`, Perfetto)
    /// to `path`; returns the span count.
    pub fn write_chrome_trace(&self, path: &std::path::Path) -> std::io::Result<usize> {
        let mut s = String::from("{\"traceEvents\": [\n");
        for (i, sp) in self.list.iter().enumerate() {
            let sep = if i == 0 { "" } else { ",\n" };
            let _ = write!(
                s,
                "{sep}{{\"name\": \"{}\", \"cat\": \"{}\", \"ph\": \"X\", \"ts\": {:.3}, \"dur\": {:.3}, \
                 \"pid\": 1, \"tid\": 1, \"args\": {{\"run\": {}}}}}",
                sp.name,
                sp.layer,
                sp.start_ns as f64 / 1e3,
                sp.dur_ns as f64 / 1e3,
                sp.run
            );
        }
        s.push_str("\n]}\n");
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        std::fs::write(path, s)?;
        Ok(self.list.len())
    }

    /// One line per `(layer, name)`: count, total and median duration.
    pub fn summary(&self) -> Vec<String> {
        let mut by: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
        for s in &self.list {
            by.entry((s.layer, s.name))
                .or_default()
                .push(s.dur_ns as f64);
        }
        by.into_iter()
            .map(|((layer, name), d)| {
                format!(
                    "span {layer:<10} {name:<22} count={:<7} total_ms={:<12.3} p50_us={:.3}",
                    d.len(),
                    d.iter().sum::<f64>() / 1e6,
                    median(&d) / 1e3
                )
            })
            .collect()
    }
}

/// The host a result was measured on: core count, CPU model, toolchain and
/// load average at start.
pub fn host_block() -> String {
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split(':').nth(1))
                .map(|m| m.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".into());
    let rustc =
        std::process::Command::new(std::env::var("RUSTC").unwrap_or_else(|_| "rustc".into()))
            .arg("--version")
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
            .unwrap_or_else(|| "unknown".into());
    let load = std::fs::read_to_string("/proc/loadavg")
        .map(|s| s.split_whitespace().take(3).collect::<Vec<_>>().join(" "))
        .unwrap_or_else(|_| "unknown".into());
    format!("host cores={cores} cpu=\"{cpu}\" rustc=\"{rustc}\" loadavg=\"{load}\"")
}

/// Peak resident set size of this process (VmHWM) in MiB.
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

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_line_has_exactly_the_contract_keys() {
        let mut r = Report::default();
        r.push("latency_ms", 1.25, "ms", 10);
        r.push("setup_s", 0.5, "s", 5);
        r.check(Ok(()));
        assert_eq!(
            r.json(),
            "{\"correct\": true, \"attempted\": 1, \"failed\": 0, \"metrics\": {\
             \"latency_ms\": {\"value\": 1.25, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 0.5, \"unit\": \"s\"}}}"
        );
        r.check(Err("boom".into()));
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 2, \"failed\": 1"));
        assert_eq!(r.fail_ratio(), 0.5);
        assert!(r.render().lines().last().unwrap().starts_with('{'));
    }

    #[test]
    fn nothing_checked_is_not_correct() {
        let r = Report::default();
        assert!(r
            .json()
            .starts_with("{\"correct\": false, \"attempted\": 1, \"failed\": 0"));
    }

    #[test]
    fn non_finite_numbers_stay_valid_json() {
        assert_eq!(fmt_num(f64::NAN), "0");
        assert_eq!(fmt_num(f64::INFINITY), "0");
        assert_eq!(fmt_num(0.1234567890123), "0.1234567890123");
    }
}
