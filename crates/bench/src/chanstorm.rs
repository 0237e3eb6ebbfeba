//! The channel-storm trajectory (`BENCH_channels.json`): host-cost
//! evidence that poll sweeps no longer scale with the registered-channel
//! count.
//!
//! The file has two sections, split the same way every other `BENCH_*`
//! file is:
//!
//! * a **deterministic** `points` array — virtual time, event counts,
//!   puts/deliveries/poll-checks per registered-herd size. Pure functions
//!   of the run: `scripts/bench_gate.sh` byte-compares this section
//!   against the committed baseline;
//! * a **host** object (always last, so the gate's "everything before
//!   `"host"`" split works) — wall-clock nanoseconds spent inside poll
//!   sweeps at each herd size, and the flatness ratio between the largest
//!   and smallest herd. Host-dependent; gated self-relatively only.
//!
//! The claim under test: with a fixed active window, per-sweep host cost
//! is O(active), so growing the herd 1k→100k (100×) must leave
//! nanoseconds-per-sweep roughly flat. The linear-scan poll plane this PR
//! replaced would show ~100× growth here.

use ckd_apps::chanstorm::{run_chanstorm_on, ChanstormCfg, ChanstormResult};
use ckd_apps::Platform;
use ckd_charm::{Phase, ProfConfig};

/// Schema tag of `BENCH_channels.json`.
pub const CHANNELS_SCHEMA: &str = "ckd-chanstorm/v1";

/// Fixed active window across every herd size.
pub const STORM_ACTIVE: usize = 64;

/// Iterations (waves) per point.
pub const STORM_ITERS: u32 = 20;

/// The registered-herd axis: 1k → 100k channels on one PE.
pub const STORM_REGISTERED: [usize; 3] = [1_000, 10_000, 100_000];

/// One measured point of the trajectory.
pub struct StormPoint {
    /// The run's deterministic outcome.
    pub result: ChanstormResult,
    /// `{:#?}` machine stats (byte-compared across engines).
    pub stats_debug: String,
    /// Poll sweeps executed (host profiler span count).
    pub sweeps: u64,
    /// Wall nanoseconds inside poll sweeps (host-dependent).
    pub poll_ns: u64,
}

impl StormPoint {
    /// Wall nanoseconds per sweep (0.0 before any sweep ran).
    pub fn ns_per_sweep(&self) -> f64 {
        if self.sweeps == 0 {
            0.0
        } else {
            self.poll_ns as f64 / self.sweeps as f64
        }
    }
}

/// Run one channel-storm point on a profiled 2-PE Infiniband machine.
pub fn run_storm_point(registered: usize) -> StormPoint {
    let mut m = Platform::IbAbe { cores_per_node: 2 }
        .builder(2)
        .with_profiling(ProfConfig { snapshot_every: 0 })
        .build();
    let result = run_chanstorm_on(
        &mut m,
        ChanstormCfg {
            registered,
            active: STORM_ACTIVE,
            iters: STORM_ITERS,
        },
    );
    let stats_debug = format!("{:#?}\n", m.stats());
    let poll = m.profiler().shard().expect("profiled run").phases[Phase::Poll.index()];
    StormPoint {
        result,
        stats_debug,
        sweeps: poll.count,
        poll_ns: poll.total_ns,
    }
}

/// The deterministic JSON line of one point (everything in it is a pure
/// function of the run).
pub fn det_line(r: &ChanstormResult) -> String {
    format!(
        "{{\"registered\": {}, \"t_ps\": {}, \"events\": {}, \"puts\": {}, \
         \"deliveries\": {}, \"poll_checks\": {}, \"destroyed\": {}}}",
        r.registered,
        r.total.as_ps(),
        r.events,
        r.puts,
        r.deliveries,
        r.poll_checks,
        r.destroyed,
    )
}

/// Render the full `BENCH_channels.json` text: deterministic `points`
/// first, `host` object last.
pub fn channels_json(points: &[StormPoint], cores: usize) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"schema\": \"{CHANNELS_SCHEMA}\",\n"));
    out.push_str(&format!("  \"active\": {STORM_ACTIVE},\n"));
    out.push_str(&format!("  \"iters\": {STORM_ITERS},\n"));
    out.push_str("  \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "    {}{}\n",
            det_line(&p.result),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("  ],\n");
    out.push_str("  \"host\": {\n");
    out.push_str(&format!("    \"cores\": {cores},\n"));
    out.push_str("    \"points\": [\n");
    for (i, p) in points.iter().enumerate() {
        out.push_str(&format!(
            "      {{\"registered\": {}, \"sweeps\": {}, \"poll_ns\": {}, \
             \"ns_per_sweep\": {:.0}}}{}\n",
            p.result.registered,
            p.sweeps,
            p.poll_ns,
            p.ns_per_sweep(),
            if i + 1 == points.len() { "" } else { "," }
        ));
    }
    out.push_str("    ],\n");
    let (first, last) = (points.first(), points.last());
    let ratio = match (first, last) {
        (Some(f), Some(l)) if f.ns_per_sweep() > 0.0 => l.ns_per_sweep() / f.ns_per_sweep(),
        _ => 0.0,
    };
    out.push_str(&format!("    \"flat_ratio\": {ratio:.2}\n"));
    out.push_str("  }\n}\n");
    out
}

/// Per-point keys of the deterministic section.
const POINT_KEYS: [&str; 7] = [
    "\"registered\"",
    "\"t_ps\"",
    "\"events\"",
    "\"puts\"",
    "\"deliveries\"",
    "\"poll_checks\"",
    "\"destroyed\"",
];

/// Structural check of a `BENCH_channels.json` file: schema tag, balanced
/// delimiters, per-point keys, a strictly growing registered axis, and an
/// exactly-once delivery invariant on every point. Parser-free like
/// `validate_sweep_json` (the workspace is std-only).
pub fn validate_channels_json(s: &str) -> Result<(), String> {
    if !s.starts_with(&format!("{{\n  \"schema\": \"{CHANNELS_SCHEMA}\"")) {
        return Err(format!("missing schema tag {CHANNELS_SCHEMA:?}"));
    }
    if s.matches('{').count() != s.matches('}').count()
        || s.matches('[').count() != s.matches(']').count()
    {
        return Err("unbalanced delimiters".into());
    }
    if !s.contains("  \"host\": {") {
        return Err("missing host object".into());
    }
    let det = s.split("  \"host\": {").next().unwrap();
    let field = |line: &str, key: &str| -> Result<u64, String> {
        let pat = format!("{key}: ");
        let at = line
            .find(&pat)
            .ok_or_else(|| format!("point missing {key}: {line}"))?;
        line[at + pat.len()..]
            .chars()
            .take_while(char::is_ascii_digit)
            .collect::<String>()
            .parse()
            .map_err(|_| format!("non-integer {key}: {line}"))
    };
    let mut points = 0usize;
    let mut last_registered = 0u64;
    for line in det.lines().filter(|l| l.starts_with("    {\"registered\"")) {
        for key in POINT_KEYS {
            if line.matches(key).count() != 1 {
                return Err(format!("point missing key {key}: {line}"));
            }
        }
        let registered = field(line, "\"registered\"")?;
        if registered <= last_registered {
            return Err(format!(
                "registered axis not increasing ({registered} after {last_registered})"
            ));
        }
        last_registered = registered;
        let puts = field(line, "\"puts\"")?;
        if field(line, "\"deliveries\"")? != puts {
            return Err(format!("deliveries != puts: {line}"));
        }
        if field(line, "\"destroyed\"")? != registered {
            return Err(format!("teardown incomplete: {line}"));
        }
        if field(line, "\"poll_checks\"")? < registered {
            return Err(format!("poll_checks below one full sweep: {line}"));
        }
        points += 1;
    }
    if points == 0 {
        return Err("no points".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_sim::Time;

    fn fake_point(registered: usize, ns: u64) -> StormPoint {
        StormPoint {
            result: ChanstormResult {
                registered,
                active: STORM_ACTIVE,
                iters: STORM_ITERS,
                total: Time::from_ps(1000),
                puts: 1280,
                deliveries: 1280,
                poll_checks: registered as u64 * 10,
                events: 500,
                destroyed: registered as u64,
            },
            stats_debug: String::new(),
            sweeps: 10,
            poll_ns: ns,
        }
    }

    #[test]
    fn emitted_json_validates() {
        let points = [fake_point(1000, 10_000), fake_point(100_000, 12_000)];
        let json = channels_json(&points, 4);
        validate_channels_json(&json).unwrap();
        // the host object is last, so the bench gate's sed split works
        let det = json.split("  \"host\": {").next().unwrap();
        assert!(det.contains("\"points\": ["));
        assert!(!det.contains("ns_per_sweep"));
        assert!(json.trim_end().ends_with('}'));
    }

    #[test]
    fn validator_rejects_mangled_files() {
        let points = [fake_point(1000, 10_000), fake_point(100_000, 12_000)];
        let good = channels_json(&points, 4);
        assert!(validate_channels_json("").is_err());
        assert!(validate_channels_json("{}\n").is_err());
        let e = validate_channels_json(&good.replace("\"deliveries\": 1280", "\"deliveries\": 7"))
            .unwrap_err();
        assert!(e.contains("deliveries"), "{e}");
        let e = validate_channels_json(&good.replace("\"destroyed\": 1000", "\"destroyed\": 3"))
            .unwrap_err();
        assert!(e.contains("teardown"), "{e}");
        // a shuffled axis is a wrong baseline, not host noise
        let backwards = [fake_point(100_000, 10_000), fake_point(1000, 12_000)];
        assert!(validate_channels_json(&channels_json(&backwards, 4)).is_err());
    }

    #[test]
    fn one_real_point_round_trips() {
        // smallest real run: deterministic line is reproducible and the
        // profiler saw every sweep
        let a = run_storm_point(200);
        let b = run_storm_point(200);
        assert_eq!(det_line(&a.result), det_line(&b.result));
        assert_eq!(a.stats_debug, b.stats_debug);
        assert!(a.sweeps > 0);
        assert_eq!(a.result.destroyed, 200);
    }
}
