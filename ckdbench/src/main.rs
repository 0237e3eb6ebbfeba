//! The repo's benchmark: one command that runs a named workload of the
//! CkDirect reproduction in a closed loop for a fixed host time, checks
//! every output, and prints every metric by name with its unit.
//!
//! ```text
//! cargo run --release --offline --manifest-path ckdbench/Cargo.toml -- \
//!     --workload halo-msg --seed 1 --seconds 10 --trace 0
//! ```
//!
//! `--trace 0` reports the end-to-end metrics; `--trace 1` is a separate
//! pass that turns on the simulator's profiler and reports the per-layer
//! metrics. The last line of standard output is the JSON result.
//!
//! Every run's outputs are checked; a failed check is counted, never
//! fatal. Each setup also replays the default seed and compares the run's
//! deterministic record (virtual time and counters) with `digests.txt`.
//! When a change is meant to alter what the simulator computes, copy the
//! printed `digest <workload> <seed> <hex>` line into that file.

mod replay;
mod report;
mod sim;
mod stats;
mod threads;

use report::{host_block, Report, Spans};
use sim::SimKind;

/// The seed whose run records are stored in `digests.txt`.
pub const DEFAULT_SEED: u64 = 1;
/// Setups per invocation; `setup_s` is their median.
pub const SETUP_REPS: usize = 9;

/// End-to-end metrics (`--trace 0`), in output order, with units. The
/// median run time and `direct-threads`' per-exchange latencies are printed
/// too but not gated: on a shared host the median moves with co-tenant
/// load by more than any useful bound (see `sim::bench`).
pub const END_TO_END: &[(&str, &str)] = &[
    ("events_per_s", "1/s"),
    ("run_ms_p90", "ms"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
];

/// Per-layer metrics (`--trace 1`), in output order, with units. A metric
/// a workload's layers never exercise reads 0 on that workload. Each
/// replay's per-run total is printed next to the run's wall time rather
/// than listed here, and the profiler's nested layer-stack phase only
/// with it: the benchmark installs no runtime layer, so it is always 0.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("sim.events", "count"),
    ("sim.queue.depth_p50", "count"),
    ("sim.queue.push_pop_ns", "ns"),
    ("sim.fault.injected", "count"),
    ("net.transfers", "count"),
    ("net.eager", "count"),
    ("net.rendezvous", "count"),
    ("net.rdma_put", "count"),
    ("net.control", "count"),
    ("net.timing_ns", "ns"),
    ("core.puts", "count"),
    ("core.deliveries", "count"),
    ("core.poll_checks", "count"),
    ("core.cq_drains", "count"),
    ("core.cq_overflows", "count"),
    ("core.poll_hit_ratio", "ratio"),
    ("core.put_land_ns", "ns"),
    ("core.sweep_ns", "ns"),
    ("core.cq_drain_ns", "ns"),
    ("direct.put_ns.64B", "ns"),
    ("direct.put_ns.1KiB", "ns"),
    ("direct.put_ns.16KiB", "ns"),
    ("direct.poll_arm_ns.64B", "ns"),
    ("direct.poll_arm_ns.1KiB", "ns"),
    ("direct.poll_arm_ns.16KiB", "ns"),
    ("direct.mpsc_ns.64B", "ns"),
    ("direct.mpsc_ns.1KiB", "ns"),
    ("direct.mpsc_ns.16KiB", "ns"),
    ("direct.polls_per_delivery", "ratio"),
    ("charm.build_ms", "ms"),
    ("charm.msgs_delivered", "count"),
    ("charm.callbacks", "count"),
    ("charm.reductions", "count"),
    ("charm.phase.sched_self_ns", "ns"),
    ("charm.phase.poll_ns", "ns"),
    ("charm.phase.backend_ns", "ns"),
    ("charm.phase.rel_ns", "ns"),
    ("charm.phase.unattributed_ns", "ns"),
    ("charm.rel.retries", "count"),
    ("charm.rel.timeouts", "count"),
    ("charm.rel.retry_ratio", "ratio"),
    ("trace.prof_overhead_ratio", "ratio"),
    ("run.wall_ms", "ms"),
    ("replay.explained_ratio", "ratio"),
];

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    Sim(SimKind),
    DirectThreads,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload::Sim(SimKind::HaloMsg),
    Workload::Sim(SimKind::PairsCkd),
    Workload::Sim(SimKind::LossyNotified),
    Workload::DirectThreads,
];

impl Workload {
    pub fn name(self) -> &'static str {
        match self {
            Workload::Sim(k) => k.name(),
            Workload::DirectThreads => "direct-threads",
        }
    }
}

/// Checked command line.
#[derive(Clone, Debug, PartialEq)]
pub struct Args {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
}

const USAGE: &str =
    "usage: ckdbench --workload <halo-msg|pairs-ckd|lossy-notified|direct-threads> \
                     --seed <u64> --seconds <1..=600> --trace <0|1>";

fn parse_args(args: impl IntoIterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = args.into_iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                let w = WORKLOADS.iter().find(|w| w.name() == value);
                workload = Some(*w.ok_or_else(|| format!("unknown workload {value:?}"))?);
            }
            "--seed" => seed = Some(stats::parse_seed(&value)?),
            "--seconds" => {
                let s = value.parse::<u64>().ok().filter(|s| (1..=600).contains(s));
                seconds = Some(s.ok_or_else(|| format!("--seconds wants 1..=600, got {value:?}"))?);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                });
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.unwrap_or(DEFAULT_SEED),
        seconds: seconds.unwrap_or(10),
        trace: trace.unwrap_or(false),
    })
}

/// Put the workload's metrics in the canonical order of the pass's list,
/// reading 0 for any the workload does not exercise.
fn canonical(report: &mut Report, list: &[(&'static str, &'static str)]) {
    let got = std::mem::take(&mut report.metrics);
    for &(name, unit) in list {
        match got.iter().find(|m| m.name == name) {
            Some(m) => {
                assert_eq!(m.unit, unit, "{name} reported in the wrong unit");
                report.metrics.push(m.clone());
            }
            None => report.push(name, 0.0, unit, 0),
        }
    }
    for m in &got {
        assert!(
            list.iter().any(|&(n, _)| n == m.name),
            "{} is not in the pass's metric list",
            m.name
        );
    }
}

fn main() {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("ckdbench: {e}\n{USAGE}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.notes.push(host_block());
    report.notes.push(format!(
        "workload {} seed {} seconds {} trace {}",
        args.workload.name(),
        args.seed,
        args.seconds,
        u8::from(args.trace)
    ));
    let mut spans = Spans::new();
    match (args.workload, args.trace) {
        (Workload::Sim(k), false) => sim::bench(k, &args, &mut spans, &mut report),
        (Workload::Sim(k), true) => sim::bench_traced(k, &args, &mut spans, &mut report),
        (Workload::DirectThreads, false) => threads::bench(&args, &mut spans, &mut report),
        (Workload::DirectThreads, true) => threads::bench_traced(&args, &mut spans, &mut report),
    }
    if args.trace {
        canonical(&mut report, PER_LAYER);
        report.notes.extend(spans.summary());
        let dir = std::env::var_os("CARGO_TARGET_DIR").map_or_else(
            || concat!(env!("CARGO_MANIFEST_DIR"), "/target").into(),
            std::path::PathBuf::from,
        );
        let path = dir.join(format!("ckdbench-spans-{}.json", args.workload.name()));
        match spans.write_chrome_trace(&path) {
            Ok(n) => report
                .notes
                .push(format!("spans: {n} written to {}", path.display())),
            Err(e) => report
                .notes
                .push(format!("spans: not written to {}: {e}", path.display())),
        }
    } else {
        canonical(&mut report, END_TO_END);
    }
    print!("{}", report.render());
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(String::from))
    }

    #[test]
    fn command_line_is_checked() {
        let a = args("--workload pairs-ckd --seed 42 --seconds 3 --trace 1").unwrap();
        assert_eq!(a.workload, Workload::Sim(SimKind::PairsCkd));
        assert_eq!((a.seed, a.seconds, a.trace), (42, 3, true));
        let d = args("--workload direct-threads").unwrap();
        assert_eq!((d.seed, d.seconds, d.trace), (DEFAULT_SEED, 10, false));
        for bad in [
            "",
            "--workload nope",
            "--workload halo-msg --seed -1",
            "--workload halo-msg --seed 1e3",
            "--workload halo-msg --seconds 0",
            "--workload halo-msg --seconds 601",
            "--workload halo-msg --trace 2",
            "--workload halo-msg --seed",
            "--workload halo-msg --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn metric_names_and_units_obey_the_charset() {
        let mut names: Vec<&str> = END_TO_END.iter().chain(PER_LAYER).map(|m| m.0).collect();
        for &(n, u) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(stats::valid_name(n), "{n}");
            assert!(stats::valid_unit(u), "{n}: {u}");
        }
        for w in WORKLOADS {
            assert!(stats::valid_name(w.name()));
            names.push(w.name());
        }
        let n = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(names.len(), n, "a name is used twice");
        assert!(PER_LAYER.len() <= 128 && END_TO_END.len() <= 16);
    }

    #[test]
    fn benchmark_json_lists_exactly_these_names() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json = std::fs::read_to_string(path).expect("BENCHMARK.json at the repo root");
        let listed = json.matches("\"name\":").count();
        assert_eq!(listed, WORKLOADS.len() + END_TO_END.len() + PER_LAYER.len());
        for name in WORKLOADS
            .iter()
            .map(|w| w.name())
            .chain(END_TO_END.iter().chain(PER_LAYER).map(|m| m.0))
        {
            assert!(
                json.contains(&format!("\"name\": \"{name}\"")),
                "{name} missing from BENCHMARK.json"
            );
        }
    }

    #[test]
    fn canonical_fills_unexercised_metrics_with_zero() {
        let mut r = Report::default();
        r.push("run_ms_p90", 2.0, "ms", 9);
        canonical(&mut r, END_TO_END);
        assert_eq!(r.metrics.len(), END_TO_END.len());
        assert_eq!(r.metrics[1].value, 2.0);
        assert_eq!(r.metrics[0].value, 0.0);
    }
}
