//! The three simulated workloads: build a machine through
//! `Platform::builder`, drive one application run through its `ckd-apps`
//! driver, read the public counters, and check them.

use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::{Platform, Variant};
use ckd_charm::{
    Machine, MachineBuilder, MachineStats, Phase, ProfConfig, ProfShard, ProtoBreakdown,
};
use ckd_net::Protocol;
use ckd_sim::{FaultPlan, Time};
use ckd_topo::Pe;
use ckdirect::{DirectBackend, RegistryCounters};

use crate::replay::{self, TransferClass};
use crate::report::{peak_rss_mb, Report, Spans};
use crate::stats::{check_digest, fnv1a64, median, nearest_rank, ratio, sorted, splitmix64};
use crate::{Args, DEFAULT_SEED, SETUP_REPS};

/// Drop probability of the lossy workload's fault plan.
const DROP_P: f64 = 0.02;

#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum SimKind {
    HaloMsg,
    PairsCkd,
    LossyNotified,
}

impl SimKind {
    pub fn name(self) -> &'static str {
        match self {
            SimKind::HaloMsg => "halo-msg",
            SimKind::PairsCkd => "pairs-ckd",
            SimKind::LossyNotified => "lossy-notified",
        }
    }

    fn npes(self) -> usize {
        match self {
            SimKind::HaloMsg => 64,
            SimKind::PairsCkd => 32,
            SimKind::LossyNotified => 8,
        }
    }

    fn platform(self) -> Platform {
        match self {
            SimKind::HaloMsg => Platform::IbAbe { cores_per_node: 8 },
            SimKind::PairsCkd => Platform::IbAbe { cores_per_node: 2 },
            SimKind::LossyNotified => Platform::Slingshot,
        }
    }

    /// Iterations (stencil) or steps (OpenAtom) of one run.
    fn steps(self) -> u32 {
        match self {
            SimKind::HaloMsg | SimKind::PairsCkd => 4,
            SimKind::LossyNotified => 60,
        }
    }

    /// Only the lossy workload injects faults, so only its results depend
    /// on the seed.
    fn seeded(self) -> bool {
        self == SimKind::LossyNotified
    }

    fn builder(self, plan_seed: u64) -> MachineBuilder {
        let b = self.platform().builder(self.npes());
        if self.seeded() {
            b.with_faults(FaultPlan::new(plan_seed).with_drop(DROP_P))
        } else {
            b
        }
    }

    /// One application run: `(virtual end time, time per step, steps)`.
    fn drive(self, m: &mut Machine) -> (Time, Time, u32) {
        match self {
            SimKind::HaloMsg | SimKind::LossyNotified => {
                let (domain, chares, variant) = if self == SimKind::HaloMsg {
                    ([1024, 1024, 512], [8, 8, 8], Variant::Msg)
                } else {
                    ([64, 64, 64], [4, 4, 4], Variant::Ckd)
                };
                let r = run_jacobi_on(
                    m,
                    JacobiCfg {
                        domain,
                        chares,
                        iters: self.steps(),
                        variant,
                        real_compute: false,
                    },
                );
                (r.total, r.time_per_iter, r.iters)
            }
            SimKind::PairsCkd => {
                let r = run_openatom_on(
                    m,
                    OpenAtomCfg {
                        nstates: 64,
                        nplanes: 4,
                        grain: 4,
                        pts: 512,
                        steps: self.steps(),
                        variant: Variant::Ckd,
                        pc_only: false,
                        ready_split: true,
                    },
                );
                (r.total, r.time_per_step, r.steps)
            }
        }
    }
}

/// The fault-plan seed of run `i` under benchmark seed `seed`.
pub fn plan_seed(seed: u64, i: u64) -> u64 {
    let mut s = seed ^ i.wrapping_mul(0xD1B5_4A32_D192_ED03);
    splitmix64(&mut s)
}

/// Everything one run leaves behind that the benchmark reads.
struct RunRecord {
    build_ns: u64,
    drive_ns: u64,
    total: Time,
    per_step: Time,
    steps: u32,
    stats: MachineStats,
    reg: RegistryCounters,
    callbacks: u64,
    poll_checks: u64,
    msgs_delivered: u64,
    faults_injected: u64,
    pe_proto: Vec<ProtoBreakdown>,
    prof: Option<ProfShard>,
}

impl RunRecord {
    /// The deterministic part of the run: virtual time and counters. Host
    /// timings never enter it.
    fn record(&self, kind: SimKind) -> String {
        let s = &self.stats;
        format!(
            "{} vt_ps={} step_ps={} steps={} events={} msgs={} msg_bytes={} puts={} \
             put_bytes={} reductions={} callbacks={} poll_checks={} cq_drains={} \
             notifications={} retries={} timeouts={} injected={}",
            kind.name(),
            self.total.as_ps(),
            self.per_step.as_ps(),
            self.steps,
            s.events,
            s.msgs_sent,
            s.msg_bytes,
            s.puts,
            s.put_bytes,
            s.reductions,
            self.callbacks,
            self.poll_checks,
            s.cq_drains,
            self.reg.notifications,
            s.rel.retries,
            s.rel.timeouts,
            self.faults_injected
        )
    }
}

/// Build and drive one run; a panic inside the program is a failed run,
/// not an aborted benchmark.
fn run_once(
    kind: SimKind,
    plan: u64,
    profiled: bool,
    spans: &mut Spans,
    run: u64,
) -> Result<RunRecord, String> {
    catch_unwind(AssertUnwindSafe(|| {
        let mut m = spans.time("ckd-charm", "machine.build", run, || {
            let b = kind.builder(plan);
            if profiled {
                b.with_profiling(ProfConfig::default()).build()
            } else {
                b.build()
            }
        });
        let build_ns = spans.last_ns();
        let (total, per_step, steps) =
            spans.time("ckd-apps", "driver.run", run, || kind.drive(&mut m));
        let drive_ns = spans.last_ns();
        let pes = (0..m.npes() as u32).map(|p| m.pe_stats(Pe(p)));
        let msgs_delivered = pes.clone().map(|s| s.msgs_delivered).sum();
        RunRecord {
            build_ns,
            drive_ns,
            total,
            per_step,
            steps,
            stats: m.stats().clone(),
            reg: m.direct_counters(),
            callbacks: m.callback_total(),
            poll_checks: m.poll_check_total(),
            msgs_delivered,
            faults_injected: m.fault_counts().map_or(0, |f| f.total()),
            pe_proto: if profiled {
                pes.map(|s| s.proto_sent.clone()).collect()
            } else {
                Vec::new()
            },
            prof: m.profiler().shard().cloned(),
        }
    }))
    .map_err(|p| {
        let what = p
            .downcast_ref::<String>()
            .cloned()
            .or_else(|| p.downcast_ref::<&str>().map(|s| s.to_string()))
            .unwrap_or_else(|| "panic".into());
        format!("{} run {run} panicked: {what}", kind.name())
    })
}

/// The output checks every run must pass, on any seed.
fn verify(kind: SimKind, r: &RunRecord) -> Result<(), String> {
    let s = &r.stats;
    let fail = |what: &str| Err(format!("{}: {what}", kind.name()));
    if r.steps != kind.steps() {
        return fail(&format!("ran {} of {} steps", r.steps, kind.steps()));
    }
    if r.reg.puts != s.puts || r.callbacks != s.puts || r.reg.deliveries != s.puts {
        return fail(&format!(
            "puts {} / registry puts {} / deliveries {} / callbacks {} disagree",
            s.puts, r.reg.puts, r.reg.deliveries, r.callbacks
        ));
    }
    // puts over a degraded channel travel as rendezvous transfers
    if s.proto.two_sided().count != s.msgs_sent + s.rel.degraded_puts {
        return fail("two-sided protocol breakdown does not reconcile with msgs_sent");
    }
    if r.msgs_delivered < s.msgs_sent {
        return fail("fewer messages delivered than sent");
    }
    match kind {
        SimKind::HaloMsg if s.puts != 0 || r.poll_checks != 0 => {
            fail("message variant used the registry")
        }
        SimKind::PairsCkd if s.puts == 0 || r.poll_checks < r.reg.deliveries => {
            fail("polling backend delivered without sentinel checks")
        }
        SimKind::LossyNotified
            if r.reg.notifications != s.puts
                || r.reg.cq_drains != s.puts
                || s.cq_drains != s.puts =>
        {
            fail("notifications, CQ drains and puts disagree")
        }
        SimKind::LossyNotified if s.rel.acks == 0 => fail("reliability plane never acked"),
        _ => Ok(()),
    }
}

/// Path of the stored digests, next to this package's manifest.
fn digest_file() -> Result<String, String> {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/digests.txt");
    std::fs::read_to_string(path).map_err(|e| format!("cannot read digests.txt: {e}"))
}

/// Run, verify, and count one operation; `Some` on success.
fn checked_run(
    kind: SimKind,
    plan: u64,
    profiled: bool,
    spans: &mut Spans,
    report: &mut Report,
    run: u64,
) -> Option<RunRecord> {
    match run_once(kind, plan, profiled, spans, run).and_then(|r| verify(kind, &r).map(|()| r)) {
        Ok(r) => {
            report.check(Ok(()));
            Some(r)
        }
        Err(e) => {
            report.check(Err(e));
            None
        }
    }
}

/// Check a run's deterministic record against the digest stored for
/// `seed`; a mismatch, a missing entry or an unreadable file is a failed
/// operation. Returns the run's digest and whether it matched.
fn check_record(
    kind: SimKind,
    r: &RunRecord,
    seed: u64,
    digests: &Result<String, String>,
    report: &mut Report,
) -> (u64, bool) {
    let got = fnv1a64(r.record(kind).as_bytes());
    let outcome = check_digest(
        digests.as_deref().map_err(Clone::clone),
        kind.name(),
        seed,
        got,
    );
    let ok = outcome.is_ok();
    report.check(outcome);
    (got, ok)
}

/// A timed run: run and verify it, and on a workload that ignores the
/// seed — where every run is a default-seed run — check its record
/// against the stored digest too.
fn timed_run(
    kind: SimKind,
    plan: u64,
    profiled: bool,
    digests: &Result<String, String>,
    spans: &mut Spans,
    report: &mut Report,
    run: u64,
) -> Option<RunRecord> {
    let r = checked_run(kind, plan, profiled, spans, report, run)?;
    if !kind.seeded() {
        check_record(kind, &r, DEFAULT_SEED, digests, report);
    }
    Some(r)
}

/// One setup: the default-seed reference run, checked against its stored
/// digest; it also warms the process up. Returns its host seconds.
fn setup(
    kind: SimKind,
    digests: &Result<String, String>,
    rep: u64,
    spans: &mut Spans,
    report: &mut Report,
) -> f64 {
    let t0 = Instant::now();
    let plan = plan_seed(DEFAULT_SEED, 0);
    if let Some(r) = checked_run(kind, plan, false, spans, report, u64::MAX - rep) {
        let (got, ok) = check_record(kind, &r, DEFAULT_SEED, digests, report);
        if rep == 0 {
            report.notes.push(format!("record {}", r.record(kind)));
            report.notes.push(format!(
                "digest {} {DEFAULT_SEED} {got:016x} {}",
                kind.name(),
                if ok { "ok" } else { "MISMATCH" }
            ));
        }
    }
    t0.elapsed().as_secs_f64()
}

/// The closed loop: [`SETUP_REPS`] segments, each a setup followed by runs
/// until the segment's share of `--seconds` is spent (at least one run).
/// Spreading the setups over the whole measurement lets their median see
/// the same host conditions as the runs. `step(i)` performs run `i`.
/// Returns the setup times and the peak RSS after the first setup — a
/// fixed amount of work, so the figure does not depend on how many runs
/// fit the time budget (allocator fragmentation grows with run count).
fn closed_loop(
    kind: SimKind,
    digests: &Result<String, String>,
    args: &Args,
    spans: &mut Spans,
    report: &mut Report,
    mut step: impl FnMut(u64, &mut Spans, &mut Report),
) -> (Vec<f64>, f64) {
    let segment = Duration::from_secs(args.seconds) / SETUP_REPS as u32;
    let mut setup_s = Vec::new();
    let mut rss_mb = 0.0;
    let mut i = 0;
    for rep in 0..SETUP_REPS {
        setup_s.push(setup(kind, digests, rep as u64, spans, report));
        if rep == 0 {
            rss_mb = peak_rss_mb();
        }
        let deadline = Instant::now() + segment;
        loop {
            step(i, spans, report);
            i += 1;
            if Instant::now() >= deadline {
                break;
            }
        }
    }
    (setup_s, rss_mb)
}

/// Untraced pass: the end-to-end metrics. On a shared host, co-tenant load
/// switches runs between a fast and a slow speed for seconds to minutes at
/// a time, so a pass's median run time follows the share of time spent in
/// each and moved by up to a third between passes of the same code. The
/// slow speed is the one every pass sees, so the gated figures come from
/// the slow tail: the p90 run time and the p10 of per-run event rates. The
/// median is printed too.
pub fn bench(kind: SimKind, args: &Args, spans: &mut Spans, report: &mut Report) {
    let digests = digest_file();
    let mut run_ms = Vec::with_capacity(Spans::RESERVED);
    let mut rate = Vec::with_capacity(Spans::RESERVED);
    let (setup_s, rss_mb) = closed_loop(kind, &digests, args, spans, report, |i, spans, report| {
        let plan = plan_seed(args.seed, i);
        if let Some(r) = timed_run(kind, plan, false, &digests, spans, report, i) {
            run_ms.push(r.drive_ns as f64 / 1e6);
            rate.push(r.stats.events as f64 * 1e9 / r.drive_ns.max(1) as f64);
        }
    });
    let run_ms = sorted(run_ms);
    let n = run_ms.len();
    let at = |v: &[f64], p| nearest_rank(v, p).unwrap_or(0.0);
    report.push("events_per_s", at(&sorted(rate), 10.0), "1/s", n);
    report.push("run_ms_p90", at(&run_ms, 90.0), "ms", n);
    report.push("setup_s", median(&setup_s), "s", setup_s.len());
    report.push("peak_rss_mb", rss_mb, "MiB", 1);
    report.info("run_ms_p50", at(&run_ms, 50.0), "ms", n);
    report.info("peak_rss_mb.exit", peak_rss_mb(), "MiB", 1);
}

/// Sums over the traced runs, reported as per-run means.
#[derive(Default)]
struct Totals {
    runs: u64,
    prof: ProfShard,
    events: u64,
    transfers: u64,
    eager: u64,
    rendezvous: u64,
    rdma_put: u64,
    control: u64,
    puts: u64,
    put_bytes: u64,
    msgs_sent: u64,
    deliveries: u64,
    poll_checks: u64,
    cq_drains: u64,
    cq_overflows: u64,
    msgs_delivered: u64,
    callbacks: u64,
    reductions: u64,
    retries: u64,
    timeouts: u64,
    injected: u64,
}

impl Totals {
    fn add(&mut self, r: &RunRecord) {
        let s = &r.stats;
        self.runs += 1;
        if let Some(p) = &r.prof {
            self.prof.merge(p);
        }
        self.events += s.events;
        self.transfers += s.proto.total().count;
        self.eager += s.proto.eager.count;
        self.rendezvous += s.proto.rendezvous.count;
        self.rdma_put += s.proto.rdma_put.count;
        self.control += s.proto.control.count;
        self.puts += r.reg.puts;
        self.put_bytes += s.put_bytes;
        self.msgs_sent += s.msgs_sent;
        self.deliveries += r.reg.deliveries;
        self.poll_checks += r.reg.poll_checks;
        self.cq_drains += r.reg.cq_drains;
        self.cq_overflows += r.reg.cq_overflows;
        self.msgs_delivered += r.msgs_delivered;
        self.callbacks += r.callbacks;
        self.reductions += s.reductions;
        self.retries += s.rel.retries;
        self.timeouts += s.rel.timeouts;
        self.injected += r.faults_injected;
    }

    /// Per-run mean of a summed counter.
    fn mean(&self, v: u64) -> f64 {
        v as f64 / self.runs.max(1) as f64
    }

    fn phase_ns(&self, p: Phase) -> u64 {
        self.prof.phases[p.index()].total_ns
    }
}

/// Per-run transfer mix of one traced run, for the `NetModel` replay.
fn transfer_mix(pe_proto: &[ProtoBreakdown]) -> Vec<TransferClass> {
    let mut mix = Vec::new();
    for (pe, b) in pe_proto.iter().enumerate() {
        for (c, proto) in [
            (b.eager, Protocol::Eager),
            (b.rendezvous, Protocol::Rendezvous { reg_cached: false }),
            (b.rdma_put, Protocol::RdmaPut),
            (b.dcmf, Protocol::Dcmf),
            (b.control, Protocol::Control),
        ] {
            if let Some(mean) = c.bytes.checked_div(c.count) {
                mix.push(TransferClass {
                    src: Pe(pe as u32),
                    proto,
                    bytes: mean as usize,
                    count: c.count,
                });
            }
        }
    }
    mix
}

/// Lower bound of the log2 bucket holding the median sample.
fn hist_p50(h: &ckd_charm::Hist) -> u64 {
    let half = h.count().div_ceil(2);
    let mut seen = 0;
    for (lo, c) in h.iter_nonempty() {
        seen += c;
        if seen >= half {
            return lo;
        }
    }
    0
}

/// Traced pass: untraced and profiled runs alternate (their ratio is the
/// profiler's overhead), then the layer replays run sized from the
/// profiled runs' counters.
pub fn bench_traced(kind: SimKind, args: &Args, spans: &mut Spans, report: &mut Report) {
    let (mut plain_ms, mut traced_ms, mut build_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut t = Totals::default();
    let mut pe_proto = Vec::new();
    let digests = digest_file();
    closed_loop(kind, &digests, args, spans, report, |i, spans, report| {
        let plan = plan_seed(args.seed, i);
        if let Some(r) = timed_run(kind, plan, false, &digests, spans, report, 2 * i) {
            plain_ms.push(r.drive_ns as f64 / 1e6);
            build_ms.push(r.build_ns as f64 / 1e6);
        }
        // the profiler must not change what is simulated: the profiled
        // run's record is checked against the same digest
        if let Some(r) = timed_run(kind, plan, true, &digests, spans, report, 2 * i + 1) {
            traced_ms.push(r.drive_ns as f64 / 1e6);
            t.add(&r);
            pe_proto = r.pe_proto;
        }
    });
    let n = t.runs as usize;
    let wall_ms = median(&plain_ms);
    let per_run = |v: u64| t.mean(v);

    // ckd-sim
    let depth = hist_p50(&t.prof.queue_depth);
    report.push("sim.events", per_run(t.events), "count", n);
    report.push("sim.queue.depth_p50", depth as f64, "count", n);
    report.push("sim.fault.injected", per_run(t.injected), "count", n);
    // ckd-net
    report.push("net.transfers", per_run(t.transfers), "count", n);
    report.push("net.eager", per_run(t.eager), "count", n);
    report.push("net.rendezvous", per_run(t.rendezvous), "count", n);
    report.push("net.rdma_put", per_run(t.rdma_put), "count", n);
    report.push("net.control", per_run(t.control), "count", n);
    // ckdirect registry
    report.push("core.puts", per_run(t.puts), "count", n);
    report.push("core.deliveries", per_run(t.deliveries), "count", n);
    report.push("core.poll_checks", per_run(t.poll_checks), "count", n);
    report.push("core.cq_drains", per_run(t.cq_drains), "count", n);
    report.push("core.cq_overflows", per_run(t.cq_overflows), "count", n);
    let hit = ratio(t.deliveries, t.poll_checks);
    report.push("core.poll_hit_ratio", hit, "ratio", n);
    // ckd-charm
    report.push("charm.build_ms", median(&build_ms), "ms", build_ms.len());
    report.push(
        "charm.msgs_delivered",
        per_run(t.msgs_delivered),
        "count",
        n,
    );
    report.push("charm.callbacks", per_run(t.callbacks), "count", n);
    report.push("charm.reductions", per_run(t.reductions), "count", n);
    let (sched, poll) = (t.phase_ns(Phase::Sched), t.phase_ns(Phase::Poll));
    let (backend, rel) = (t.phase_ns(Phase::Backend), t.phase_ns(Phase::Rel));
    report.push(
        "charm.phase.sched_self_ns",
        per_run(sched.saturating_sub(poll)),
        "ns",
        n,
    );
    report.push("charm.phase.poll_ns", per_run(poll), "ns", n);
    report.push("charm.phase.backend_ns", per_run(backend), "ns", n);
    report.push("charm.phase.rel_ns", per_run(rel), "ns", n);
    let attributed = sched + backend + rel;
    report.push(
        "charm.phase.unattributed_ns",
        per_run(t.prof.host_ns.saturating_sub(attributed)),
        "ns",
        n,
    );
    report.push("charm.rel.retries", per_run(t.retries), "count", n);
    report.push("charm.rel.timeouts", per_run(t.timeouts), "count", n);
    let retry_ratio = ratio(t.retries, t.puts + t.msgs_sent);
    report.push("charm.rel.retry_ratio", retry_ratio, "ratio", n);
    // ckd-trace
    report.push(
        "trace.prof_overhead_ratio",
        median(&traced_ms) / wall_ms.max(1e-9),
        "ratio",
        n,
    );
    report.notes.push(format!(
        "profiler: {:.3} ms/run in loop: sched(self) {:.3} + poll {:.3} + backend {:.3} + rel {:.3} \
         = {:.3} attributed, {:.3} unattributed; layers {:.3} nested",
        per_run(t.prof.host_ns) / 1e6,
        per_run(sched.saturating_sub(poll)) / 1e6,
        per_run(poll) / 1e6,
        per_run(backend) / 1e6,
        per_run(rel) / 1e6,
        per_run(attributed) / 1e6,
        per_run(t.prof.host_ns.saturating_sub(attributed)) / 1e6,
        per_run(t.phase_ns(Phase::Layers)) / 1e6,
    ));

    // Outside-in replays, sized from the profiled runs' counters.
    let events = per_run(t.events);
    let queue_ns = spans.time("ckd-sim", "replay.event_queue", 0, || {
        replay::queue_push_pop(depth as usize, events as usize)
    });
    let reference = kind.builder(0).build();
    let mix = transfer_mix(&pe_proto);
    let timing_ns = spans.time("ckd-net", "replay.timing", 0, || {
        replay::net_timing(reference.net(), &mix)
    });
    let cfg = reference.backend().direct_config();
    let passes = per_run(t.prof.poll_batch.count());
    let reg = if t.puts == 0 {
        replay::RegistryCosts::default()
    } else {
        let channels =
            (per_run(t.puts) / f64::from(kind.steps()) / kind.npes() as f64).ceil() as usize;
        let bytes = (t.put_bytes / t.puts) as usize;
        let per_pass = (per_run(t.deliveries) / passes.max(1.0)).round() as usize;
        let batch = reference.net().fabric().cq().drain_batch;
        spans.time("ckdirect", "replay.registry", 0, || {
            replay::registry(cfg, channels, bytes, per_pass, batch)
        })
    };
    report.push("sim.queue.push_pop_ns", queue_ns, "ns", 1);
    report.push("net.timing_ns", timing_ns, "ns", 1);
    report.push("core.put_land_ns", reg.put_land_ns, "ns", 1);
    report.push("core.sweep_ns", reg.sweep_ns, "ns", 1);
    report.push("core.cq_drain_ns", reg.cq_drain_ns, "ns", 1);
    let queue_ms = queue_ns * events / 1e6;
    let net_ms = timing_ns * per_run(t.transfers) / 1e6;
    let sweeps = if cfg.backend == DirectBackend::IbPoll {
        passes
    } else {
        0.0
    };
    let core_ms = (reg.put_land_ns * per_run(t.puts)
        + reg.sweep_ns * sweeps
        + reg.cq_drain_ns * per_run(t.cq_drains))
        / 1e6;
    report.push("run.wall_ms", wall_ms, "ms", plain_ms.len());
    report.push(
        "replay.explained_ratio",
        (queue_ms + net_ms + core_ms) / wall_ms.max(1e-9),
        "ratio",
        1,
    );
    report.notes.push(format!(
        "replays vs run wall: queue {queue_ms:.3} + net {net_ms:.3} + registry {core_ms:.3} = {:.3} ms of {wall_ms:.3} ms",
        queue_ms + net_ms + core_ms
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn run(kind: SimKind, plan: u64) -> RunRecord {
        run_once(kind, plan, false, &mut Spans::new(), 0).expect("run completes")
    }

    #[test]
    fn stored_digests_match_and_doctored_runs_fail() {
        let digests = digest_file();
        for kind in [SimKind::HaloMsg, SimKind::PairsCkd, SimKind::LossyNotified] {
            let mut r = run(kind, plan_seed(DEFAULT_SEED, 0));
            assert_eq!(verify(kind, &r), Ok(()));
            let got = fnv1a64(r.record(kind).as_bytes());
            let file = digests.as_deref().map_err(Clone::clone);
            assert_eq!(check_digest(file, kind.name(), DEFAULT_SEED, got), Ok(()));
            r.callbacks += 1;
            assert!(
                verify(kind, &r).is_err(),
                "{}: a lost callback passed",
                kind.name()
            );
        }
    }

    #[test]
    fn a_doctored_timed_run_counts_as_a_failure() {
        let kind = SimKind::PairsCkd;
        let digests = digest_file();
        let mut report = Report::default();
        let r = timed_run(kind, 7, false, &digests, &mut Spans::new(), &mut report, 0)
            .expect("run completes");
        // the run and its digest check are two operations, both good
        assert_eq!((report.attempted, report.failed), (2, 0));
        // a record that differs from the stored one passes `verify` (the
        // counters still reconcile) but not the digest
        let mut doctored = r;
        doctored.stats.events += 1;
        assert_eq!(verify(kind, &doctored), Ok(()));
        let (_, ok) = check_record(kind, &doctored, DEFAULT_SEED, &digests, &mut report);
        assert!(!ok);
        assert_eq!((report.attempted, report.failed), (3, 1));
        // so does a corrupted stored digest, on an untouched run
        let corrupted: Result<String, String> = Ok(digests
            .clone()
            .unwrap()
            .replace("321e87ffee32350a", "321e87ffee32350b"));
        let mut report = Report::default();
        timed_run(
            kind,
            7,
            false,
            &corrupted,
            &mut Spans::new(),
            &mut report,
            0,
        );
        assert_eq!((report.attempted, report.failed), (2, 1));
        assert!(report.fail_ratio() > 0.0);
    }

    #[test]
    fn a_held_out_fault_seed_keeps_every_invariant() {
        let kind = SimKind::LossyNotified;
        let reference = run(kind, plan_seed(DEFAULT_SEED, 0));
        let held_out = run(kind, plan_seed(0xC0FF_EE00_1234, 0));
        assert_eq!(verify(kind, &held_out), Ok(()));
        assert!(held_out.stats.rel.retries > 0);
        assert_ne!(held_out.record(kind), reference.record(kind));
        // the fault-free workloads ignore the seed entirely
        let halo = SimKind::HaloMsg;
        assert_eq!(run(halo, 1).record(halo), run(halo, 2).record(halo));
    }
}
