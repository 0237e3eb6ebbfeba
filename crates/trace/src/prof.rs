//! Host-side self-profiling of the simulator itself.
//!
//! The tracer answers "where does *virtual* time go?"; the profiler
//! answers "where does *host* time go while simulating it?" — the
//! prerequisite for optimizing the scheduler hot path (ROADMAP items 1–2)
//! without guessing. A [`Profiler`] rides next to the `Tracer` inside the
//! machine and follows the same zero-cost discipline: disabled it is one
//! `Option` discriminant check per instrumentation point and the
//! scheduler's unprofiled dispatch loop is not even entered, so a bare
//! machine's golden traces are untouched with the profiler compiled in.
//!
//! Enabled, it collects a [`ProfShard`]:
//!
//! * wall-clock [`PhaseStat`]s per scheduler [`Phase`] (`Instant`-based,
//!   host-dependent, excluded from determinism comparisons);
//! * three deterministic [`Hist`]ograms derived from virtual time and
//!   counters — put issue→callback latency, poll batch size, and
//!   event-queue depth;
//! * a [`SnapshotStream`] of periodic JSONL metric samples keyed by
//!   virtual time (see [`crate::snapshot`]).
//!
//! Shards merge ([`ProfShard::merge`]), so a parallel sweep can aggregate
//! per-worker profiles into one machine-wide report.

use std::collections::BTreeMap;
use std::time::Instant;

use ckd_sim::Time;

use crate::hist::Hist;
use crate::snapshot::{Snapshot, SnapshotStream};

/// Where the simulator spends host time, one bucket per scheduler
/// concern. `Sched`, `Backend`, and `Rel` partition event dispatch by
/// event kind; `Poll` and `Layers` are *nested* sub-spans (the poll sweep
/// runs inside a scheduler iteration, the layer fan-out inside every
/// handler), so their totals overlap the dispatch phases rather than
/// summing with them. `Queue` is the event-queue pop before each
/// dispatch plus the profiler's per-event bookkeeping, disjoint from the
/// dispatch phases (pushes happen inside a handler and count toward its
/// phase).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Phase {
    /// Scheduler dispatch: message arrivals, PE loop iterations,
    /// reductions, and broadcasts.
    Sched,
    /// CkDirect poll sweeps (nested inside `Sched` PE loops).
    Poll,
    /// Completion-backend work: put/get landings driving the registry.
    Backend,
    /// Reliable-delivery events: fault-plane deliveries, acks, timers.
    Rel,
    /// Runtime-layer-stack fan-out (nested inside the other phases).
    Layers,
    /// Event-queue pops, timed between dispatches.
    Queue,
}

impl Phase {
    /// Number of phases.
    pub const COUNT: usize = 6;
    /// Every phase, in display order.
    pub const ALL: [Phase; Phase::COUNT] = [
        Phase::Sched,
        Phase::Poll,
        Phase::Backend,
        Phase::Rel,
        Phase::Layers,
        Phase::Queue,
    ];

    /// Table label.
    pub fn label(self) -> &'static str {
        match self {
            Phase::Sched => "sched",
            Phase::Poll => "poll",
            Phase::Backend => "backend",
            Phase::Rel => "rel",
            Phase::Layers => "layers",
            Phase::Queue => "queue",
        }
    }

    /// Index into a `[_; Phase::COUNT]` table.
    pub fn index(self) -> usize {
        match self {
            Phase::Sched => 0,
            Phase::Poll => 1,
            Phase::Backend => 2,
            Phase::Rel => 3,
            Phase::Layers => 4,
            Phase::Queue => 5,
        }
    }
}

/// Wall-clock accumulator for one [`Phase`]. Host-dependent by nature:
/// never compared in determinism tests, only merged and reported.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PhaseStat {
    /// Spans recorded.
    pub count: u64,
    /// Total wall time, nanoseconds.
    pub total_ns: u64,
    /// Longest single span, nanoseconds.
    pub max_ns: u64,
}

impl PhaseStat {
    fn add(&mut self, ns: u64) {
        self.count += 1;
        self.total_ns += ns;
        self.max_ns = self.max_ns.max(ns);
    }

    fn merge(&mut self, other: &PhaseStat) {
        self.count += other.count;
        self.total_ns += other.total_ns;
        self.max_ns = self.max_ns.max(other.max_ns);
    }
}

/// One worker's (or one machine's) complete profile. The three histograms
/// plus `events`/`puts` are derived from virtual time and deterministic
/// counters — byte-identical across runs and worker counts; the phase
/// table and `host_ns` are wall-clock and vary with the host.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ProfShard {
    /// Wall-clock phase table (host-dependent).
    pub phases: [PhaseStat; Phase::COUNT],
    /// Put issue→callback latency in nanoseconds of *virtual* time
    /// (deterministic).
    pub put_lat_ns: Hist,
    /// Handles checked per poll sweep (deterministic).
    pub poll_batch: Hist,
    /// Event-queue depth sampled after each pop (deterministic).
    pub queue_depth: Hist,
    /// Scheduler events dispatched under profiling (deterministic).
    pub events: u64,
    /// One-sided puts issued under profiling (deterministic).
    pub puts: u64,
    /// Total wall time spent in profiled dispatch loops, nanoseconds
    /// (host-dependent).
    pub host_ns: u64,
}

impl ProfShard {
    /// Fold another shard into this one (sweep aggregation).
    pub fn merge(&mut self, other: &ProfShard) {
        for (p, o) in self.phases.iter_mut().zip(&other.phases) {
            p.merge(o);
        }
        self.put_lat_ns.merge(&other.put_lat_ns);
        self.poll_batch.merge(&other.poll_batch);
        self.queue_depth.merge(&other.queue_depth);
        self.events += other.events;
        self.puts += other.puts;
        self.host_ns += other.host_ns;
    }

    /// Host events/second over the profiled dispatch loops (0.0 before
    /// any wall time was recorded).
    pub fn events_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.events as f64 * 1e9 / self.host_ns as f64
        }
    }

    /// Host puts/second over the profiled dispatch loops.
    pub fn puts_per_sec(&self) -> f64 {
        if self.host_ns == 0 {
            0.0
        } else {
            self.puts as f64 * 1e9 / self.host_ns as f64
        }
    }

    /// The full profile report: phase table, throughput line, and the
    /// three histograms. Wall-clock numbers vary by host; the histogram
    /// sections are deterministic.
    pub fn render(&self) -> String {
        let mut out = String::new();
        out.push_str(&format!(
            "{:<10} {:>12} {:>14} {:>12} {:>12}\n",
            "phase", "spans", "total ms", "avg us", "max us"
        ));
        for ph in Phase::ALL {
            let s = &self.phases[ph.index()];
            let avg_us = if s.count == 0 {
                0.0
            } else {
                s.total_ns as f64 / s.count as f64 / 1e3
            };
            out.push_str(&format!(
                "{:<10} {:>12} {:>14.3} {:>12.3} {:>12.3}\n",
                ph.label(),
                s.count,
                s.total_ns as f64 / 1e6,
                avg_us,
                s.max_ns as f64 / 1e3
            ));
        }
        out.push_str(
            "(poll and layers are nested spans; they overlap the dispatch phases; \
             queue is the pop before each dispatch)\n",
        );
        out.push_str(&format!(
            "throughput: {:.0} events/s, {:.0} puts/s \
             ({} events, {} puts, {:.3} ms host)\n",
            self.events_per_sec(),
            self.puts_per_sec(),
            self.events,
            self.puts,
            self.host_ns as f64 / 1e6
        ));
        out.push_str("\nput issue->callback latency (virtual ns):\n");
        out.push_str(&self.put_lat_ns.render("ns"));
        out.push_str("\npoll batch size (handles checked per sweep):\n");
        out.push_str(&self.poll_batch.render("handles"));
        out.push_str("\nevent-queue depth (sampled per dispatch):\n");
        out.push_str(&self.queue_depth.render("events"));
        out
    }
}

/// Profiling configuration.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct ProfConfig {
    /// Emit one JSONL snapshot every this many scheduler events
    /// (0 disables snapshots but keeps the phase/histogram profile).
    pub snapshot_every: u64,
}

impl Default for ProfConfig {
    fn default() -> Self {
        ProfConfig {
            snapshot_every: 1024,
        }
    }
}

/// Everything an enabled profiler owns; boxed so the disabled state stays
/// one word inside the machine.
#[derive(Debug)]
struct ProfInner {
    cfg: ProfConfig,
    shard: ProfShard,
    snaps: SnapshotStream,
    /// Put issue times awaiting their callback, keyed by handle.
    outstanding: BTreeMap<u32, Time>,
}

/// Zero-cost-when-disabled self-profiling handle, the host-time sibling
/// of the `Tracer`.
#[derive(Debug, Default)]
pub struct Profiler {
    inner: Option<Box<ProfInner>>,
}

impl Profiler {
    /// A profiler that records nothing and costs one branch per call.
    pub fn disabled() -> Profiler {
        Profiler { inner: None }
    }

    /// An enabled profiler.
    pub fn enabled(cfg: ProfConfig) -> Profiler {
        Profiler {
            inner: Some(Box::new(ProfInner {
                cfg,
                shard: ProfShard::default(),
                snaps: SnapshotStream::new(),
                outstanding: BTreeMap::new(),
            })),
        }
    }

    /// True when the profiler is collecting.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The collected profile, when enabled.
    pub fn shard(&self) -> Option<&ProfShard> {
        self.inner.as_ref().map(|i| &i.shard)
    }

    /// The snapshot stream as JSONL, when enabled.
    pub fn snapshots_jsonl(&self) -> Option<&str> {
        self.inner.as_ref().map(|i| i.snaps.as_jsonl())
    }

    /// Snapshot cadence in events, when enabled and non-zero.
    pub fn snapshot_every(&self) -> Option<u64> {
        self.inner
            .as_ref()
            .map(|i| i.cfg.snapshot_every)
            .filter(|&n| n > 0)
    }

    /// Start a wall-clock span (None when disabled, so the disabled path
    /// never reads the host clock).
    #[inline]
    pub fn begin(&self) -> Option<Instant> {
        self.inner.as_ref().map(|_| Instant::now())
    }

    /// Close a wall-clock span opened by [`Profiler::begin`].
    #[inline]
    pub fn end(&mut self, phase: Phase, t0: Option<Instant>) {
        if let (Some(inner), Some(t0)) = (self.inner.as_deref_mut(), t0) {
            inner.shard.phases[phase.index()].add(t0.elapsed().as_nanos() as u64);
        }
    }

    /// Close the span that began at `mark` under `phase` and begin the
    /// next one at the same instant, so back-to-back spans (a pop, then
    /// its dispatch, then the next pop) cost one clock read each instead
    /// of two and tile the loop without gaps.
    #[inline]
    pub fn lap(&mut self, phase: Phase, mark: &mut Option<Instant>) {
        if let (Some(inner), Some(t0)) = (self.inner.as_deref_mut(), mark.as_mut()) {
            let now = Instant::now();
            inner.shard.phases[phase.index()].add(now.duration_since(*t0).as_nanos() as u64);
            *t0 = now;
        }
    }

    /// One scheduler event was dispatched; `queue_depth` is the event
    /// queue's length after the pop (deterministic).
    #[inline]
    pub fn event_dispatched(&mut self, queue_depth: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.events += 1;
            inner.shard.queue_depth.record(queue_depth);
        }
    }

    /// A put was issued at virtual time `at`; starts the issue→callback
    /// clock and counts toward puts/sec.
    #[inline]
    pub fn put_issued(&mut self, handle: u32, at: Time) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.puts += 1;
            inner.outstanding.insert(handle, at);
        }
    }

    /// The completion callback for `handle` fired at virtual time `at`;
    /// closes the issue→callback clock if a matching issue was seen.
    #[inline]
    pub fn callback_fired(&mut self, handle: u32, at: Time) {
        if let Some(inner) = self.inner.as_deref_mut() {
            if let Some(issued) = inner.outstanding.remove(&handle) {
                inner
                    .shard
                    .put_lat_ns
                    .record(at.saturating_sub(issued).as_ps() / 1_000);
            }
        }
    }

    /// One poll sweep checked `checked` handles.
    #[inline]
    pub fn poll_batch(&mut self, checked: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.poll_batch.record(checked);
        }
    }

    /// Accumulate wall time of one profiled dispatch loop.
    #[inline]
    pub fn add_host_ns(&mut self, ns: u64) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.shard.host_ns += ns;
        }
    }

    /// Append one periodic metric snapshot.
    #[inline]
    pub fn record_snapshot(&mut self, snap: &Snapshot) {
        if let Some(inner) = self.inner.as_deref_mut() {
            inner.snaps.push(snap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_profiler_records_nothing() {
        let mut p = Profiler::disabled();
        assert!(p.begin().is_none());
        p.end(Phase::Sched, None);
        p.lap(Phase::Queue, &mut None);
        p.event_dispatched(4);
        p.put_issued(3, Time::from_us(1));
        p.callback_fired(3, Time::from_us(2));
        p.poll_batch(7);
        p.record_snapshot(&Snapshot::default());
        assert!(!p.is_enabled());
        assert!(p.shard().is_none());
        assert!(p.snapshots_jsonl().is_none());
        assert!(p.snapshot_every().is_none());
    }

    #[test]
    fn put_latency_uses_virtual_time() {
        let mut p = Profiler::enabled(ProfConfig::default());
        p.put_issued(5, Time::from_us(10));
        p.callback_fired(5, Time::from_us(15));
        // a callback with no matching issue is harmless
        p.callback_fired(42, Time::from_us(16));
        let s = p.shard().unwrap();
        assert_eq!(s.puts, 1);
        assert_eq!(s.put_lat_ns.count(), 1);
        // 5 µs = 5000 ns, bucket [4096, 8192)
        assert_eq!(Hist::bucket_for(5_000), 13);
        assert_eq!(s.put_lat_ns.sum(), 5_000);
    }

    #[test]
    fn phase_spans_accumulate() {
        let mut p = Profiler::enabled(ProfConfig { snapshot_every: 0 });
        let t0 = p.begin();
        assert!(t0.is_some());
        p.end(Phase::Poll, t0);
        p.end(Phase::Poll, p.begin());
        let mut mark = p.begin();
        p.lap(Phase::Queue, &mut mark);
        p.lap(Phase::Backend, &mut mark);
        let s = p.shard().unwrap();
        assert_eq!(s.phases[Phase::Poll.index()].count, 2);
        assert_eq!(s.phases[Phase::Queue.index()].count, 1);
        assert_eq!(s.phases[Phase::Sched.index()].count, 0);
        assert!(p.snapshot_every().is_none(), "0 cadence disables snapshots");
    }

    #[test]
    fn shards_merge_and_render() {
        let mut a = Profiler::enabled(ProfConfig::default());
        let mut b = Profiler::enabled(ProfConfig::default());
        a.event_dispatched(2);
        a.poll_batch(3);
        b.event_dispatched(9);
        b.put_issued(1, Time::from_us(1));
        b.callback_fired(1, Time::from_us(3));
        let mut merged = a.shard().unwrap().clone();
        merged.merge(b.shard().unwrap());
        assert_eq!(merged.events, 2);
        assert_eq!(merged.puts, 1);
        assert_eq!(merged.queue_depth.count(), 2);
        let report = merged.render();
        assert!(report.contains("sched"));
        assert!(report.contains("poll batch size"));
        assert!(report.contains("1 puts"));
    }
}
