//! The reliable-delivery layer: what survives the fault plane.
//!
//! When faults are enabled ([`crate::MachineBuilder::with_faults`]), every
//! remote message and every CkDirect put passes through this layer instead
//! of being scheduled directly:
//!
//! * the sender records a **pending entry** (the delivery event, its link,
//!   its sequence number) and submits the packet to the
//!   [`FaultPlan`](ckd_sim::FaultPlan), which may deliver, drop, corrupt,
//!   duplicate, or delay it;
//! * the receiver acks every intact arrival (acks traverse the fault plane
//!   too), dedups by sequence number — [`ckd_net::LinkSeqs`] for messages,
//!   [`DirectRegistry::accept_landing`](ckdirect::DirectRegistry::accept_landing)
//!   for puts — and detects corruption (link CRC for messages, the per-put
//!   CRC folded into the sentinel word for one-sided puts), discarding the
//!   damaged landing so the channel stays armed for the retransmission;
//! * an unacked packet's timer fires with exponential backoff
//!   ([`ckd_net::RetryPolicy`]) and the sender retransmits — *without*
//!   re-running the application-visible issue path, so a put is counted
//!   once in `MachineStats::puts` no matter how many times it crosses the
//!   wire, and the race sanitizer's lifecycle probe never sees a double
//!   `PutIssued`;
//! * a channel whose puts keep needing retransmission degrades to
//!   rendezvous-style timing (`PutOutcome::Degraded`), the reproduction's
//!   stand-in for tearing down a flaky RDMA path and falling back to the
//!   default two-sided protocol.
//!
//! With faults never enabled the machine holds `rel: None` and every hook
//! is one branch — runs are bit-identical to the pre-fault-plane runtime.

use std::collections::{BTreeMap, BTreeSet};

use ckd_net::{LinkSeqs, RetryPolicy};
use ckd_sim::{FaultAction, FaultOp, FaultPlan, Time};
use ckd_topo::Pe;
use ckdirect::HandleId;

use crate::machine::{Ev, Machine};

/// One unacked packet, owned by the (conceptual) sender NIC.
pub(crate) struct Pending {
    /// The delivery event to (re)schedule; replayed verbatim on retransmit.
    pub ev: Ev,
    /// Directed link `(from, to)` the packet travels.
    pub link: (u32, u32),
    /// Sequence number on the wire (per-link for messages, per-channel for
    /// puts).
    pub seq: u64,
    /// Transmission attempt counter (0 = original send).
    pub attempt: u32,
    /// Wire delay of one transmission (constant per packet; re-used by
    /// retransmissions).
    pub wire_delay: Time,
    /// What the fault plane sees this packet as (message or put).
    pub kind: FaultOp,
    /// The channel, when this packet is a one-sided put.
    pub handle: Option<HandleId>,
}

/// All reliability state of a machine with fault injection enabled.
pub(crate) struct ReliableLayer {
    /// The fault schedule packets are submitted to.
    pub plan: FaultPlan,
    /// Retransmission backoff policy.
    pub policy: RetryPolicy,
    /// Cumulative retransmits on one channel before it degrades to
    /// rendezvous timing. `u32::MAX` disables degradation.
    pub degrade_after: u32,
    /// Unacked packets by token.
    pub pending: BTreeMap<u64, Pending>,
    /// Next packet token.
    pub next_token: u64,
    /// Message-path sequence numbers + receiver dedup.
    pub seqs: LinkSeqs,
    /// Cumulative retransmits per channel handle.
    pub handle_retries: BTreeMap<u32, u32>,
    /// Channels degraded to rendezvous timing.
    pub degraded: BTreeSet<u32>,
}

impl ReliableLayer {
    pub(crate) fn new(plan: FaultPlan, policy: RetryPolicy, degrade_after: u32) -> ReliableLayer {
        ReliableLayer {
            plan,
            policy,
            degrade_after,
            pending: BTreeMap::new(),
            next_token: 0,
            seqs: LinkSeqs::new(),
            handle_retries: BTreeMap::new(),
            degraded: BTreeSet::new(),
        }
    }

    /// Cumulative retransmits charged to `handle` so far.
    pub(crate) fn retries_of(&self, handle: HandleId) -> u32 {
        self.handle_retries.get(&handle.0).copied().unwrap_or(0)
    }

    /// Whether `handle` has degraded to rendezvous timing.
    pub(crate) fn is_degraded(&self, handle: HandleId) -> bool {
        self.degraded.contains(&handle.0)
    }
}

// ---- the machine's wire path through the fault plane -----------------------
//
// These run *below* the runtime-layer seams: acks and timers charge no PE
// time and no layer observes them (the tracer's drop/retry records are NIC
// telemetry, emitted here directly).

impl Machine {
    /// Schedule a remote delivery event, routing it through the fault plane
    /// when faults are enabled. `begin` is the issue instant on the sender
    /// and `delay` the one-way wire latency: an unfaulted packet delivers at
    /// `begin + delay`, bit-identically to a direct `events.push` — which is
    /// exactly what happens when faults are off or the traffic never crosses
    /// the fabric (same-PE links). `put` carries `(handle, put_seq)` so
    /// duplicated one-sided puts can be replayed idempotently.
    pub(crate) fn rel_push(
        &mut self,
        begin: Time,
        delay: Time,
        link: (u32, u32),
        kind: FaultOp,
        put: Option<(HandleId, u64)>,
        ev: Ev,
    ) {
        if self.stack.rel.is_none() || link.0 == link.1 {
            self.push_ev(begin + delay, ev);
            return;
        }
        let rel = self.stack.rel.as_mut().expect("checked above");
        let token = rel.next_token;
        rel.next_token += 1;
        let seq = match put {
            Some((_, s)) => s,
            None => rel.seqs.alloc(link),
        };
        rel.pending.insert(
            token,
            Pending {
                ev,
                link,
                seq,
                attempt: 0,
                wire_delay: delay,
                kind,
                handle: put.map(|(h, _)| h),
            },
        );
        self.rel_transmit(token, begin);
    }

    /// Submit pending packet `token` to the fault plane at `at`, schedule
    /// the consequences, and arm its retransmission timer.
    fn rel_transmit(&mut self, token: u64, at: Time) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let Some(p) = rel.pending.get(&token) else {
            return; // acked in the meantime
        };
        let (link, kind, seq, wire_delay, attempt) =
            (p.link, p.kind, p.seq, p.wire_delay, p.attempt);
        let ev = p.ev.clone();
        let action = rel.plan.decide(at, link, kind);
        let timeout = rel.policy.timeout(attempt);
        let mk = |inner: Ev, corrupted: bool| Ev::RelDeliver {
            token,
            link,
            seq,
            kind,
            corrupted,
            inner: Box::new(inner),
        };
        match action {
            FaultAction::Deliver => self.push_ev(at + wire_delay, mk(ev, false)),
            FaultAction::Drop => {
                self.stats.rel.drops_injected += 1;
                self.stack.tracer.rel_drop(link.0 as usize, at, link.1);
            }
            FaultAction::Corrupt => {
                self.stats.rel.corrupts_injected += 1;
                self.push_ev(at + wire_delay, mk(ev, true));
            }
            FaultAction::Duplicate { extra } => {
                self.stats.rel.dups_injected += 1;
                self.push_ev(at + wire_delay, mk(ev.clone(), false));
                self.push_ev(at + wire_delay + extra, mk(ev, false));
            }
            FaultAction::Delay { extra } => {
                self.stats.rel.delays_injected += 1;
                self.push_ev(at + wire_delay + extra, mk(ev, false));
            }
        }
        self.push_ev(at + timeout, Ev::RelTimer { token, attempt });
    }

    /// A reliable packet arrived: verify, dedup, ack, and (when fresh and
    /// intact) dispatch the real delivery event at this very instant.
    pub(crate) fn rel_deliver(
        &mut self,
        token: u64,
        link: (u32, u32),
        seq: u64,
        kind: FaultOp,
        corrupted: bool,
        inner: Ev,
    ) {
        if corrupted {
            // Receiver-side detection — the NIC's link CRC for messages,
            // the per-put CRC folded into the sentinel word for one-sided
            // puts. The damaged landing is discarded (for a put, the
            // sentinel stays armed), no ack is sent, and the sender's
            // timer will retransmit.
            self.stats.rel.corrupt_detected += 1;
            if kind == FaultOp::Put {
                if let Ev::DirectLand { handle, .. } = &inner {
                    self.direct
                        .corrupt_landing(*handle, seq)
                        .expect("live channel");
                }
            }
            return;
        }
        let fresh = match kind {
            FaultOp::Put => {
                if let Ev::DirectLand { handle, .. } = &inner {
                    self.direct
                        .accept_landing(*handle, seq)
                        .expect("live channel")
                } else {
                    true
                }
            }
            _ => self
                .stack
                .rel
                .as_mut()
                .expect("rel enabled")
                .seqs
                .accept(link, seq),
        };
        // Ack every intact arrival — a duplicate re-acks, in case the
        // original ack was the packet that died.
        self.rel_send_ack(token, link);
        if fresh {
            self.dispatch(inner);
        } else {
            self.stats.rel.dups_suppressed += 1;
        }
    }

    /// Emit the reliability ack for `token` back across the fault plane.
    /// Acks are NIC-level protocol: they charge no PE time, carry no trace
    /// record, and are invisible to the scheduler — only their loss has a
    /// consequence (a spurious retransmission, suppressed by seqno dedup).
    fn rel_send_ack(&mut self, token: u64, link: (u32, u32)) {
        let t = self.net.control(Pe(link.1), Pe(link.0));
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        match rel.plan.decide(self.now, (link.1, link.0), FaultOp::Ack) {
            FaultAction::Deliver => self.push_ev(self.now + t.delay, Ev::RelAck { token }),
            FaultAction::Drop | FaultAction::Corrupt => {
                // a corrupted ack fails its CRC at the sender NIC — lost
                // either way
                self.stats.rel.acks_lost += 1;
            }
            FaultAction::Duplicate { extra } => {
                self.push_ev(self.now + t.delay, Ev::RelAck { token });
                self.push_ev(self.now + t.delay + extra, Ev::RelAck { token });
            }
            FaultAction::Delay { extra } => {
                self.push_ev(self.now + t.delay + extra, Ev::RelAck { token });
            }
        }
    }

    /// An ack reached the sender: retire the pending packet. A stale ack
    /// (duplicate, or late after retransmission already re-acked) is a
    /// no-op.
    pub(crate) fn rel_ack(&mut self, token: u64) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        if rel.pending.remove(&token).is_some() {
            self.stats.rel.acks += 1;
        }
    }

    /// Retransmission timer fired: if the packet is still pending at this
    /// exact attempt, resend it with exponentially backed-off timeout.
    /// Retries are unbounded — a probabilistic plan delivers eventually
    /// (with probability 1), explicit triggers are one-shot, and stall
    /// windows end.
    pub(crate) fn rel_timer(&mut self, token: u64, attempt: u32) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let Some(p) = rel.pending.get_mut(&token) else {
            return; // acked: the common case for every timer of a clean run
        };
        if p.attempt != attempt {
            return; // a newer transmission owns the live timer
        }
        p.attempt += 1;
        let next_attempt = p.attempt;
        let handle = p.handle;
        let sender = p.link.0;
        self.stats.rel.timeouts += 1;
        self.stats.rel.retries += 1;
        if let Some(h) = handle {
            // degradation bookkeeping: after `degrade_after` cumulative
            // retransmits, this channel's future puts pay rendezvous timing
            let r = rel.handle_retries.entry(h.0).or_insert(0);
            *r += 1;
            if *r >= rel.degrade_after && rel.degraded.insert(h.0) {
                self.stats.rel.degraded_channels += 1;
            }
        }
        let backoff = rel.policy.timeout(next_attempt);
        self.stack
            .tracer
            .rel_retry(sender as usize, self.now, next_attempt, backoff);
        self.rel_transmit(token, self.now);
    }
}
