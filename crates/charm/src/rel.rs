//! The reliable-delivery layer: what survives the fault plane.
//!
//! When faults are enabled ([`crate::MachineBuilder::with_faults`]), every
//! remote message and every CkDirect put passes through this layer instead
//! of being scheduled directly:
//!
//! * the sender records a **pending entry** (the delivery event, its link,
//!   its sequence number) in a token-indexed ring and submits the packet
//!   to the [`FaultPlan`](ckd_sim::FaultPlan), which may deliver, drop,
//!   corrupt, duplicate, or delay it. Packets on the wire carry only the
//!   header (token, link, seq, channel); the delivery event stays with
//!   the sender's entry until the first intact copy arrives;
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

use std::collections::{BTreeMap, BTreeSet, VecDeque};

use ckd_net::{LinkSeqs, RetryPolicy};
use ckd_sim::{FaultAction, FaultOp, FaultPlan, Time};
use ckd_topo::Pe;
use ckdirect::HandleId;

use crate::machine::{Ev, Machine};

/// One unacked packet, owned by the (conceptual) sender NIC.
pub(crate) struct Pending {
    /// The delivery event, dispatched when the first intact copy arrives
    /// (and taken out then: every later copy is a duplicate).
    pub ev: Option<Ev>,
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
    /// Unacked packets, indexed by `token - base`. Tokens are issued in
    /// order, so a new packet appends at the back; an ack empties its slot
    /// and the empty slots at the front are popped. The ring spans the
    /// oldest unacked packet to the newest, and is empty at quiescence.
    pending: VecDeque<Option<Pending>>,
    /// Token of `pending[0]`.
    base: u64,
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
            pending: VecDeque::new(),
            base: 0,
            seqs: LinkSeqs::new(),
            handle_retries: BTreeMap::new(),
            degraded: BTreeSet::new(),
        }
    }

    /// Record a new unacked packet; returns its token.
    fn issue(&mut self, p: Pending) -> u64 {
        let token = self.base + self.pending.len() as u64;
        self.pending.push_back(Some(p));
        token
    }

    /// The ring slot of `token`; `None` below the front or past the back.
    fn slot(&mut self, token: u64) -> Option<&mut Option<Pending>> {
        let i = usize::try_from(token.checked_sub(self.base)?).ok()?;
        self.pending.get_mut(i)
    }

    /// The pending packet `token`; `None` once it has been acked.
    fn get_mut(&mut self, token: u64) -> Option<&mut Pending> {
        self.slot(token)?.as_mut()
    }

    /// Retire packet `token`, popping the acked slots off the front of the
    /// ring. `false` when it was already retired (a stale ack).
    fn retire(&mut self, token: u64) -> bool {
        if self.slot(token).and_then(Option::take).is_none() {
            return false;
        }
        while matches!(self.pending.front(), Some(None)) {
            self.pending.pop_front();
            self.base += 1;
        }
        true
    }

    /// Slots in the ring: from the oldest unacked packet to the newest.
    pub(crate) fn pending_len(&self) -> usize {
        self.pending.len()
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
        let seq = match put {
            Some((_, s)) => s,
            None => rel.seqs.alloc(link),
        };
        let token = rel.issue(Pending {
            ev: Some(ev),
            link,
            seq,
            attempt: 0,
            wire_delay: delay,
            kind,
            handle: put.map(|(h, _)| h),
        });
        self.rel_transmit(token, begin);
    }

    /// Submit pending packet `token` to the fault plane at `at`, schedule
    /// the consequences, and arm its retransmission timer.
    fn rel_transmit(&mut self, token: u64, at: Time) {
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let Some(p) = rel.get_mut(token) else {
            return; // acked in the meantime
        };
        let (link, kind, seq, wire_delay, attempt, handle) =
            (p.link, p.kind, p.seq, p.wire_delay, p.attempt, p.handle);
        let action = rel.plan.decide(at, link, kind);
        let timeout = rel.policy.timeout(attempt);
        let mk = |corrupted: bool| Ev::RelDeliver {
            token,
            link,
            seq,
            corrupted,
            handle,
        };
        match action {
            FaultAction::Deliver => self.push_ev(at + wire_delay, mk(false)),
            FaultAction::Drop => {
                self.stats.rel.drops_injected += 1;
                self.stack.tracer.rel_drop(link.0 as usize, at, link.1);
            }
            FaultAction::Corrupt => {
                self.stats.rel.corrupts_injected += 1;
                self.push_ev(at + wire_delay, mk(true));
            }
            FaultAction::Duplicate { extra } => {
                self.stats.rel.dups_injected += 1;
                self.push_ev(at + wire_delay, mk(false));
                self.push_ev(at + wire_delay + extra, mk(false));
            }
            FaultAction::Delay { extra } => {
                self.stats.rel.delays_injected += 1;
                self.push_ev(at + wire_delay + extra, mk(false));
            }
        }
        self.push_ev(at + timeout, Ev::RelTimer { token, attempt });
    }

    /// A reliable packet arrived: verify, dedup, ack, and (when fresh and
    /// intact) dispatch the real delivery event at this very instant.
    /// `handle` is the channel of a one-sided put (`Some` iff the packet is
    /// a [`FaultOp::Put`]).
    pub(crate) fn rel_deliver(
        &mut self,
        token: u64,
        link: (u32, u32),
        seq: u64,
        corrupted: bool,
        handle: Option<HandleId>,
    ) {
        if corrupted {
            // Receiver-side detection — the NIC's link CRC for messages,
            // the per-put CRC folded into the sentinel word for one-sided
            // puts. The damaged landing is discarded (for a put, the
            // sentinel stays armed), no ack is sent, and the sender's
            // timer will retransmit.
            self.stats.rel.corrupt_detected += 1;
            if let Some(h) = handle {
                self.direct.corrupt_landing(h, seq).expect("live channel");
            }
            return;
        }
        let rel = self.stack.rel.as_mut().expect("rel enabled");
        let fresh = match handle {
            Some(h) => self.direct.accept_landing(h, seq).expect("live channel"),
            None => rel.seqs.accept(link, seq),
        };
        // A fresh arrival is the first intact copy: no ack has been sent
        // for the packet yet, so its pending entry still holds the event.
        let ev = fresh.then(|| {
            rel.get_mut(token)
                .and_then(|p| p.ev.take())
                .expect("a fresh arrival's packet is unacked")
        });
        // Ack every intact arrival — a duplicate re-acks, in case the
        // original ack was the packet that died.
        self.rel_send_ack(token, link);
        match ev {
            Some(ev) => self.dispatch(ev),
            None => self.stats.rel.dups_suppressed += 1,
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
        if rel.retire(token) {
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
        let Some(p) = rel.get_mut(token) else {
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

#[cfg(test)]
mod tests {
    use ckd_net::{presets, RetryPolicy};
    use ckd_sim::{FaultKind, FaultOp, FaultPlan, Time};
    use ckd_topo::{Machine as Topo, Pe};

    use super::{Pending, ReliableLayer};
    use crate::machine::{Ev, Machine};

    fn layer() -> ReliableLayer {
        ReliableLayer::new(FaultPlan::new(0), RetryPolicy::default(), u32::MAX)
    }

    fn packet() -> Pending {
        Pending {
            ev: Some(Ev::PeLoop { pe: Pe(1) }),
            link: (0, 1),
            seq: 1,
            attempt: 0,
            wire_delay: Time::ZERO,
            kind: FaultOp::Msg,
            handle: None,
        }
    }

    /// Two PEs with the reliability plane on under `plan`.
    fn machine(plan: FaultPlan) -> Machine {
        Machine::builder(presets::ib_abe(Topo::ib_cluster(2, 1)))
            .with_faults(plan)
            .build()
    }

    /// One reliable message packet 0 → 1 whose delivery is a scheduler
    /// iteration on PE 1. Tokens are issued 0, 1, 2, … in call order.
    fn send(m: &mut Machine) {
        let ev = Ev::PeLoop { pe: Pe(1) };
        m.rel_push(m.now(), Time::from_us(1), (0, 1), FaultOp::Msg, None, ev);
    }

    #[test]
    fn out_of_order_acks_pop_the_front_only() {
        let mut rel = layer();
        let tokens: Vec<u64> = (0..4).map(|_| rel.issue(packet())).collect();
        assert_eq!(tokens, [0, 1, 2, 3]);
        assert!(rel.retire(2));
        assert!(rel.get_mut(2).is_none());
        assert_eq!(rel.pending_len(), 4, "a hole keeps the ring's span");
        assert!(rel.retire(0));
        assert_eq!(rel.pending_len(), 3, "the front pops up to live token 1");
        assert!(rel.retire(3));
        assert_eq!(rel.pending_len(), 3);
        assert!(rel.retire(1));
        assert_eq!(rel.pending_len(), 0, "every token acked: empty");
        assert_eq!(rel.issue(packet()), 4, "tokens keep counting");
    }

    #[test]
    fn retired_and_unissued_tokens_are_no_ops() {
        let mut rel = layer();
        let a = rel.issue(packet());
        let b = rel.issue(packet());
        assert!(rel.retire(a));
        assert!(!rel.retire(a), "below the front");
        assert!(!rel.retire(b + 1), "past the back");
        assert!(rel.get_mut(a).is_none());
        assert!(rel.get_mut(b + 1).is_none());
        assert!(rel.get_mut(b).is_some());
        assert_eq!(rel.pending_len(), 1);
    }

    #[test]
    fn oldest_unacked_packet_pins_the_ring_until_its_retransmission() {
        // token 0 is dropped; tokens 1 and 2 are acked first
        let plan =
            FaultPlan::new(1).with_trigger(Time::ZERO, None, Some(FaultOp::Msg), FaultKind::Drop);
        let mut m = machine(plan);
        for _ in 0..3 {
            send(&mut m);
        }
        m.run_until(Time::from_us(50));
        assert_eq!(m.stats().rel.acks, 2);
        assert_eq!(m.rel_pending_len(), 3);
        m.run();
        let rel = m.stats().rel;
        assert_eq!((rel.retries, rel.acks), (1, 3));
        assert_eq!(m.rel_pending_len(), 0, "empty at quiescence");
    }

    #[test]
    fn ack_or_timer_for_a_retired_token_changes_nothing() {
        let mut m = machine(FaultPlan::new(1));
        send(&mut m);
        m.run();
        assert_eq!(m.rel_pending_len(), 0);
        let before = m.stats().rel;
        m.rel_ack(0);
        m.rel_timer(0, 0);
        assert_eq!(m.stats().rel, before);
        assert_eq!(m.rel_pending_len(), 0);
    }

    #[test]
    fn duplicate_arriving_after_its_ack_is_suppressed() {
        // the copy lands 5 ms after the original, long after the ack
        let plan = FaultPlan::new(1)
            .with_dup_extra(Time::from_ms(5))
            .with_trigger(Time::ZERO, None, Some(FaultOp::Msg), FaultKind::Duplicate);
        let mut m = machine(plan);
        send(&mut m);
        m.run_until(Time::from_ms(1));
        assert_eq!((m.stats().rel.acks, m.rel_pending_len()), (1, 0));
        m.run();
        let rel = m.stats().rel;
        assert_eq!(rel.dups_injected, 1);
        assert_eq!(rel.dups_suppressed, 1);
        assert_eq!(rel.acks, 1, "the copy's re-ack is stale");
        assert_eq!(rel.retries, 0);
        assert_eq!(m.rel_pending_len(), 0);
    }
}
