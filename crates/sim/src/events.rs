//! The event queue: a priority queue over `(Time, sequence)` keys.
//!
//! The queue is generic over the event payload so that each layer of the
//! stack (network, runtime, MPI model) can define its own event enum and pay
//! no boxing cost. FIFO order among same-timestamp events is guaranteed by a
//! monotonically increasing sequence number, which is what makes the whole
//! simulation deterministic.
//!
//! # Representation
//!
//! The hot path of the simulator is push/pop on this queue, and event
//! payloads are large (message payloads, byte buffers). A naive
//! `BinaryHeap<(Time, u64, E)>` moves whole payloads on every sift. Instead
//! the heap holds small entries — a packed `u128` key
//! (`time_ps << 64 | seq`, unique because `seq` is monotone) plus a `u32`
//! slot index, 32 bytes on x86_64 where `u128` is 16-byte aligned — while
//! payloads sit still in a slab recycled through a freelist. One integer
//! compare per sift step, no payload moves, no per-event allocation once
//! the slab has warmed up. A pop walks the root's hole down to a leaf with
//! one compare per level and sifts the former tail entry up from there
//! (see `remove_at`). The pop order is exactly the `(Time, seq)`
//! lexicographic order of the old representation: the packed key compares
//! identically and every key is unique, so ties cannot arise and every
//! valid heap shape pops the same sequence.

use crate::time::Time;

/// What a [`ReorderPolicy`] is allowed to see about a pending event: its
/// identity (`seq`), its timestamp, and the opaque footprint tag the
/// runtime attached at push time (0 = unknown, conservatively conflicting
/// with everything — the encoding is owned by `ckd-race`).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct EventMeta {
    /// The event's unique, monotone sequence number.
    pub seq: u64,
    /// The event's scheduled firing time.
    pub at: Time,
    /// Footprint tag attached via [`EventQueue::push_tagged`] (0 if the
    /// event was pushed through [`EventQueue::push`]).
    pub tag: u64,
}

/// A pluggable pop-order policy: at each pop the queue collects every
/// pending event whose timestamp lies within [`ReorderPolicy::window`] of
/// the earliest one and, when there is more than one, lets the policy pick
/// which fires next. Index 0 of the candidate slice is always the
/// canonical `(time, seq)` minimum, so a policy that returns 0 reproduces
/// the default order exactly (see [`IdentityPolicy`]).
///
/// Installing a policy relaxes the queue's causality checks: choosing a
/// later candidate lets virtual time regress when the jumped-over event is
/// eventually popped, so the horizon becomes a high-water mark instead of
/// a monotone floor. With no policy installed the queue's behavior — and
/// its debug assertions — are byte-identical to the policy-free build.
pub trait ReorderPolicy {
    /// Width of the commutation window: candidates are all pending events
    /// with `at <= earliest + window`. `Time::ZERO` restricts reordering
    /// to same-virtual-time events.
    fn window(&self) -> Time;

    /// Pick the next event among `cands` (sorted by `(time, seq)`; always
    /// at least two entries — singleton pops never consult the policy).
    /// Out-of-range returns are clamped to the last candidate.
    fn choose(&mut self, cands: &[EventMeta]) -> usize;
}

/// The do-nothing policy: always picks the canonical minimum. Exists so
/// tests can prove the policy seam itself is order-transparent.
#[derive(Clone, Copy, Debug, Default)]
pub struct IdentityPolicy {
    /// Window to advertise (exercises candidate collection without
    /// changing the chosen order).
    pub window: Time,
}

impl ReorderPolicy for IdentityPolicy {
    fn window(&self) -> Time {
        self.window
    }

    fn choose(&mut self, _cands: &[EventMeta]) -> usize {
        0
    }
}

/// Heap entry: packed `(time, seq)` key plus the payload's slab slot.
#[derive(Clone, Copy)]
struct Entry {
    key: u128,
    slot: u32,
}

#[inline]
fn pack(at: Time, seq: u64) -> u128 {
    ((at.as_ps() as u128) << 64) | seq as u128
}

#[inline]
fn key_time(key: u128) -> Time {
    Time::from_ps((key >> 64) as u64)
}

/// A deterministic min-priority queue of timed events.
pub struct EventQueue<E> {
    /// Hand-rolled min-heap over packed keys (smallest key at index 0).
    heap: Vec<Entry>,
    /// Payload slab; `None` slots are free and listed in `free`.
    slots: Vec<Option<E>>,
    /// Footprint tags parallel to `slots` (0 when untagged). Only read
    /// when a policy is installed.
    tags: Vec<u64>,
    free: Vec<u32>,
    seq: u64,
    /// The timestamp of the most recently popped event. Pushing an event
    /// earlier than this is a causality violation and panics in debug builds.
    /// With a [`ReorderPolicy`] installed it degrades to a high-water mark.
    horizon: Time,
    popped: u64,
    /// Installed pop-order policy; `None` is the byte-identical fast path.
    policy: Option<Box<dyn ReorderPolicy>>,
}

impl<E> Default for EventQueue<E> {
    fn default() -> Self {
        Self::new()
    }
}

impl<E> EventQueue<E> {
    /// Create an empty queue with the horizon at time zero.
    pub fn new() -> Self {
        EventQueue {
            heap: Vec::new(),
            slots: Vec::new(),
            tags: Vec::new(),
            free: Vec::new(),
            seq: 0,
            horizon: Time::ZERO,
            popped: 0,
            policy: None,
        }
    }

    /// Create an empty queue with pre-reserved capacity.
    pub fn with_capacity(cap: usize) -> Self {
        EventQueue {
            heap: Vec::with_capacity(cap),
            slots: Vec::with_capacity(cap),
            tags: Vec::new(),
            free: Vec::new(),
            seq: 0,
            horizon: Time::ZERO,
            popped: 0,
            policy: None,
        }
    }

    /// Install a [`ReorderPolicy`]. From here on pops consult the policy
    /// whenever more than one pending event lies inside its window, and
    /// the horizon check degrades to a high-water mark (reordering lets
    /// virtual time regress by design).
    pub fn set_policy(&mut self, policy: Box<dyn ReorderPolicy>) {
        self.policy = Some(policy);
    }

    /// True when a [`ReorderPolicy`] is installed — the runtime uses this
    /// to skip footprint computation entirely on the canonical path.
    #[inline]
    pub fn reordering(&self) -> bool {
        self.policy.is_some()
    }

    /// Schedule `ev` to fire at absolute time `at`.
    ///
    /// `at` may equal the current horizon (same-timestamp events run in FIFO
    /// push order) but must not precede it, unless a policy is installed.
    #[inline]
    pub fn push(&mut self, at: Time, ev: E) {
        self.push_tagged(at, 0, ev);
    }

    /// [`EventQueue::push`] with a footprint tag the installed policy (and
    /// the model checker driving it) can read back through [`EventMeta`].
    ///
    /// Places `ev` in a slab slot (recycled when one is free) and sifts its
    /// key into the heap. Every push writes the tag when a policy will read
    /// it, so a recycled slot can never carry its previous occupant's tag.
    #[inline]
    pub fn push_tagged(&mut self, at: Time, tag: u64, ev: E) {
        debug_assert!(
            self.policy.is_some() || at >= self.horizon,
            "causality violation: scheduling at {at} behind horizon {}",
            self.horizon
        );
        let slot = match self.free.pop() {
            Some(s) => {
                self.slots[s as usize] = Some(ev);
                s
            }
            None => {
                let s = self.slots.len() as u32;
                self.slots.push(Some(ev));
                s
            }
        };
        if self.policy.is_some() {
            if self.tags.len() <= slot as usize {
                self.tags.resize(slot as usize + 1, 0);
            }
            self.tags[slot as usize] = tag;
        }
        self.heap.push(Entry {
            key: pack(at, self.seq),
            slot,
        });
        self.seq += 1;
        self.sift_up(self.heap.len() - 1);
    }

    /// Remove and return the earliest event, advancing the horizon to its
    /// timestamp. With a policy installed, "earliest" becomes "whichever
    /// in-window candidate the policy picks".
    #[inline]
    pub fn pop(&mut self) -> Option<(Time, E)> {
        if self.policy.is_some() {
            return self.pop_policy(Time::MAX);
        }
        let root = *self.heap.first()?;
        self.remove_at(0);
        Some(self.take(root))
    }

    /// [`EventQueue::pop`], but only if the earliest event fires at or
    /// before `limit` — the scheduler-loop fast path (one heap access
    /// instead of a peek followed by a pop).
    #[inline]
    pub fn pop_before(&mut self, limit: Time) -> Option<(Time, E)> {
        if self.policy.is_some() {
            return self.pop_policy(limit);
        }
        let root = *self.heap.first()?;
        if key_time(root.key) > limit {
            return None;
        }
        self.remove_at(0);
        Some(self.take(root))
    }

    /// The policy-mediated pop: collect every pending event inside the
    /// window anchored at the earliest one (clamped to `limit`), hand the
    /// sorted candidate list to the policy, and remove its pick from an
    /// arbitrary heap position. O(n) per pop — model-checking runs only.
    fn pop_policy(&mut self, limit: Time) -> Option<(Time, E)> {
        let root = *self.heap.first()?;
        let t0 = key_time(root.key);
        if t0 > limit {
            return None;
        }
        let mut policy = self.policy.take().expect("caller checked policy");
        let cutoff = Time::from_ps(t0.as_ps().saturating_add(policy.window().as_ps())).min(limit);
        let mut cands: Vec<(usize, Entry)> = self
            .heap
            .iter()
            .enumerate()
            .filter(|(_, e)| key_time(e.key) <= cutoff)
            .map(|(i, e)| (i, *e))
            .collect();
        cands.sort_by_key(|(_, e)| e.key);
        let pick = if cands.len() > 1 {
            let metas: Vec<EventMeta> = cands
                .iter()
                .map(|(_, e)| EventMeta {
                    seq: e.key as u64,
                    at: key_time(e.key),
                    tag: self.tags.get(e.slot as usize).copied().unwrap_or(0),
                })
                .collect();
            policy.choose(&metas).min(cands.len() - 1)
        } else {
            0
        };
        self.policy = Some(policy);
        let (heap_idx, entry) = cands[pick];
        self.remove_at(heap_idx);
        Some(self.take(entry))
    }

    /// Timestamp of the earliest pending event, if any.
    #[inline]
    pub fn peek_time(&self) -> Option<Time> {
        self.heap.first().map(|e| key_time(e.key))
    }

    /// Number of pending events.
    #[inline]
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True when no events are pending.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// The virtual time of the most recently popped event.
    #[inline]
    pub fn horizon(&self) -> Time {
        self.horizon
    }

    /// Total number of events ever popped (a cheap progress metric).
    #[inline]
    pub fn events_processed(&self) -> u64 {
        self.popped
    }

    /// Slab slots currently allocated (capacity watermark, not pending
    /// count) — lets tests assert the freelist actually recycles.
    pub fn slab_slots(&self) -> usize {
        self.slots.len()
    }

    // ---- internals --------------------------------------------------------

    /// Drop the entry at heap index `i`, restoring the heap property.
    ///
    /// Hole-to-bottom removal (the scheme of std's `BinaryHeap::pop`): the
    /// hole left at `i` walks down to a leaf, promoting the smaller child
    /// at each level with one key compare and a branch-free index select,
    /// and only then is the former tail entry sifted up from that leaf.
    /// Every promoted entry is at least the removed one, which is at least
    /// its ancestors, so the sift-up may climb past `i` when the tail is
    /// smaller than `i`'s ancestors — one walk serves the root pop and the
    /// policy's interior removal alike. On a root pop the tail is usually
    /// among the largest keys, so the sift-up almost always stops after
    /// 0–1 steps: one compare per level instead of the two a top-down sift
    /// makes. Keys are unique, so the heap shape may differ from a
    /// top-down sift's but the pop order cannot.
    #[inline]
    fn remove_at(&mut self, i: usize) {
        let last = self.heap.pop().expect("caller checked non-empty");
        let heap = self.heap.as_mut_slice();
        let len = heap.len();
        if i == len {
            return;
        }
        let mut hole = i;
        let mut child = 2 * i + 1;
        while child + 1 < len {
            child += usize::from(heap[child + 1].key < heap[child].key);
            heap[hole] = heap[child];
            hole = child;
            child = 2 * hole + 1;
        }
        // the last parent may have a single (left) child
        if child + 1 == len {
            heap[hole] = heap[child];
            hole = child;
        }
        heap[hole] = last;
        self.sift_up(hole);
    }

    /// Extract the payload of a removed entry and account the pop.
    #[inline]
    fn take(&mut self, e: Entry) -> (Time, E) {
        let ev = self.slots[e.slot as usize]
            .take()
            .expect("heap entry points at a live slot");
        self.free.push(e.slot);
        let at = key_time(e.key);
        debug_assert!(self.policy.is_some() || at >= self.horizon);
        self.horizon = self.horizon.max(at);
        self.popped += 1;
        (at, ev)
    }

    #[inline]
    fn sift_up(&mut self, mut i: usize) {
        let entry = self.heap[i];
        while i > 0 {
            let parent = (i - 1) / 2;
            if self.heap[parent].key <= entry.key {
                break;
            }
            self.heap[i] = self.heap[parent];
            i = parent;
        }
        self.heap[i] = entry;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn pops_in_time_order() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(30), "c");
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(20), "b");
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, vec!["a", "b", "c"]);
    }

    #[test]
    fn fifo_among_equal_timestamps() {
        let mut q = EventQueue::new();
        for i in 0..100 {
            q.push(Time::from_ns(5), i);
        }
        let order: Vec<_> = std::iter::from_fn(|| q.pop()).map(|(_, e)| e).collect();
        assert_eq!(order, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn horizon_advances() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(7), ());
        assert_eq!(q.horizon(), Time::ZERO);
        q.pop();
        assert_eq!(q.horizon(), Time::from_ns(7));
        assert_eq!(q.events_processed(), 1);
    }

    #[test]
    #[should_panic(expected = "causality violation")]
    #[cfg(debug_assertions)]
    fn rejects_events_behind_horizon() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), ());
        q.pop();
        q.push(Time::from_ns(5), ());
    }

    #[test]
    fn interleaved_push_pop_stays_sorted() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(40), 4);
        assert_eq!(q.pop().unwrap().1, 1);
        q.push(Time::from_ns(20), 2);
        q.push(Time::from_ns(30), 3);
        assert_eq!(q.pop().unwrap().1, 2);
        assert_eq!(q.pop().unwrap().1, 3);
        assert_eq!(q.pop().unwrap().1, 4);
        assert!(q.is_empty());
    }

    #[test]
    fn peek_matches_pop() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(3), "x");
        assert_eq!(q.peek_time(), Some(Time::from_ns(3)));
        assert_eq!(q.len(), 1);
        let (t, _) = q.pop().unwrap();
        assert_eq!(t, Time::from_ns(3));
        assert_eq!(q.peek_time(), None);
    }

    #[test]
    fn pop_before_respects_the_limit() {
        let mut q = EventQueue::new();
        q.push(Time::from_ns(10), "early");
        q.push(Time::from_ns(30), "late");
        assert_eq!(q.pop_before(Time::from_ns(5)), None);
        assert_eq!(
            q.pop_before(Time::from_ns(10)),
            Some((Time::from_ns(10), "early"))
        );
        assert_eq!(q.pop_before(Time::from_ns(20)), None);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ns(30), "late")));
        assert_eq!(q.pop_before(Time::MAX), None);
        assert_eq!(q.horizon(), Time::from_ns(30));
        assert_eq!(q.events_processed(), 2);
    }

    /// Picks the last (latest) in-window candidate — maximal reordering.
    struct LastWins {
        window: Time,
    }

    impl ReorderPolicy for LastWins {
        fn window(&self) -> Time {
            self.window
        }
        fn choose(&mut self, cands: &[EventMeta]) -> usize {
            cands.len() - 1
        }
    }

    #[test]
    fn identity_policy_is_order_transparent() {
        let mut plain = EventQueue::new();
        let mut seamed = EventQueue::new();
        seamed.set_policy(Box::new(IdentityPolicy {
            window: Time::from_ns(50),
        }));
        assert!(seamed.reordering() && !plain.reordering());
        for (i, ns) in [30u64, 10, 10, 20, 25, 10].iter().enumerate() {
            plain.push(Time::from_ns(*ns), i);
            seamed.push_tagged(Time::from_ns(*ns), i as u64 + 1, i);
        }
        loop {
            let (a, b) = (plain.pop(), seamed.pop());
            assert_eq!(a, b);
            if a.is_none() {
                break;
            }
        }
    }

    #[test]
    fn policy_reorders_only_inside_the_window() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(5),
        }));
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(12), "b");
        q.push(Time::from_ns(14), "c");
        q.push(Time::from_ns(40), "far");
        // window [10, 15]: candidates a/b/c, policy picks c; then [10, 15]
        // again (time regresses legally): picks b, then a, then far.
        assert_eq!(q.pop(), Some((Time::from_ns(14), "c")));
        assert_eq!(q.pop(), Some((Time::from_ns(12), "b")));
        assert_eq!(q.pop(), Some((Time::from_ns(10), "a")));
        assert_eq!(q.pop(), Some((Time::from_ns(40), "far")));
        assert_eq!(q.horizon(), Time::from_ns(40));
        assert_eq!(q.events_processed(), 4);
    }

    #[test]
    fn policy_respects_pop_before_limit() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(100),
        }));
        q.push(Time::from_ns(10), "a");
        q.push(Time::from_ns(60), "b");
        // the window reaches b, but the scheduler's limit clamps it out
        assert_eq!(
            q.pop_before(Time::from_ns(20)),
            Some((Time::from_ns(10), "a"))
        );
        assert_eq!(q.pop_before(Time::from_ns(20)), None);
        assert_eq!(q.pop_before(Time::MAX), Some((Time::from_ns(60), "b")));
    }

    #[test]
    fn policy_allows_pushes_behind_the_high_water_mark() {
        let mut q = EventQueue::new();
        q.set_policy(Box::new(LastWins {
            window: Time::from_ns(50),
        }));
        q.push(Time::from_ns(10), 1);
        q.push(Time::from_ns(20), 2);
        assert_eq!(q.pop(), Some((Time::from_ns(20), 2)));
        // a handler running at the regressed time may schedule "behind"
        // the high-water mark without tripping the causality assert
        q.push(Time::from_ns(15), 3);
        assert_eq!(q.pop(), Some((Time::from_ns(15), 3)));
        assert_eq!(q.pop(), Some((Time::from_ns(10), 1)));
    }

    /// Every heap size from empty to seven levels, under four key shapes,
    /// removing at every heap index: the heap must stay valid and the
    /// drain must equal the sorted `(time, seq)` list minus the removed
    /// key. Sizes 0..=70 include every parity of the last level, so the
    /// hole walk meets a last parent with one child and with two at every
    /// depth. Interior removal (the policy path) is what the reference
    /// proptests never reach: there the tail may sift up past the hole's
    /// starting index.
    #[test]
    fn removal_at_every_index_keeps_key_order_for_every_small_heap_shape() {
        let mut rng = crate::rng::DetRng::new(0x5EED).stream("pop-shapes");
        for n in 0..=70u64 {
            let shapes: [(&str, Vec<u64>); 4] = [
                ("ascending", (0..n).collect()),
                ("descending", (0..n).rev().collect()),
                ("equal", vec![42; n as usize]),
                ("random", (0..n).map(|_| rng.range(0, 16)).collect()),
            ];
            for (shape, times) in shapes {
                let build = || {
                    let mut q = EventQueue::new();
                    for (seq, &t) in times.iter().enumerate() {
                        q.push(Time::from_ns(t), seq);
                    }
                    q
                };
                let sorted = |q: &EventQueue<usize>| {
                    let mut keys: Vec<(Time, u64)> = q
                        .heap
                        .iter()
                        .map(|e| (key_time(e.key), e.key as u64))
                        .collect();
                    keys.sort_unstable();
                    keys
                };
                // each payload is its own push seq, so a drain of
                // `(time, payload)` pairs is a drain of `(time, seq)` keys
                let drain = |mut q: EventQueue<usize>| -> Vec<(Time, u64)> {
                    std::iter::from_fn(|| q.pop())
                        .map(|(t, seq)| (t, seq as u64))
                        .collect()
                };
                let q = build();
                let want = sorted(&q);
                assert_eq!(drain(q), want, "n={n} {shape}");
                for i in 0..n as usize {
                    let mut q = build();
                    let gone = q.heap[i].key;
                    q.remove_at(i);
                    for c in 1..q.heap.len() {
                        assert!(
                            q.heap[(c - 1) / 2].key < q.heap[c].key,
                            "n={n} {shape} remove_at({i}): heap broken at {c}"
                        );
                    }
                    let mut want = want.clone();
                    want.retain(|&k| k != (key_time(gone), gone as u64));
                    assert_eq!(drain(q), want, "n={n} {shape} remove_at({i})");
                }
            }
        }
    }

    /// Shows the policy every candidate's tag, and picks the minimum.
    struct RecordTags(std::rc::Rc<std::cell::RefCell<Vec<Vec<u64>>>>);

    impl ReorderPolicy for RecordTags {
        fn window(&self) -> Time {
            Time::from_ns(100)
        }
        fn choose(&mut self, cands: &[EventMeta]) -> usize {
            self.0
                .borrow_mut()
                .push(cands.iter().map(|m| m.tag).collect());
            0
        }
    }

    #[test]
    fn untagged_push_into_a_recycled_slot_carries_tag_zero() {
        let seen = std::rc::Rc::new(std::cell::RefCell::new(Vec::new()));
        let mut q = EventQueue::new();
        q.set_policy(Box::new(RecordTags(seen.clone())));
        q.push_tagged(Time::from_ns(1), 7, "tagged");
        assert_eq!(q.pop(), Some((Time::from_ns(1), "tagged")));
        // slot 0 is free again; the untagged push recycles it
        q.push(Time::from_ns(2), "untagged");
        q.push_tagged(Time::from_ns(2), 9, "fresh");
        assert_eq!(q.slab_slots(), 2);
        // the untagged push sorts first; the policy sees both candidates' tags
        assert_eq!(q.pop(), Some((Time::from_ns(2), "untagged")));
        assert_eq!(*seen.borrow(), vec![vec![0, 9]], "stale tag leaked");
    }

    #[test]
    fn freelist_recycles_slab_slots() {
        let mut q = EventQueue::new();
        // Steady-state ping-pong: one pending event at a time should never
        // grow the slab beyond the high-water mark of concurrent events.
        q.push(Time::from_ns(1), 0u64);
        for i in 1..1000u64 {
            let (t, _) = q.pop().unwrap();
            q.push(t + Time::from_ns(1), i);
        }
        assert!(q.slab_slots() <= 2, "slab grew to {}", q.slab_slots());
    }
}
