//! Steady-state allocation gate: the simulated message path and the
//! reliability plane must not touch the host heap per message or packet.
//!
//! A counting global allocator tallies allocations made by the current
//! thread while a thread-local switch is on, so tests running in parallel
//! on other threads never pollute a count. Each check runs one application
//! shape at two lengths; everything that does not scale with the run
//! (machine build, array creation, channel setup, buffer growth to the
//! in-flight window) is the same in both and cancels in the difference.
//! What is left is the per-iteration cost, which is divided by the added
//! messages or packets.

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::{Platform, Variant};
use ckd_charm::{FaultPlan, Machine};

struct Counting;

thread_local! {
    static ON: Cell<bool> = const { Cell::new(false) };
    static COUNT: Cell<u64> = const { Cell::new(0) };
}

fn note_alloc() {
    // `try_with`: the allocator also runs while thread-locals are torn down
    if ON.try_with(Cell::get).unwrap_or(false) {
        let _ = COUNT.try_with(|c| c.set(c.get() + 1));
    }
}

// SAFETY: every call forwards unchanged to the system allocator; the
// bookkeeping touches only const-initialised thread-local cells, which
// never allocate.
#[allow(unsafe_code)]
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note_alloc();
        // SAFETY: same contract as the caller's.
        unsafe { System.realloc(ptr, layout, new_size) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: same contract as the caller's.
        unsafe { System.dealloc(ptr, layout) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Run `f` with this thread's allocations counted; returns its result and
/// the count.
fn counted<R>(f: impl FnOnce() -> R) -> (R, u64) {
    COUNT.with(|c| c.set(0));
    ON.with(|on| on.set(true));
    let r = f();
    ON.with(|on| on.set(false));
    (r, COUNT.with(Cell::get))
}

/// `halo-msg`'s shape: the Jacobi3D message variant with stand-in ghosts.
fn halo_msg(iters: u32) -> (u64, u64) {
    let (msgs, allocs) = counted(|| {
        let mut m = Platform::IbAbe { cores_per_node: 8 }.machine(64);
        run_jacobi_on(
            &mut m,
            JacobiCfg {
                domain: [1024, 1024, 512],
                chares: [8, 8, 8],
                iters,
                variant: Variant::Msg,
                real_compute: false,
            },
        );
        m.stats().msgs_sent
    });
    (msgs, allocs)
}

/// `lossy-notified`'s shape: Jacobi3D CkDirect puts on Slingshot with 2%
/// seeded drops. Returns (reliable packets incl. retransmissions, allocs).
fn lossy_notified(iters: u32) -> (u64, u64) {
    let (packets, allocs) = counted(|| {
        let mut m: Machine = Platform::Slingshot
            .builder(8)
            .with_faults(FaultPlan::new(7).with_drop(0.02))
            .build();
        run_jacobi_on(
            &mut m,
            JacobiCfg {
                domain: [64, 64, 64],
                chares: [4, 4, 4],
                iters,
                variant: Variant::Ckd,
                real_compute: false,
            },
        );
        assert_eq!(m.rel_pending_len(), 0, "unacked packets at quiescence");
        let rel = m.stats().rel;
        assert!(rel.retries > 0, "the plan must exercise retransmission");
        // every original packet is acked exactly once by quiescence
        rel.acks + rel.retries
    });
    (packets, allocs)
}

#[test]
fn stand_in_messages_do_not_allocate() {
    let (msgs_short, allocs_short) = halo_msg(2);
    let (msgs_long, allocs_long) = halo_msg(6);
    let added_msgs = msgs_long - msgs_short;
    let added_allocs = allocs_long.saturating_sub(allocs_short);
    println!("halo-msg: +{added_msgs} msgs_sent, +{added_allocs} allocations");
    // Measured: 4 allocations for 10,752 added messages (the reduction's
    // broadcast value, once per iteration); stand-in ghosts built as
    // bytes in a shared value cost 33,088.
    assert!(added_msgs > 0);
    assert!(
        added_allocs * 100 < added_msgs,
        "{added_allocs} allocations for {added_msgs} added messages \
         (bound: fewer than 1 per 100)"
    );
}

#[test]
fn reliable_packets_do_not_allocate() {
    let (packets_short, allocs_short) = lossy_notified(10);
    let (packets_long, allocs_long) = lossy_notified(40);
    let added_packets = packets_long - packets_short;
    let added_allocs = allocs_long.saturating_sub(allocs_short);
    println!("lossy-notified: +{added_packets} packets, +{added_allocs} allocations");
    assert!(added_packets > 0);
    // Measured: 40 allocations for 4,001 added packets (about one per
    // iteration, none per packet); the pending map and the boxed inner
    // event cost 5,251. The bound leaves 2x headroom over the measurement.
    assert!(
        added_allocs * 50 < added_packets,
        "{added_allocs} allocations for {added_packets} added packets \
         (bound: fewer than 1 per 50)"
    );
}
