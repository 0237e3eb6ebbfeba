//! Outside-in layer replays: each layer's hot operation driven through its
//! public API, sized from a traced run's public counters. A replay's total
//! set next to the run's wall time shows how much of the run the named
//! layers explain.

use std::hint::black_box;
use std::time::Instant;

use ckd_net::{NetModel, Protocol};
use ckd_sim::{EventQueue, Time};
use ckd_topo::Pe;
use ckdirect::direct;
use ckdirect::{DirectConfig, DirectRegistry, Region};

use crate::stats::{median, splitmix64};

/// Trials per replay; every replay reports the median trial.
const TRIALS: usize = 7;
/// Fixed input seed of the replays: they are workload-shaped, not seeded.
const REPLAY_SEED: u64 = 0x05EE_D0F1_A7E5;

/// Median over [`TRIALS`] of `trial()`, which returns ns per operation.
fn median_trial(mut trial: impl FnMut() -> f64) -> f64 {
    let v: Vec<f64> = (0..TRIALS).map(|_| trial()).collect();
    median(&v)
}

/// Host ns of one `Instant::now()` pair, subtracted from per-call timings.
pub fn timer_overhead_ns() -> f64 {
    median_trial(|| {
        let t0 = Instant::now();
        for _ in 0..1000 {
            black_box(Instant::now());
        }
        t0.elapsed().as_nanos() as f64 / 1000.0
    })
}

/// `EventQueue` push+pop at steady depth `depth`: `ops` pops, each followed
/// by a push a pseudo-random delay later. Returns ns per push+pop pair.
pub fn queue_push_pop(depth: usize, ops: usize) -> f64 {
    let depth = depth.max(1);
    let ops = ops.max(10_000);
    median_trial(|| {
        let mut rng = REPLAY_SEED;
        let mut q: EventQueue<u64> = EventQueue::new();
        for i in 0..depth {
            q.push(Time::from_ns(splitmix64(&mut rng) % 10_000), i as u64);
        }
        let t0 = Instant::now();
        for _ in 0..ops {
            let (t, ev) = q.pop().expect("queue stays at depth");
            let delay = Time::from_ns(1 + splitmix64(&mut rng) % 10_000);
            q.push(t + delay, black_box(ev));
        }
        t0.elapsed().as_nanos() as f64 / ops as f64
    })
}

/// One class of transfers in a run: `count` transfers of `bytes` from `src`.
#[derive(Clone, Copy, Debug)]
pub struct TransferClass {
    pub src: Pe,
    pub proto: Protocol,
    pub bytes: usize,
    pub count: u64,
}

/// `NetModel::timing` over a run's transfer mix; destinations rotate over
/// every other PE. Returns ns per call.
pub fn net_timing(net: &NetModel, mix: &[TransferClass]) -> f64 {
    let npes = net.machine().npes() as u32;
    let calls: u64 = mix.iter().map(|c| c.count).sum();
    if calls == 0 || npes < 2 {
        return 0.0;
    }
    median_trial(|| {
        let t0 = Instant::now();
        for c in mix {
            for k in 0..c.count {
                let dst = Pe((c.src.0 + 1 + (k % u64::from(npes - 1)) as u32) % npes);
                black_box(net.timing(c.src, dst, c.bytes, c.proto));
            }
        }
        t0.elapsed().as_nanos() as f64 / calls as f64
    })
}

/// Host ns per registry operation.
#[derive(Clone, Copy, Debug, Default)]
pub struct RegistryCosts {
    /// `put` + `land` of one channel.
    pub put_land_ns: f64,
    /// One `poll_sweep_into` pass (polling backend; 0 otherwise).
    pub sweep_ns: f64,
    /// One notification record through `cq_drain_into` (notified backend;
    /// 0 otherwise).
    pub cq_drain_ns: f64,
}

/// Replay a receiver PE holding `channels` channels of `bytes` each under
/// `cfg`: each pass lands `per_pass` puts, then detects them with one
/// sweep (polling) or drains them in batches of `drain_batch` (notified),
/// then re-arms them with `ready`.
pub fn registry(
    cfg: DirectConfig,
    channels: usize,
    bytes: usize,
    per_pass: usize,
    drain_batch: usize,
) -> RegistryCosts {
    const OOB: u64 = u64::MAX;
    let channels = channels.max(1);
    let per_pass = per_pass.clamp(1, channels);
    let bytes = bytes.max(8).next_multiple_of(8);
    let (recv_pe, send_pe) = (Pe(0), Pe(1));
    let mut reg: DirectRegistry<u32> = DirectRegistry::new(2, cfg);
    let handles: Vec<_> = (0..channels)
        .map(|c| {
            let h = reg
                .create_handle(recv_pe, Region::alloc(bytes), OOB, c as u32)
                .expect("replay channel");
            let send = Region::alloc(bytes);
            send.fill(0x5A);
            reg.assoc_local(h, send_pe, send)
                .expect("replay association");
            h
        })
        .collect();
    let notified = cfg.backend == ckdirect::DirectBackend::NotifiedPut;
    let timer = timer_overhead_ns();
    let passes = (20_000 / per_pass).max(50);
    let mut out = Vec::with_capacity(channels);
    let mut next = 0;
    let mut land_ns = Vec::new();
    let mut detect_ns = Vec::new();
    for _ in 0..TRIALS {
        let (mut land_t, mut detect_t, mut landed) = (0u128, 0u128, 0u64);
        for _ in 0..passes {
            let batch: Vec<_> = (0..per_pass)
                .map(|k| handles[(next + k) % channels])
                .collect();
            next = (next + per_pass) % channels;
            let t0 = Instant::now();
            for &h in &batch {
                reg.put(h, send_pe).expect("replay put");
                black_box(reg.land(h).expect("replay land"));
            }
            land_t += t0.elapsed().as_nanos();
            landed += batch.len() as u64;
            let t0 = Instant::now();
            if notified {
                while reg.cq_drain_into(recv_pe, drain_batch.max(1), &mut out) > 0 {}
            } else {
                reg.poll_sweep_into(recv_pe, &mut out);
            }
            detect_t += t0.elapsed().as_nanos();
            assert_eq!(out.len(), batch.len(), "replay lost a delivery");
            out.clear();
            for &h in &batch {
                reg.ready(h).expect("replay re-arm");
            }
        }
        land_ns.push(land_t as f64 / landed as f64);
        let detect = (detect_t as f64 / passes as f64 - timer).max(0.0);
        detect_ns.push(if notified {
            detect / per_pass as f64
        } else {
            detect
        });
    }
    let detect = median(&detect_ns);
    RegistryCosts {
        put_land_ns: median(&land_ns),
        sweep_ns: if notified { 0.0 } else { detect },
        cq_drain_ns: if notified { detect } else { 0.0 },
    }
}

/// Host ns of the wall-clock direct channel's single-thread data path.
#[derive(Clone, Copy, Debug, Default)]
pub struct DirectCosts {
    /// `DirectSender::put` of one message.
    pub put_ns: f64,
    /// `DirectReceiver::poll` of a landed message, an in-place read of its
    /// first word, and `arm`.
    pub poll_arm_ns: f64,
    /// The message-path baseline: clone + mpsc send + recv.
    pub mpsc_ns: f64,
}

/// Single-thread costs at `size` bytes over a bank of channels, so each
/// timed block covers many operations and the timer is amortized.
pub fn direct_single(size: usize, payload_seed: u64) -> DirectCosts {
    const BANK: usize = 32;
    const OOB: u64 = u64::MAX;
    let rounds = (4_000_000 / size).clamp(20, 2_000);
    let mut rng = payload_seed;
    let payload: Vec<u8> = (0..size / 8)
        .flat_map(|_| (splitmix64(&mut rng) >> 1).to_le_bytes())
        .collect();
    let (mut tx, mut rx): (Vec<_>, Vec<_>) = (0..BANK).map(|_| direct::channel(size, OOB)).unzip();
    let mut put = Vec::new();
    let mut poll_arm = Vec::new();
    for _ in 0..TRIALS {
        let (mut put_t, mut poll_t) = (0u128, 0u128);
        for _ in 0..rounds {
            let t0 = Instant::now();
            for s in &mut tx {
                s.put(black_box(&payload)).expect("armed channel");
            }
            put_t += t0.elapsed().as_nanos();
            let t0 = Instant::now();
            for r in &mut rx {
                assert!(r.poll(), "landed put not detected");
                black_box(r.with_data(|v| v.word(0)));
                r.arm();
            }
            poll_t += t0.elapsed().as_nanos();
        }
        let ops = (rounds * BANK) as f64;
        put.push(put_t as f64 / ops);
        poll_arm.push(poll_t as f64 / ops);
    }
    let mpsc_ns = median_trial(|| {
        let (qtx, qrx) = std::sync::mpsc::channel::<Vec<u8>>();
        let t0 = Instant::now();
        for _ in 0..rounds * 4 {
            qtx.send(payload.clone()).expect("receiver alive");
            black_box(qrx.recv().expect("sender alive")[0]);
        }
        t0.elapsed().as_nanos() as f64 / (rounds * 4) as f64
    });
    DirectCosts {
        put_ns: median(&put),
        poll_arm_ns: median(&poll_arm),
        mpsc_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn registry_replay_covers_both_backends() {
        let ib = registry(DirectConfig::ib(), 16, 64, 2, 8);
        assert!(ib.put_land_ns > 0.0 && ib.cq_drain_ns == 0.0);
        let cq = registry(DirectConfig::notified(64), 16, 64, 4, 8);
        assert!(cq.put_land_ns > 0.0 && cq.sweep_ns == 0.0);
    }

    #[test]
    fn direct_replay_runs_at_small_size() {
        let c = direct_single(64, 1);
        assert!(c.put_ns > 0.0 && c.poll_arm_ns > 0.0 && c.mpsc_ns > 0.0);
    }
}
