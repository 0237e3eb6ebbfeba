//! `direct-threads`: two OS threads run the paper's iterative exchange on a
//! real `ckdirect::direct` channel — put, poll, read in place, arm — the
//! repo's only host analogue of the paper's Table 1.

use std::sync::atomic::{AtomicBool, Ordering};
use std::thread;
use std::time::{Duration, Instant};

use ckdirect::direct::{self, DirectReceiver, DirectSender, WordView};

use crate::replay;
use crate::report::{peak_rss_mb, Report, Spans};
use crate::stats::{median, nearest_rank, ratio, sorted, splitmix64};
use crate::{Args, SETUP_REPS};

/// Channel size: one 16 KiB window.
pub const SIZE: usize = 16 * 1024;
const WORDS: usize = SIZE / 8;
const OOB: u64 = u64::MAX;
/// The checksum word keeps its top bit clear, so it can never equal the
/// all-ones sentinel and every put is legal.
const CHECK_MASK: u64 = !(1 << 63);
/// Exchanges per timed batch (one "run").
const BATCH: usize = 1000;
/// Warm-up exchanges in each setup.
const WARMUP: usize = 2000;

/// Position-weighted checksum of every word but the last (which carries
/// it): catches torn, stale and reordered words alike.
fn checksum(word: impl Fn(usize) -> u64) -> u64 {
    (0..WORDS - 1).fold(0u64, |acc, i| {
        acc.wrapping_add(word(i).wrapping_mul(2 * i as u64 + 1))
    }) & CHECK_MASK
}

/// The seeded message: word 0 is the iteration stamp, the last word the
/// checksum; the rest are payload words generated from the seed.
struct Message {
    bytes: Vec<u8>,
    /// Checksum contribution of the fixed payload words (1..WORDS-1).
    base: u64,
}

impl Message {
    fn new(seed: u64) -> Message {
        let mut rng = seed;
        let mut words: Vec<u64> = (0..WORDS).map(|_| splitmix64(&mut rng)).collect();
        words[0] = 0;
        let base = checksum(|i| words[i]);
        words[WORDS - 1] = base;
        Message {
            bytes: words.iter().flat_map(|w| w.to_le_bytes()).collect(),
            base,
        }
    }

    /// Stamp iteration `it` (word 0 and the checksum word).
    fn stamp(&mut self, it: u64) {
        let sum = self.base.wrapping_add(it) & CHECK_MASK;
        self.bytes[..8].copy_from_slice(&it.to_le_bytes());
        self.bytes[SIZE - 8..].copy_from_slice(&sum.to_le_bytes());
    }
}

/// What the receiver saw.
struct Received {
    exchanges: u64,
    bad: u64,
    polls: u64,
    arrivals: u64,
}

/// Receiver loop: poll until data lands, verify the stamp and checksum in
/// place, re-arm; stop when the sender says so.
fn receive(mut rx: DirectReceiver, stop: &AtomicBool) -> Received {
    let mut it = 0u64;
    let mut bad = 0u64;
    'run: loop {
        let mut spins = 0u32;
        while !rx.poll() {
            // Acquire pairs with the sender's Release store after its last
            // exchange completed: nothing is in flight once it reads true.
            if stop.load(Ordering::Acquire) {
                break 'run;
            }
            spins += 1;
            if spins.is_multiple_of(256) {
                thread::yield_now();
            } else {
                std::hint::spin_loop();
            }
        }
        let ok = rx.with_data(|v: WordView<'_>| {
            v.word(0) == it && v.word(WORDS - 1) == checksum(|i| v.word(i))
        });
        bad += u64::from(!ok);
        it += 1;
        rx.arm();
    }
    let s = rx.stats();
    Received {
        exchanges: it,
        bad,
        polls: s.attempts,
        arrivals: s.completed,
    }
}

/// One session's results, seen from the sender.
struct Session {
    /// Host seconds from payload generation to the end of the warm-up.
    setup_s: f64,
    /// Peak RSS (MiB) at the end of the warm-up.
    setup_rss_mb: f64,
    /// Completed exchanges, warm-up included.
    sent: u64,
    /// Timed exchanges (warm-up excluded).
    exchanges: u64,
    put_errors: u64,
    /// Host ms per batch of [`BATCH`] timed exchanges.
    batch_ms: Vec<f64>,
    /// Per batch, the nearest-rank p50 and p99 of its exchange times in
    /// ns (empty unless timed per exchange).
    batch_p50_ns: Vec<f64>,
    batch_p99_ns: Vec<f64>,
    recv: Received,
}

/// Wait until the receiver has re-armed after our last put.
fn await_ready(tx: &DirectSender) {
    let mut spins = 0u32;
    while !tx.receiver_ready() {
        spins += 1;
        if spins.is_multiple_of(256) {
            thread::yield_now();
        } else {
            std::hint::spin_loop();
        }
    }
}

/// When a session stops timing batches.
#[derive(Clone, Copy)]
enum Until {
    Batches(usize),
    /// Host time after the warm-up (at least one batch).
    Elapsed(Duration),
}

/// One session: generate the payload from `seed`, create a fresh channel,
/// start the receiver and run [`WARMUP`] exchanges (the setup), then timed
/// batches until `until`. Each exchange is put → the receiver detects,
/// verifies in place and arms → the sender sees the re-arm.
fn session(seed: u64, until: Until, per_exchange: bool) -> Session {
    let t0 = Instant::now();
    let mut msg = Message::new(seed);
    let (mut tx, rx) = direct::channel(SIZE, OOB);
    let stop = AtomicBool::new(false);
    thread::scope(|s| {
        let receiver = s.spawn(|| receive(rx, &stop));
        let mut it = 0u64;
        let mut put_errors = 0;
        let mut exchange = |it: &mut u64| {
            msg.stamp(*it);
            if tx.put(&msg.bytes).is_err() {
                put_errors += 1;
                return;
            }
            await_ready(&tx);
            *it += 1;
        };
        for _ in 0..WARMUP {
            exchange(&mut it);
        }
        let warm = it;
        let setup_s = t0.elapsed().as_secs_f64();
        let setup_rss_mb = peak_rss_mb();
        let deadline = Instant::now()
            + match until {
                Until::Elapsed(d) => d,
                Until::Batches(_) => Duration::ZERO,
            };
        let (mut batch_ms, mut batch_p50_ns, mut batch_p99_ns) =
            (Vec::new(), Vec::new(), Vec::new());
        let mut times = Vec::with_capacity(BATCH);
        loop {
            let b0 = Instant::now();
            let mut prev = b0;
            for _ in 0..BATCH {
                exchange(&mut it);
                if per_exchange {
                    let now = Instant::now();
                    times.push(now.duration_since(prev).as_nanos() as f64);
                    prev = now;
                }
            }
            batch_ms.push(b0.elapsed().as_secs_f64() * 1e3);
            if per_exchange {
                times = sorted(times);
                batch_p50_ns.push(nearest_rank(&times, 50.0).unwrap_or(0.0));
                batch_p99_ns.push(nearest_rank(&times, 99.0).unwrap_or(0.0));
                times.clear();
            }
            let done = match until {
                Until::Batches(n) => batch_ms.len() >= n,
                Until::Elapsed(_) => Instant::now() >= deadline,
            };
            if done {
                break;
            }
        }
        // Release pairs with the receiver's Acquire: every exchange above
        // completed (we saw its re-arm) before the receiver may stop.
        stop.store(true, Ordering::Release);
        let recv = receiver.join().expect("receiver thread panicked");
        Session {
            setup_s,
            setup_rss_mb,
            sent: it,
            exchanges: it.saturating_sub(warm),
            put_errors,
            batch_ms,
            batch_p50_ns,
            batch_p99_ns,
            recv,
        }
    })
}

/// Count a session's exchanges and failures: a failed put, a bad stamp or
/// checksum, or sender and receiver disagreeing on how many landed.
fn check(report: &mut Report, s: &Session) {
    let lost = s.sent.abs_diff(s.recv.exchanges);
    report.check_many(
        s.sent + s.put_errors,
        s.put_errors + s.recv.bad + lost,
        "direct-threads exchanges failed (put refused, stamp/checksum mismatch, or lost)",
    );
}

/// Untraced pass: [`SETUP_REPS`] sessions, each a setup and an equal share
/// of `--seconds` of timed exchanges, so the setups' median sees the same
/// host conditions as the exchanges. A run is a batch of [`BATCH`]
/// exchanges; as in the simulated workloads the gated figures come from
/// the slow tail (p90 batch time, p10 batch exchange rate). The exchange
/// latencies are the median over batches of each batch's percentile.
pub fn bench(args: &Args, spans: &mut Spans, report: &mut Report) {
    let segment = Duration::from_secs(args.seconds) / SETUP_REPS as u32;
    let (mut setup_s, mut batch_ms, mut p50, mut p99) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut exchanges, mut rss_mb) = (0, 0.0);
    for rep in 0..SETUP_REPS as u64 {
        let s = spans.time("ckdirect", "direct.session", rep, || {
            session(args.seed, Until::Elapsed(segment), true)
        });
        check(report, &s);
        setup_s.push(s.setup_s);
        if rep == 0 {
            rss_mb = s.setup_rss_mb;
        }
        exchanges += s.exchanges;
        batch_ms.extend(s.batch_ms);
        p50.extend(s.batch_p50_ns);
        p99.extend(s.batch_p99_ns);
    }
    let batch = sorted(batch_ms);
    let n = batch.len();
    let at = |v: &[f64], p| nearest_rank(v, p).unwrap_or(0.0);
    let rate = sorted(batch.iter().map(|ms| BATCH as f64 * 1e3 / ms).collect());
    report.push("events_per_s", at(&rate, 10.0), "1/s", n);
    report.push("run_ms_p90", at(&batch, 90.0), "ms", n);
    report.push("setup_s", median(&setup_s), "s", setup_s.len());
    report.push("peak_rss_mb", rss_mb, "MiB", 1);
    report.info("run_ms_p50", at(&batch, 50.0), "ms", n);
    // each is resolved from the BATCH exchanges of one batch
    report.info("exchange_us_p50", median(&p50) / 1e3, "us", BATCH);
    report.info("exchange_us_p99", median(&p99) / 1e3, "us", BATCH);
    report.notes.push(format!(
        "exchange_us_*: median over {n} batches of each batch's percentile, {exchanges} exchanges"
    ));
    report.info("peak_rss_mb.exit", peak_rss_mb(), "MiB", 1);
}

/// Traced pass: batch-timed and per-exchange-timed sessions alternate
/// (their ratio is the cost of observing each exchange), then the
/// single-thread replays of the channel's data path.
pub fn bench_traced(args: &Args, spans: &mut Spans, report: &mut Report) {
    let deadline = Instant::now() + Duration::from_secs(args.seconds);
    let (mut plain, mut traced) = (Vec::new(), Vec::new());
    let (mut polls, mut arrivals) = (0u64, 0u64);
    let mut i = 0;
    while Instant::now() < deadline || i < 3 {
        for per_exchange in [false, true] {
            let s = spans.time("ckdirect", "direct.session", i, || {
                session(args.seed, Until::Batches(50), per_exchange)
            });
            check(report, &s);
            let us = s.batch_ms.iter().sum::<f64>() * 1e3 / s.exchanges.max(1) as f64;
            if per_exchange {
                traced.push(us);
            } else {
                plain.push(us);
            }
            polls += s.recv.polls;
            arrivals += s.recv.arrivals;
        }
        i += 1;
    }
    report.push(
        "direct.polls_per_delivery",
        ratio(polls.saturating_sub(arrivals), arrivals),
        "ratio",
        plain.len() + traced.len(),
    );
    report.push(
        "trace.prof_overhead_ratio",
        median(&traced) / median(&plain).max(1e-9),
        "ratio",
        traced.len(),
    );

    let mut at_size = Vec::new();
    for (size, put, poll_arm, mpsc) in [
        (
            64,
            "direct.put_ns.64B",
            "direct.poll_arm_ns.64B",
            "direct.mpsc_ns.64B",
        ),
        (
            1024,
            "direct.put_ns.1KiB",
            "direct.poll_arm_ns.1KiB",
            "direct.mpsc_ns.1KiB",
        ),
        (
            SIZE,
            "direct.put_ns.16KiB",
            "direct.poll_arm_ns.16KiB",
            "direct.mpsc_ns.16KiB",
        ),
    ] {
        let c = spans.time("ckdirect", "replay.direct", size as u64, || {
            replay::direct_single(size, args.seed)
        });
        report.push(put, c.put_ns, "ns", 1);
        report.push(poll_arm, c.poll_arm_ns, "ns", 1);
        report.push(mpsc, c.mpsc_ns, "ns", 1);
        at_size.push(c);
    }
    let wall_us = median(&plain);
    let replay_ms = (at_size[2].put_ns + at_size[2].poll_arm_ns) * BATCH as f64 / 1e6;
    let wall_ms = wall_us * BATCH as f64 / 1e3;
    report.push("run.wall_ms", wall_ms, "ms", plain.len());
    report.push(
        "replay.explained_ratio",
        replay_ms / wall_ms.max(1e-9),
        "ratio",
        1,
    );
    report.notes.push(format!(
        "replays vs batch wall: put+poll+arm {replay_ms:.3} ms of {wall_ms:.3} ms per {BATCH} exchanges"
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stamped_messages_verify_and_never_collide() {
        let mut m = Message::new(7);
        for it in [0u64, 1, 12345, u64::MAX >> 1] {
            m.stamp(it);
            let word = |i: usize| u64::from_le_bytes(m.bytes[i * 8..i * 8 + 8].try_into().unwrap());
            assert_eq!(word(0), it);
            assert_eq!(word(WORDS - 1), checksum(word));
            assert_ne!(word(WORDS - 1), OOB);
        }
        let word = |i: usize| u64::from_le_bytes(m.bytes[i * 8..i * 8 + 8].try_into().unwrap());
        let torn = |i: usize| if i == 17 { word(i) ^ 1 } else { word(i) };
        assert_ne!(
            checksum(torn),
            word(WORDS - 1),
            "a torn word must fail the check"
        );
    }

    #[test]
    fn payload_words_come_from_the_seed() {
        assert_eq!(Message::new(3).bytes, Message::new(3).bytes);
        assert_ne!(Message::new(3).bytes, Message::new(4).bytes);
    }

    #[test]
    fn a_short_session_verifies_every_exchange() {
        let s = session(11, Until::Batches(2), true);
        assert_eq!(s.exchanges, 2 * BATCH as u64);
        assert_eq!(s.recv.exchanges, s.exchanges + WARMUP as u64);
        assert_eq!((s.recv.bad, s.put_errors), (0, 0));
        assert_eq!((s.batch_ms.len(), s.batch_p99_ns.len()), (2, 2));
        assert!(s.batch_p50_ns[0] <= s.batch_p99_ns[0]);
    }
}
