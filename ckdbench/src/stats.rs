//! Pure helpers: percentiles, seeded input generation, record digests, and
//! the naming rules every reported metric must satisfy.

/// Nearest-rank percentile of an ascending slice: the smallest sample with
/// at least `p` percent of the samples at or below it. `None` on an empty
/// slice or a `p` outside `(0, 100]`.
pub fn nearest_rank(sorted: &[f64], p: f64) -> Option<f64> {
    if sorted.is_empty() || !(p > 0.0 && p <= 100.0) {
        return None;
    }
    let rank = (p / 100.0 * sorted.len() as f64).ceil() as usize;
    Some(sorted[rank.clamp(1, sorted.len()) - 1])
}

/// Samples sorted ascending (NaN-safe total order).
pub fn sorted(mut v: Vec<f64>) -> Vec<f64> {
    v.sort_by(f64::total_cmp);
    v
}

/// Median of unsorted samples by nearest rank (0 when empty).
pub fn median(v: &[f64]) -> f64 {
    nearest_rank(&sorted(v.to_vec()), 50.0).unwrap_or(0.0)
}

/// Samples beyond the nearest-rank `p`th percentile, on the side of its
/// tail (above it for `p > 50`, below it for `p < 50`): a percentile is
/// only reported as resolved when at least ten samples lie beyond it.
pub fn beyond(n: usize, p: f64) -> usize {
    let rank = ((p / 100.0 * n as f64).ceil() as usize).min(n);
    if p < 50.0 {
        rank.saturating_sub(1)
    } else {
        n - rank
    }
}

/// `num / den`, or 0 when nothing was attempted.
pub fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// SplitMix64: the benchmark's only generator of seeded inputs.
pub fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a over `bytes`: digest of a run's deterministic record.
pub fn fnv1a64(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xCBF2_9CE4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0000_0100_0000_01B3)
    })
}

/// Parse a `--seed` value: a decimal `u64`, nothing else.
pub fn parse_seed(s: &str) -> Result<u64, String> {
    if s.is_empty() || !s.bytes().all(|b| b.is_ascii_digit()) {
        return Err(format!("--seed wants a non-negative integer, got {s:?}"));
    }
    s.parse()
        .map_err(|_| format!("--seed {s:?} does not fit in 64 bits"))
}

/// Metric and workload names: a letter or digit, then up to 63 letters,
/// digits, `_`, `.` or `-`.
pub fn valid_name(s: &str) -> bool {
    let mut b = s.bytes();
    s.len() <= 64
        && b.next().is_some_and(|c| c.is_ascii_alphanumeric())
        && b.all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'.' | b'-'))
}

/// Units: 1 to 16 letters, digits, `_`, `/`, `%`, `.` or `-`.
pub fn valid_unit(s: &str) -> bool {
    (1..=16).contains(&s.len())
        && s.bytes()
            .all(|c| c.is_ascii_alphanumeric() || matches!(c, b'_' | b'/' | b'%' | b'.' | b'-'))
}

/// One line of the stored digest file: `<workload> <seed> <16 hex digits>`.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct DigestEntry {
    pub workload: String,
    pub seed: u64,
    pub digest: u64,
}

/// Parse the digest file; blank lines and `#` comments are skipped. Any
/// other malformed line rejects the whole file, so a damaged file can never
/// pass a run by omission.
pub fn parse_digests(text: &str) -> Result<Vec<DigestEntry>, String> {
    let mut out = Vec::new();
    for (i, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let fields: Vec<&str> = line.split_whitespace().collect();
        let bad = |why: &str| format!("digest line {}: {why}: {line:?}", i + 1);
        let [workload, seed, digest] = fields[..] else {
            return Err(bad("want 3 fields"));
        };
        if !valid_name(workload) {
            return Err(bad("bad workload name"));
        }
        let seed = parse_seed(seed).map_err(|e| bad(&e))?;
        if digest.len() != 16 || !digest.bytes().all(|c| c.is_ascii_hexdigit()) {
            return Err(bad("digest is not 16 hex digits"));
        }
        let digest = u64::from_str_radix(digest, 16).map_err(|e| bad(&e.to_string()))?;
        out.push(DigestEntry {
            workload: workload.to_string(),
            seed,
            digest,
        });
    }
    Ok(out)
}

/// Compare a run's digest against the stored file. `Ok(())` only on an
/// exact match; a missing entry, a mismatch, or an unreadable file is an
/// `Err` naming the failure — counted as a failed operation, never a panic.
pub fn check_digest(
    file: Result<&str, String>,
    workload: &str,
    seed: u64,
    got: u64,
) -> Result<(), String> {
    let entries = parse_digests(file?)?;
    match entries
        .iter()
        .find(|e| e.workload == workload && e.seed == seed)
    {
        Some(e) if e.digest == got => Ok(()),
        Some(e) => Err(format!(
            "{workload} seed {seed}: digest {got:016x} != stored {:016x}",
            e.digest
        )),
        None => Err(format!("{workload} seed {seed}: no stored digest")),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_picks_the_covering_sample() {
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(nearest_rank(&v, 50.0), Some(5.0));
        assert_eq!(nearest_rank(&v, 90.0), Some(9.0));
        assert_eq!(nearest_rank(&v, 91.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 100.0), Some(10.0));
        assert_eq!(nearest_rank(&v, 0.1), Some(1.0));
        assert_eq!(nearest_rank(&[7.0], 99.0), Some(7.0));
        assert_eq!(nearest_rank(&[], 50.0), None);
        assert_eq!(nearest_rank(&v, 0.0), None);
        assert_eq!(nearest_rank(&v, 100.5), None);
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn samples_beyond_a_percentile() {
        // p99 of 1000 samples leaves exactly ten beyond it; of 999, nine
        assert_eq!(beyond(1000, 99.0), 10);
        assert_eq!(beyond(999, 99.0), 9);
        assert_eq!(beyond(100, 90.0), 10);
        assert_eq!(beyond(0, 50.0), 0);
        assert_eq!(beyond(1, 50.0), 0);
        // p10 of 110 samples is the 11th: ten lie below it; of 100, nine
        assert_eq!(beyond(110, 10.0), 10);
        assert_eq!(beyond(100, 10.0), 9);
        assert_eq!(beyond(0, 10.0), 0);
    }

    #[test]
    fn seeds_parse_strictly() {
        assert_eq!(parse_seed("0"), Ok(0));
        assert_eq!(parse_seed("18446744073709551615"), Ok(u64::MAX));
        for bad in [
            "",
            "-1",
            "+3",
            "1.5",
            "0x10",
            " 7",
            "seven",
            "18446744073709551616",
        ] {
            assert!(parse_seed(bad).is_err(), "{bad:?} accepted");
        }
    }

    #[test]
    fn splitmix_is_deterministic_and_seed_sensitive() {
        let (mut a, mut b, mut c) = (5u64, 5u64, 6u64);
        let xa: Vec<u64> = (0..4).map(|_| splitmix64(&mut a)).collect();
        let xb: Vec<u64> = (0..4).map(|_| splitmix64(&mut b)).collect();
        let xc: Vec<u64> = (0..4).map(|_| splitmix64(&mut c)).collect();
        assert_eq!(xa, xb);
        assert_ne!(xa, xc);
    }

    #[test]
    fn name_and_unit_charsets() {
        for ok in [
            "events_per_s",
            "core.put_land_ns",
            "direct.put_ns.16KiB",
            "9lives",
            "a-b",
        ] {
            assert!(valid_name(ok), "{ok}");
        }
        for bad in ["", ".x", "_x", "a b", "a/b", "ns%", &"x".repeat(65)] {
            assert!(!valid_name(bad), "{bad}");
        }
        assert!(valid_name(&"x".repeat(64)));
        for ok in ["ms", "s", "1/s", "count", "%", "MiB", "ratio"] {
            assert!(valid_unit(ok), "{ok}");
        }
        for bad in ["", "a b", "µs", &"u".repeat(17)] {
            assert!(!valid_unit(bad), "{bad}");
        }
    }

    #[test]
    fn digests_round_trip_and_match() {
        let file = "# comment\n\nhalo-msg 1 00000000deadbeef\npairs-ckd 1 FFFFFFFFFFFFFFFF\n";
        let e = parse_digests(file).unwrap();
        assert_eq!(e.len(), 2);
        assert_eq!(e[0].digest, 0xdead_beef);
        assert_eq!(check_digest(Ok(file), "halo-msg", 1, 0xdead_beef), Ok(()));
        assert!(check_digest(Ok(file), "halo-msg", 1, 0xdead_beee).is_err());
        assert!(check_digest(Ok(file), "halo-msg", 2, 0xdead_beef).is_err());
        assert!(check_digest(Ok(file), "lossy-notified", 1, 0).is_err());
    }

    #[test]
    fn mangled_digest_files_fail_without_panicking() {
        for mangled in [
            "halo-msg 1 deadbeef\n",               // too short
            "halo-msg 1 00000000deadbeeg\n",       // not hex
            "halo-msg one 00000000deadbeef\n",     // bad seed
            "halo-msg 1 00000000deadbeef extra\n", // extra field
            "halo msg 1 00000000deadbeef\n",       // split name
            "\u{0}\u{1}\u{2}",                     // binary junk
        ] {
            assert!(parse_digests(mangled).is_err(), "{mangled:?}");
            assert!(check_digest(Ok(mangled), "halo-msg", 1, 0xdead_beef).is_err());
        }
        assert!(check_digest(Err("unreadable".into()), "halo-msg", 1, 0).is_err());
    }

    #[test]
    fn fnv_matches_reference_vectors() {
        assert_eq!(fnv1a64(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a64(b"a"), 0xaf63_dc4c_8601_ec8c);
    }
}
