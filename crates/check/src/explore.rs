//! The stateless schedule-space explorer with DPOR-style pruning.
//!
//! The explorer drives a deterministic *runner* — a closure that executes
//! one full simulation under a given [`Prescription`] and reports the
//! run's [`Outcome`] plus the [`Decision`] list the scripted policy
//! recorded. Exploration is a depth-first walk over prescriptions:
//!
//! 1. run the canonical schedule (empty prescription, every decision
//!    takes the min-heap head);
//! 2. at every decision, consider swapping the head `c0` with each
//!    alternative candidate `cj`. The swap is **pruned** when the two
//!    events' footprints commute (different PEs, different channels — the
//!    happens-before structure `ckd-race` models says the orders are
//!    equivalent), **excluded** when either event is not an arrival (or
//!    carries an unknown footprint: local scheduler ticks and fault-plane
//!    bookkeeping are not application-visible reorderings) or when `cj`
//!    conflicts with a candidate between it and the head, and **branched**
//!    otherwise;
//! 3. a branched child re-runs with the swap prescribed and explores only
//!    decisions *after* the branch point (sleep-set discipline: earlier
//!    alternatives were already expanded by an ancestor and are counted as
//!    `pruned_sleep`).
//!
//! Every explored schedule must produce the same observation — the same
//! deterministic-counter digest and the same sanitizer cleanliness — as
//! the canonical run. The first divergence stops exploration and becomes
//! a replayable [`Counterexample`].

use ckd_race::{commutes, Footprint};
use ckd_sim::EventMeta;

use crate::policy::{Decision, Prescription};

/// What one run observed: everything that must be schedule-independent.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct Outcome {
    /// Deterministic digest of the machine counters and the application's
    /// own integral results (virtual times excluded — a commutation window
    /// legitimately shifts timing).
    pub digest: String,
    /// Whether the happens-before sanitizer finished with no diagnostics.
    pub clean: bool,
    /// The sanitizer's report (empty when clean).
    pub report: String,
}

/// One runner invocation: execute the simulation steered by the
/// prescription, return its outcome and recorded decisions.
pub type Runner<'a> = dyn FnMut(&Prescription) -> (Outcome, Vec<Decision>) + 'a;

/// Exploration counters — the evidence behind a certificate.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ExploreStats {
    /// Schedules actually executed (including the canonical one).
    pub explored: u64,
    /// Saturating product of candidate-set sizes along the canonical run:
    /// the schedule count a naive enumerator would face.
    pub naive: u64,
    /// Alternatives skipped because the candidates' footprints commute.
    pub pruned_commuting: u64,
    /// Alternatives skipped by the sleep-set discipline (already expanded
    /// by an ancestor run).
    pub pruned_sleep: u64,
    /// Alternatives outside the independence model (non-arrival or
    /// unknown-footprint events, or blocked by an intermediate conflict).
    pub excluded: u64,
    /// The run budget stopped exploration before the frontier emptied.
    pub budget_exhausted: bool,
}

impl ExploreStats {
    /// Pruning ratio: naive schedule count per schedule actually run.
    pub fn ratio(&self) -> u64 {
        self.naive / self.explored.max(1)
    }
}

/// A schedule whose observation diverged from the canonical run.
#[derive(Clone, Debug)]
pub struct Counterexample {
    /// The prescription that reproduces the divergence (replay it through
    /// the same runner to get the same trace, byte for byte).
    pub prescription: Prescription,
    /// Human-readable description of the decision that was swapped last.
    pub swapped: String,
    /// The canonical observation.
    pub canonical: Outcome,
    /// The divergent observation.
    pub divergent: Outcome,
}

/// The result of exploring one case.
#[derive(Clone, Debug)]
pub struct Exploration {
    /// The counters.
    pub stats: ExploreStats,
    /// The first divergence found, if any.
    pub counterexample: Option<Counterexample>,
}

impl Exploration {
    /// `true` when no divergence was found within the budget.
    pub fn certified(&self) -> bool {
        self.counterexample.is_none()
    }
}

/// How one alternative candidate relates to the canonical head.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Alt {
    /// Not an application-visible reordering (non-arrival or unknown
    /// footprint), or blocked by a conflicting intermediate candidate.
    Excluded,
    /// Commutes with the head: the swapped schedule is Mazurkiewicz-
    /// equivalent, no need to run it.
    Commuting,
    /// A real racing pair: run the swapped schedule.
    Branch,
}

fn classify(cands: &[EventMeta], j: usize) -> Alt {
    let c0 = Footprint::from_tag(cands[0].tag);
    let cj = Footprint::from_tag(cands[j].tag);
    if !c0.is_arrival() || !cj.is_arrival() {
        return Alt::Excluded;
    }
    if commutes(c0, cj) {
        return Alt::Commuting;
    }
    // Jumping cj to the head also reorders it past every candidate in
    // between; only a conflict-free jump is a pure c0/cj swap.
    if (1..j).any(|i| !commutes(Footprint::from_tag(cands[i].tag), cj)) {
        return Alt::Excluded;
    }
    Alt::Branch
}

fn describe(d: &Decision, j: usize) -> String {
    let fmt = |m: &EventMeta| {
        let f = Footprint::from_tag(m.tag);
        format!(
            "seq={} t={}ps pe={:?} ch={:?}",
            m.seq,
            m.at.as_ps(),
            f.pe(),
            f.resource()
        )
    };
    format!(
        "head [{}] <-> alt#{j} [{}]",
        fmt(&d.cands[0]),
        fmt(&d.cands[j])
    )
}

fn naive_of(decs: &[Decision]) -> u64 {
    decs.iter()
        .fold(1u64, |n, d| n.saturating_mul(d.cands.len() as u64))
}

/// Explore the runner's schedule space, executing at most `budget` runs.
///
/// Stops at the first divergence. A result with no counterexample and
/// `budget_exhausted == false` means the whole reduced schedule space was
/// covered; with `budget_exhausted == true` it means no divergence was
/// found in the schedules the budget allowed.
pub fn explore(run: &mut Runner<'_>, budget: u64) -> Exploration {
    let base = Prescription::new();
    let (canon, decs0) = run(&base);
    let mut stats = ExploreStats {
        explored: 1,
        naive: naive_of(&decs0),
        ..ExploreStats::default()
    };
    // (prescription that produced the run, first decision index this run
    // may branch at, the run's recorded decisions)
    let mut stack: Vec<(Prescription, usize, Vec<Decision>)> = vec![(base, 0, decs0)];
    while let Some((presc, from_d, decs)) = stack.pop() {
        for (d, dec) in decs.iter().enumerate() {
            for j in 1..dec.cands.len() {
                match classify(&dec.cands, j) {
                    Alt::Excluded => stats.excluded += 1,
                    Alt::Commuting => stats.pruned_commuting += 1,
                    Alt::Branch if d < from_d => stats.pruned_sleep += 1,
                    Alt::Branch => {
                        if stats.explored >= budget {
                            stats.budget_exhausted = true;
                            continue;
                        }
                        let mut child = presc.clone();
                        child.insert(d, j);
                        let (out, cdecs) = run(&child);
                        stats.explored += 1;
                        if out.digest != canon.digest || out.clean != canon.clean {
                            return Exploration {
                                stats,
                                counterexample: Some(Counterexample {
                                    prescription: child,
                                    swapped: describe(dec, j),
                                    canonical: canon,
                                    divergent: out,
                                }),
                            };
                        }
                        stack.push((child, d + 1, cdecs));
                    }
                }
            }
        }
    }
    Exploration {
        stats,
        counterexample: None,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use ckd_sim::Time;

    fn arr(seq: u64, pe: usize) -> EventMeta {
        EventMeta {
            seq,
            at: Time::ZERO,
            tag: Footprint::arrival(pe).tag(),
        }
    }

    fn local(seq: u64, pe: usize) -> EventMeta {
        EventMeta {
            seq,
            at: Time::ZERO,
            tag: Footprint::local(pe).tag(),
        }
    }

    /// A toy system: two same-PE arrivals race, the outcome is which one
    /// lands first. Everything else commutes or is local.
    fn toy_runner(order_sensitive: bool) -> impl FnMut(&Prescription) -> (Outcome, Vec<Decision>) {
        move |presc: &Prescription| {
            let decisions = vec![
                Decision {
                    cands: vec![arr(0, 0), arr(1, 1)], // different PEs: commute
                },
                Decision {
                    cands: vec![arr(2, 2), arr(3, 2)], // same PE: race
                },
                Decision {
                    cands: vec![local(4, 0), arr(5, 0)], // local head: excluded
                },
            ];
            let swapped = presc.get(&1).copied().unwrap_or(0) == 1;
            let digest = if order_sensitive && swapped {
                "swapped".to_owned()
            } else {
                "canonical".to_owned()
            };
            (
                Outcome {
                    digest,
                    clean: true,
                    report: String::new(),
                },
                decisions,
            )
        }
    }

    #[test]
    fn order_independent_toy_certifies_with_pruning() {
        let mut run = toy_runner(false);
        let ex = explore(&mut run, 16);
        assert!(ex.certified());
        assert_eq!(ex.stats.naive, 2 * 2 * 2);
        assert_eq!(ex.stats.explored, 2); // canonical + the one real race
        assert!(ex.stats.ratio() >= 2);
        assert_eq!(ex.stats.pruned_commuting, 2); // decision 0, both runs
        assert!(!ex.stats.budget_exhausted);
    }

    #[test]
    fn order_sensitive_toy_yields_a_counterexample() {
        let mut run = toy_runner(true);
        let ex = explore(&mut run, 16);
        let cx = ex.counterexample.expect("divergence found");
        assert_eq!(cx.prescription, Prescription::from([(1, 1)]));
        assert_eq!(cx.canonical.digest, "canonical");
        assert_eq!(cx.divergent.digest, "swapped");
        // replaying the prescription reproduces the divergent outcome
        let (out, _) = toy_runner(true)(&cx.prescription);
        assert_eq!(out.digest, cx.divergent.digest);
    }

    #[test]
    fn budget_stops_exploration_honestly() {
        let mut run = toy_runner(false);
        let ex = explore(&mut run, 1);
        assert!(ex.certified());
        assert_eq!(ex.stats.explored, 1);
        assert!(ex.stats.budget_exhausted);
    }
}
