//! The concrete check cases: the four paper applications (expected to
//! certify) and the schedule-dependent mutant (expected to yield a
//! counterexample).
//!
//! Each case builds a small machine with the sanitizer *and* a
//! [`ScriptedPolicy`] installed, runs the application once under a given
//! prescription, and reduces the run to an [`Outcome`]:
//!
//! * the machine's deterministic counters (`msgs_sent`, `puts`, byte
//!   totals, reductions, protocol breakdown — **not** `events`, which
//!   counts scheduler self-ticks and legitimately varies with poll
//!   interleaving, and not virtual times, which a commutation window
//!   legitimately shifts);
//! * the application's own integral results (iterations completed,
//!   residual bits, lossy-put count, protocol counters);
//! * sanitizer cleanliness.
//!
//! Matmul runs with `real_compute: false`: its block accumulation order
//! is arrival-driven, so reordered-but-equivalent schedules may change
//! floating-point summation order. The count digest still certifies the
//! communication protocol; Jacobi keeps `real_compute: true` because its
//! residual is computed from fully-landed halos and a max-reduction, both
//! order-independent.

use std::rc::Rc;

use ckd_apps::common::{Platform, Variant};
use ckd_apps::jacobi3d::{run_jacobi_on, JacobiCfg};
use ckd_apps::matmul3d::{run_matmul_on, MatmulCfg};
use ckd_apps::mutants::{mutant_digest, mutant_platform, run_mutant_on, MutantKind};
use ckd_apps::openatom::{run_openatom_on, OpenAtomCfg};
use ckd_apps::pingpong::charm_pingpong_on;
use ckd_charm::Machine;
use ckd_race::SanitizerConfig;
use ckd_sim::Time;

use crate::explore::{explore, Exploration, Outcome};
use crate::policy::{Decision, Prescription, ScheduleTrace, ScriptedPolicy};

/// One checkable workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckCase {
    /// CkDirect pingpong, 1 KiB × 3 exchanges.
    Pingpong,
    /// 8³ Jacobi over a 2×2×1 chare grid, 2 iterations, real arithmetic.
    Jacobi,
    /// 16×16 matmul over a 2³ chare grid, 1 iteration, modeled compute.
    Matmul,
    /// 4-state / 2-plane OpenAtom step.
    OpenAtom,
    /// The `schedule_dependent_pingpong` mutant — the case the checker
    /// must *fail*.
    SchedMutant,
}

impl CheckCase {
    /// The four applications the certificate covers.
    pub const APPS: [CheckCase; 4] = [
        CheckCase::Pingpong,
        CheckCase::Jacobi,
        CheckCase::Matmul,
        CheckCase::OpenAtom,
    ];

    /// Stable name used in reports and the certificate.
    pub fn name(self) -> &'static str {
        match self {
            CheckCase::Pingpong => "pingpong",
            CheckCase::Jacobi => "jacobi3d",
            CheckCase::Matmul => "matmul3d",
            CheckCase::OpenAtom => "openatom",
            CheckCase::SchedMutant => "schedule_dependent_pingpong",
        }
    }

    /// PEs the case runs on.
    pub fn pes(self) -> usize {
        match self {
            CheckCase::SchedMutant => 4,
            _ => 8,
        }
    }

    /// Execute the case once under `prescription`, reordering within
    /// `window`.
    pub fn run_once(self, window: Time, prescription: &Prescription) -> (Outcome, Vec<Decision>) {
        let trace = ScheduleTrace::scripted(prescription.clone());
        let policy = ScriptedPolicy::new(window, Rc::clone(&trace));
        let platform = match self {
            CheckCase::SchedMutant => mutant_platform(),
            _ => Platform::IbAbe { cores_per_node: 2 },
        };
        let mut m = platform
            .builder(self.pes())
            .with_sanitizer(SanitizerConfig::default())
            .with_checker(Box::new(policy))
            .build();
        let app = self.drive(&mut m);
        let out = outcome_of(&m, app);
        let decisions = trace.borrow().decisions.clone();
        (out, decisions)
    }

    /// Run the workload on a prepared machine, returning the app-level
    /// digest fragment.
    fn drive(self, m: &mut Machine) -> String {
        match self {
            CheckCase::Pingpong => {
                let r = charm_pingpong_on(m, Variant::Ckd, 1024, 3);
                format!("iters={} lossy={}", r.iters, r.lossy_puts)
            }
            CheckCase::Jacobi => {
                let r = run_jacobi_on(
                    m,
                    JacobiCfg {
                        domain: [8, 8, 8],
                        chares: [2, 2, 1],
                        iters: 2,
                        variant: Variant::Ckd,
                        real_compute: true,
                    },
                );
                format!(
                    "iters={} residual={:#018x} lossy={}",
                    r.iters,
                    r.residual.to_bits(),
                    r.lossy_puts
                )
            }
            CheckCase::Matmul => {
                let r = run_matmul_on(
                    m,
                    MatmulCfg {
                        n: 16,
                        grid: 2,
                        iters: 1,
                        variant: Variant::Ckd,
                        real_compute: false,
                    },
                );
                format!("iters={} lossy={}", r.iters, r.lossy_puts)
            }
            CheckCase::OpenAtom => {
                let r = run_openatom_on(
                    m,
                    OpenAtomCfg {
                        nstates: 4,
                        nplanes: 2,
                        grain: 2,
                        pts: 16,
                        steps: 1,
                        variant: Variant::Ckd,
                        pc_only: false,
                        ready_split: false,
                    },
                );
                format!("steps={} lossy={}", r.steps, r.lossy_puts)
            }
            CheckCase::SchedMutant => {
                run_mutant_on(m, MutantKind::SchedDependentPingpong);
                mutant_digest(m, MutantKind::SchedDependentPingpong)
            }
        }
    }

    /// Explore this case's schedule space.
    pub fn explore(self, window: Time, budget: u64) -> Exploration {
        explore(
            &mut |presc: &Prescription| self.run_once(window, presc),
            budget,
        )
    }
}

/// Reduce a finished machine (plus the app digest fragment) to the
/// schedule-independence observation.
fn outcome_of(m: &Machine, app: String) -> Outcome {
    let s = m.stats();
    let digest = format!(
        "msgs={} msgb={} puts={} putb={} red={} proto={:?} | {}",
        s.msgs_sent, s.msg_bytes, s.puts, s.put_bytes, s.reductions, s.proto, app
    );
    Outcome {
        clean: m.sanitizer().is_clean(),
        report: m.sanitizer().report(),
        digest,
    }
}
