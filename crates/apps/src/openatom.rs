//! §5 — mini-OpenAtom: the GSpace → PairCalculator phase structure of the
//! Car–Parrinello orthonormalization step (Figs 4–5).
//!
//! Chare arrays:
//!
//! * `GS(s, p)` — `nstates × nplanes` GSpace chares, each holding `pts`
//!   complex coefficients of state `s` on plane `p`;
//! * `PC(bi, bj, p)` — `g × g × nplanes` PairCalculators (`g = nstates /
//!   grain`): `PC(bi, bj, p)` forms the overlap tiles of state blocks `bi ×
//!   bj` on plane `p`.
//!
//! One time step:
//!
//! 1. **other phases** (skipped in PC-only runs): a compute lump plus a
//!    transpose-partner message per GS chare — the FFT and density phases
//!    that surround orthonormalization;
//! 2. **forward path**: every `GS(s,p)` streams its points to the `2g`
//!    PairCalculators that need state `s` (as a left or right member) —
//!    this is *the* communication the paper optimizes with CkDirect;
//! 3. each PC, upon its `2·grain`-th arrival (counted in the CkDirect
//!    completion callback, a plain function call), runs DGEMM on the
//!    accumulated tiles;
//! 4. **backward path**: results return to the left-member GS chares as
//!    ordinary messages (both variants), and a barrier ends the step.
//!
//! The §5.2 pathology is reproduced faithfully: with thousands of channels,
//! naive `ready` keeps every PC handle in the polling queue through all
//! phases, taxing every scheduler iteration. The `ready_split` mode issues
//! `ReadyMark` right after the DGEMM and `ReadyPollQ` only when the step
//! broadcast announces the forward path is imminent.

use ckd_charm::{ArrayId, Chare, Ctx, EntryId, Msg, PutOutcome, RedOp, RedTarget, RedVal};
use ckd_linalg::gemm_flops;
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Mapper};
use ckdirect::{HandleId, Region};

use crate::common::{Platform, Variant, OOB_PATTERN};

const EP_SETUP: EntryId = EntryId(0);
const EP_HANDLE: EntryId = EntryId(1);
const EP_STEP: EntryId = EntryId(2);
const EP_TRANSPOSE: EntryId = EntryId(3);
const EP_POINTS: EntryId = EntryId(4);
const EP_RESULT: EntryId = EntryId(5);
const EP_STEP_DONE: EntryId = EntryId(6);
const EP_DGEMM: EntryId = EntryId(7);

/// Configuration of one mini-OpenAtom run.
#[derive(Clone, Copy, Debug)]
pub struct OpenAtomCfg {
    /// Electronic states (1024 in the paper's 256-water benchmark; scaled
    /// down here).
    pub nstates: usize,
    /// Planes per state.
    pub nplanes: usize,
    /// States per PairCalculator block.
    pub grain: usize,
    /// Doubles streamed from each GS to each of its PCs.
    pub pts: usize,
    /// Time steps.
    pub steps: u32,
    /// Transport for the forward path.
    pub variant: Variant,
    /// "PC" runs: disable the other phases, keep all PC communication.
    pub pc_only: bool,
    /// Use `ReadyMark`+`ReadyPollQ` instead of plain `ready` (the paper's
    /// fix; meaningful on the polling backend only).
    pub ready_split: bool,
}

impl OpenAtomCfg {
    fn g(&self) -> usize {
        self.nstates / self.grain
    }

    fn points_bytes(&self) -> usize {
        self.pts * 8
    }
}

/// Result of one run.
#[derive(Clone, Copy, Debug)]
pub struct OpenAtomResult {
    /// Average wall time per step.
    pub time_per_step: Time,
    /// Virtual time at completion.
    pub total: Time,
    /// Steps executed.
    pub steps: u32,
    /// Total sentinel checks performed by poll sweeps (polling-cost
    /// evidence for the §5.2 ablation).
    pub poll_checks: u64,
    /// Puts the runtime reported retried or degraded, summed over GS chares
    /// (always 0 without fault injection).
    pub lossy_puts: u64,
}

/// Handle-shipping payload: `(slot, handle)` where slot identifies which of
/// the sender's outbound channels this is.
#[derive(Clone, Copy)]
struct HandleMsg {
    handle: HandleId,
}

// ---------------------------------------------------------------- GSpace

struct GsChare {
    cfg: OpenAtomCfg,
    s: usize,
    p: usize,
    /// Outbound handles (CKD): 2g channels to the PCs that need state `s`.
    out_handles: Vec<HandleId>,
    send_region: Option<Region>,
    setup_acks: usize,
    // per-step state
    step: u32,
    transpose_in: bool,
    results_in: usize,
    phase1_done: bool,
    lossy_puts: u64,
    t_first: Option<Time>,
    t_done: Time,
}

impl GsChare {
    /// PCs fed by this GS: `(bi = s/grain, bj = 0..g)` as the left member
    /// and `(bi = 0..g, bj = s/grain)` as the right member.
    fn my_pcs(&self) -> Vec<(usize, usize, bool)> {
        let g = self.cfg.g();
        let b = self.s / self.cfg.grain;
        let mut v = Vec::with_capacity(2 * g);
        for bj in 0..g {
            v.push((b, bj, true));
        }
        for bi in 0..g {
            v.push((bi, b, false));
        }
        v
    }

    fn expected_results(&self) -> usize {
        // one result message from each PC in this state's row
        self.cfg.g()
    }

    fn send_points(&mut self, ctx: &mut Ctx<'_>, pc_array: ArrayId) {
        let wire = self.cfg.points_bytes();
        match self.cfg.variant {
            Variant::Msg => {
                for (bi, bj, left) in self.my_pcs() {
                    let target = ctx.element(pc_array, Idx::i3(bi, bj, self.p));
                    // payload: (state, left?) so the PC can count arrivals
                    ctx.send(
                        target,
                        Msg::value(EP_POINTS, (self.s, left, self.step), wire),
                    );
                }
            }
            Variant::Ckd => {
                let region = self.send_region.as_ref().expect("setup done");
                region.write_f64s(0, &[self.step as f64 + 1.0]);
                let outs = self.out_handles.clone();
                for h in outs {
                    match ctx.direct_put(h).expect("put points") {
                        PutOutcome::Sent => {}
                        PutOutcome::Retried { .. } | PutOutcome::Degraded => self.lossy_puts += 1,
                    }
                }
            }
        }
    }

    fn maybe_phase2(&mut self, ctx: &mut Ctx<'_>, pc_array: ArrayId) {
        let need_transpose = !self.cfg.pc_only;
        if self.phase1_done && (!need_transpose || self.transpose_in) {
            self.phase1_done = false;
            self.transpose_in = false;
            self.send_points(ctx, pc_array);
        }
    }
}

// ----------------------------------------------------------- PairCalculator

struct PcChare {
    cfg: OpenAtomCfg,
    /// Inbound channels (CKD): 2·grain, in creation order.
    in_handles: Vec<HandleId>,
    in_regions: Vec<Region>,
    points_in: usize,
    dgemms: u32,
    t_last_dgemm: Time,
}

impl PcChare {
    fn expected_points(&self) -> usize {
        2 * self.cfg.grain
    }

    /// Count one arrival; when the set is complete, schedule the multiply.
    ///
    /// Following §5.1 exactly: in the CkDirect variant the completion
    /// callback only counts ("accumulation ... without incurring entry
    /// method scheduling overhead") and the DGEMM runs as an enqueued
    /// entry method, so queued work on this PE is not starved by a long
    /// multiply inside a callback. The message variant multiplies inline at
    /// the last point message, as the paper's default implementation does.
    fn on_points(&mut self, ctx: &mut Ctx<'_>, gs_array: ArrayId, me: Idx) {
        self.points_in += 1;
        if self.points_in < self.expected_points() {
            return;
        }
        self.points_in = 0;
        if self.cfg.variant == Variant::Ckd {
            let myself = ctx.me();
            ctx.send_local(myself, Msg::signal(EP_DGEMM));
            return;
        }
        self.run_dgemm(ctx, gs_array, me);
    }

    /// DGEMM over the accumulated tiles: S = Lᵀ · R,
    /// (grain × pts) · (pts × grain).
    fn run_dgemm(&mut self, ctx: &mut Ctx<'_>, gs_array: ArrayId, me: Idx) {
        let (grain, pts) = (self.cfg.grain, self.cfg.pts);
        ctx.charge_flops(gemm_flops(grain, grain, pts));
        self.dgemms += 1;
        self.t_last_dgemm = ctx.now();
        if self.cfg.variant == Variant::Ckd {
            for i in 0..self.in_handles.len() {
                let h = self.in_handles[i];
                if self.cfg.ready_split {
                    // release now; poll again only when the next forward
                    // phase is announced (EP_STEP)
                    ctx.direct_ready_mark(h).expect("mark");
                } else {
                    ctx.direct_ready(h).expect("ready");
                }
            }
        }
        // backward path: results to the left-member GS chares (messages in
        // both variants, as in the paper)
        let bi = me.at(0);
        let p = me.at(2);
        let wire = self.cfg.points_bytes();
        for k in 0..self.cfg.grain {
            let s = bi * self.cfg.grain + k;
            let gs = ctx.element(gs_array, Idx::i2(s, p));
            ctx.send(gs, Msg::sized(EP_RESULT, wire));
        }
    }
}

// -------------------------------------------------------------- controller

/// Single chare coordinating steps: collects the end-of-step barrier and
/// broadcasts the next step to both arrays.
struct Controller {
    cfg: OpenAtomCfg,
    gs_array: Option<ArrayId>,
    pc_array: Option<ArrayId>,
    step: u32,
}

impl Chare for Controller {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_STEP_DONE => {
                self.step += 1;
                if self.step <= self.cfg.steps {
                    ctx.broadcast(self.gs_array.unwrap(), Msg::signal(EP_STEP));
                    ctx.broadcast(self.pc_array.unwrap(), Msg::signal(EP_STEP));
                }
            }
            other => panic!("controller: unexpected {other:?}"),
        }
    }
}

// A wrapper so GS/PC chares can reach the array ids and controller
// reference; they are fixed after machine construction.
struct Wiring {
    gs_array: ArrayId,
    pc_array: ArrayId,
    controller: ckd_charm::ChareRef,
}

struct Gs {
    inner: GsChare,
    wiring: Option<Wiring>,
}

struct Pc {
    inner: PcChare,
    wiring: Option<Wiring>,
}

impl Chare for Gs {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let w = self.wiring.as_ref().expect("wired");
        let (pc_array, controller) = (w.pc_array, w.controller);
        match msg.ep {
            EP_SETUP => match self.inner.cfg.variant {
                Variant::Msg => {
                    ctx.contribute(
                        RedVal::Unit,
                        RedOp::Barrier,
                        RedTarget::Single(controller, EP_STEP_DONE),
                    );
                }
                Variant::Ckd => {
                    // one send region shared by all 2g channels (no-copy
                    // multicast); ship a handle request to each PC instead:
                    // the *receiver* creates handles, so GS asks each PC by
                    // message and the PC replies with EP_HANDLE
                    let region = Region::alloc(self.inner.cfg.points_bytes().clamp(16, 64));
                    region.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
                    self.inner.send_region = Some(region);
                    for (bi, bj, left) in self.inner.my_pcs() {
                        let target = ctx.element(pc_array, Idx::i3(bi, bj, self.inner.p));
                        ctx.send(
                            target,
                            Msg::value(EP_SETUP, (ctx.me(), self.inner.s, left), 24),
                        );
                    }
                }
            },
            EP_HANDLE => {
                let hm = *msg.payload.downcast::<HandleMsg>().unwrap();
                ctx.direct_assoc_local(hm.handle, self.inner.send_region.clone().unwrap())
                    .expect("assoc");
                self.inner.out_handles.push(hm.handle);
                self.inner.setup_acks += 1;
                if self.inner.setup_acks == 2 * self.inner.cfg.g() {
                    ctx.contribute(
                        RedVal::Unit,
                        RedOp::Barrier,
                        RedTarget::Single(controller, EP_STEP_DONE),
                    );
                }
            }
            EP_STEP => {
                if self.inner.t_first.is_none() {
                    self.inner.t_first = Some(ctx.now());
                }
                self.inner.step += 1;
                if self.inner.cfg.pc_only {
                    // other phases disabled: go straight to the forward path
                    self.inner.phase1_done = true;
                    self.inner.maybe_phase2(ctx, pc_array);
                } else {
                    // phase 1: the surrounding computation (FFTs, density),
                    // modeled as a compute lump + one transpose message
                    // FFTs + density phases: the bulk of a real step
                    let lump = 1500.0 * self.inner.cfg.pts as f64;
                    ctx.charge_flops(lump);
                    let partner_s = (self.inner.s + 1) % self.inner.cfg.nstates;
                    let gs_arr = self.wiring.as_ref().unwrap().gs_array;
                    let partner = ctx.element(gs_arr, Idx::i2(partner_s, self.inner.p));
                    ctx.send(
                        partner,
                        Msg::sized(EP_TRANSPOSE, self.inner.cfg.points_bytes()),
                    );
                    self.inner.phase1_done = true;
                    self.inner.maybe_phase2(ctx, pc_array);
                }
            }
            EP_TRANSPOSE => {
                self.inner.transpose_in = true;
                self.inner.maybe_phase2(ctx, pc_array);
            }
            EP_RESULT => {
                self.inner.results_in += 1;
                if self.inner.results_in == self.inner.expected_results() {
                    self.inner.results_in = 0;
                    self.inner.t_done = ctx.now();
                    // small update applying the orthonormalization result
                    ctx.charge_flops(4.0 * self.inner.cfg.pts as f64);
                    ctx.contribute(
                        RedVal::Unit,
                        RedOp::Barrier,
                        RedTarget::Single(controller, EP_STEP_DONE),
                    );
                }
            }
            other => panic!("GS: unexpected {other:?}"),
        }
    }
}

impl Chare for Pc {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        let w = self.wiring.as_ref().expect("wired");
        let gs_array = w.gs_array;
        let me = ctx.my_index();
        match msg.ep {
            EP_SETUP => {
                // a GS asked for a channel: create the inbound window and
                // return the handle
                let (gs_ref, _s, _left) = *msg
                    .payload
                    .downcast::<(ckd_charm::ChareRef, usize, bool)>()
                    .unwrap();
                let len = self.inner.cfg.points_bytes().clamp(16, 64);
                let region = Region::alloc(len);
                let h = ctx
                    .direct_create_handle_wire(
                        region.clone(),
                        OOB_PATTERN,
                        self.inner.in_handles.len() as u32,
                        self.inner.cfg.points_bytes(),
                    )
                    .expect("create");
                self.inner.in_regions.push(region);
                self.inner.in_handles.push(h);
                ctx.send(gs_ref, Msg::value(EP_HANDLE, HandleMsg { handle: h }, 16));
            }
            EP_STEP => {
                // phase boundary: with the split protocol, this is where
                // polling resumes — right before the forward path
                if self.inner.cfg.variant == Variant::Ckd && self.inner.cfg.ready_split {
                    for i in 0..self.inner.in_handles.len() {
                        let h = self.inner.in_handles[i];
                        ctx.direct_ready_poll_q(h).expect("pollq");
                    }
                }
            }
            EP_POINTS => {
                debug_assert_eq!(self.inner.cfg.variant, Variant::Msg);
                self.inner.on_points(ctx, gs_array, me);
            }
            EP_DGEMM => {
                self.inner.run_dgemm(ctx, gs_array, me);
            }
            other => panic!("PC: unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, _handle: HandleId) {
        let w = self.wiring.as_ref().expect("wired");
        let gs_array = w.gs_array;
        let me = ctx.my_index();
        self.inner.on_points(ctx, gs_array, me);
    }
}

/// Run the mini-OpenAtom benchmark.
pub fn run_openatom(platform: Platform, pes: usize, cfg: OpenAtomCfg) -> OpenAtomResult {
    let mut m = platform.machine(pes);
    run_openatom_on(&mut m, cfg)
}

/// [`run_openatom`] on a caller-built machine — used by the sanitizer suite
/// to run with race checking enabled and inspect the diagnostics after.
pub fn run_openatom_on(m: &mut ckd_charm::Machine, cfg: OpenAtomCfg) -> OpenAtomResult {
    assert_eq!(cfg.nstates % cfg.grain, 0, "grain must divide nstates");
    assert!(cfg.pts * 8 >= 16, "points buffer too small");
    let g = cfg.g();

    let gs_dims = Dims::d2(cfg.nstates, cfg.nplanes);
    let gs_array = m.create_array("GS", gs_dims, Mapper::Block, |idx| {
        Box::new(Gs {
            inner: GsChare {
                cfg,
                s: idx.at(0),
                p: idx.at(1),
                out_handles: Vec::new(),
                send_region: None,
                setup_acks: 0,
                step: 0,
                transpose_in: false,
                results_in: 0,
                phase1_done: false,
                lossy_puts: 0,
                t_first: None,
                t_done: Time::ZERO,
            },
            wiring: None,
        })
    });
    let pc_dims = Dims::d3(g, g, cfg.nplanes);
    let pc_array = m.create_array("PC", pc_dims, Mapper::Block, |_| {
        Box::new(Pc {
            inner: PcChare {
                cfg,
                in_handles: Vec::new(),
                in_regions: Vec::new(),
                points_in: 0,
                dgemms: 0,
                t_last_dgemm: Time::ZERO,
            },
            wiring: None,
        })
    });
    let ctl_array = m.create_array("ctl", Dims::d1(1), Mapper::Block, |_| {
        Box::new(Controller {
            cfg,
            gs_array: None,
            pc_array: None,
            step: 0,
        })
    });
    let controller = m.element(ctl_array, Idx::i1(0));
    m.with_chare_mut::<Controller>(controller, |c| {
        c.gs_array = Some(gs_array);
        c.pc_array = Some(pc_array);
    });
    let wiring = || Wiring {
        gs_array,
        pc_array,
        controller,
    };
    for lin in 0..gs_dims.len() {
        m.with_chare_mut::<Gs>(
            ckd_charm::ChareRef {
                array: gs_array,
                lin: lin as u32,
            },
            |c| c.wiring = Some(wiring()),
        );
    }
    for lin in 0..pc_dims.len() {
        m.with_chare_mut::<Pc>(
            ckd_charm::ChareRef {
                array: pc_array,
                lin: lin as u32,
            },
            |c| c.wiring = Some(wiring()),
        );
    }

    m.seed_broadcast(gs_array, Msg::signal(EP_SETUP));
    let total = m.run();

    // timing: steps measured at GS(0,0) from first EP_STEP to last result
    let gs0 = m.element(gs_array, Idx::i2(0, 0));
    let c0 = m.chare::<Gs>(gs0).unwrap();
    assert_eq!(c0.inner.step, cfg.steps, "incomplete run");
    let t0 = c0.inner.t_first.expect("stepped");
    let mut t1 = Time::ZERO;
    let mut lossy_puts = 0u64;
    for lin in 0..gs_dims.len() {
        let c = m
            .chare::<Gs>(ckd_charm::ChareRef {
                array: gs_array,
                lin: lin as u32,
            })
            .unwrap();
        assert_eq!(c.inner.step, cfg.steps, "GS {lin} incomplete");
        t1 = t1.max(c.inner.t_done);
        lossy_puts += c.inner.lossy_puts;
    }
    for lin in 0..pc_dims.len() {
        let c = m
            .chare::<Pc>(ckd_charm::ChareRef {
                array: pc_array,
                lin: lin as u32,
            })
            .unwrap();
        assert_eq!(c.inner.dgemms, cfg.steps, "PC {lin} incomplete");
    }
    let poll_checks = m.direct_counters().poll_checks;
    OpenAtomResult {
        time_per_step: (t1 - t0) / cfg.steps as u64,
        total,
        steps: cfg.steps,
        poll_checks,
        lossy_puts,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const ABE2: Platform = Platform::IbAbe { cores_per_node: 2 };

    fn cfg(variant: Variant, ready_split: bool, pc_only: bool) -> OpenAtomCfg {
        OpenAtomCfg {
            nstates: 16,
            nplanes: 4,
            grain: 4,
            pts: 32,
            steps: 3,
            variant,
            pc_only,
            ready_split,
        }
    }

    #[test]
    fn msg_variant_completes() {
        let r = run_openatom(ABE2, 8, cfg(Variant::Msg, false, false));
        assert_eq!(r.steps, 3);
        assert!(r.time_per_step > Time::ZERO);
        assert_eq!(r.poll_checks, 0, "MSG run never polls");
    }

    #[test]
    fn ckd_variant_completes_and_polls() {
        let r = run_openatom(ABE2, 8, cfg(Variant::Ckd, false, false));
        assert_eq!(r.steps, 3);
        assert!(r.poll_checks > 0);
    }

    #[test]
    fn ckd_works_on_bgp() {
        let r = run_openatom(Platform::Bgp, 8, cfg(Variant::Ckd, false, false));
        assert_eq!(r.steps, 3);
        assert_eq!(r.poll_checks, 0, "BG/P backend delivers via callbacks");
    }

    #[test]
    fn ready_split_reduces_poll_checks() {
        // §5.2: bounding the polling window must strictly reduce the number
        // of sentinel checks the schedulers perform.
        let naive = run_openatom(ABE2, 8, cfg(Variant::Ckd, false, false));
        let split = run_openatom(ABE2, 8, cfg(Variant::Ckd, true, false));
        assert!(
            split.poll_checks < naive.poll_checks,
            "split {} !< naive {}",
            split.poll_checks,
            naive.poll_checks
        );
    }

    #[test]
    fn ready_split_is_faster_with_many_channels() {
        // the paper's experience: with enough channels per PE, naive
        // polling makes CkDirect slower; the split restores the win
        let big = OpenAtomCfg {
            nstates: 32,
            nplanes: 4,
            grain: 4,
            pts: 32,
            steps: 3,
            variant: Variant::Ckd,
            pc_only: false,
            ready_split: false,
        };
        let naive = run_openatom(ABE2, 4, big);
        let split = run_openatom(
            ABE2,
            4,
            OpenAtomCfg {
                ready_split: true,
                ..big
            },
        );
        assert!(
            split.time_per_step <= naive.time_per_step,
            "split {} > naive {}",
            split.time_per_step,
            naive.time_per_step
        );
    }

    #[test]
    fn pc_only_is_faster_than_full_step() {
        let full = run_openatom(ABE2, 8, cfg(Variant::Ckd, true, false));
        let pc = run_openatom(ABE2, 8, cfg(Variant::Ckd, true, true));
        assert!(pc.time_per_step < full.time_per_step);
    }

    #[test]
    fn ckd_with_split_beats_msg() {
        let msg = run_openatom(ABE2, 8, cfg(Variant::Msg, false, false));
        let ckd = run_openatom(ABE2, 8, cfg(Variant::Ckd, true, false));
        assert!(
            ckd.time_per_step < msg.time_per_step,
            "ckd {} !< msg {}",
            ckd.time_per_step,
            msg.time_per_step
        );
    }
}
