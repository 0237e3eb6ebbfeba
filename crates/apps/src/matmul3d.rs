//! §4.2 — matrix multiplication with Agarwal's 3-D decomposition (Fig 3).
//!
//! A `c × c × c` chare grid computes `C = A · B` for `N × N` matrices in
//! `(N/c)²` blocks: chare `(x, y, z)` computes `C[x,y] += A[x,z] · B[z,y]`.
//! Per iteration:
//!
//! 1. `A[x,z]` is replicated from its home `(x, 0, z)` along the Y axis and
//!    `B[z,y]` from `(0, y, z)` along X — one source buffer associated with
//!    many CkDirect handles, the paper's no-copy multicast;
//! 2. every chare runs a local DGEMM (contiguous operands — the reason
//!    landing the data *in place* matters);
//! 3. partial `C` blocks flow along Z to `(x, y, 0)` and are summed.
//!
//! In the MSG variant each received block must additionally be copied into
//! the contiguous operand panel (the copy CkDirect avoids, per the paper).

use bytes::Bytes;
use ckd_charm::{Chare, Ctx, EntryId, Msg, PutOutcome, RedOp, RedTarget, RedVal};
use ckd_linalg::{dgemm_block, gemm_flops, Mat};
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Mapper};
use ckdirect::{HandleId, Region};

use crate::common::{Platform, Variant, OOB_PATTERN};

const EP_SETUP: EntryId = EntryId(0);
const EP_HANDLE: EntryId = EntryId(1);
const EP_ITER: EntryId = EntryId(2);
const EP_BLOCK: EntryId = EntryId(3);

/// Which operand a transfer carries.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
enum Kind {
    A,
    B,
    /// Partial C from the chare at this Z coordinate.
    C(usize),
}

impl Kind {
    fn tag(self) -> u32 {
        match self {
            Kind::A => 0,
            Kind::B => 1,
            Kind::C(z) => 2 + z as u32,
        }
    }

    fn from_tag(t: u32) -> Kind {
        match t {
            0 => Kind::A,
            1 => Kind::B,
            z => Kind::C((z - 2) as usize),
        }
    }
}

/// Handle-shipping payload.
#[derive(Clone, Copy)]
struct HandleMsg {
    kind: Kind,
    handle: HandleId,
}

/// Block payload for the MSG variant. `data` is `None` for stand-in
/// blocks (`real_compute` off): only the modeled size crosses the wire.
struct BlockMsg {
    kind: Kind,
    data: Option<Bytes>,
}

/// Configuration of one matmul run.
#[derive(Clone, Copy, Debug)]
pub struct MatmulCfg {
    /// Matrix dimension (N of the N×N inputs); 2048 in the paper.
    pub n: usize,
    /// Chare grid edge: `grid³` chares, blocks of `(N/grid)²`.
    pub grid: usize,
    /// Repetitions of the full multiplication.
    pub iters: u32,
    /// Transport variant.
    pub variant: Variant,
    /// Execute the arithmetic and verify (tests) or charge flops only.
    pub real_compute: bool,
}

impl MatmulCfg {
    fn nb(&self) -> usize {
        self.n / self.grid
    }

    fn block_bytes(&self) -> usize {
        self.nb() * self.nb() * 8
    }
}

/// Result of one matmul run.
#[derive(Clone, Copy, Debug)]
pub struct MatmulResult {
    /// Average time per full multiplication.
    pub time_per_iter: Time,
    /// Virtual time at completion.
    pub total: Time,
    /// Iterations executed.
    pub iters: u32,
    /// Puts the runtime reported retried or degraded, summed over chares
    /// (always 0 without fault injection).
    pub lossy_puts: u64,
}

/// Deterministic input generators (global element coordinates).
fn gen_a(i: usize, j: usize) -> f64 {
    ((i as f64) * 0.37 + (j as f64) * 0.11).sin()
}

fn gen_b(i: usize, j: usize) -> f64 {
    ((i as f64) * 0.05 - (j as f64) * 0.23).cos()
}

struct MatmulChare {
    cfg: MatmulCfg,
    pos: [usize; 3],
    // --- data (real mode) ---
    a: Option<Mat>,
    b: Option<Mat>,
    c: Option<Mat>,
    /// C-home: partial blocks received, indexed by source z.
    c_parts: Vec<Option<Vec<f64>>>,
    // --- transport state ---
    a_bytes: Option<Bytes>,
    b_bytes: Option<Bytes>,
    a_recv: Option<Region>,
    b_recv: Option<Region>,
    c_recv: Vec<Option<Region>>,
    a_recv_handle: Option<HandleId>,
    b_recv_handle: Option<HandleId>,
    c_recv_handles: Vec<Option<HandleId>>,
    /// Outbound: A multicast handles (A-home), B multicast handles
    /// (B-home), C handle (z≠0).
    a_out: Vec<HandleId>,
    b_out: Vec<HandleId>,
    c_out: Option<HandleId>,
    a_send_region: Option<Region>,
    b_send_region: Option<Region>,
    c_send_region: Option<Region>,
    setup_acks: usize,
    // --- per-iteration ---
    iter: u32,
    started: bool,
    got_a: bool,
    got_b: bool,
    computed: bool,
    c_in: usize,
    lossy_puts: u64,
    t_first: Option<Time>,
    t_done: Time,
}

impl MatmulChare {
    fn new(cfg: MatmulCfg, idx: Idx) -> MatmulChare {
        let c = cfg.grid;
        MatmulChare {
            cfg,
            pos: [idx.at(0), idx.at(1), idx.at(2)],
            a: None,
            b: None,
            c: None,
            c_parts: vec![None; c],
            a_bytes: None,
            b_bytes: None,
            a_recv: None,
            b_recv: None,
            c_recv: vec![None; c],
            a_recv_handle: None,
            b_recv_handle: None,
            c_recv_handles: vec![None; c],
            a_out: Vec::new(),
            b_out: Vec::new(),
            c_out: None,
            a_send_region: None,
            b_send_region: None,
            c_send_region: None,
            setup_acks: 0,
            iter: 0,
            started: false,
            got_a: false,
            got_b: false,
            computed: false,
            c_in: 0,
            lossy_puts: 0,
            t_first: None,
            t_done: Time::ZERO,
        }
    }

    /// Issue one put and fold its outcome into the lossy-put counter.
    fn put_counted(&mut self, ctx: &mut Ctx<'_>, h: HandleId) {
        match ctx.direct_put(h).expect("put") {
            PutOutcome::Sent => {}
            PutOutcome::Retried { .. } | PutOutcome::Degraded => self.lossy_puts += 1,
        }
    }

    fn is_a_home(&self) -> bool {
        self.pos[1] == 0
    }

    fn is_b_home(&self) -> bool {
        self.pos[0] == 0
    }

    fn is_c_home(&self) -> bool {
        self.pos[2] == 0
    }

    fn needs_a(&self) -> bool {
        !self.is_a_home()
    }

    fn needs_b(&self) -> bool {
        !self.is_b_home()
    }

    fn region_len(&self) -> usize {
        if self.cfg.real_compute {
            self.cfg.block_bytes()
        } else {
            64
        }
    }

    /// Handle messages this chare expects during setup.
    fn setup_expected(&self) -> usize {
        if self.cfg.variant == Variant::Msg {
            return 0;
        }
        let c = self.cfg.grid;
        let mut n = 0;
        if self.is_a_home() && c > 1 {
            n += c - 1;
        }
        if self.is_b_home() && c > 1 {
            n += c - 1;
        }
        if !self.is_c_home() {
            n += 1;
        }
        n
    }

    /// Generate this home's block for the current iteration. Iteration `k`
    /// scales the base pattern so every repetition moves fresh data.
    fn gen_block(&self, which: Kind) -> Mat {
        let nb = self.cfg.nb();
        let [x, y, z] = self.pos;
        let scale = 1.0 + self.iter as f64 * 0.0; // inputs constant across iters
        match which {
            Kind::A => {
                debug_assert_eq!(y, 0);
                Mat::from_fn(nb, nb, |r, cc| scale * gen_a(x * nb + r, z * nb + cc))
            }
            Kind::B => {
                debug_assert_eq!(x, 0);
                Mat::from_fn(nb, nb, |r, cc| scale * gen_b(z * nb + r, y * nb + cc))
            }
            Kind::C(_) => unreachable!(),
        }
    }

    fn mat_to_bytes(m: &Mat) -> Bytes {
        let mut v = Vec::with_capacity(m.as_slice().len() * 8);
        for &x in m.as_slice() {
            v.extend_from_slice(&x.to_le_bytes());
        }
        Bytes::from(v)
    }

    fn bytes_to_vec(b: &[u8]) -> Vec<f64> {
        b.chunks_exact(8)
            .map(|c| f64::from_le_bytes(c.try_into().unwrap()))
            .collect()
    }

    /// Distribute this home's operand block along its replication axis.
    fn distribute(&mut self, ctx: &mut Ctx<'_>, kind: Kind) {
        let wire = self.cfg.block_bytes();
        let block = if self.cfg.real_compute {
            Some(self.gen_block(kind))
        } else {
            None
        };
        match self.cfg.variant {
            Variant::Msg => {
                let data = block.as_ref().map(Self::mat_to_bytes);
                let c = self.cfg.grid;
                let [x, y, z] = self.pos;
                for k in 1..c {
                    let to = match kind {
                        Kind::A => Idx::i3(x, k, z),
                        Kind::B => Idx::i3(k, y, z),
                        Kind::C(_) => unreachable!(),
                    };
                    let target = ctx.element(ctx.me().array, to);
                    ctx.send(
                        target,
                        Msg::value(
                            EP_BLOCK,
                            BlockMsg {
                                kind,
                                data: data.clone(),
                            },
                            wire,
                        ),
                    );
                }
            }
            Variant::Ckd => {
                let region = match kind {
                    Kind::A => self.a_send_region.as_ref(),
                    Kind::B => self.b_send_region.as_ref(),
                    Kind::C(_) => unreachable!(),
                };
                // `region` is None only when there are no consumers
                // (degenerate 1-wide replication axis)
                if let Some(region) = region {
                    if let Some(m) = &block {
                        let vals = m.as_slice();
                        region.write_f64s(0, vals);
                        ctx.charge_bytes(2 * wire as u64); // pack into the window
                    } else {
                        region.write_f64s(0, &[self.iter as f64 + 1.0]);
                    }
                    let outs = match kind {
                        Kind::A => self.a_out.clone(),
                        Kind::B => self.b_out.clone(),
                        Kind::C(_) => unreachable!(),
                    };
                    for h in outs {
                        self.put_counted(ctx, h);
                    }
                }
            }
        }
        // the home itself consumes its own block directly
        match kind {
            Kind::A => {
                self.a = block;
                self.got_a = true;
            }
            Kind::B => {
                self.b = block;
                self.got_b = true;
            }
            Kind::C(_) => unreachable!(),
        }
    }

    /// Local `C += A·B` once both operands are in.
    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started || self.computed {
            return;
        }
        if (self.needs_a() && !self.got_a) || (self.needs_b() && !self.got_b) {
            return;
        }
        self.computed = true;
        self.started = false;
        self.got_a = false;
        self.got_b = false;
        let nb = self.cfg.nb();
        if self.cfg.real_compute {
            // materialize operands from wherever they landed
            let a = self.a.take().unwrap_or_else(|| {
                let vals = match self.cfg.variant {
                    Variant::Msg => Self::bytes_to_vec(self.a_bytes.as_ref().unwrap()),
                    Variant::Ckd => self.a_recv.as_ref().unwrap().read_f64s(0, nb * nb),
                };
                Mat::from_vec(nb, nb, vals)
            });
            let b = self.b.take().unwrap_or_else(|| {
                let vals = match self.cfg.variant {
                    Variant::Msg => Self::bytes_to_vec(self.b_bytes.as_ref().unwrap()),
                    Variant::Ckd => self.b_recv.as_ref().unwrap().read_f64s(0, nb * nb),
                };
                Mat::from_vec(nb, nb, vals)
            });
            let mut c = Mat::zeros(nb, nb);
            dgemm_block(&mut c, &a, &b, 64);
            self.c = Some(c);
            self.a = Some(a);
            self.b = Some(b);
        }
        ctx.charge_flops(gemm_flops(nb, nb, nb));
        // CkDirect: release the operand channels for the next iteration
        if self.cfg.variant == Variant::Ckd {
            if let Some(h) = self.a_recv_handle {
                ctx.direct_ready(h).expect("ready a");
            }
            if let Some(h) = self.b_recv_handle {
                ctx.direct_ready(h).expect("ready b");
            }
        }
        self.forward_c(ctx);
    }

    /// Ship (or locally bank) this chare's C contribution.
    fn forward_c(&mut self, ctx: &mut Ctx<'_>) {
        let [x, y, z] = self.pos;
        let wire = self.cfg.block_bytes();
        if self.is_c_home() {
            self.c_in += 1;
            if self.cfg.real_compute {
                self.c_parts[z] = Some(self.c.as_ref().unwrap().as_slice().to_vec());
            }
            self.maybe_home_done(ctx);
            return;
        }
        match self.cfg.variant {
            Variant::Msg => {
                let data = if self.cfg.real_compute {
                    Some(Self::mat_to_bytes(self.c.as_ref().unwrap()))
                } else {
                    None
                };
                let home = ctx.element(ctx.me().array, Idx::i3(x, y, 0));
                ctx.send(
                    home,
                    Msg::value(
                        EP_BLOCK,
                        BlockMsg {
                            kind: Kind::C(z),
                            data,
                        },
                        wire,
                    ),
                );
            }
            Variant::Ckd => {
                let region = self.c_send_region.as_ref().unwrap();
                if self.cfg.real_compute {
                    region.write_f64s(0, self.c.as_ref().unwrap().as_slice());
                    ctx.charge_bytes(2 * wire as u64);
                } else {
                    region.write_f64s(0, &[self.iter as f64 + 1.0]);
                }
                let h = self.c_out.expect("assoc'd");
                self.put_counted(ctx, h);
            }
        }
        self.finish_iteration(ctx);
    }

    /// C-home: sum the partials once everything arrived.
    fn maybe_home_done(&mut self, ctx: &mut Ctx<'_>) {
        if !self.computed || self.c_in < self.cfg.grid {
            return;
        }
        self.c_in = 0;
        let nb = self.cfg.nb();
        if self.cfg.real_compute {
            // deterministic summation order: ascending z
            let mut acc = vec![0.0f64; nb * nb];
            for z in 0..self.cfg.grid {
                let part = self.c_parts[z].take().expect("partial present");
                for (a, p) in acc.iter_mut().zip(&part) {
                    *a += p;
                }
            }
            self.c = Some(Mat::from_vec(nb, nb, acc));
            // summation streams every partial through memory
            ctx.charge_flops((nb * nb * self.cfg.grid) as f64);
        } else {
            ctx.charge_flops((nb * nb * self.cfg.grid) as f64);
        }
        if self.cfg.variant == Variant::Ckd {
            for z in 1..self.cfg.grid {
                if let Some(h) = self.c_recv_handles[z] {
                    ctx.direct_ready(h).expect("ready c");
                }
            }
        }
        self.finish_iteration(ctx);
    }

    fn finish_iteration(&mut self, ctx: &mut Ctx<'_>) {
        self.iter += 1;
        ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
    }

    /// Create inbound channels and ship handles to the data sources.
    fn setup_channels(&mut self, ctx: &mut Ctx<'_>) {
        let len = self.region_len();
        let wire = self.cfg.block_bytes();
        let [x, y, z] = self.pos;
        let arr = ctx.me().array;
        if self.needs_a() {
            let r = Region::alloc(len);
            let h = ctx
                .direct_create_handle_wire(r.clone(), OOB_PATTERN, Kind::A.tag(), wire)
                .expect("create a");
            self.a_recv = Some(r);
            self.a_recv_handle = Some(h);
            let home = ctx.element(arr, Idx::i3(x, 0, z));
            ctx.send(
                home,
                Msg::value(
                    EP_HANDLE,
                    HandleMsg {
                        kind: Kind::A,
                        handle: h,
                    },
                    16,
                ),
            );
        }
        if self.needs_b() {
            let r = Region::alloc(len);
            let h = ctx
                .direct_create_handle_wire(r.clone(), OOB_PATTERN, Kind::B.tag(), wire)
                .expect("create b");
            self.b_recv = Some(r);
            self.b_recv_handle = Some(h);
            let home = ctx.element(arr, Idx::i3(0, y, z));
            ctx.send(
                home,
                Msg::value(
                    EP_HANDLE,
                    HandleMsg {
                        kind: Kind::B,
                        handle: h,
                    },
                    16,
                ),
            );
        }
        if self.is_c_home() {
            for src_z in 1..self.cfg.grid {
                let r = Region::alloc(len);
                let h = ctx
                    .direct_create_handle_wire(r.clone(), OOB_PATTERN, Kind::C(src_z).tag(), wire)
                    .expect("create c");
                self.c_recv[src_z] = Some(r);
                self.c_recv_handles[src_z] = Some(h);
                let src = ctx.element(arr, Idx::i3(x, y, src_z));
                ctx.send(
                    src,
                    Msg::value(
                        EP_HANDLE,
                        HandleMsg {
                            kind: Kind::C(src_z),
                            handle: h,
                        },
                        16,
                    ),
                );
            }
        }
    }

    fn maybe_setup_done(&mut self, ctx: &mut Ctx<'_>) {
        if self.setup_acks == self.setup_expected() {
            ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
        }
    }
}

impl Chare for MatmulChare {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_SETUP => match self.cfg.variant {
                Variant::Msg => {
                    ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
                }
                Variant::Ckd => {
                    self.setup_channels(ctx);
                    self.maybe_setup_done(ctx);
                }
            },
            EP_HANDLE => {
                let hm = *msg.payload.downcast::<HandleMsg>().unwrap();
                let len = self.region_len();
                match hm.kind {
                    Kind::A => {
                        // one shared source buffer for the whole row
                        if self.a_send_region.is_none() {
                            let r = Region::alloc(len);
                            r.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
                            self.a_send_region = Some(r);
                        }
                        ctx.direct_assoc_local(hm.handle, self.a_send_region.clone().unwrap())
                            .expect("assoc a");
                        self.a_out.push(hm.handle);
                    }
                    Kind::B => {
                        if self.b_send_region.is_none() {
                            let r = Region::alloc(len);
                            r.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
                            self.b_send_region = Some(r);
                        }
                        ctx.direct_assoc_local(hm.handle, self.b_send_region.clone().unwrap())
                            .expect("assoc b");
                        self.b_out.push(hm.handle);
                    }
                    Kind::C(_) => {
                        let r = Region::alloc(len);
                        r.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
                        ctx.direct_assoc_local(hm.handle, r.clone())
                            .expect("assoc c");
                        self.c_send_region = Some(r);
                        self.c_out = Some(hm.handle);
                    }
                }
                self.setup_acks += 1;
                self.maybe_setup_done(ctx);
            }
            EP_ITER => {
                if self.t_first.is_none() {
                    self.t_first = Some(ctx.now());
                }
                if self.iter >= self.cfg.iters {
                    self.t_done = ctx.now();
                    return;
                }
                // arrivals for this iteration may precede the broadcast:
                // got_a/got_b/c_in persist and are consumed at compute time
                self.started = true;
                self.computed = false;
                if self.is_a_home() {
                    self.distribute(ctx, Kind::A);
                }
                if self.is_b_home() {
                    self.distribute(ctx, Kind::B);
                }
                self.maybe_compute(ctx);
            }
            EP_BLOCK => {
                let bm = msg.payload.downcast::<BlockMsg>().unwrap();
                // A and B must be copied into the contiguous operand panel
                // for DGEMM: the cost the paper says CkDirect avoids here.
                // C partials are summed straight out of the message, no copy.
                if matches!(bm.kind, Kind::A | Kind::B) {
                    ctx.charge_bytes(2 * self.cfg.block_bytes() as u64);
                }
                match bm.kind {
                    Kind::A => {
                        self.a_bytes = bm.data.clone();
                        self.got_a = true;
                        self.maybe_compute(ctx);
                    }
                    Kind::B => {
                        self.b_bytes = bm.data.clone();
                        self.got_b = true;
                        self.maybe_compute(ctx);
                    }
                    Kind::C(z) => {
                        if let Some(data) = &bm.data {
                            self.c_parts[z] = Some(Self::bytes_to_vec(data));
                        }
                        self.c_in += 1;
                        self.maybe_home_done(ctx);
                    }
                }
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, tag: u32, _handle: HandleId) {
        match Kind::from_tag(tag) {
            Kind::A => {
                self.got_a = true;
                self.maybe_compute(ctx);
            }
            Kind::B => {
                self.got_b = true;
                self.maybe_compute(ctx);
            }
            Kind::C(z) => {
                if self.cfg.real_compute {
                    let nb = self.cfg.nb();
                    let r = self.c_recv[z].as_ref().expect("channel");
                    self.c_parts[z] = Some(r.read_f64s(0, nb * nb));
                }
                self.c_in += 1;
                self.maybe_home_done(ctx);
            }
        }
    }
}

fn build(m: &mut ckd_charm::Machine, cfg: MatmulCfg) -> ckd_charm::ArrayId {
    assert_eq!(cfg.n % cfg.grid, 0, "grid must divide N");
    let dims = Dims::d3(cfg.grid, cfg.grid, cfg.grid);
    let arr = m.create_array("matmul", dims, Mapper::Block, |idx| {
        Box::new(MatmulChare::new(cfg, idx))
    });
    m.seed_broadcast(arr, Msg::signal(EP_SETUP));
    arr
}

/// Run the multiplication benchmark.
pub fn run_matmul(platform: Platform, pes: usize, cfg: MatmulCfg) -> MatmulResult {
    let mut m = platform.machine(pes);
    run_matmul_on(&mut m, cfg)
}

/// [`run_matmul`] on a caller-built machine — used by the sanitizer suite
/// to run with race checking enabled and inspect the diagnostics after.
pub fn run_matmul_on(m: &mut ckd_charm::Machine, cfg: MatmulCfg) -> MatmulResult {
    let arr = build(m, cfg);
    let total = m.run();
    let mut t0 = Time::MAX;
    let mut t1 = Time::ZERO;
    let mut lossy_puts = 0u64;
    let dims = Dims::d3(cfg.grid, cfg.grid, cfg.grid);
    for lin in 0..dims.len() {
        let c = m
            .chare::<MatmulChare>(ckd_charm::ChareRef {
                array: arr,
                lin: lin as u32,
            })
            .unwrap();
        assert_eq!(c.iter, cfg.iters, "chare {lin} incomplete");
        lossy_puts += c.lossy_puts;
        t0 = t0.min(c.t_first.expect("ran"));
        t1 = t1.max(c.t_done);
    }
    MatmulResult {
        time_per_iter: (t1 - t0) / cfg.iters as u64,
        total,
        iters: cfg.iters,
        lossy_puts,
    }
}

/// Run with real data and return the assembled `C` (verification helper).
pub fn run_matmul_verify(platform: Platform, pes: usize, cfg: MatmulCfg) -> (MatmulResult, Mat) {
    let mut m = platform.machine(pes);
    run_matmul_verify_on(&mut m, cfg)
}

/// [`run_matmul_verify`] on a caller-built machine, so fault injection or
/// tracing can be enabled before the run starts.
pub fn run_matmul_verify_on(m: &mut ckd_charm::Machine, cfg: MatmulCfg) -> (MatmulResult, Mat) {
    assert!(cfg.real_compute);
    let arr = build(m, cfg);
    let total = m.run();
    let nb = cfg.nb();
    let mut out = Mat::zeros(cfg.n, cfg.n);
    let dims = Dims::d3(cfg.grid, cfg.grid, cfg.grid);
    let mut t0 = Time::MAX;
    let mut t1 = Time::ZERO;
    let mut lossy_puts = 0u64;
    for lin in 0..dims.len() {
        let idx = dims.unlinear(lin);
        let c = m
            .chare::<MatmulChare>(ckd_charm::ChareRef {
                array: arr,
                lin: lin as u32,
            })
            .unwrap();
        t0 = t0.min(c.t_first.expect("ran"));
        t1 = t1.max(c.t_done);
        lossy_puts += c.lossy_puts;
        if idx.at(2) == 0 {
            let block = c.c.as_ref().expect("C-home has the sum");
            for r in 0..nb {
                for cc in 0..nb {
                    *out.at_mut(idx.at(0) * nb + r, idx.at(1) * nb + cc) = block.at(r, cc);
                }
            }
        }
    }
    (
        MatmulResult {
            time_per_iter: (t1 - t0) / cfg.iters as u64,
            total,
            iters: cfg.iters,
            lossy_puts,
        },
        out,
    )
}

/// Serial reference product with the same generators.
pub fn serial_product(n: usize) -> Mat {
    let a = Mat::from_fn(n, n, gen_a);
    let b = Mat::from_fn(n, n, gen_b);
    let mut c = Mat::zeros(n, n);
    dgemm_block(&mut c, &a, &b, 64);
    c
}

#[cfg(test)]
mod tests {
    use super::*;

    const ABE8: Platform = Platform::IbAbe { cores_per_node: 8 };

    fn small(variant: Variant) -> MatmulCfg {
        MatmulCfg {
            n: 48,
            grid: 3,
            iters: 2,
            variant,
            real_compute: true,
        }
    }

    #[test]
    fn msg_variant_computes_the_product() {
        let (_, c) = run_matmul_verify(ABE8, 8, small(Variant::Msg));
        let want = serial_product(48);
        assert!(c.dist(&want) < 1e-9, "dist {}", c.dist(&want));
    }

    #[test]
    fn ckd_variant_computes_the_product() {
        let (_, c) = run_matmul_verify(ABE8, 8, small(Variant::Ckd));
        let want = serial_product(48);
        assert!(c.dist(&want) < 1e-9, "dist {}", c.dist(&want));
    }

    #[test]
    fn ckd_variant_computes_the_product_on_bgp() {
        let (_, c) = run_matmul_verify(Platform::Bgp, 8, small(Variant::Ckd));
        let want = serial_product(48);
        assert!(c.dist(&want) < 1e-9);
    }

    #[test]
    fn variants_agree_bitwise() {
        let (_, ca) = run_matmul_verify(ABE8, 8, small(Variant::Msg));
        let (_, cb) = run_matmul_verify(ABE8, 8, small(Variant::Ckd));
        assert_eq!(ca.as_slice(), cb.as_slice());
    }

    #[test]
    fn single_chare_degenerate_grid() {
        let cfg = MatmulCfg {
            n: 16,
            grid: 1,
            iters: 1,
            variant: Variant::Ckd,
            real_compute: true,
        };
        let (_, c) = run_matmul_verify(ABE8, 8, cfg);
        assert!(c.dist(&serial_product(16)) < 1e-10);
    }

    #[test]
    fn ckd_outperforms_msg_modeled() {
        let mk = |variant| MatmulCfg {
            n: 2048,
            grid: 8,
            iters: 2,
            variant,
            real_compute: false,
        };
        let msg = run_matmul(ABE8, 64, mk(Variant::Msg));
        let ckd = run_matmul(ABE8, 64, mk(Variant::Ckd));
        assert!(
            ckd.time_per_iter < msg.time_per_iter,
            "ckd {} !< msg {}",
            ckd.time_per_iter,
            msg.time_per_iter
        );
    }

    #[test]
    fn ckd_advantage_grows_with_scale_on_bgp() {
        // Fig 3(a)'s shape: messages per chare grow with the grid, so the
        // relative win widens with processor count.
        let run = |pes: usize, grid: usize| {
            let mk = |variant| MatmulCfg {
                n: 2048,
                grid,
                iters: 2,
                variant,
                real_compute: false,
            };
            let msg = run_matmul(Platform::Bgp, pes, mk(Variant::Msg)).time_per_iter;
            let ckd = run_matmul(Platform::Bgp, pes, mk(Variant::Ckd)).time_per_iter;
            (msg.as_secs_f64() - ckd.as_secs_f64()) / msg.as_secs_f64()
        };
        let small = run(16, 4);
        let large = run(256, 16);
        assert!(
            large > small,
            "relative win should grow: {small} -> {large}"
        );
    }
}
