//! §4.1 — 3-D Jacobi stencil with halo exchange (Fig 2).
//!
//! The domain is partitioned into cuboids, one per chare, with processor
//! virtualization (the paper's best ratio is 8 chares/PE). Each iteration a
//! chare ships its six boundary faces to its neighbors, computes a 7-point
//! Jacobi update once all its ghosts arrive, re-arms its channels
//! (CkDirect variant), and enters a global barrier — the paper's protocol
//! for keeping one transaction in flight per channel.
//!
//! Both variants avoid *application-level* receive copies (the paper's
//! fairness note): the MSG version computes directly from the received
//! message buffers, so CKD's gain is purely envelope + scheduler +
//! rendezvous avoidance.

use bytes::Bytes;
use ckd_charm::{
    Chare, ChareRef, Ctx, EntryId, Machine, Msg, PutOutcome, RedOp, RedTarget, RedVal,
};
use ckd_sim::Time;
use ckd_topo::{Dims, Idx, Mapper};
use ckdirect::{HandleId, Region};

use crate::common::{Platform, Variant, OOB_PATTERN};

const EP_SETUP: EntryId = EntryId(0);
const EP_HANDLE: EntryId = EntryId(1);
const EP_ITER: EntryId = EntryId(2);
const EP_GHOST: EntryId = EntryId(3);

/// The six face directions: -x, +x, -y, +y, -z, +z.
const DIRS: [[isize; 3]; 6] = [
    [-1, 0, 0],
    [1, 0, 0],
    [0, -1, 0],
    [0, 1, 0],
    [0, 0, -1],
    [0, 0, 1],
];

/// The opposite direction index.
fn opposite(d: usize) -> usize {
    d ^ 1
}

/// Configuration of one stencil run.
#[derive(Clone, Copy, Debug)]
pub struct JacobiCfg {
    /// Global domain extents in elements.
    pub domain: [usize; 3],
    /// Chare grid extents (must divide the domain).
    pub chares: [usize; 3],
    /// Timed iterations.
    pub iters: u32,
    /// Transport variant.
    pub variant: Variant,
    /// Execute the arithmetic and track the residual (tests); otherwise
    /// charge the flops and truncate the data buffers (figure scale).
    pub real_compute: bool,
}

impl JacobiCfg {
    fn block(&self) -> [usize; 3] {
        [
            self.domain[0] / self.chares[0],
            self.domain[1] / self.chares[1],
            self.domain[2] / self.chares[2],
        ]
    }

    fn face_elems(&self, dir: usize) -> usize {
        let b = self.block();
        match dir / 2 {
            0 => b[1] * b[2],
            1 => b[0] * b[2],
            _ => b[0] * b[1],
        }
    }
}

/// Result of one stencil run.
#[derive(Clone, Copy, Debug)]
pub struct JacobiResult {
    /// Average time per iteration (steady state, setup excluded).
    pub time_per_iter: Time,
    /// Virtual time at completion.
    pub total: Time,
    /// Iterations executed.
    pub iters: u32,
    /// Final max-residual (0 in modeled runs).
    pub residual: f64,
    /// Puts the runtime reported retried or degraded, summed over chares
    /// (always 0 without fault injection).
    pub lossy_puts: u64,
}

/// Handle-shipping payload: which direction (from the receiver's view) and
/// the handle to associate.
#[derive(Clone, Copy)]
struct HandleMsg {
    dir: usize,
    handle: HandleId,
}

/// Ghost payload for the MSG variant.
struct GhostMsg {
    dir: usize,
    data: Bytes,
}

struct JacobiChare {
    cfg: JacobiCfg,
    pos: [usize; 3],
    /// Neighbor chare per direction (None at the domain boundary).
    neighbors: [Option<ChareRef>; 6],
    n_neighbors: usize,
    // --- data ---
    /// Interior values, row-major x-fastest (real mode only).
    cur: Vec<f64>,
    next: Vec<f64>,
    /// Received ghost faces (MSG variant).
    ghost_msgs: [Option<Bytes>; 6],
    /// CkDirect receive windows (CKD variant), one per neighbor.
    recv_regions: [Option<Region>; 6],
    send_regions: [Option<Region>; 6],
    /// Handles this chare created for its inbound faces.
    inbound_handles: [Option<HandleId>; 6],
    /// Handles received from neighbors for outbound faces.
    send_handles: [Option<HandleId>; 6],
    // --- per-iteration state ---
    iter: u32,
    started_iter: bool,
    ghosts_in: usize,
    setup_acks: usize,
    residual: f64,
    /// Puts the runtime reported as retried or degraded (fault injection).
    lossy_puts: u64,
    t_first_iter: Option<Time>,
    t_done: Time,
}

impl JacobiChare {
    fn new(cfg: JacobiCfg, idx: Idx) -> JacobiChare {
        let pos = [idx.at(0), idx.at(1), idx.at(2)];
        let b = cfg.block();
        let cells = b[0] * b[1] * b[2];
        let (cur, next) = if cfg.real_compute {
            (vec![0.0; cells], vec![0.0; cells])
        } else {
            (Vec::new(), Vec::new())
        };
        JacobiChare {
            cfg,
            pos,
            neighbors: [None; 6],
            n_neighbors: 0,
            cur,
            next,
            ghost_msgs: Default::default(),
            recv_regions: Default::default(),
            send_regions: Default::default(),
            inbound_handles: Default::default(),
            send_handles: Default::default(),
            iter: 0,
            started_iter: false,
            ghosts_in: 0,
            setup_acks: 0,
            residual: 0.0,
            lossy_puts: 0,
            t_first_iter: None,
            t_done: Time::ZERO,
        }
    }

    fn region_len(&self, dir: usize) -> usize {
        if self.cfg.real_compute {
            self.cfg.face_elems(dir) * 8
        } else {
            64 // truncated stand-in; the wire is charged for the full face
        }
    }

    /// Number of setup acknowledgements this chare must see before it can
    /// contribute to the setup barrier: its own created handles coming back
    /// associated is implicit; we count outbound associations completed.
    fn setup_needed(&self) -> usize {
        match self.cfg.variant {
            Variant::Msg => 0,
            Variant::Ckd => self.n_neighbors, // one EP_HANDLE per neighbor
        }
    }

    fn block_at(&self, x: usize, y: usize, z: usize) -> f64 {
        let b = self.cfg.block();
        self.cur[(z * b[1] + y) * b[0] + x]
    }

    /// Value of the ghost cell one step outside the block in direction
    /// `dir` at face coordinates `(u, v)`.
    fn ghost_at(&self, dir: usize, u: usize, v: usize) -> f64 {
        let read_f64 = |bytes: &[u8], i: usize| {
            f64::from_le_bytes(bytes[i * 8..i * 8 + 8].try_into().unwrap())
        };
        let b = self.cfg.block();
        let idx = match dir / 2 {
            0 => v * b[1] + u, // (y=u, z=v)
            1 => v * b[0] + u, // (x=u, z=v)
            _ => v * b[0] + u, // (x=u, y=v)
        };
        if self.neighbors[dir].is_some() {
            match self.cfg.variant {
                Variant::Msg => {
                    let data = self.ghost_msgs[dir].as_ref().expect("ghost arrived");
                    read_f64(data, idx)
                }
                Variant::Ckd => {
                    let r = self.recv_regions[dir].as_ref().expect("channel set up");
                    r.with(|bytes| read_f64(bytes, idx))
                }
            }
        } else {
            // Dirichlet boundary: hot face at the global -x wall.
            if dir == 0 && self.pos[0] == 0 {
                1.0
            } else {
                0.0
            }
        }
    }

    /// One Jacobi sweep; returns the max residual.
    fn sweep(&mut self) -> f64 {
        let b = self.cfg.block();
        let mut maxr = 0.0f64;
        for z in 0..b[2] {
            for y in 0..b[1] {
                for x in 0..b[0] {
                    let c = self.block_at(x, y, z);
                    let xm = if x > 0 {
                        self.block_at(x - 1, y, z)
                    } else {
                        self.ghost_at(0, y, z)
                    };
                    let xp = if x + 1 < b[0] {
                        self.block_at(x + 1, y, z)
                    } else {
                        self.ghost_at(1, y, z)
                    };
                    let ym = if y > 0 {
                        self.block_at(x, y - 1, z)
                    } else {
                        self.ghost_at(2, x, z)
                    };
                    let yp = if y + 1 < b[1] {
                        self.block_at(x, y + 1, z)
                    } else {
                        self.ghost_at(3, x, z)
                    };
                    let zm = if z > 0 {
                        self.block_at(x, y, z - 1)
                    } else {
                        self.ghost_at(4, x, y)
                    };
                    let zp = if z + 1 < b[2] {
                        self.block_at(x, y, z + 1)
                    } else {
                        self.ghost_at(5, x, y)
                    };
                    let v = (c + xm + xp + ym + yp + zm + zp) / 7.0;
                    self.next[(z * b[1] + y) * b[0] + x] = v;
                    maxr = maxr.max((v - c).abs());
                }
            }
        }
        std::mem::swap(&mut self.cur, &mut self.next);
        maxr
    }

    /// Serialize the boundary face in direction `dir` (the layer the
    /// *neighbor* needs) into `out`.
    fn pack_face(&self, dir: usize, out: &mut Vec<u8>) {
        let b = self.cfg.block();
        out.clear();
        let mut push = |v: f64| out.extend_from_slice(&v.to_le_bytes());
        match dir {
            0 | 1 => {
                let x = if dir == 0 { 0 } else { b[0] - 1 };
                for v in 0..b[2] {
                    for u in 0..b[1] {
                        push(self.block_at(x, u, v));
                    }
                }
            }
            2 | 3 => {
                let y = if dir == 2 { 0 } else { b[1] - 1 };
                for v in 0..b[2] {
                    for u in 0..b[0] {
                        push(self.block_at(u, y, v));
                    }
                }
            }
            _ => {
                let z = if dir == 4 { 0 } else { b[2] - 1 };
                for v in 0..b[1] {
                    for u in 0..b[0] {
                        push(self.block_at(u, v, z));
                    }
                }
            }
        }
    }

    /// Send all faces for this iteration.
    fn send_faces(&mut self, ctx: &mut Ctx<'_>) {
        let mut scratch = Vec::new();
        for dir in 0..6 {
            let Some(nb) = self.neighbors[dir] else {
                continue;
            };
            let wire_bytes = self.cfg.face_elems(dir) * 8;
            match self.cfg.variant {
                Variant::Msg => {
                    let msg = if self.cfg.real_compute {
                        self.pack_face(dir, &mut scratch);
                        // packing cost: stream the face through memory
                        ctx.charge_bytes(2 * wire_bytes as u64);
                        let data = Bytes::from(scratch.clone());
                        let ghost = GhostMsg {
                            dir: opposite(dir),
                            data,
                        };
                        Msg::value(EP_GHOST, ghost, wire_bytes)
                    } else {
                        // nothing reads a stand-in face: charge its size only
                        Msg::sized(EP_GHOST, wire_bytes)
                    };
                    ctx.send(nb, msg);
                }
                Variant::Ckd => {
                    let region = self.send_regions[dir].as_ref().expect("assoc'd");
                    if self.cfg.real_compute {
                        self.pack_face(dir, &mut scratch);
                        region.copy_from_slice(&scratch);
                        ctx.charge_bytes(2 * wire_bytes as u64);
                    } else {
                        // stamp the iteration so landings are observable
                        region.write_f64s(0, &[self.iter as f64 + 1.0]);
                    }
                    match ctx
                        .direct_put(self.send_handles[dir].expect("assoc'd"))
                        .expect("put")
                    {
                        PutOutcome::Sent => {}
                        PutOutcome::Retried { .. } | PutOutcome::Degraded => self.lossy_puts += 1,
                    }
                }
            }
        }
        self.started_iter = true;
    }

    /// Compute once every ghost arrived and our own faces went out.
    fn maybe_compute(&mut self, ctx: &mut Ctx<'_>) {
        if !self.started_iter || self.ghosts_in < self.n_neighbors {
            return;
        }
        self.started_iter = false;
        self.ghosts_in = 0;
        self.iter += 1;

        let b = self.cfg.block();
        let cells = (b[0] * b[1] * b[2]) as f64;
        if self.cfg.real_compute {
            self.residual = self.sweep();
        }
        // 7-point stencil: 6 adds + 1 divide ≈ 8 flops/cell either way
        ctx.charge_flops(8.0 * cells);

        if self.cfg.variant == Variant::Ckd {
            // release + re-arm every channel before the barrier: exactly one
            // transaction in flight per channel per iteration
            for dir in 0..6 {
                if self.neighbors[dir].is_some() {
                    let h = self.inbound_handle(dir);
                    ctx.direct_ready(h).expect("ready");
                }
            }
        }
        let (v, op) = if self.cfg.real_compute {
            (RedVal::F64(self.residual), RedOp::MaxF64)
        } else {
            (RedVal::Unit, RedOp::Barrier)
        };
        ctx.contribute(v, op, RedTarget::Broadcast(EP_ITER));
    }

    fn inbound_handle(&self, dir: usize) -> HandleId {
        self.inbound_handles[dir].expect("created")
    }
}

/// Storage for inbound handles lives outside the main struct block above
/// for readability; keep them together via a small extension.
impl JacobiChare {
    fn ensure_channels(&mut self, ctx: &mut Ctx<'_>) {
        for dir in 0..6 {
            let Some(nb) = self.neighbors[dir] else {
                continue;
            };
            let len = self.region_len(dir);
            let recv = Region::alloc(len);
            let wire = self.cfg.face_elems(dir) * 8;
            let h = ctx
                .direct_create_handle_wire(recv.clone(), OOB_PATTERN, dir as u32, wire)
                .expect("create");
            self.recv_regions[dir] = Some(recv);
            self.inbound_handles[dir] = Some(h);
            // ship to the neighbor; from its perspective the direction is
            // the opposite one
            ctx.send(
                nb,
                Msg::value(
                    EP_HANDLE,
                    HandleMsg {
                        dir: opposite(dir),
                        handle: h,
                    },
                    16,
                ),
            );
        }
    }
}

impl Chare for JacobiChare {
    fn entry(&mut self, ctx: &mut Ctx<'_>, msg: Msg) {
        match msg.ep {
            EP_SETUP => match self.cfg.variant {
                Variant::Msg => {
                    ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
                }
                Variant::Ckd => {
                    self.ensure_channels(ctx);
                    if self.n_neighbors == 0 {
                        ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
                    }
                }
            },
            EP_HANDLE => {
                let hm = *msg.payload.downcast::<HandleMsg>().unwrap();
                let len = self.region_len(hm.dir);
                let send = Region::alloc(len);
                send.set_last_word(0x5AA5_5AA5_5AA5_5AA5);
                ctx.direct_assoc_local(hm.handle, send.clone())
                    .expect("assoc");
                self.send_regions[hm.dir] = Some(send);
                self.send_handles[hm.dir] = Some(hm.handle);
                self.setup_acks += 1;
                if self.setup_acks == self.setup_needed() {
                    ctx.contribute(RedVal::Unit, RedOp::Barrier, RedTarget::Broadcast(EP_ITER));
                }
            }
            EP_ITER => {
                if self.t_first_iter.is_none() {
                    self.t_first_iter = Some(ctx.now());
                }
                if self.iter >= self.cfg.iters {
                    self.t_done = ctx.now();
                    return;
                }
                self.send_faces(ctx);
                self.maybe_compute(ctx);
            }
            EP_GHOST => {
                // real mode only: stand-in ghosts carry no bytes to store
                if let Some(gm) = msg.payload.downcast::<GhostMsg>() {
                    self.ghost_msgs[gm.dir] = Some(gm.data.clone());
                }
                self.ghosts_in += 1;
                self.maybe_compute(ctx);
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    fn direct_callback(&mut self, ctx: &mut Ctx<'_>, _tag: u32, _handle: HandleId) {
        self.ghosts_in += 1;
        self.maybe_compute(ctx);
    }
}

/// Run the stencil; panics if the domain does not divide evenly.
pub fn run_jacobi(platform: Platform, pes: usize, cfg: JacobiCfg) -> JacobiResult {
    let mut m = platform.machine(pes);
    run_jacobi_on(&mut m, cfg)
}

/// [`run_jacobi`] on a caller-supplied machine, so tracing or learning can
/// be enabled before the run starts.
pub fn run_jacobi_on(m: &mut Machine, cfg: JacobiCfg) -> JacobiResult {
    for k in 0..3 {
        assert_eq!(
            cfg.domain[k] % cfg.chares[k],
            0,
            "chare grid must divide the domain"
        );
    }
    let dims = Dims::d3(cfg.chares[0], cfg.chares[1], cfg.chares[2]);
    let arr = m.create_array("jacobi", dims, Mapper::Block, |idx| {
        Box::new(JacobiChare::new(cfg, idx))
    });
    // wire neighbor references
    for lin in 0..dims.len() {
        let idx = dims.unlinear(lin);
        let p = [idx.at(0), idx.at(1), idx.at(2)];
        let mut neighbors = [None; 6];
        let mut count = 0;
        for (d, step) in DIRS.iter().enumerate() {
            let q: Vec<isize> = (0..3).map(|k| p[k] as isize + step[k]).collect();
            if (0..3).all(|k| q[k] >= 0 && (q[k] as usize) < cfg.chares[k]) {
                neighbors[d] =
                    Some(m.element(arr, Idx::i3(q[0] as usize, q[1] as usize, q[2] as usize)));
                count += 1;
            }
        }
        // patch into the chare (pre-run initialization)
        let aref = ckd_charm::ChareRef {
            array: arr,
            lin: lin as u32,
        };
        m.with_chare_mut::<JacobiChare>(aref, |c| {
            c.neighbors = neighbors;
            c.n_neighbors = count;
        });
    }
    m.seed_broadcast(arr, Msg::signal(EP_SETUP));
    let total = m.run();

    let first = m.element(arr, Idx::i3(0, 0, 0));
    let c0 = m.chare::<JacobiChare>(first).unwrap();
    assert_eq!(c0.iter, cfg.iters, "stencil did not complete");
    let t0 = c0.t_first_iter.expect("iterated");
    let t1 = c0.t_done;
    // global residual = max over chares
    let mut residual = 0.0f64;
    let mut lossy_puts = 0u64;
    for lin in 0..dims.len() {
        let c = m
            .chare::<JacobiChare>(ckd_charm::ChareRef {
                array: arr,
                lin: lin as u32,
            })
            .unwrap();
        residual = residual.max(c.residual);
        lossy_puts += c.lossy_puts;
        assert_eq!(c.iter, cfg.iters, "chare {lin} incomplete");
    }
    JacobiResult {
        time_per_iter: (t1 - t0) / cfg.iters as u64,
        total,
        iters: cfg.iters,
        residual,
        lossy_puts,
    }
}

/// Run and assemble the full global grid (verification helper).
pub fn run_jacobi_grid(platform: Platform, pes: usize, cfg: JacobiCfg) -> (JacobiResult, Vec<f64>) {
    let mut m = platform.machine(pes);
    run_jacobi_grid_on(&mut m, cfg)
}

/// [`run_jacobi_grid`] on a caller-supplied machine, so fault injection or
/// tracing can be enabled before the run starts.
pub fn run_jacobi_grid_on(m: &mut Machine, cfg: JacobiCfg) -> (JacobiResult, Vec<f64>) {
    assert!(cfg.real_compute);
    let dims = Dims::d3(cfg.chares[0], cfg.chares[1], cfg.chares[2]);
    let arr = m.create_array("jacobi", dims, Mapper::Block, |idx| {
        Box::new(JacobiChare::new(cfg, idx))
    });
    for lin in 0..dims.len() {
        let idx = dims.unlinear(lin);
        let p = [idx.at(0), idx.at(1), idx.at(2)];
        let mut neighbors = [None; 6];
        let mut count = 0;
        for (d, step) in DIRS.iter().enumerate() {
            let q: Vec<isize> = (0..3).map(|k| p[k] as isize + step[k]).collect();
            if (0..3).all(|k| q[k] >= 0 && (q[k] as usize) < cfg.chares[k]) {
                neighbors[d] =
                    Some(m.element(arr, Idx::i3(q[0] as usize, q[1] as usize, q[2] as usize)));
                count += 1;
            }
        }
        let aref = ckd_charm::ChareRef {
            array: arr,
            lin: lin as u32,
        };
        m.with_chare_mut::<JacobiChare>(aref, |c| {
            c.neighbors = neighbors;
            c.n_neighbors = count;
        });
    }
    m.seed_broadcast(arr, Msg::signal(EP_SETUP));
    let total = m.run();

    let b = cfg.block();
    let [nx, ny, nz] = cfg.domain;
    let mut grid = vec![0.0f64; nx * ny * nz];
    let mut residual = 0.0f64;
    let mut lossy_puts = 0u64;
    let mut t0 = Time::MAX;
    let mut t1 = Time::ZERO;
    for lin in 0..dims.len() {
        let idx = dims.unlinear(lin);
        let c = m
            .chare::<JacobiChare>(ckd_charm::ChareRef {
                array: arr,
                lin: lin as u32,
            })
            .unwrap();
        residual = residual.max(c.residual);
        lossy_puts += c.lossy_puts;
        t0 = t0.min(c.t_first_iter.unwrap());
        t1 = t1.max(c.t_done);
        for z in 0..b[2] {
            for y in 0..b[1] {
                for x in 0..b[0] {
                    let gx = idx.at(0) * b[0] + x;
                    let gy = idx.at(1) * b[1] + y;
                    let gz = idx.at(2) * b[2] + z;
                    grid[(gz * ny + gy) * nx + gx] = c.cur[(z * b[1] + y) * b[0] + x];
                }
            }
        }
    }
    (
        JacobiResult {
            time_per_iter: (t1 - t0) / cfg.iters as u64,
            total,
            iters: cfg.iters,
            residual,
            lossy_puts,
        },
        grid,
    )
}

/// Serial reference: identical update, identical boundary conditions.
pub fn serial_jacobi(domain: [usize; 3], iters: u32) -> Vec<f64> {
    let [nx, ny, nz] = domain;
    let mut cur = vec![0.0f64; nx * ny * nz];
    let mut next = cur.clone();
    let at = |g: &[f64], x: isize, y: isize, z: isize| -> f64 {
        if x < 0 {
            return 1.0; // hot -x wall
        }
        if x >= nx as isize || !(0..ny as isize).contains(&y) || !(0..nz as isize).contains(&z) {
            return 0.0;
        }
        g[((z as usize) * ny + y as usize) * nx + x as usize]
    };
    for _ in 0..iters {
        for z in 0..nz as isize {
            for y in 0..ny as isize {
                for x in 0..nx as isize {
                    let v = (at(&cur, x, y, z)
                        + at(&cur, x - 1, y, z)
                        + at(&cur, x + 1, y, z)
                        + at(&cur, x, y - 1, z)
                        + at(&cur, x, y + 1, z)
                        + at(&cur, x, y, z - 1)
                        + at(&cur, x, y, z + 1))
                        / 7.0;
                    next[((z as usize) * ny + y as usize) * nx + x as usize] = v;
                }
            }
        }
        std::mem::swap(&mut cur, &mut next);
    }
    cur
}

/// Percentage improvement of CKD over MSG (the y-axis of Fig 2).
pub fn improvement_percent(msg: Time, ckd: Time) -> f64 {
    100.0 * (msg.as_secs_f64() - ckd.as_secs_f64()) / msg.as_secs_f64()
}

#[cfg(test)]
mod tests {
    use super::*;

    const ABE8: Platform = Platform::IbAbe { cores_per_node: 8 };

    fn small_cfg(variant: Variant) -> JacobiCfg {
        JacobiCfg {
            domain: [12, 10, 8],
            chares: [2, 2, 2],
            iters: 15,
            variant,
            real_compute: true,
        }
    }

    #[test]
    fn msg_variant_matches_serial_reference() {
        let (_, grid) = run_jacobi_grid(ABE8, 8, small_cfg(Variant::Msg));
        let reference = serial_jacobi([12, 10, 8], 15);
        assert_eq!(grid, reference, "bitwise-identical update expected");
    }

    #[test]
    fn ckd_variant_matches_serial_reference() {
        let (_, grid) = run_jacobi_grid(Platform::Bgp, 8, small_cfg(Variant::Ckd));
        let reference = serial_jacobi([12, 10, 8], 15);
        assert_eq!(grid, reference, "bitwise-identical update expected");
    }

    #[test]
    fn ckd_and_msg_agree_on_ib_too() {
        let (ra, ga) = run_jacobi_grid(ABE8, 8, small_cfg(Variant::Msg));
        let (rb, gb) = run_jacobi_grid(ABE8, 8, small_cfg(Variant::Ckd));
        assert_eq!(ga, gb);
        assert!(ra.residual > 0.0);
        assert_eq!(ra.residual, rb.residual);
    }

    #[test]
    fn heat_diffuses_from_hot_wall() {
        let reference = serial_jacobi([8, 6, 6], 40);
        // the x=0 layer is warmer than the x=7 layer
        let (nx, ny) = (8, 6);
        let near: f64 = (0..6)
            .flat_map(|z| (0..6).map(move |y| (y, z)))
            .map(|(y, z)| reference[(z * ny + y) * nx])
            .sum();
        let far: f64 = (0..6)
            .flat_map(|z| (0..6).map(move |y| (y, z)))
            .map(|(y, z)| reference[(z * ny + y) * nx + 7])
            .sum();
        assert!(near > far * 10.0, "near {near} far {far}");
    }

    #[test]
    fn modeled_run_completes_and_ckd_wins() {
        let mk = |variant| JacobiCfg {
            domain: [128, 128, 64],
            chares: [4, 4, 4],
            iters: 6,
            variant,
            real_compute: false,
        };
        let msg = run_jacobi(ABE8, 8, mk(Variant::Msg));
        let ckd = run_jacobi(ABE8, 8, mk(Variant::Ckd));
        assert!(ckd.time_per_iter < msg.time_per_iter);
        let imp = improvement_percent(msg.time_per_iter, ckd.time_per_iter);
        assert!(imp > 0.0 && imp < 60.0, "improvement {imp}%");
    }

    #[test]
    fn improvement_grows_with_processor_count() {
        // Fig 2's headline shape: higher PE counts → finer grain → larger
        // CkDirect gains.
        let run = |pes: usize| {
            let chares_per_dim = (pes * 8) as f64;
            let c = chares_per_dim.cbrt().round() as usize;
            let mk = |variant| JacobiCfg {
                // 32768 cells per chare: enough compute that communication
                // overhead is a minor (and therefore scalable) fraction
                domain: [c * 32, c * 32, c * 32],
                chares: [c, c, c],
                iters: 4,
                variant,
                real_compute: false,
            };
            let msg = run_jacobi(ABE8, pes, mk(Variant::Msg));
            let ckd = run_jacobi(ABE8, pes, mk(Variant::Ckd));
            improvement_percent(msg.time_per_iter, ckd.time_per_iter)
        };
        let small = run(8);
        let large = run(64);
        assert!(
            large > small,
            "improvement should grow: {small}% -> {large}%"
        );
    }
}
