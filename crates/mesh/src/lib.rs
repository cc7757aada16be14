//! A 2D-mesh on-chip network.
//!
//! This models the GARNET-configured interconnect of the paper's Table 6:
//! a 4x4 mesh with deterministic X-Y routing, 6-cycle switch-to-switch
//! hops, 1-flit control and 5-flit data messages, and three virtual
//! networks (request / forward / response) so responses can never be
//! blocked behind requests — the standard protocol-deadlock-avoidance
//! arrangement for MESI directory protocols.
//!
//! Two properties of the paper's setting are preserved:
//!
//! - **unordered network**: messages on different source/destination pairs
//!   (or different virtual networks) may be arbitrarily reordered —
//!   contention and optional random jitter both cause this;
//! - **point-to-point FIFO** within one (source, destination, virtual
//!   network) flow, as deterministic routing provides.
//!
//! The router model is intentionally lean: per-hop latency plus per-link,
//! per-virtual-network serialization of flits (one flit per cycle per
//! link), which yields congestion effects and exact flit counts for the
//! traffic numbers of Figure 9 without a full five-stage router pipeline.
//!
//! # Lossy links and reliable delivery
//!
//! By default every injected message arrives (delivery is reliable by
//! construction, as the paper assumes). Two optional adversarial layers
//! stress that assumption:
//!
//! - a [`ChaosEngine`] perturbs *timing* only (injection-time delays,
//!   PR 3);
//! - a [`FaultEngine`](wb_kernel::fault::FaultEngine) makes links
//!   *lossy*: frames may be dropped, duplicated, or corrupted at each
//!   hop, per a seeded [`FaultPlan`](wb_kernel::fault::FaultPlan).
//!
//! Faults require the [reliable sublayer](crate::reliable) (see
//! [`Mesh::enable_reliable`]): selective-repeat ARQ with per-frame
//! checksums, per-flow sequence numbers, cumulative acks piggybacked on
//! reverse traffic (standalone acks when idle), timeout-driven
//! retransmission with capped exponential backoff, a bounded retransmit
//! window with backpressure into [`Mesh::send`], and receiver-side
//! dedup. The protocol layer above still observes exactly-once,
//! per-flow-FIFO delivery — it cannot tell a lossy run from a clean one
//! except through timing. When neither layer is installed the fast path
//! is byte-identical to a mesh built before they existed.

mod reliable;

use std::collections::{HashMap, VecDeque};
use std::hash::Hash;
use wb_kernel::chaos::ChaosEngine;
use wb_kernel::config::LinkConfig;
use wb_kernel::fault::FaultEngine;
use wb_kernel::trace::{Category, CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, NodeId, SimRng, Stats};

use reliable::{frame_check, FlowKey, LinkCtl, Pending, RecvFlow, RecvVerdict, ReliableLink, Unacked};

/// The three virtual networks.
///
/// Keeping the classes on disjoint virtual networks removes
/// message-dependent deadlock between protocol classes: a response can
/// always sink even when requests are congested.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum VNet {
    /// Requests from private caches to the directory (GetS/GetX/Upgrade/Put).
    Request,
    /// Directory-generated traffic towards caches (Inv, Fwd).
    Forward,
    /// Responses (Data, Ack, Nack, Unblock, redirected Acks, hints).
    Response,
}

impl VNet {
    /// All virtual networks.
    pub const ALL: [VNet; 3] = [VNet::Request, VNet::Forward, VNet::Response];

    /// Stable ordinal (0 = request, 1 = forward, 2 = response) — also
    /// the `vnet` field in trace events.
    pub fn index(self) -> usize {
        match self {
            VNet::Request => 0,
            VNet::Forward => 1,
            VNet::Response => 2,
        }
    }
}

impl wb_kernel::Snap for VNet {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        w.u8(self.index() as u8);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        match r.u8()? {
            0 => Ok(VNet::Request),
            1 => Ok(VNet::Forward),
            2 => Ok(VNet::Response),
            t => Err(wb_kernel::SnapError::new(format!("bad VNet tag {t:#x}"))),
        }
    }
}

/// A message in flight, generic over the protocol payload.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MeshMsg<T> {
    pub src: NodeId,
    pub dst: NodeId,
    pub vnet: VNet,
    /// Message size in flits (1 control, 5 data in the paper).
    pub flits: u32,
    pub payload: T,
}

/// A frame traversing the network: a protocol message, or (with the
/// reliable sublayer active) a retransmission or standalone ack.
#[derive(Debug, Clone)]
struct Flight<T> {
    src: NodeId,
    dst: NodeId,
    vnet: VNet,
    flits: u32,
    /// `None` only for standalone ack frames, which are consumed at the
    /// link layer and never surface through [`Mesh::drain_arrived`].
    payload: Option<T>,
    /// Link-layer header; present iff the reliable sublayer is enabled.
    /// Boxed so the fault-free fast path doesn't pay its footprint in
    /// every in-flight frame.
    link: Option<Box<LinkCtl>>,
    /// Remaining hops (count of links still to traverse).
    hops_left: u32,
    /// The flight may take its next action at this cycle.
    ready_at: Cycle,
    /// Per-flow sequence for point-to-point FIFO delivery.
    flow_seq: u64,
    /// Injection cycle, for the end-to-end latency histogram. A
    /// retransmission inherits the original injection cycle so the
    /// histogram reflects true protocol-visible latency.
    sent_at: Cycle,
}

impl<T: wb_kernel::Snap> wb_kernel::Snap for Flight<T> {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.src.snap(w);
        self.dst.snap(w);
        self.vnet.snap(w);
        w.u32(self.flits);
        self.payload.snap(w);
        // The Box is a footprint optimization, not structure: serialize
        // the header as a plain Option.
        match &self.link {
            Some(b) => {
                w.bool(true);
                b.snap(w);
            }
            None => w.bool(false),
        }
        w.u32(self.hops_left);
        w.u64(self.ready_at);
        w.u64(self.flow_seq);
        w.u64(self.sent_at);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        Ok(Flight {
            src: NodeId::unsnap(r)?,
            dst: NodeId::unsnap(r)?,
            vnet: VNet::unsnap(r)?,
            flits: r.u32()?,
            payload: Option::unsnap(r)?,
            link: if r.bool()? { Some(Box::new(LinkCtl::unsnap(r)?)) } else { None },
            hops_left: r.u32()?,
            ready_at: r.u64()?,
            flow_seq: r.u64()?,
            sent_at: r.u64()?,
        })
    }
}

/// The mesh network.
///
/// Use [`Mesh::send`] to inject, [`Mesh::tick`] once per cycle, and
/// [`Mesh::drain_arrived`] to collect deliveries at each node.
#[derive(Debug)]
pub struct Mesh<T> {
    width: usize,
    height: usize,
    hop_cycles: u64,
    jitter: u64,
    rng: SimRng,
    in_flight: Vec<Flight<T>>,
    /// (node, vnet) -> cycle until which the node's injection link is busy.
    /// This provides coarse per-link serialization: a node can push one
    /// flit per cycle per virtual network.
    link_busy: HashMap<(NodeId, usize), Cycle>,
    /// Arrived messages held for in-order per-flow release.
    arrived: Vec<VecDeque<Flight<T>>>,
    next_flow_seq: HashMap<FlowKey, u64>,
    next_deliver_seq: HashMap<FlowKey, u64>,
    stats: Stats,
    tracer: Tracer,
    /// Adversarial timing injection (`None` = byte-identical to a
    /// chaos-free mesh). Perturbs `ready_at` at injection only, so
    /// per-flow FIFO delivery is unaffected: every plan stays within
    /// legal unordered-network behaviour (no drops, no duplicates).
    chaos: Option<ChaosEngine>,
    /// Reliable-delivery sublayer (`None` = links lossless by
    /// construction, zero overhead).
    reliable: Option<ReliableLink<T>>,
    /// Link fault injection; requires `reliable` (a lossy link without
    /// ARQ would simply violate the protocol's delivery contract).
    fault: Option<FaultEngine>,
    /// Pre-resolved handles for the per-send counters — `send` is the
    /// hottest stats site in the mesh and skips the name probe.
    h_msgs: CounterHandle,
    h_flits: CounterHandle,
    /// Indexed by `VNet::index()`.
    h_flits_vnet: [CounterHandle; 3],
    /// Scratch buffers reused across `tick` calls so the per-cycle hot
    /// path performs no allocation once warm (see scripts/verify.sh's
    /// grep guard).
    scratch_removals: Vec<(usize, bool)>,
    scratch_dups: Vec<Flight<T>>,
    scratch_flow_keys: Vec<FlowKey>,
    scratch_acks_due: Vec<(FlowKey, u64)>,
    /// When enabled (sparse engine), every frame parked into an arrival
    /// buffer also records its destination node here — the wake-on-message
    /// feed the system drains after each `tick` to schedule delivery.
    /// Not serialized: the engine drains it within the same cycle, like
    /// the scratch buffers above (may hold duplicates; the consumer's
    /// wake table dedups).
    log_parks: bool,
    park_log: Vec<u16>,
}

impl<T> Mesh<T> {
    /// Create a mesh of `width` x `height` routers serving `nodes` nodes.
    ///
    /// # Panics
    ///
    /// Panics if the mesh cannot host the node count.
    pub fn new(width: usize, height: usize, nodes: usize, hop_cycles: u64, jitter: u64, seed: u64) -> Self {
        assert!(width * height >= nodes, "mesh {width}x{height} too small for {nodes} nodes");
        let mut stats = Stats::new();
        let h_msgs = stats.handle("mesh_msgs");
        let h_flits = stats.handle("mesh_flits");
        let h_flits_vnet = [
            stats.handle("mesh_flits_request"),
            stats.handle("mesh_flits_forward"),
            stats.handle("mesh_flits_response"),
        ];
        Mesh {
            width,
            height,
            hop_cycles,
            jitter,
            rng: SimRng::new(seed ^ 0x4e74_776b),
            in_flight: Vec::new(),
            link_busy: HashMap::new(),
            arrived: (0..nodes).map(|_| VecDeque::new()).collect(),
            next_flow_seq: HashMap::new(),
            next_deliver_seq: HashMap::new(),
            stats,
            tracer: Tracer::new(CompId::Mesh),
            chaos: None,
            reliable: None,
            fault: None,
            h_msgs,
            h_flits,
            h_flits_vnet,
            scratch_removals: Vec::new(),
            scratch_dups: Vec::new(),
            scratch_flow_keys: Vec::new(),
            scratch_acks_due: Vec::new(),
            log_parks: false,
            park_log: Vec::new(),
        }
    }

    /// Enable/disable the arrival park log (see `park_log`). The sparse
    /// engine turns this on; other engines leave it off so the mesh stays
    /// byte-identical in behaviour and cost.
    pub fn set_park_log(&mut self, enabled: bool) {
        self.log_parks = enabled;
        self.park_log.clear();
    }

    /// Destination nodes of frames parked since the last clear (may hold
    /// duplicates).
    pub fn parked_nodes(&self) -> &[u16] {
        &self.park_log
    }

    /// Clear the park log (the engine calls this after scheduling the
    /// wakes it implies).
    pub fn clear_parked_nodes(&mut self) {
        self.park_log.clear();
    }

    /// Park a frame in its destination's arrival buffer, feeding the
    /// wake-on-message log when enabled.
    fn park(&mut self, f: Flight<T>) {
        if self.log_parks {
            self.park_log.push(f.dst.0);
        }
        self.arrived[f.dst.index()].push_back(f);
    }

    /// Install (or clear) a chaos engine for adversarial timing.
    pub fn set_chaos(&mut self, engine: Option<ChaosEngine>) {
        self.chaos = engine;
    }

    /// Enable the reliable-delivery sublayer (selective-repeat ARQ).
    /// Must be called before any traffic is injected: retrofitting
    /// sequence numbers onto frames already in flight is not supported.
    ///
    /// # Panics
    ///
    /// Panics if messages were already sent.
    pub fn enable_reliable(&mut self, cfg: LinkConfig) {
        assert!(
            self.in_flight.is_empty() && self.next_flow_seq.is_empty(),
            "enable_reliable must precede all traffic"
        );
        self.reliable = Some(ReliableLink::new(cfg));
    }

    /// True when the reliable sublayer is active.
    pub fn reliable_enabled(&self) -> bool {
        self.reliable.is_some()
    }

    /// Install (or clear) link fault injection.
    ///
    /// # Panics
    ///
    /// Panics if an engine is installed without the reliable sublayer:
    /// lossy links with no ARQ would silently break the protocol's
    /// delivery contract, which is never what a test means to do.
    pub fn set_fault(&mut self, engine: Option<FaultEngine>) {
        assert!(
            engine.is_none() || self.reliable.is_some(),
            "fault injection requires the reliable link layer (call enable_reliable first)"
        );
        self.fault = engine;
    }

    /// `(dropped, duplicated, corrupted)` frames injected by the fault
    /// engine so far.
    pub fn fault_injected(&self) -> (u64, u64, u64) {
        self.fault.as_ref().map_or((0, 0, 0), FaultEngine::injected)
    }

    /// True when the installed plan has signal-gated clauses; the system
    /// only computes the lockdown-live signal if so.
    pub fn chaos_wants_signal(&self) -> bool {
        self.chaos.as_ref().is_some_and(ChaosEngine::wants_signal)
    }

    /// Raise/lower the lockdown-live signal for directed chaos clauses.
    pub fn set_chaos_signal(&mut self, live: bool) {
        if let Some(ch) = &mut self.chaos {
            ch.set_signal(live);
        }
    }

    /// (messages touched, total cycles injected) by the chaos engine.
    pub fn chaos_injected(&self) -> (u64, u64) {
        self.chaos.as_ref().map_or((0, 0), |c| (c.touched, c.injected))
    }

    /// Enable/disable event tracing (per-hop events are `Level::Debug`).
    pub fn set_trace(&mut self, filter: TraceFilter) {
        self.tracer.set_filter(filter);
    }

    /// The mesh's event tracer (for merging into a system timeline).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    fn coords(&self, n: NodeId) -> (usize, usize) {
        (n.index() % self.width, n.index() / self.width)
    }

    /// Mesh dimensions `(width, height)`.
    pub fn dims(&self) -> (usize, usize) {
        (self.width, self.height)
    }

    /// Number of X-Y hops between two nodes (Manhattan distance).
    pub fn hops(&self, a: NodeId, b: NodeId) -> u32 {
        let (ax, ay) = self.coords(a);
        let (bx, by) = self.coords(b);
        (ax.abs_diff(bx) + ay.abs_diff(by)) as u32
    }

    /// Collect every message deliverable at `node` this cycle, respecting
    /// per-flow FIFO order.
    pub fn drain_arrived(&mut self, node: NodeId) -> Vec<MeshMsg<T>> {
        let mut out = Vec::new();
        self.drain_arrived_into(node, &mut out);
        out
    }

    /// Allocation-free [`Mesh::drain_arrived`]: append deliverable
    /// messages to `out` (which the caller clears and reuses).
    pub fn drain_arrived_into(&mut self, node: NodeId, out: &mut Vec<MeshMsg<T>>) {
        let buf = &mut self.arrived[node.index()];
        if buf.is_empty() {
            return;
        }
        // Repeatedly release the next-in-flow messages until a pass makes
        // no progress (handles out-of-order arrivals within a flow).
        loop {
            let mut progressed = false;
            let mut i = 0;
            while i < buf.len() {
                let key: FlowKey = (buf[i].src, buf[i].dst, buf[i].vnet.index());
                let expected = self.next_deliver_seq.entry(key).or_insert(0);
                if buf[i].flow_seq == *expected {
                    *expected += 1;
                    progressed = true;
                    if let Some(f) = buf.remove(i) {
                        if let Some(payload) = f.payload {
                            out.push(MeshMsg { src: f.src, dst: f.dst, vnet: f.vnet, flits: f.flits, payload });
                        }
                    }
                } else {
                    i += 1;
                }
            }
            if !progressed {
                break;
            }
        }
    }

    /// Messages currently traversing the network (excludes arrived-but-
    /// undrained ones).
    pub fn in_flight(&self) -> usize {
        self.in_flight.len()
    }

    /// `(src, dst, vnet, in-flight cycles)` for every traversing
    /// message, sorted — for wedge reports.
    pub fn in_flight_summary(&self, now: Cycle) -> Vec<(u16, u16, u8, u64)> {
        let mut v: Vec<(u16, u16, u8, u64)> = self
            .in_flight
            .iter()
            .map(|f| (f.src.0, f.dst.0, f.vnet.index() as u8, now.saturating_sub(f.sent_at)))
            .collect();
        v.sort();
        v
    }

    /// Visit every protocol payload the mesh is still responsible for:
    /// traversing flights, arrived-but-undrained messages, and (with the
    /// reliable sublayer) unacked retransmit copies and backpressured
    /// pending sends. Standalone ack frames carry no payload and are
    /// skipped. The online auditor uses this to mark lines with
    /// in-transit traffic as busy (exempt from agreement checks).
    pub fn for_each_payload(&self, mut f: impl FnMut(&T)) {
        for fl in &self.in_flight {
            if let Some(p) = &fl.payload {
                f(p);
            }
        }
        for q in &self.arrived {
            for fl in q {
                if let Some(p) = &fl.payload {
                    f(p);
                }
            }
        }
        if let Some(rl) = &self.reliable {
            for sf in rl.send_flows.values() {
                for u in &sf.unacked {
                    f(&u.payload);
                }
                for p in &sf.pending {
                    f(&p.payload);
                }
            }
        }
    }

    /// Sanity-check the reliable sublayer's bookkeeping: window bounds
    /// respected, per-flow retransmit queues sequence-ordered, the
    /// owed-ack count consistent with per-flow state. Returns one line
    /// per violation (empty = healthy); the online auditor folds these
    /// into its ARQ-window check.
    pub fn audit_reliable(&self) -> Vec<String> {
        let mut out = Vec::new();
        let Some(rl) = &self.reliable else { return out };
        for (key, sf) in &rl.send_flows {
            if sf.unacked.len() > rl.cfg.window {
                out.push(format!(
                    "flow {key:?}: {} unacked frames exceed window {}",
                    sf.unacked.len(),
                    rl.cfg.window
                ));
            }
            if !sf.pending.is_empty() && sf.unacked.len() < rl.cfg.window {
                out.push(format!(
                    "flow {key:?}: {} sends backpressured with window space free",
                    sf.pending.len()
                ));
            }
            let mut prev: Option<u64> = None;
            for u in &sf.unacked {
                if prev.is_some_and(|p| p >= u.seq) {
                    out.push(format!("flow {key:?}: unacked seqs out of order at {}", u.seq));
                    break;
                }
                prev = Some(u.seq);
            }
        }
        for (key, r) in &rl.recv_flows {
            if r.ooo.iter().next().is_some_and(|&s| s <= r.next_expected) {
                out.push(format!(
                    "flow {key:?}: out-of-order set overlaps cumulative frontier {}",
                    r.next_expected
                ));
            }
            if r.ooo.len() > rl.cfg.window {
                out.push(format!(
                    "flow {key:?}: {} out-of-order frames exceed window {}",
                    r.ooo.len(),
                    rl.cfg.window
                ));
            }
        }
        let owed = rl.recv_flows.values().filter(|r| r.owed_since.is_some()).count();
        if owed != rl.owed_count {
            out.push(format!("owed-ack count {} disagrees with per-flow state {owed}", rl.owed_count));
        }
        out
    }

    /// True when nothing is in flight, nothing awaits draining, and
    /// (with the reliable sublayer) no frame awaits an ack and no ack is
    /// owed — a lossy run is only over once retransmission settles.
    pub fn is_idle(&self) -> bool {
        self.in_flight.is_empty()
            && self.arrived.iter().all(|q| q.is_empty())
            && self.reliable.as_ref().is_none_or(ReliableLink::is_idle)
    }

    /// Traffic statistics (flit and message counts).
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// The earliest cycle at which ticking this mesh can change state:
    /// `Some(now)` when something is actionable this cycle (arrivals
    /// waiting to be drained, or a flight whose `ready_at` has passed),
    /// the minimum future deadline otherwise (next flight hop, next ARQ
    /// retransmission timeout, next standalone-ack deadline), or `None`
    /// when the network is fully quiescent. Between `now` and the
    /// returned cycle, `tick` is a provable no-op.
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            let c = c.max(now);
            next = Some(next.map_or(c, |n| n.min(c)));
        };
        if self.arrived.iter().any(|q| !q.is_empty()) {
            consider(now);
        }
        for f in &self.in_flight {
            consider(f.ready_at);
        }
        if let Some(rl) = &self.reliable {
            for sf in rl.send_flows.values() {
                if let Some(head) = sf.unacked.front() {
                    consider(head.last_sent + head.rto);
                }
            }
            for r in rl.recv_flows.values() {
                if let Some(since) = r.owed_since {
                    consider(since + rl.cfg.ack_idle);
                }
            }
        }
        next
    }

    /// [`Mesh::next_event`] without the arrivals-awaiting-drain term:
    /// the earliest cycle at which `tick` itself can change state.
    ///
    /// `tick` never reads the arrival buffers — draining them is the
    /// *system's* job — so under the sparse engine, where dedicated
    /// per-node drain units are woken by the park log, the mesh unit
    /// sleeps on this hook. Using the full `next_event` there would pin
    /// the mesh (and its whole-machine jump) awake for as long as a
    /// flow-gap blocked arrival sits parked. The skip engine keeps the
    /// full hook: its single global probe has no drain units.
    pub fn next_internal_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        let mut consider = |c: Cycle| {
            let c = c.max(now);
            next = Some(next.map_or(c, |n| n.min(c)));
        };
        for f in &self.in_flight {
            consider(f.ready_at);
        }
        if let Some(rl) = &self.reliable {
            for sf in rl.send_flows.values() {
                if let Some(head) = sf.unacked.front() {
                    consider(head.last_sent + head.rto);
                }
            }
            for r in rl.recv_flows.values() {
                if let Some(since) = r.owed_since {
                    consider(since + rl.cfg.ack_idle);
                }
            }
        }
        next
    }

    /// True when any arrival buffer holds parked frames (the term
    /// [`Mesh::next_internal_event`] omits; the sparse engine's restore
    /// path uses it to schedule drain units).
    pub fn has_arrivals(&self) -> bool {
        self.arrived.iter().any(|q| !q.is_empty())
    }

    /// True when node `n`'s arrival buffer holds parked frames.
    pub fn has_arrivals_at(&self, n: NodeId) -> bool {
        !self.arrived[n.index()].is_empty()
    }

    /// Re-seed every random stream in this mesh (routing jitter, chaos,
    /// faults) as if it had been built with `seed` — the warm-start
    /// forking primitive: restore one warmed snapshot, then `reseed`
    /// per derived cell.
    pub fn reseed(&mut self, seed: u64) {
        self.rng = SimRng::new(seed ^ 0x4e74_776b);
        if let Some(ch) = &mut self.chaos {
            ch.reseed(seed);
        }
        if let Some(fe) = &mut self.fault {
            fe.reseed(seed);
        }
    }
}

impl<T: wb_kernel::Snap> Mesh<T> {
    /// Serialize every execution-visible field. Geometry and latency
    /// knobs are configuration; the tracer, counter handles, and scratch
    /// buffers (cleared at each use) carry no execution-visible state.
    pub fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        use wb_kernel::Snap;
        self.rng.state().snap(w);
        self.in_flight.snap(w);
        // HashMaps in sorted key order for determinism.
        let mut busy: Vec<((NodeId, usize), Cycle)> =
            self.link_busy.iter().map(|(&k, &c)| (k, c)).collect();
        busy.sort_unstable();
        busy.snap(w);
        self.arrived.snap(w);
        let mut flows: Vec<(FlowKey, u64)> =
            self.next_flow_seq.iter().map(|(&k, &s)| (k, s)).collect();
        flows.sort_unstable();
        flows.snap(w);
        let mut deliver: Vec<(FlowKey, u64)> =
            self.next_deliver_seq.iter().map(|(&k, &s)| (k, s)).collect();
        deliver.sort_unstable();
        deliver.snap(w);
        self.stats.snap(w);
        // Optional layers: presence must match the restore target (both
        // are installed from config before any traffic).
        match &self.chaos {
            Some(ch) => {
                w.bool(true);
                ch.snap(w);
            }
            None => w.bool(false),
        }
        match &self.reliable {
            Some(rl) => {
                w.bool(true);
                rl.snap(w);
            }
            None => w.bool(false),
        }
        match &self.fault {
            Some(fe) => {
                w.bool(true);
                fe.snap(w);
            }
            None => w.bool(false),
        }
    }

    /// Inverse of [`Mesh::snap`], in place. Fails if the snapshot's
    /// optional layers (chaos / reliable / fault) disagree with how this
    /// mesh was configured.
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        use wb_kernel::Snap;
        self.rng = SimRng::from_state(<[u64; 4]>::unsnap(r)?);
        self.in_flight = Vec::unsnap(r)?;
        self.link_busy = Vec::<((NodeId, usize), Cycle)>::unsnap(r)?.into_iter().collect();
        self.arrived = Vec::unsnap(r)?;
        self.next_flow_seq = Vec::<(FlowKey, u64)>::unsnap(r)?.into_iter().collect();
        self.next_deliver_seq = Vec::<(FlowKey, u64)>::unsnap(r)?.into_iter().collect();
        let stats = Stats::unsnap(r)?;
        self.stats.load(&stats);
        let mismatch = |layer: &str| {
            wb_kernel::SnapError::new(format!(
                "snapshot and mesh disagree on the {layer} layer"
            ))
        };
        match (r.bool()?, &mut self.chaos) {
            (true, Some(ch)) => ch.restore(r)?,
            (false, None) => {}
            (_, _) => return Err(mismatch("chaos")),
        }
        match (r.bool()?, &mut self.reliable) {
            (true, Some(rl)) => rl.restore(r)?,
            (false, None) => {}
            (_, _) => return Err(mismatch("reliable-link")),
        }
        match (r.bool()?, &mut self.fault) {
            (true, Some(fe)) => fe.restore(r)?,
            (false, None) => {}
            (_, _) => return Err(mismatch("fault")),
        }
        Ok(())
    }
}

impl<T: Clone + Hash> Mesh<T> {
    /// Inject a message at cycle `now`. Delivery happens after routing
    /// latency; local (src == dst) messages still take one cycle. With
    /// the reliable sublayer enabled and the flow's window full, the
    /// message queues (backpressure) and transmits as acks free space.
    pub fn send(&mut self, now: Cycle, msg: MeshMsg<T>) {
        let MeshMsg { src, dst, vnet, flits, payload } = msg;
        let key: FlowKey = (src, dst, vnet.index());
        let seq_ref = self.next_flow_seq.entry(key).or_insert(0);
        let flow_seq = *seq_ref;
        *seq_ref += 1;

        self.stats.inc_h(self.h_msgs);
        self.stats.add_h(self.h_flits, flits as u64);
        self.stats.add_h(self.h_flits_vnet[vnet.index()], flits as u64);

        if let Some(mut rl) = self.reliable.take() {
            let sf = rl.send_flows.entry(key).or_default();
            if sf.unacked.len() >= rl.cfg.window || !sf.pending.is_empty() {
                // Window full (or a queue already formed): backpressure,
                // never loss. Timing effects (link serialization, jitter,
                // chaos) apply at actual transmission, not queueing.
                sf.pending.push_back(Pending { payload, flits, seq: flow_seq, queued_at: now });
                self.stats.inc("link_backpressure_msgs");
            } else {
                let first = Pending { payload, flits, seq: flow_seq, queued_at: now };
                self.transmit_data(&mut rl, now, key, first);
            }
            self.reliable = Some(rl);
            return;
        }

        // Fast path: no reliable layer, no link header, no checksum.
        // Injection-link serialization: one flit/cycle per (node, vnet).
        let busy = self.link_busy.entry((src, vnet.index())).or_insert(0);
        let start = now.max(*busy);
        *busy = start + flits as u64;

        let jitter = if self.jitter > 0 { self.rng.below(self.jitter + 1) } else { 0 };
        let hops = self.hops(src, dst);
        let mut ready_at = start + 1 + jitter; // one cycle of local latency
        if let Some(ch) = &mut self.chaos {
            ready_at += ch.delay(now, src.0, dst.0, vnet.index() as u8, &mut self.stats);
        }
        self.in_flight.push(Flight {
            src,
            dst,
            vnet,
            flits,
            payload: Some(payload),
            link: None,
            hops_left: hops,
            ready_at,
            flow_seq,
            sent_at: now,
        });
    }

    /// First transmission of a data frame on flow `key` (either straight
    /// from [`Mesh::send`] or a backpressured message leaving `pending`).
    /// The frame's `queued_at` is the protocol's injection cycle,
    /// preserved through queueing and retransmission for honest latency
    /// accounting.
    fn transmit_data(&mut self, rl: &mut ReliableLink<T>, now: Cycle, key: FlowKey, frame: Pending<T>) {
        let Pending { payload, flits, seq, queued_at: origin } = frame;
        let (src, dst, vi) = key;
        let ack = rl.take_piggyback_ack((dst, src, vi));
        let check = frame_check(src, dst, vi, flits, Some(seq), ack, Some(&payload));
        let rto = rl.cfg.rto_min;
        let sf = rl.send_flows.entry(key).or_default();
        sf.unacked.push_back(Unacked {
            payload: payload.clone(),
            flits,
            seq,
            first_sent: origin,
            last_sent: now,
            rto,
            retx: 0,
        });

        let busy = self.link_busy.entry((src, vi)).or_insert(0);
        let start = now.max(*busy);
        *busy = start + flits as u64;
        let jitter = if self.jitter > 0 { self.rng.below(self.jitter + 1) } else { 0 };
        let mut ready_at = start + 1 + jitter;
        if let Some(ch) = &mut self.chaos {
            ready_at += ch.delay(now, src.0, dst.0, vi as u8, &mut self.stats);
        }
        let hops = self.hops(src, dst);
        self.in_flight.push(Flight {
            src,
            dst,
            vnet: VNet::ALL[vi],
            flits,
            payload: Some(payload),
            link: Some(Box::new(LinkCtl::Data { seq, ack, check })),
            hops_left: hops,
            ready_at,
            flow_seq: seq,
            sent_at: origin,
        });
    }

    /// Advance the network by one cycle: move flights along their route,
    /// apply link faults at hop granularity, park completed frames in the
    /// destination's arrival buffer (through link-layer receive when the
    /// reliable sublayer is active), then run retransmission/ack
    /// maintenance.
    pub fn tick(&mut self, now: Cycle) {
        let hop_cycles = self.hop_cycles;
        let trace_hops = self.tracer.wants(Category::Mesh);
        // (index, was_dropped) in ascending index order. Both buffers
        // are owned scratch space (taken/restored around the borrow of
        // `in_flight`) so steady-state ticking never allocates.
        let mut removals = std::mem::take(&mut self.scratch_removals);
        let mut dups = std::mem::take(&mut self.scratch_dups);
        removals.clear();
        dups.clear();
        for (i, f) in self.in_flight.iter_mut().enumerate() {
            if f.ready_at > now {
                continue;
            }
            if f.hops_left == 0 {
                removals.push((i, false));
                continue;
            }
            // Traverse one switch-to-switch link: head latency plus
            // tail serialization.
            f.hops_left -= 1;
            f.ready_at = now + hop_cycles + (f.flits as u64 - 1);
            if trace_hops {
                self.tracer.record(
                    now,
                    TraceEvent::MeshHop {
                        src: f.src.0,
                        dst: f.dst.0,
                        hops_left: f.hops_left,
                        vnet: f.vnet.index() as u8,
                    },
                );
            }
            if let Some(eng) = &mut self.fault {
                let fate = eng.at_hop(f.src.0, f.dst.0, f.vnet.index() as u8);
                if fate.drop {
                    self.stats.inc("link_drops");
                    self.tracer.record(
                        now,
                        TraceEvent::LinkDrop {
                            src: f.src.0,
                            dst: f.dst.0,
                            vnet: f.vnet.index() as u8,
                            seq: f.link.as_deref().map_or(f.flow_seq, LinkCtl::trace_seq),
                            corrupt: false,
                        },
                    );
                    removals.push((i, true));
                    continue;
                }
                if fate.duplicate {
                    // The clone continues from this hop independently
                    // (and may itself be faulted downstream).
                    self.stats.inc("link_dups");
                    dups.push(f.clone());
                }
                if let Some(mask) = fate.corrupt {
                    if let Some(link) = &mut f.link {
                        link.corrupt(mask);
                        self.stats.inc("link_corrupt_injected");
                    }
                }
            }
        }
        // Remove in reverse index order so indices stay valid; duplicates
        // are appended only afterwards for the same reason.
        if let Some(mut rl) = self.reliable.take() {
            for &(i, was_dropped) in removals.iter().rev() {
                let f = self.in_flight.swap_remove(i);
                if !was_dropped {
                    self.receive_frame(&mut rl, now, f);
                }
            }
            self.in_flight.append(&mut dups);
            self.link_maintenance(&mut rl, now);
            self.reliable = Some(rl);
        } else {
            for &(i, _) in removals.iter().rev() {
                let f = self.in_flight.swap_remove(i);
                self.stats.record("mesh_msg_cycles", now.saturating_sub(f.sent_at));
                self.park(f);
            }
            self.in_flight.append(&mut dups);
        }
        self.scratch_removals = removals;
        self.scratch_dups = dups;
    }

    /// Link-layer receive: checksum verification, ack application, dedup.
    /// Runs at arrival time (not drain time) so acks are consumed even
    /// when the destination node never drains this cycle.
    fn receive_frame(&mut self, rl: &mut ReliableLink<T>, now: Cycle, mut f: Flight<T>) {
        let vi = f.vnet.index();
        let Some(link) = f.link.take() else {
            // Unreachable in practice: the sublayer is enabled before any
            // traffic, so every frame carries a header. Deliver as-is.
            self.stats.record("mesh_msg_cycles", now.saturating_sub(f.sent_at));
            self.park(f);
            return;
        };
        match *link {
            LinkCtl::Ack { ack, check } => {
                if frame_check::<T>(f.src, f.dst, vi, f.flits, None, ack, None) != check {
                    self.discard_corrupt(now, f.src, f.dst, vi, ack);
                    return;
                }
                // The ack acknowledges the reverse flow (dst -> src data).
                self.apply_ack(rl, now, (f.dst, f.src, vi), ack);
            }
            LinkCtl::Data { seq, ack, check } => {
                if frame_check(f.src, f.dst, vi, f.flits, Some(seq), ack, f.payload.as_ref()) != check {
                    // Corrupted in transit: discard; the sender's timeout
                    // will retransmit.
                    self.discard_corrupt(now, f.src, f.dst, vi, seq);
                    return;
                }
                if ack > 0 {
                    self.apply_ack(rl, now, (f.dst, f.src, vi), ack);
                }
                let key: FlowKey = (f.src, f.dst, vi);
                let verdict = rl.recv_flows.entry(key).or_insert_with(RecvFlow::new).on_data(seq);
                // Fresh or duplicate, an ack is owed: a duplicate usually
                // means the sender missed our previous ack.
                rl.mark_owed(key, now);
                match verdict {
                    RecvVerdict::Duplicate => {
                        self.stats.inc("link_dup_squashed");
                        self.tracer.record(
                            now,
                            TraceEvent::LinkDupSquashed { src: f.src.0, dst: f.dst.0, vnet: vi as u8, seq },
                        );
                    }
                    RecvVerdict::Fresh => {
                        self.stats.record("mesh_msg_cycles", now.saturating_sub(f.sent_at));
                        self.park(f);
                    }
                }
            }
        }
    }

    fn discard_corrupt(&mut self, now: Cycle, src: NodeId, dst: NodeId, vi: usize, seq: u64) {
        self.stats.inc("link_corrupt_dropped");
        self.tracer.record(
            now,
            TraceEvent::LinkDrop { src: src.0, dst: dst.0, vnet: vi as u8, seq, corrupt: true },
        );
    }

    /// Apply a cumulative ack and refill the freed window from `pending`.
    fn apply_ack(&mut self, rl: &mut ReliableLink<T>, now: Cycle, key: FlowKey, ack: u64) {
        for retx in rl.apply_ack(key, ack) {
            if retx > 0 {
                self.stats.record("link_retx_count", retx as u64);
            }
        }
        loop {
            let Some(sf) = rl.send_flows.get_mut(&key) else { return };
            if sf.unacked.len() >= rl.cfg.window {
                return;
            }
            let Some(p) = sf.pending.pop_front() else { return };
            self.transmit_data(rl, now, key, p);
        }
    }

    /// Once-per-tick ARQ upkeep: retransmit timed-out window heads and
    /// emit standalone acks for flows whose reverse direction went idle.
    fn link_maintenance(&mut self, rl: &mut ReliableLink<T>, now: Cycle) {
        // Retransmission: only the oldest unacked frame per flow (its
        // loss is what blocks the cumulative frontier), with exponential
        // backoff capped at rto_max. Retransmits ride a sideband (no
        // link_busy/jitter/chaos interaction) so a fault-free run's rng
        // stream and schedule stay untouched by the sublayer's existence.
        let rto_max = rl.cfg.rto_max;
        let mut keys = std::mem::take(&mut self.scratch_flow_keys);
        keys.clear();
        keys.extend(rl.send_flows.keys().copied());
        for key in keys.drain(..) {
            let Some(sf) = rl.send_flows.get_mut(&key) else { continue };
            let Some(head) = sf.unacked.front_mut() else { continue };
            if now.saturating_sub(head.last_sent) < head.rto {
                continue;
            }
            head.last_sent = now;
            head.rto = head.rto.saturating_mul(2).min(rto_max);
            head.retx += 1;
            let (payload, flits, seq, first_sent, attempt) =
                (head.payload.clone(), head.flits, head.seq, head.first_sent, head.retx);
            let (src, dst, vi) = key;
            self.stats.inc("link_retx");
            self.stats.record("link_retx_cycles", now.saturating_sub(first_sent));
            self.tracer.record(
                now,
                TraceEvent::LinkRetx { src: src.0, dst: dst.0, vnet: vi as u8, seq, attempt },
            );
            let ack = rl.take_piggyback_ack((dst, src, vi));
            let check = frame_check(src, dst, vi, flits, Some(seq), ack, Some(&payload));
            let hops = self.hops(src, dst);
            self.in_flight.push(Flight {
                src,
                dst,
                vnet: VNet::ALL[vi],
                flits,
                payload: Some(payload),
                link: Some(Box::new(LinkCtl::Data { seq, ack, check })),
                hops_left: hops,
                ready_at: now + 1,
                flow_seq: seq,
                sent_at: first_sent,
            });
        }

        self.scratch_flow_keys = keys;

        // Standalone acks: when the reverse direction has been silent for
        // ack_idle cycles, pay one control flit to unblock the sender.
        if rl.owed_count == 0 {
            return;
        }
        let ack_idle = rl.cfg.ack_idle;
        let mut due = std::mem::take(&mut self.scratch_acks_due);
        due.clear();
        let ReliableLink { recv_flows, owed_count, .. } = rl;
        for (key, r) in recv_flows.iter_mut() {
            if let Some(since) = r.owed_since {
                if now.saturating_sub(since) >= ack_idle {
                    r.owed_since = None;
                    *owed_count -= 1;
                    due.push((*key, r.next_expected));
                }
            }
        }
        for ((src, dst, vi), ack) in due.drain(..) {
            // The ack travels the reverse direction of the data flow.
            self.stats.inc("link_acks");
            let check = frame_check::<T>(dst, src, vi, 1, None, ack, None);
            let hops = self.hops(dst, src);
            self.in_flight.push(Flight {
                src: dst,
                dst: src,
                vnet: VNet::ALL[vi],
                flits: 1,
                payload: None,
                link: Some(Box::new(LinkCtl::Ack { ack, check })),
                hops_left: hops,
                ready_at: now + 1,
                flow_seq: 0,
                sent_at: now,
            });
        }
        self.scratch_acks_due = due;
    }
}
