//! An LLC/directory bank.
//!
//! Each of the 16 tiles hosts one bank of the shared L3 plus the directory
//! slice for the lines that map to it. The protocol is a GEMS-style MESI
//! directory protocol: 3-hop read transactions with Unblock, transient
//! "busy" states that defer conflicting requests, and recall-based
//! directory evictions.
//!
//! The WritersBlock extension (Sections 3.3-3.5 of the paper) adds:
//!
//! - a `Nack` reply to an invalidation puts the in-flight write
//!   transaction into the **WritersBlock** condition: the write stays
//!   pending, *all* other writes for the line are queued (and hinted),
//!   while reads are served **uncacheable tear-off copies** of the
//!   pre-write data, never registering new sharers — Option 2 of Section
//!   3.4, the livelock-free choice;
//! - when the Nacking core's lockdown lifts, its deferred acknowledgement
//!   (`LockdownAck`) is redirected to the writer via the directory
//!   (`RedirAck`), because lockdowns do not retain the writer's identity;
//! - directory evictions whose invalidations hit lockdowns park the entry
//!   in an **eviction buffer** instead of blocking the allocating request
//!   (Section 3.5.1); when the buffer is full, reads fall back to
//!   uncacheable memory reads so SoS loads can never be blocked.
//!
//! The livelock-prone "Option 1" (serve cacheable copies from a
//! WritersBlock entry and re-invalidate) is implemented behind the
//! `wb_cacheable_reads` ablation flag so the spin-loop livelock the paper
//! predicts can be demonstrated.

use crate::array::{Insert, SetAssocArray};
use crate::messages::{Dest, ProtoMsg, ReadKind};
use crate::sharers::SharerSet;
use crate::{DirWait, ProtocolError};
use std::collections::{HashMap, VecDeque};
use wb_kernel::config::{MemoryConfig, SystemConfig};
use wb_kernel::trace::{Category, CompId, TraceEvent, TraceFilter, Tracer};
use wb_kernel::{CounterHandle, Cycle, HeavyHitters, NodeId, Stats};
use wb_mem::{HomeMap, LineAddr, LineData, MainMemory};

/// Directory-entry coherence state.
#[derive(Debug, Clone, PartialEq, Eq)]
enum DirState {
    /// No private copies; LLC data valid.
    Uncached,
    /// `sharers` hold S copies; LLC data valid.
    Shared,
    /// `owner` holds the line in E or M; LLC data possibly stale.
    Owned,
    /// A read transaction is in flight.
    BusyRead { requester: NodeId, waiting_datawb: bool, waiting_unblock: bool, grant_exclusive: bool },
    /// A write transaction is in flight. `wb` marks the WritersBlock
    /// condition (at least one invalidation was Nacked by a lockdown).
    BusyWrite {
        writer: NodeId,
        wb: bool,
        /// Option-1 ablation bookkeeping: cacheable readers admitted
        /// during WritersBlock that must be re-invalidated.
        extra_sharers: SharerSet,
        /// Outstanding acknowledgements from such re-invalidations.
        extra_acks: u32,
        /// LockdownAcks held back while re-invalidation rounds are running.
        deferred_redirs: u32,
    },
    /// Waiting for main memory.
    Fetching,
    /// A soft error was detected in this entry (guard mismatch): the
    /// sharer set and owner are being rebuilt by probing every core
    /// ([`ProtoMsg::AuditProbe`]). All requests queue until `pending`
    /// replies arrive. `parked` accumulates caches whose only claim is a
    /// non-superseded evict-buffer entry (possibly stale); `owner_hint`
    /// is the guard-decoded pre-flip owner used to disambiguate them.
    Poisoned { pending: u32, parked: SharerSet, owner_hint: Option<NodeId> },
}

#[derive(Debug, Clone)]
struct DirEntry {
    state: DirState,
    sharers: SharerSet,
    owner: Option<NodeId>,
    data: LineData,
    queued: VecDeque<ProtoMsg>,
    /// Guard hash over (state code, owner, sharer words) — the
    /// parity/ECC word of the soft-error model. Maintained (and
    /// meaningful) only for stable states while soft errors are on; 0
    /// otherwise, so `SoftPlan::none()` stays byte-identical to no plan.
    guard: u64,
}

impl DirEntry {
    fn stable(&self) -> bool {
        matches!(self.state, DirState::Uncached | DirState::Shared | DirState::Owned)
    }

    /// Guard-hash input code of a stable state.
    fn stable_code(&self) -> Option<u64> {
        match self.state {
            DirState::Uncached => Some(0),
            DirState::Shared => Some(1),
            DirState::Owned => Some(2),
            _ => None,
        }
    }
}

/// Guard hash over a directory entry's protected words: stable-state
/// code, owner (0 = none, 1 + index otherwise), and the four sharer
/// bitset words.
fn dir_guard(code: u64, owner: Option<NodeId>, sharers: &SharerSet) -> u64 {
    let w = sharers.guard_words();
    let o = owner.map_or(0, |n| 1 + n.index() as u64);
    wb_kernel::soft::guard_hash(&[code, o, w[0], w[1], w[2], w[3]])
}

/// A directory entry parked mid-eviction (Section 3.5.1). While parked it
/// still answers reads with tear-off copies and queues writes.
#[derive(Debug, Clone)]
struct Evicting {
    line: LineAddr,
    data: LineData,
    /// Responses still outstanding (InvAck / DataWb / LockdownAck, one per
    /// invalidated copy).
    pending: u32,
    /// True once a Nack arrived: this parked entry is in WritersBlock.
    wb: bool,
    queued: VecDeque<ProtoMsg>,
}

#[derive(Debug, Clone)]
enum Event {
    Process(ProtoMsg),
    MemReady { line: LineAddr },
    UncachedMemRead { line: LineAddr, requester: NodeId },
}

/// Keys tracked per bank by the contended-line attribution sketch.
/// Tens of entries: linear scans beat a heap here and memory stays O(k)
/// no matter how many lines a chaos cell touches.
const HOT_LINES_TRACKED: usize = 32;

/// One LLC + directory bank.
pub struct Directory {
    /// Node (tile) hosting this bank — the mesh routing target.
    node: NodeId,
    /// Global bank index in `0..HomeMap::total_banks()`. With one bank
    /// per node this equals the node index; sharded machines host
    /// several banks per tile.
    bank: usize,
    l3: SetAssocArray<DirEntry>,
    evict_buf: Vec<Evicting>,
    evict_cap: usize,
    memory: MainMemory,
    /// Network arrivals waiting for a request port, in arrival order.
    /// The bank accepts at most `ports` per cycle; the queue depth is
    /// the bank-occupancy contention signal.
    ingress: VecDeque<(Cycle, ProtoMsg)>,
    /// Request ports: messages accepted from `ingress` per cycle.
    ports: usize,
    events: VecDeque<(Cycle, Event)>,
    outbox: Vec<(Dest, ProtoMsg)>,
    l3_latency: u64,
    mem_latency: u64,
    retry_delay: u64,
    option1_cacheable_reads: bool,
    /// Option-1 ablation: cacheable copies handed out from a WritersBlock
    /// entry make the reader send a 3-hop Unblock the write transaction
    /// does not expect; this counts how many to absorb per line.
    stray_unblocks: std::collections::HashMap<LineAddr, u32>,
    stats: Stats,
    tracer: Tracer,
    /// Cycle each line entered WritersBlock (first Nack), for the
    /// blocked-duration histogram. Covers both in-flight writes and
    /// parked evictions (a line is never in both at once).
    wb_since: HashMap<LineAddr, Cycle>,
    /// First "impossible state" seen by this bank; the offending message
    /// is dropped and the system surfaces this as `RunOutcome::Fault`.
    fault: Option<ProtocolError>,
    /// Per-line retry escalation (Nack-driven requeues, Option-1
    /// re-invalidation rounds) feeding the `nack_retries` histogram.
    retry_counts: HashMap<LineAddr, u64>,
    /// Per-line tear-off serve counts feeding the `tearoff_reads_served`
    /// histogram (cross-check for Figure 8's uncacheable-read counts).
    tearoff_counts: HashMap<LineAddr, u64>,
    /// Cycle attribution: top contended lines by WritersBlock-window
    /// cycles and Nack retries. Bounded space-saving sketch — NOT a
    /// per-line map — so chaos cells touching unbounded line sets stay
    /// O(k). Surfaced through [`Directory::hot_lines`] into the report
    /// leaderboard and wedge notes.
    hot: HeavyHitters,
    /// True when a non-empty soft-error plan is active (guards
    /// maintained and checked).
    soft_on: bool,
    /// Number of cores to probe when rebuilding a poisoned entry.
    num_cores: usize,
    /// Cycle each still-undetected soft flip landed, keyed by line.
    wounds: HashMap<LineAddr, Cycle>,
    /// Pre-resolved handles for the counters on the request hot path
    /// (PR 5's `CounterHandle` pattern: no BTreeMap lookup per bump).
    h_gets: CounterHandle,
    h_getx: CounterHandle,
    h_tearoff_replies: CounterHandle,
    h_nack_retries: CounterHandle,
    h_invs_sent: CounterHandle,
}

impl std::fmt::Debug for Directory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Directory")
            .field("node", &self.node)
            .field("bank", &self.bank)
            .field("entries", &self.l3.len())
            .field("parked", &self.evict_buf.len())
            .finish()
    }
}

impl Directory {
    /// Build global bank `bank` of the machine described by `home`; the
    /// bank is hosted at `home.node_of(bank)`.
    pub fn new(bank: usize, home: &HomeMap, cfg: &SystemConfig) -> Self {
        let node = NodeId(home.node_of(bank) as u16);
        let mut d = Directory::with_memory_config(node, &cfg.memory, cfg.wb_cacheable_reads);
        d.bank = bank;
        d.tracer = Tracer::new(CompId::Dir(bank as u16));
        d
    }

    /// Build a single bank at `node` (bank index == node index, the
    /// one-bank-per-tile machine) from a memory configuration directly.
    pub fn with_memory_config(node: NodeId, mem: &MemoryConfig, option1: bool) -> Self {
        let sets = SetAssocArray::<DirEntry>::geometry(mem.l3_bank_bytes, mem.l3_ways, mem.line_bytes);
        let mut stats = Stats::new();
        let h_gets = stats.handle("dir_gets");
        let h_getx = stats.handle("dir_getx");
        let h_tearoff_replies = stats.handle("dir_tearoff_replies");
        let h_nack_retries = stats.handle("dir_nack_retries");
        let h_invs_sent = stats.handle("dir_invs_sent");
        Directory {
            node,
            bank: node.index(),
            l3: SetAssocArray::new(sets, mem.l3_ways),
            evict_buf: Vec::new(),
            evict_cap: mem.dir_evict_buffer,
            memory: MainMemory::new(),
            ingress: VecDeque::new(),
            ports: mem.dir_bank_ports,
            events: VecDeque::new(),
            outbox: Vec::new(),
            l3_latency: mem.l3_hit_cycles,
            mem_latency: mem.mem_cycles,
            retry_delay: 25,
            option1_cacheable_reads: option1,
            stray_unblocks: std::collections::HashMap::new(),
            stats,
            tracer: Tracer::new(CompId::Dir(node.0)),
            wb_since: HashMap::new(),
            fault: None,
            retry_counts: HashMap::new(),
            tearoff_counts: HashMap::new(),
            hot: HeavyHitters::new(HOT_LINES_TRACKED),
            soft_on: false,
            num_cores: 0,
            wounds: HashMap::new(),
            h_gets,
            h_getx,
            h_tearoff_replies,
            h_nack_retries,
            h_invs_sent,
        }
    }

    /// Record an "impossible state" instead of panicking. Only the first
    /// violation is kept (later ones are usually fallout); the counter
    /// still ticks for each.
    fn record_fault(&mut self, line: LineAddr, context: &'static str, detail: String) {
        self.stats.inc("dir_protocol_faults");
        if self.fault.is_none() {
            self.fault = Some(ProtocolError {
                at: format!("dir{}", self.bank),
                line: line.0,
                context: context.to_string(),
                detail,
            });
        }
    }

    /// The first protocol violation this bank has seen, if any.
    pub fn fault(&self) -> Option<&ProtocolError> {
        self.fault.as_ref()
    }

    /// A Nack-driven retry (requeue or Option-1 re-invalidation) for
    /// `line`: escalate its per-line count into the `nack_retries`
    /// histogram and the `dir_nack_retries` counter the livelock
    /// classifier watches.
    fn note_retry(&mut self, line: LineAddr) {
        self.stats.inc_h(self.h_nack_retries);
        // Each retry round costs the requester a retry_delay requeue:
        // attribute that to the line so spinning lines surface in the
        // hot-lines leaderboard even before their WB window closes.
        self.hot.add(line.0, self.retry_delay);
        let c = self.retry_counts.entry(line).or_insert(0);
        *c += 1;
        let c = *c;
        self.stats.record("nack_retries", c);
    }

    /// A tear-off copy served for `line` (from the LLC, a parked
    /// eviction, or uncacheable memory).
    fn note_tearoff(&mut self, line: LineAddr) {
        self.stats.inc_h(self.h_tearoff_replies);
        let c = self.tearoff_counts.entry(line).or_insert(0);
        *c += 1;
        let c = *c;
        self.stats.record("tearoff_reads_served", c);
    }

    /// Every transient or parked entry, with who it waits on and who is
    /// queued behind it — the directory's contribution to the wedge
    /// wait-for graph.
    pub fn wait_summary(&self) -> Vec<DirWait> {
        let queued_of = |q: &VecDeque<ProtoMsg>| -> Vec<u16> {
            q.iter().filter_map(|m| m.requester().map(|n| n.0)).collect()
        };
        let mut out: Vec<DirWait> = Vec::new();
        for (line, e) in self.l3.iter() {
            if e.stable() && e.queued.is_empty() {
                continue;
            }
            let (state, waiting_on) = match &e.state {
                DirState::BusyRead { requester, .. } => ("BusyRead", Some(requester.0)),
                DirState::BusyWrite { wb: true, writer, .. } => ("BusyWrite.wb", Some(writer.0)),
                DirState::BusyWrite { writer, .. } => ("BusyWrite", Some(writer.0)),
                DirState::Fetching => ("Fetching", None),
                DirState::Poisoned { .. } => ("Poisoned", None),
                DirState::Uncached => ("Uncached", None),
                DirState::Shared => ("Shared", None),
                DirState::Owned => ("Owned", e.owner.map(|o| o.0)),
            };
            out.push(DirWait { line: line.0, state, waiting_on, queued: queued_of(&e.queued) });
        }
        for p in &self.evict_buf {
            out.push(DirWait {
                line: p.line.0,
                state: if p.wb { "Evicting.wb" } else { "Evicting" },
                waiting_on: None,
                queued: queued_of(&p.queued),
            });
        }
        out.sort_by_key(|w| w.line);
        out
    }

    /// The node hosting this bank.
    pub fn node(&self) -> NodeId {
        self.node
    }

    /// This bank's global index (equals the node index on
    /// one-bank-per-tile machines).
    pub fn bank(&self) -> usize {
        self.bank
    }

    /// Enable/disable event tracing (state transitions, WritersBlock
    /// entry/exit).
    pub fn set_trace(&mut self, filter: TraceFilter) {
        self.tracer.set_filter(filter);
    }

    /// The bank's event tracer (for merging into a system timeline).
    pub fn tracer(&self) -> &Tracer {
        &self.tracer
    }

    /// The observable state name of `line` at this bank.
    fn state_name(&self, line: LineAddr) -> &'static str {
        if let Some(p) = self.evict_buf.iter().find(|p| p.line == line) {
            return if p.wb { "Evicting.wb" } else { "Evicting" };
        }
        match self.l3.get(line).map(|e| &e.state) {
            None => "Absent",
            Some(DirState::Uncached) => "Uncached",
            Some(DirState::Shared) => "Shared",
            Some(DirState::Owned) => "Owned",
            Some(DirState::BusyRead { .. }) => "BusyRead",
            Some(DirState::BusyWrite { wb: true, .. }) => "BusyWrite.wb",
            Some(DirState::BusyWrite { .. }) => "BusyWrite",
            Some(DirState::Fetching) => "Fetching",
            Some(DirState::Poisoned { .. }) => "Poisoned",
        }
    }

    /// `line` left WritersBlock: close the stall histogram window.
    fn note_wb_exit(&mut self, now: Cycle, line: LineAddr) {
        if let Some(t0) = self.wb_since.remove(&line) {
            let stalled = now.saturating_sub(t0);
            self.stats.record("dir_wb_cycles", stalled);
            self.hot.add(line.0, stalled);
            self.tracer.record(now, TraceEvent::WritersBlockEnd { line: line.0 });
        }
    }

    /// Cycle attribution for this bank: the top contended lines by
    /// WritersBlock-window cycles plus Nack-retry requeue cost, as a
    /// bounded space-saving sketch (see [`wb_kernel::attr`]).
    pub fn hot_lines(&self) -> &HeavyHitters {
        &self.hot
    }

    /// Pre-load a word into this bank's backing memory (simulation setup).
    pub fn init_word(&mut self, addr: wb_mem::Addr, value: u64) {
        self.memory.write_word(addr, value);
    }

    /// The current architectural value of `addr` *as far as this bank
    /// knows*: LLC copy if fresh, else backing memory. Lines owned by a
    /// private cache must be resolved there instead (see `owner_of`).
    pub fn memory_value(&self, addr: wb_mem::Addr) -> u64 {
        let line = addr.line();
        if let Some(e) = self.l3.get(line) {
            if !matches!(e.state, DirState::Owned) {
                return e.data.word(addr.word_index());
            }
        }
        if let Some(p) = self.evict_buf.iter().find(|p| p.line == line) {
            return p.data.word(addr.word_index());
        }
        self.memory.read_word(addr)
    }

    /// Who owns `line` exclusively right now, if anyone.
    pub fn owner_of(&self, line: LineAddr) -> Option<NodeId> {
        match self.l3.get(line) {
            Some(e) if matches!(e.state, DirState::Owned) => e.owner,
            _ => None,
        }
    }

    /// Debug: describe the directory entry for `line`.
    pub fn debug_line(&self, line: LineAddr) -> String {
        let entry = self.l3.get(line).map(|e| {
            format!("state={:?} sharers={:#x} owner={:?} queued={}", e.state, e.sharers, e.owner, e.queued.len())
        });
        let parked = self.evict_buf.iter().find(|p| p.line == line).map(|p| format!("parked pending={} wb={}", p.pending, p.wb));
        let evs: Vec<String> = self.events.iter().map(|(due, e)| format!("@{due}:{e:?}")).collect();
        format!(
            "dir{} line {line}: {entry:?} {parked:?} ingress={} events=[{}]",
            self.bank,
            self.ingress.len(),
            evs.join("; ")
        )
    }

    /// Accept a message from the network. The message waits for one of
    /// the bank's request ports (at most `dir_bank_ports` acceptances
    /// per cycle); once accepted, processing happens after the bank's
    /// access latency.
    pub fn receive(&mut self, now: Cycle, msg: ProtoMsg) {
        self.ingress.push_back((now, msg));
    }

    /// Drain messages to inject into the mesh.
    pub fn drain_outbox(&mut self) -> Vec<(Dest, ProtoMsg)> {
        std::mem::take(&mut self.outbox)
    }

    /// Allocation-free [`Directory::drain_outbox`]: append queued
    /// messages to `out` (which the caller clears and reuses).
    pub fn drain_outbox_into(&mut self, out: &mut Vec<(Dest, ProtoMsg)>) {
        out.append(&mut self.outbox);
    }

    /// The earliest cycle at which ticking this bank can change state:
    /// `Some(now)` when the outbox has messages to inject or an event is
    /// already due, the minimum future event due-time otherwise, `None`
    /// when the event queue is empty. Parked evictions and queued
    /// requests only advance on *incoming* messages (tracked by the
    /// mesh's own `next_event`), so they carry no deadline here.
    ///
    /// This is also the sparse engine's sleep-eligibility hook: event
    /// due-times are absolute cycles, so the prediction is temporally
    /// stable — a sleeping bank's cached wake stays correct until a
    /// message is delivered to it (which wakes it at the glue layer).
    pub fn next_event(&self, now: Cycle) -> Option<Cycle> {
        let mut next: Option<Cycle> = None;
        if !self.outbox.is_empty() || !self.ingress.is_empty() {
            next = Some(now);
        }
        for &(due, _) in &self.events {
            let due = due.max(now);
            next = Some(next.map_or(due, |n| n.min(due)));
        }
        next
    }

    /// True when no protocol messages await injection (`SparseVerify`
    /// asserts this stays true across a slept bank's shadow tick).
    pub fn outbox_is_empty(&self) -> bool {
        self.outbox.is_empty()
    }

    /// Counter access for reports.
    pub fn stats(&self) -> &Stats {
        &self.stats
    }

    /// True when no event, transient entry or parked eviction is pending.
    /// A `Poisoned` entry is not stable, so an in-flight rebuild keeps
    /// the bank (and the run) alive until its probes resolve. Scans
    /// resident entries only, not the (mostly untouched) slot planes.
    pub fn is_idle(&self) -> bool {
        self.ingress.is_empty()
            && self.events.is_empty()
            && self.evict_buf.is_empty()
            && self.l3.values().all(|e| e.stable() && e.queued.is_empty())
    }

    // ------------------------------------------------------------------
    // Soft errors: guards, poison, probe-rebuild
    // ------------------------------------------------------------------

    /// Enable the soft-error guard machinery; `num_cores` bounds the
    /// probe fan-out when a poisoned entry rebuilds its sharer set.
    pub fn set_soft(&mut self, on: bool, num_cores: usize) {
        self.soft_on = on;
        self.num_cores = num_cores;
    }

    /// The guard a stable entry should carry right now.
    fn entry_guard(e: &DirEntry) -> Option<u64> {
        e.stable_code().map(|c| dir_guard(c, e.owner, &e.sharers))
    }

    /// Is this stable entry's guard consistent with its protected words?
    fn guard_ok(e: &DirEntry) -> bool {
        match Self::entry_guard(e) {
            Some(h) => e.guard == h,
            None => true, // transient entries carry no valid guard
        }
    }

    /// Refresh the guard of `line` after an event legitimately mutated
    /// the entry (no-op for transient states; they reguard on return to
    /// stability).
    fn reguard(&mut self, line: LineAddr) {
        if !self.soft_on {
            return;
        }
        if let Some(e) = self.l3.get_mut(line) {
            if let Some(h) = Self::entry_guard(e) {
                e.guard = h;
            }
        }
    }

    /// Guard-decode the pre-flip owner: if hashing the protected words
    /// with the `Owned` code reproduces the stored guard, the entry was
    /// Owned before the flip and the (untouched) owner field is the true
    /// owner. Used to tell a genuine parked owner from a stale
    /// evict-buffer claim during rebuild.
    fn decode_owner_hint(e: &DirEntry) -> Option<NodeId> {
        if e.guard == dir_guard(2, e.owner, &e.sharers) {
            e.owner
        } else {
            None
        }
    }

    /// Check the guard of `line` before interpreting its stored state.
    /// On a mismatch the flip is counted as detected and the entry
    /// enters `Poisoned`: sharers/owner reset to rebuild accumulators
    /// and every core is probed. Requests arriving meanwhile queue.
    fn check_guard(&mut self, now: Cycle, line: LineAddr) {
        if !self.soft_on {
            return;
        }
        let Some(e) = self.l3.get(line) else { return };
        if !e.stable() || Self::guard_ok(e) {
            return;
        }
        if let Some(t0) = self.wounds.remove(&line) {
            self.stats.record("soft_detect_latency", now.saturating_sub(t0));
        }
        self.stats.inc("soft_detected");
        self.stats.inc("dir_poisoned");
        let cores = self.num_cores as u32;
        debug_assert!(cores > 0, "set_soft must provide the core count");
        let e = self.l3.get_mut(line).expect("just checked");
        let owner_hint = Self::decode_owner_hint(e);
        e.sharers = SharerSet::EMPTY;
        e.owner = None;
        e.state = DirState::Poisoned { pending: cores, parked: SharerSet::EMPTY, owner_hint };
        for i in 0..self.num_cores {
            self.send(NodeId(i as u16), ProtoMsg::AuditProbe { line });
        }
    }

    /// One [`ProtoMsg::AuditReply`] for a poisoned entry: accumulate the
    /// core's claim and resolve the entry when the last reply lands.
    fn on_audit_reply(&mut self, now: Cycle, line: LineAddr, from: NodeId, present: bool, excl: bool) {
        let Some(e) = self.l3.get_mut(line) else {
            self.stats.inc("dir_stray_audit_replies");
            return;
        };
        let DirState::Poisoned { pending, parked, .. } = &mut e.state else {
            self.stats.inc("dir_stray_audit_replies");
            return;
        };
        let mut swmr_violation = false;
        if present && excl {
            swmr_violation = e.owner.is_some();
            e.owner = Some(from);
        } else if present {
            e.sharers.insert(from);
        } else if excl {
            parked.insert(from);
        }
        *pending = pending.saturating_sub(1);
        let done = *pending == 0;
        if swmr_violation {
            self.record_fault(line, "AuditReply", "two resident exclusive holders".to_string());
        }
        if done {
            self.finish_rebuild(now, line);
        }
    }

    /// Resolve a fully-rebuilt poisoned entry from the accumulated
    /// probe replies: a resident exclusive holder wins; otherwise
    /// resident sharers make the entry Shared; otherwise a parked claim
    /// matching the guard-decoded owner is the genuine (mid-PutM) owner;
    /// otherwise the line is Uncached. Queued requests then drain.
    fn finish_rebuild(&mut self, now: Cycle, line: LineAddr) {
        let Some(e) = self.l3.get_mut(line) else { return };
        let DirState::Poisoned { parked, owner_hint, .. } = e.state.clone() else { return };
        if let Some(owner) = e.owner {
            if !e.sharers.is_empty() {
                let detail = format!("owner {owner} with residual sharers {:?}", e.sharers);
                e.sharers = SharerSet::EMPTY;
                e.state = DirState::Owned;
                self.reguard(line);
                self.record_fault(line, "rebuild", detail);
            } else {
                e.state = DirState::Owned;
                self.reguard(line);
            }
        } else if !e.sharers.is_empty() {
            e.state = DirState::Shared;
            self.reguard(line);
        } else if let Some(h) = owner_hint.filter(|h| parked.contains(*h)) {
            // The pre-flip owner's PutM is still in flight (queued here
            // or in the mesh); restoring Owned lets it land normally.
            e.owner = Some(h);
            e.state = DirState::Owned;
            self.reguard(line);
        } else {
            // No copies anywhere (any parked claims are stale PutAck
            // races): the LLC data is authoritative.
            e.owner = None;
            e.state = DirState::Uncached;
            self.reguard(line);
        }
        self.stats.inc("soft_recovered");
        self.stats.inc("dir_rebuilds");
        self.drain_queued(now, line);
    }

    /// Apply one soft flip of `target` kind to this bank's stored
    /// directory state. Victims are stable entries with empty queues and
    /// healthy guards; returns `false` when none qualify.
    pub fn soft_flip(&mut self, now: Cycle, target: wb_kernel::SoftTarget, rng: &mut wb_kernel::SimRng) -> bool {
        use wb_kernel::SoftTarget;
        let want_shared = target == SoftTarget::Sharers;
        let candidates: Vec<LineAddr> = self
            .l3
            .iter()
            .filter(|(_, e)| {
                e.stable()
                    && e.queued.is_empty()
                    && Self::guard_ok(e)
                    && (!want_shared || matches!(e.state, DirState::Shared))
            })
            .map(|(l, _)| l)
            .collect();
        match target {
            SoftTarget::DirState => {
                if candidates.is_empty() {
                    return false;
                }
                let line = candidates[rng.below_usize(candidates.len())];
                let e = self.l3.get_mut(line).expect("candidate resident");
                let others: Vec<DirState> = [DirState::Uncached, DirState::Shared, DirState::Owned]
                    .into_iter()
                    .filter(|s| *s != e.state)
                    .collect();
                e.state = others[rng.below_usize(others.len())].clone();
                self.wounds.insert(line, now);
                self.stats.inc("soft_injected");
                true
            }
            SoftTarget::Sharers => {
                if candidates.is_empty() {
                    return false;
                }
                let line = candidates[rng.below_usize(candidates.len())];
                let victim = NodeId(rng.below(self.num_cores as u64) as u16);
                let e = self.l3.get_mut(line).expect("candidate resident");
                e.sharers.toggle(victim);
                self.wounds.insert(line, now);
                self.stats.inc("soft_injected");
                true
            }
            // Cache-side targets are routed to private caches.
            SoftTarget::CacheState | SoftTarget::CacheTag | SoftTarget::Mshr => false,
        }
    }

    /// Stable entries whose guard currently mismatches (undetected
    /// wounds), in deterministic array order — the online auditor's
    /// scrub worklist.
    pub fn audit_wounds(&self) -> Vec<LineAddr> {
        if !self.soft_on {
            return Vec::new();
        }
        self.l3
            .iter()
            .filter(|(_, e)| e.stable() && !Self::guard_ok(e))
            .map(|(l, _)| l)
            .collect()
    }

    /// Synchronous repair for the online auditor: the system gathers
    /// probe answers from every cache directly (same `(present, excl)`
    /// encoding as [`ProtoMsg::AuditReply`]) and hands them in; the
    /// entry resolves through the same rebuild path as the async
    /// message-based recovery. Returns true when a wound was repaired.
    pub fn audit_repair(
        &mut self,
        now: Cycle,
        line: LineAddr,
        owner: Option<NodeId>,
        sharers: SharerSet,
        parked: SharerSet,
    ) -> bool {
        if !self.soft_on {
            return false;
        }
        let Some(e) = self.l3.get(line) else { return false };
        if !e.stable() || Self::guard_ok(e) {
            return false;
        }
        if let Some(t0) = self.wounds.remove(&line) {
            self.stats.record("soft_detect_latency", now.saturating_sub(t0));
        }
        self.stats.inc("soft_detected");
        let e = self.l3.get_mut(line).expect("just checked");
        let owner_hint = Self::decode_owner_hint(e);
        e.owner = owner;
        e.sharers = sharers;
        e.state = DirState::Poisoned { pending: 0, parked, owner_hint };
        self.finish_rebuild(now, line);
        true
    }

    /// Mark every line with in-flight directory-side activity; the
    /// auditor only checks directory–cache agreement on unmarked lines.
    pub fn audit_busy_lines(&self, mark: &mut dyn FnMut(LineAddr)) {
        for (l, e) in self.l3.iter() {
            if !e.stable() || !e.queued.is_empty() {
                mark(l);
            }
        }
        for p in &self.evict_buf {
            mark(p.line);
        }
        for (_, msg) in &self.ingress {
            mark(msg.line());
        }
        for (_, ev) in &self.events {
            match ev {
                Event::Process(m) => mark(m.line()),
                Event::MemReady { line } | Event::UncachedMemRead { line, .. } => mark(*line),
            }
        }
        for (_, msg) in &self.outbox {
            mark(msg.line());
        }
        for l in self.stray_unblocks.keys() {
            mark(*l);
        }
        for l in self.wounds.keys() {
            mark(*l);
        }
    }

    /// The auditor's view of every stable entry: `(line, state code,
    /// owner, sharers)` with code 0 = Uncached, 1 = Shared, 2 = Owned.
    pub fn audit_entries(&self) -> Vec<(LineAddr, u64, Option<NodeId>, SharerSet)> {
        self.l3
            .iter()
            .filter_map(|(l, e)| e.stable_code().map(|c| (l, c, e.owner, e.sharers)))
            .collect()
    }

    /// Eviction-buffer occupancy against its configured capacity, for
    /// the auditor's leak bound.
    pub fn evict_buf_usage(&self) -> (usize, usize) {
        (self.evict_buf.len(), self.evict_cap)
    }

    /// Advance one cycle: accept waiting requests through the bank's
    /// ports, then handle every event that has become due.
    pub fn tick(&mut self, now: Cycle) {
        if !self.ingress.is_empty() {
            // One occupancy sample per busy cycle: how deep the request
            // queue is when the ports start accepting.
            self.stats.record("dir_bank_occupancy", self.ingress.len() as u64);
            for _ in 0..self.ports {
                match self.ingress.pop_front() {
                    Some((_, msg)) => {
                        self.events.push_back((now + self.l3_latency, Event::Process(msg)));
                    }
                    None => break,
                }
            }
            if !self.ingress.is_empty() {
                // Requests left waiting for a port: the contention the
                // infinite-bandwidth model hid.
                self.stats.inc("dir_port_stall_cycles");
            }
        }
        // Events are *not* guaranteed to be in due-time order (memory
        // fetches land far in the future), so scan the whole queue —
        // in place, rotating not-yet-due events to the back (handlers
        // only ever push strictly-future events, so the first
        // `original length` pops see exactly the pre-tick queue).
        for _ in 0..self.events.len() {
            match self.events.pop_front() {
                Some((due, ev)) if due <= now => self.handle(now, ev),
                Some(entry) => self.events.push_back(entry),
                None => break,
            }
        }
    }

    fn send(&mut self, dst: NodeId, msg: ProtoMsg) {
        // Every directory-originated message targets a private cache.
        self.outbox.push((Dest::Cache(dst), msg));
    }

    fn requeue(&mut self, now: Cycle, msg: ProtoMsg, delay: u64) {
        self.events.push_back((now + delay, Event::Process(msg)));
    }

    fn handle(&mut self, now: Cycle, ev: Event) {
        // State transitions are observed around each event rather than
        // at every `entry.state = ...` site: one wiring point, and the
        // trace shows the externally-visible before/after per message.
        let traced_line = if self.tracer.wants(Category::Directory) {
            match &ev {
                Event::Process(msg) => Some(msg.line()),
                Event::MemReady { line } => Some(*line),
                Event::UncachedMemRead { .. } => None,
            }
        } else {
            None
        };
        let before = traced_line.map(|l| self.state_name(l));
        let guard_line = match (&ev, self.soft_on) {
            (Event::Process(msg), true) => Some(msg.line()),
            (Event::MemReady { line }, true) => Some(*line),
            _ => None,
        };
        if let Some(l) = guard_line {
            // Scrub before interpreting stored state: a flipped entry
            // poisons (queueing this event's request if it targets the
            // line) instead of being acted on.
            self.check_guard(now, l);
        }
        self.handle_inner(now, ev);
        if let Some(l) = guard_line {
            self.reguard(l);
        }
        if let (Some(line), Some(before)) = (traced_line, before) {
            let after = self.state_name(line);
            if after != before {
                self.tracer.record(
                    now,
                    TraceEvent::DirTransition { line: line.0, from: before, to: after },
                );
            }
        }
    }

    fn handle_inner(&mut self, now: Cycle, ev: Event) {
        match ev {
            Event::Process(msg) => self.process(now, msg),
            Event::MemReady { line } => self.on_mem_ready(now, line),
            Event::UncachedMemRead { line, requester } => {
                let data = self.memory.read_line(line);
                self.note_tearoff(line);
                self.send(
                    requester,
                    ProtoMsg::Data {
                        line,
                        data,
                        acks_expected: 0,
                        exclusive: false,
                        cacheable: false,
                        for_write: false,
                    },
                );
            }
        }
    }

    fn process(&mut self, now: Cycle, msg: ProtoMsg) {
        match msg {
            ProtoMsg::GetS { line, requester, kind } => self.on_gets(now, line, requester, kind),
            ProtoMsg::GetX { line, requester } => self.on_getx(now, line, requester),
            ProtoMsg::PutM { line, requester, data } => self.on_putm(now, line, requester, data),
            ProtoMsg::PutS { line, requester } => self.on_puts(line, requester),
            ProtoMsg::Nack { line, from, data } => self.on_nack(now, line, from, data),
            ProtoMsg::LockdownAck { line, from } => self.on_lockdown_ack(now, line, from),
            ProtoMsg::InvAck { line, from } => self.on_inv_ack(now, line, from),
            ProtoMsg::DataWb { line, from, data } => self.on_datawb(now, line, from, data),
            ProtoMsg::Unblock { line, from } => self.on_unblock(now, line, from),
            ProtoMsg::AuditReply { line, from, present, excl } => {
                self.on_audit_reply(now, line, from, present, excl)
            }
            other => {
                let line = other.line();
                self.record_fault(line, "receive", format!("unexpected message {other:?}"));
            }
        }
    }

    // ------------------------------------------------------------------
    // Reads
    // ------------------------------------------------------------------

    fn tear_off_reply(&mut self, line: LineAddr, requester: NodeId, data: LineData) {
        self.note_tearoff(line);
        self.send(
            requester,
            ProtoMsg::Data {
                line,
                data,
                acks_expected: 0,
                exclusive: false,
                cacheable: false,
                for_write: false,
            },
        );
    }

    fn on_gets(&mut self, now: Cycle, line: LineAddr, requester: NodeId, kind: ReadKind) {
        self.stats.inc_h(self.h_gets);
        // Parked (mid-eviction) entries serve reads without a directory
        // entry: the read "performs without needing a directory entry"
        // (Section 3.5.1).
        if let Some(p) = self.evict_buf.iter().find(|p| p.line == line) {
            let data = p.data;
            self.tear_off_reply(line, requester, data);
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.fetch_or_fallback(now, ProtoMsg::GetS { line, requester, kind });
            return;
        };
        match entry.state.clone() {
            DirState::Uncached => match kind {
                ReadKind::TearOff => {
                    let data = entry.data;
                    self.tear_off_reply(line, requester, data);
                }
                ReadKind::Cacheable => {
                    // Exclusive grant: no other copies exist.
                    let data = entry.data;
                    entry.state = DirState::BusyRead {
                        requester,
                        waiting_datawb: false,
                        waiting_unblock: true,
                        grant_exclusive: true,
                    };
                    self.l3.touch(line, now);
                    self.send(
                        requester,
                        ProtoMsg::Data {
                            line,
                            data,
                            acks_expected: 0,
                            exclusive: true,
                            cacheable: true,
                            for_write: false,
                        },
                    );
                }
            },
            DirState::Shared => match kind {
                ReadKind::TearOff => {
                    let data = entry.data;
                    self.tear_off_reply(line, requester, data);
                }
                ReadKind::Cacheable => {
                    let data = entry.data;
                    entry.state = DirState::BusyRead {
                        requester,
                        waiting_datawb: false,
                        waiting_unblock: true,
                        grant_exclusive: false,
                    };
                    self.l3.touch(line, now);
                    self.send(
                        requester,
                        ProtoMsg::Data {
                            line,
                            data,
                            acks_expected: 0,
                            exclusive: false,
                            cacheable: true,
                            for_write: false,
                        },
                    );
                }
            },
            DirState::Owned => {
                let owner = entry.owner.expect("Owned entry has an owner");
                match kind {
                    ReadKind::TearOff => {
                        // Fresh data lives at the owner; it serves the
                        // tear-off directly and keeps its state.
                        self.stats.inc_h(self.h_tearoff_replies);
                        self.send(owner, ProtoMsg::FwdGetS { line, requester, kind });
                    }
                    ReadKind::Cacheable => {
                        // 3-hop read: owner sends data to the requester and
                        // a copy back here; both become sharers.
                        entry.sharers = SharerSet::solo(owner);
                        entry.owner = None;
                        entry.state = DirState::BusyRead {
                            requester,
                            waiting_datawb: true,
                            waiting_unblock: true,
                            grant_exclusive: false,
                        };
                        self.l3.touch(line, now);
                        self.send(owner, ProtoMsg::FwdGetS { line, requester, kind });
                    }
                }
            }
            DirState::BusyWrite { wb: true, writer, mut extra_sharers, .. } => {
                if self.option1_cacheable_reads && kind == ReadKind::Cacheable {
                    // Option 1 ablation (Section 3.4): admit a cacheable
                    // copy that will have to be re-invalidated before the
                    // blocked write may proceed. Livelock-prone by design.
                    let data = entry.data;
                    extra_sharers.insert(requester);
                    if let DirState::BusyWrite { extra_sharers: es, .. } = &mut entry.state {
                        *es = extra_sharers;
                    }
                    entry.sharers.insert(requester);
                    *self.stray_unblocks.entry(line).or_insert(0) += 1;
                    self.stats.inc("dir_option1_cacheable_reads");
                    self.send(
                        requester,
                        ProtoMsg::Data {
                            line,
                            data,
                            acks_expected: 0,
                            exclusive: false,
                            cacheable: true,
                            for_write: false,
                        },
                    );
                    let _ = writer;
                } else {
                    // Option 2 (the paper's choice): an uncacheable
                    // tear-off copy of the latest pre-write data.
                    let data = entry.data;
                    self.tear_off_reply(line, requester, data);
                }
            }
            DirState::BusyRead { .. }
            | DirState::BusyWrite { .. }
            | DirState::Fetching
            | DirState::Poisoned { .. } => {
                let entry = self.l3.get_mut(line).expect("entry still present");
                entry.queued.push_back(ProtoMsg::GetS { line, requester, kind });
            }
        }
    }

    // ------------------------------------------------------------------
    // Writes
    // ------------------------------------------------------------------

    fn on_getx(&mut self, now: Cycle, line: LineAddr, requester: NodeId) {
        self.stats.inc_h(self.h_getx);
        if let Some(p) = self.evict_buf.iter_mut().find(|p| p.line == line) {
            // Writes queue behind a parked (WritersBlock) eviction.
            let hinted = p.wb;
            p.queued.push_back(ProtoMsg::GetX { line, requester });
            if hinted {
                self.send(requester, ProtoMsg::WbHint { line });
            }
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.fetch_or_fallback(now, ProtoMsg::GetX { line, requester });
            return;
        };
        match entry.state.clone() {
            DirState::Uncached => {
                let data = entry.data;
                entry.state = DirState::BusyWrite {
                    writer: requester,
                    wb: false,
                    extra_sharers: SharerSet::EMPTY,
                    extra_acks: 0,
                    deferred_redirs: 0,
                };
                self.l3.touch(line, now);
                self.send(
                    requester,
                    ProtoMsg::Data {
                        line,
                        data,
                        acks_expected: 0,
                        exclusive: false,
                        cacheable: true,
                        for_write: true,
                    },
                );
            }
            DirState::Shared => {
                let invs = entry.sharers.without(requester);
                let n = invs.count() as u32;
                let data = entry.data;
                entry.state = DirState::BusyWrite {
                    writer: requester,
                    wb: false,
                    extra_sharers: SharerSet::EMPTY,
                    extra_acks: 0,
                    deferred_redirs: 0,
                };
                self.l3.touch(line, now);
                self.send(
                    requester,
                    ProtoMsg::Data {
                        line,
                        data,
                        acks_expected: n,
                        exclusive: false,
                        cacheable: true,
                        for_write: true,
                    },
                );
                for target in invs {
                    self.send(target, ProtoMsg::Inv { line, writer: Some(requester) });
                    self.stats.inc_h(self.h_invs_sent);
                }
            }
            DirState::Owned => {
                let owner = entry.owner.expect("Owned entry has an owner");
                let data = entry.data;
                entry.state = DirState::BusyWrite {
                    writer: requester,
                    wb: false,
                    extra_sharers: SharerSet::EMPTY,
                    extra_acks: 0,
                    deferred_redirs: 0,
                };
                self.l3.touch(line, now);
                if owner == requester {
                    // The owner's stale prefetch request: it already holds
                    // the line exclusively; the data payload is ignored by
                    // the cache.
                    self.send(
                        requester,
                        ProtoMsg::Data {
                            line,
                            data,
                            acks_expected: 0,
                            exclusive: false,
                            cacheable: true,
                            for_write: true,
                        },
                    );
                } else {
                    self.send(owner, ProtoMsg::FwdGetX { line, requester });
                }
            }
            DirState::BusyWrite { wb, .. } => {
                if wb {
                    // "Any write that encounters a WritersBlock" gets the
                    // hint (Section 3.5.2) and waits its turn.
                    self.send(requester, ProtoMsg::WbHint { line });
                }
                let entry = self.l3.get_mut(line).expect("entry still present");
                entry.queued.push_back(ProtoMsg::GetX { line, requester });
            }
            DirState::BusyRead { .. } | DirState::Fetching | DirState::Poisoned { .. } => {
                let entry = self.l3.get_mut(line).expect("entry still present");
                entry.queued.push_back(ProtoMsg::GetX { line, requester });
            }
        }
    }

    // ------------------------------------------------------------------
    // Writebacks and sharer removals
    // ------------------------------------------------------------------

    fn on_putm(&mut self, now: Cycle, line: LineAddr, requester: NodeId, data: LineData) {
        if let Some(i) = self.evict_buf.iter().position(|p| p.line == line && p.pending > 0) {
            // The recalled owner's PutM crossed our Recall: it carries the
            // data we were waiting for.
            self.evict_buf[i].data = data;
            self.evict_buf[i].pending = 0;
            self.send(requester, ProtoMsg::PutAck { line });
            self.complete_eviction(now, i);
            return;
        }
        // A PutM crossing an in-flight forward: the PutAck must not reach
        // the evicting owner before the forward does (they travel on
        // different virtual networks), or the owner drops the data the
        // forward needs. Defer until the transaction completes.
        if let Some(entry) = self.l3.get_mut(line) {
            if !entry.stable() {
                entry.queued.push_back(ProtoMsg::PutM { line, requester, data });
                return;
            }
        }
        let is_owner = self
            .l3
            .get(line)
            .is_some_and(|e| matches!(e.state, DirState::Owned) && e.owner == Some(requester));
        if is_owner {
            let entry = self.l3.get_mut(line).expect("just checked");
            entry.data = data;
            entry.owner = None;
            entry.state = DirState::Uncached;
            self.stats.inc("dir_putm");
        } else {
            // Stale PutM (a forward consumed the line first). Ack so the
            // evictor can free its buffer.
            self.stats.inc("dir_putm_stale");
        }
        self.send(requester, ProtoMsg::PutAck { line });
    }

    fn on_puts(&mut self, line: LineAddr, requester: NodeId) {
        if let Some(entry) = self.l3.get_mut(line) {
            if matches!(entry.state, DirState::Shared) {
                entry.sharers.remove(requester);
                if entry.sharers.is_empty() {
                    entry.state = DirState::Uncached;
                }
            }
        }
        // In any other state the in-flight transaction's invalidations
        // handle this cache; no acknowledgement is needed for PutS.
    }

    // ------------------------------------------------------------------
    // WritersBlock machinery
    // ------------------------------------------------------------------

    fn on_nack(&mut self, now: Cycle, line: LineAddr, _from: NodeId, data: Option<LineData>) {
        if let Some(p) = self.evict_buf.iter_mut().find(|p| p.line == line) {
            if !p.wb {
                p.wb = true;
                self.stats.inc("dir_evictions_blocked");
                self.wb_since.entry(line).or_insert(now);
            }
            if let Some(d) = data {
                p.data = d;
            }
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "Nack", "no directory entry".to_string());
            return;
        };
        if let Some(d) = data {
            entry.data = d;
        }
        let newly_blocked = match &mut entry.state {
            DirState::BusyWrite { writer, wb, .. } => {
                let writer = *writer;
                if !*wb {
                    *wb = true;
                    Some(writer)
                } else {
                    None
                }
            }
            other => {
                let detail = format!("in state {other:?}");
                self.record_fault(line, "Nack", detail);
                return;
            }
        };
        // Entering WritersBlock: reads must never wait behind the blocked
        // write (Section 3.4). A read queued while the entry was merely
        // busy would now wait on the lockdowns — and if it serves an SoS
        // load, deadlock. Serve queued reads with tear-off copies and
        // hint queued writers.
        let mut tear_offs: Vec<NodeId> = Vec::new();
        let mut hints: Vec<NodeId> = Vec::new();
        let wbdata = entry.data;
        if newly_blocked.is_some() {
            entry.queued.retain(|m| match *m {
                ProtoMsg::GetS { requester, .. } => {
                    tear_offs.push(requester);
                    false
                }
                ProtoMsg::GetX { requester, .. } => {
                    hints.push(requester);
                    true
                }
                _ => true,
            });
        }
        self.l3.touch(line, now);
        for r in tear_offs {
            self.tear_off_reply(line, r, wbdata);
        }
        for r in hints {
            self.send(r, ProtoMsg::WbHint { line });
        }
        if let Some(writer) = newly_blocked {
            self.stats.inc("dir_writes_blocked");
            self.wb_since.entry(line).or_insert(now);
            self.tracer
                .record(now, TraceEvent::WritersBlockBegin { line: line.0, writer: writer.0 });
            self.send(writer, ProtoMsg::WbHint { line });
        }
    }

    fn on_lockdown_ack(&mut self, now: Cycle, line: LineAddr, _from: NodeId) {
        if let Some(i) = self.evict_buf.iter().position(|p| p.line == line) {
            self.evict_buf[i].pending = self.evict_buf[i].pending.saturating_sub(1);
            if self.evict_buf[i].pending == 0 {
                self.complete_eviction(now, i);
            }
            return;
        }
        let option1 = self.option1_cacheable_reads;
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "LockdownAck", "no directory entry".to_string());
            return;
        };
        enum Act {
            Redir(NodeId),
            Reinvalidate(SharerSet),
            Bad(String),
        }
        let act = match &mut entry.state {
            DirState::BusyWrite { writer, extra_sharers, extra_acks, deferred_redirs, .. } => {
                if option1 && (!extra_sharers.is_empty() || *extra_acks > 0) {
                    // Option 1: new sharers were admitted; they must be
                    // re-invalidated before the write may see its acks.
                    *deferred_redirs += 1;
                    let sharers = extra_sharers.take();
                    *extra_acks += sharers.count() as u32;
                    Act::Reinvalidate(sharers)
                } else {
                    Act::Redir(*writer)
                }
            }
            other => Act::Bad(format!("in state {other:?}")),
        };
        if let Act::Reinvalidate(sharers) = &act {
            for n in sharers.iter() {
                entry.sharers.remove(n);
            }
        }
        match act {
            Act::Redir(writer) => {
                self.stats.inc("dir_redir_acks");
                self.send(writer, ProtoMsg::RedirAck { line });
            }
            Act::Reinvalidate(sharers) => {
                for target in sharers {
                    self.send(target, ProtoMsg::Inv { line, writer: None });
                    self.stats.inc("dir_option1_reinvalidations");
                    self.note_retry(line);
                }
            }
            Act::Bad(detail) => self.record_fault(line, "LockdownAck", detail),
        }
    }

    fn on_inv_ack(&mut self, now: Cycle, line: LineAddr, _from: NodeId) {
        if let Some(i) = self.evict_buf.iter().position(|p| p.line == line) {
            self.evict_buf[i].pending = self.evict_buf[i].pending.saturating_sub(1);
            if self.evict_buf[i].pending == 0 {
                self.complete_eviction(now, i);
            }
            return;
        }
        // Option-1 re-invalidation acknowledgement. If new readers kept
        // arriving while this round ran, start another round — the
        // perpetual re-invalidation the paper predicts (Section 3.4).
        let mut flush: Option<(NodeId, u32)> = None;
        let mut next_round = SharerSet::EMPTY;
        let mut handled = false;
        if let Some(entry) = self.l3.get_mut(line) {
            if let DirState::BusyWrite { writer, extra_sharers, extra_acks, deferred_redirs, .. } =
                &mut entry.state
            {
                handled = true;
                *extra_acks = extra_acks.saturating_sub(1);
                if *extra_acks == 0 {
                    if !extra_sharers.is_empty() {
                        next_round = extra_sharers.take();
                        *extra_acks = next_round.count() as u32;
                    } else if *deferred_redirs > 0 {
                        flush = Some((*writer, std::mem::take(deferred_redirs)));
                    }
                }
            }
        }
        if !next_round.is_empty() {
            if let Some(entry) = self.l3.get_mut(line) {
                for n in next_round.iter() {
                    entry.sharers.remove(n);
                }
            }
            for target in next_round {
                self.send(target, ProtoMsg::Inv { line, writer: None });
                self.stats.inc("dir_option1_reinvalidations");
                self.note_retry(line);
            }
        }
        if let Some((writer, n)) = flush {
            for _ in 0..n {
                self.stats.inc("dir_redir_acks");
                self.send(writer, ProtoMsg::RedirAck { line });
            }
        }
        if !handled {
            self.stats.inc("dir_stray_inv_acks");
        }
    }

    fn on_datawb(&mut self, now: Cycle, line: LineAddr, _from: NodeId, data: LineData) {
        if let Some(i) = self.evict_buf.iter().position(|p| p.line == line) {
            self.evict_buf[i].data = data;
            self.evict_buf[i].pending = self.evict_buf[i].pending.saturating_sub(1);
            if self.evict_buf[i].pending == 0 {
                self.complete_eviction(now, i);
            }
            return;
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "DataWb", "no directory entry".to_string());
            return;
        };
        entry.data = data;
        let done = match &mut entry.state {
            DirState::BusyRead { waiting_datawb, waiting_unblock, .. } => {
                *waiting_datawb = false;
                Ok(!*waiting_unblock)
            }
            other => Err(format!("in state {other:?}")),
        };
        match done {
            Ok(true) => self.finalize_read(now, line),
            Ok(false) => {}
            Err(detail) => self.record_fault(line, "DataWb", detail),
        }
    }

    fn on_unblock(&mut self, now: Cycle, line: LineAddr, from: NodeId) {
        // Absorb Unblocks from Option-1 cacheable WritersBlock reads —
        // but never one the current transaction is actually waiting for
        // (a stray from a spin-reader can still be in flight when the
        // blocked write finally performs and sends its own Unblock).
        let expected_here = match self.l3.get(line).map(|e| &e.state) {
            Some(DirState::BusyRead { requester, waiting_unblock, .. }) => {
                *waiting_unblock && *requester == from
            }
            Some(DirState::BusyWrite { writer, .. }) => *writer == from,
            _ => false,
        };
        if !expected_here {
            if let Some(n) = self.stray_unblocks.get_mut(&line) {
                *n -= 1;
                if *n == 0 {
                    self.stray_unblocks.remove(&line);
                }
                return;
            }
        }
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "Unblock", "no directory entry".to_string());
            return;
        };
        enum After {
            Nothing,
            FinalizeRead,
            DrainQueued,
            Bad(String),
        }
        let after = match &mut entry.state {
            DirState::BusyRead { waiting_unblock, waiting_datawb, requester, .. } => {
                if *requester != from {
                    After::Bad(format!("from {from}, BusyRead requester is {requester}"))
                } else {
                    *waiting_unblock = false;
                    if !*waiting_datawb {
                        After::FinalizeRead
                    } else {
                        After::Nothing
                    }
                }
            }
            DirState::BusyWrite { writer, .. } => {
                if *writer != from {
                    After::Bad(format!("from {from}, BusyWrite writer is {writer}"))
                } else {
                    entry.sharers = SharerSet::EMPTY;
                    entry.owner = Some(from);
                    entry.state = DirState::Owned;
                    After::DrainQueued
                }
            }
            other => After::Bad(format!("in state {other:?}")),
        };
        match after {
            After::Nothing => {}
            After::FinalizeRead => self.finalize_read(now, line),
            After::DrainQueued => {
                // The write finally performed; if it had been blocked in
                // WritersBlock, the stall window closes here.
                self.note_wb_exit(now, line);
                self.drain_queued(now, line);
            }
            After::Bad(detail) => self.record_fault(line, "Unblock", detail),
        }
    }

    fn finalize_read(&mut self, now: Cycle, line: LineAddr) {
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "finalize_read", "entry vanished mid-read".to_string());
            return;
        };
        if let DirState::BusyRead { requester, grant_exclusive, .. } = entry.state.clone() {
            if grant_exclusive {
                entry.owner = Some(requester);
                entry.sharers = SharerSet::EMPTY;
                entry.state = DirState::Owned;
            } else {
                entry.sharers.insert(requester);
                entry.owner = None;
                entry.state = DirState::Shared;
            }
            self.drain_queued(now, line);
        } else {
            let detail = format!("in state {:?}", entry.state);
            self.record_fault(line, "finalize_read", detail);
        }
    }

    fn drain_queued(&mut self, now: Cycle, line: LineAddr) {
        if let Some(entry) = self.l3.get_mut(line) {
            let queued = std::mem::take(&mut entry.queued);
            for m in queued {
                self.requeue(now, m, 1);
            }
        }
    }

    // ------------------------------------------------------------------
    // Allocation, eviction and memory
    // ------------------------------------------------------------------

    /// Handle a request for a line with no LLC entry: allocate (evicting
    /// if needed) and start a memory fetch, or fall back to an allocation-
    /// free path when no victim is available (Section 3.5.1).
    fn fetch_or_fallback(&mut self, now: Cycle, msg: ProtoMsg) {
        let line = msg.line();
        if self.try_allocate(now, line) {
            let entry = self.l3.get_mut(line).expect("just allocated");
            entry.queued.push_back(msg);
            self.events.push_back((now + self.mem_latency, Event::MemReady { line }));
            return;
        }
        self.stats.inc("dir_alloc_fallbacks");
        match msg {
            ProtoMsg::GetS { line, requester, .. } => {
                // Uncacheable memory read: the SoS load can always make
                // progress even with every way and buffer slot tied up.
                self.events
                    .push_back((now + self.mem_latency, Event::UncachedMemRead { line, requester }));
            }
            ProtoMsg::GetX { .. } => {
                // Writes may wait (TSO allows it): retry after a delay.
                self.note_retry(line);
                self.requeue(now, msg, self.retry_delay);
            }
            other => {
                let detail = format!("cannot fall back for {other:?}");
                self.record_fault(line, "allocate", detail);
            }
        }
    }

    fn try_allocate(&mut self, now: Cycle, line: LineAddr) -> bool {
        let buffer_free = self.evict_buf.len() < self.evict_cap;
        let fresh = DirEntry {
            state: DirState::Fetching,
            sharers: SharerSet::EMPTY,
            owner: None,
            data: LineData::new(),
            queued: VecDeque::new(),
            guard: 0,
        };
        let soft_on = self.soft_on;
        let res = self.l3.insert(line, fresh, now, |_, e| {
            // Busy entries are never evictable; Shared/Owned victims need
            // an eviction-buffer slot for their protocol action. A wounded
            // entry (guard mismatch) is pinned until detection repairs it —
            // evicting it would act on corrupt state.
            e.stable()
                && (matches!(e.state, DirState::Uncached) || buffer_free)
                && (!soft_on || Self::guard_ok(e))
        });
        match res {
            Insert::Done => true,
            Insert::Evicted(vline, v) => {
                self.dispose_victim(now, vline, v);
                true
            }
            Insert::NoVictim => false,
        }
    }

    fn dispose_victim(&mut self, now: Cycle, vline: LineAddr, v: DirEntry) {
        debug_assert!(v.queued.is_empty(), "busy entries are not evictable");
        match v.state {
            DirState::Uncached => {
                self.memory.write_line(vline, v.data);
                self.stats.inc("dir_evictions_clean");
            }
            DirState::Shared => {
                let n = v.sharers.count() as u32;
                if n == 0 {
                    self.memory.write_line(vline, v.data);
                    self.stats.inc("dir_evictions_clean");
                    return;
                }
                self.stats.inc("dir_evictions_shared");
                self.evict_buf.push(Evicting {
                    line: vline,
                    data: v.data,
                    pending: n,
                    wb: false,
                    queued: VecDeque::new(),
                });
                for target in v.sharers {
                    self.send(target, ProtoMsg::Inv { line: vline, writer: None });
                }
                let _ = now;
            }
            DirState::Owned => {
                let owner = v.owner.expect("Owned entry has an owner");
                self.stats.inc("dir_evictions_owned");
                self.evict_buf.push(Evicting {
                    line: vline,
                    data: v.data,
                    pending: 1,
                    wb: false,
                    queued: VecDeque::new(),
                });
                self.send(owner, ProtoMsg::Recall { line: vline });
            }
            other => {
                // The victim filter only admits stable entries, so this is
                // unreachable unless the protocol is broken; preserve the
                // data and report rather than abort.
                let detail = format!("evicting busy entry {other:?}");
                self.memory.write_line(vline, v.data);
                self.record_fault(vline, "evict", detail);
            }
        }
    }

    fn complete_eviction(&mut self, now: Cycle, idx: usize) {
        let p = self.evict_buf.swap_remove(idx);
        if p.wb {
            self.note_wb_exit(now, p.line);
        }
        self.memory.write_line(p.line, p.data);
        self.stats.inc("dir_evictions_completed");
        for m in p.queued {
            self.requeue(now, m, 1);
        }
    }

    fn on_mem_ready(&mut self, now: Cycle, line: LineAddr) {
        let data = self.memory.read_line(line);
        let Some(entry) = self.l3.get_mut(line) else {
            self.record_fault(line, "MemReady", "fetch completed for missing entry".to_string());
            return;
        };
        debug_assert!(matches!(entry.state, DirState::Fetching));
        entry.data = data;
        entry.state = DirState::Uncached;
        self.stats.inc("dir_mem_fetches");
        self.drain_queued(now, line);
    }

    // ------------------------------------------------------------------
    // Checkpointing
    // ------------------------------------------------------------------

    /// Serialize every execution-visible field. Configuration-derived
    /// fields (`node`, `bank`, latencies, port/buffer capacities, the
    /// Option-1 flag) and observability state (the tracer) are not
    /// written: restore targets a bank built from the same
    /// [`SystemConfig`].
    pub fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        use wb_kernel::Snap;
        self.l3.snap(w);
        self.evict_buf.snap(w);
        self.memory.snap(w);
        self.ingress.snap(w);
        self.events.snap(w);
        self.outbox.snap(w);
        // HashMaps: sorted key order for determinism.
        fn sorted<V: Copy>(m: &HashMap<LineAddr, V>) -> Vec<(LineAddr, V)> {
            let mut v: Vec<(LineAddr, V)> = m.iter().map(|(&l, &x)| (l, x)).collect();
            v.sort_unstable_by_key(|(l, _)| l.0);
            v
        }
        sorted(&self.stray_unblocks).snap(w);
        self.stats.snap(w);
        sorted(&self.wb_since).snap(w);
        self.fault.snap(w);
        sorted(&self.retry_counts).snap(w);
        sorted(&self.tearoff_counts).snap(w);
        self.hot.snap(w);
        sorted(&self.wounds).snap(w);
    }

    /// Inverse of [`Directory::snap`], in place.
    pub fn restore(&mut self, r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<()> {
        use wb_kernel::Snap;
        self.l3 = SetAssocArray::unsnap(r)?;
        self.evict_buf = Vec::unsnap(r)?;
        self.memory = MainMemory::unsnap(r)?;
        self.ingress = VecDeque::unsnap(r)?;
        self.events = VecDeque::unsnap(r)?;
        self.outbox = Vec::unsnap(r)?;
        self.stray_unblocks = Vec::<(LineAddr, u32)>::unsnap(r)?.into_iter().collect();
        let stats = Stats::unsnap(r)?;
        self.stats.load(&stats);
        self.wb_since = Vec::<(LineAddr, Cycle)>::unsnap(r)?.into_iter().collect();
        self.fault = Option::unsnap(r)?;
        self.retry_counts = Vec::<(LineAddr, u64)>::unsnap(r)?.into_iter().collect();
        self.tearoff_counts = Vec::<(LineAddr, u64)>::unsnap(r)?.into_iter().collect();
        self.hot = HeavyHitters::unsnap(r)?;
        self.wounds = Vec::<(LineAddr, Cycle)>::unsnap(r)?.into_iter().collect();
        Ok(())
    }
}

impl wb_kernel::Snap for DirState {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        match self {
            DirState::Uncached => w.u8(0),
            DirState::Shared => w.u8(1),
            DirState::Owned => w.u8(2),
            DirState::BusyRead { requester, waiting_datawb, waiting_unblock, grant_exclusive } => {
                w.u8(3);
                requester.snap(w);
                w.bool(*waiting_datawb);
                w.bool(*waiting_unblock);
                w.bool(*grant_exclusive);
            }
            DirState::BusyWrite { writer, wb, extra_sharers, extra_acks, deferred_redirs } => {
                w.u8(4);
                writer.snap(w);
                w.bool(*wb);
                extra_sharers.snap(w);
                w.u32(*extra_acks);
                w.u32(*deferred_redirs);
            }
            DirState::Fetching => w.u8(5),
            DirState::Poisoned { pending, parked, owner_hint } => {
                w.u8(6);
                w.u32(*pending);
                parked.snap(w);
                owner_hint.snap(w);
            }
        }
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        match r.u8()? {
            0 => Ok(DirState::Uncached),
            1 => Ok(DirState::Shared),
            2 => Ok(DirState::Owned),
            3 => Ok(DirState::BusyRead {
                requester: NodeId::unsnap(r)?,
                waiting_datawb: r.bool()?,
                waiting_unblock: r.bool()?,
                grant_exclusive: r.bool()?,
            }),
            4 => Ok(DirState::BusyWrite {
                writer: NodeId::unsnap(r)?,
                wb: r.bool()?,
                extra_sharers: SharerSet::unsnap(r)?,
                extra_acks: r.u32()?,
                deferred_redirs: r.u32()?,
            }),
            5 => Ok(DirState::Fetching),
            6 => Ok(DirState::Poisoned {
                pending: r.u32()?,
                parked: SharerSet::unsnap(r)?,
                owner_hint: Option::unsnap(r)?,
            }),
            t => Err(wb_kernel::SnapError::new(format!("bad DirState tag {t:#x}"))),
        }
    }
}

impl wb_kernel::Snap for DirEntry {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.state.snap(w);
        self.sharers.snap(w);
        self.owner.snap(w);
        self.data.snap(w);
        self.queued.snap(w);
        // The guard must round-trip verbatim: a snapshot taken between a
        // flip and its detection carries the (now-mismatched) guard, and
        // the restored run must detect it on the same cycle.
        w.u64(self.guard);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        Ok(DirEntry {
            state: DirState::unsnap(r)?,
            sharers: SharerSet::unsnap(r)?,
            owner: Option::unsnap(r)?,
            data: LineData::unsnap(r)?,
            queued: VecDeque::unsnap(r)?,
            guard: r.u64()?,
        })
    }
}

impl wb_kernel::Snap for Evicting {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        self.line.snap(w);
        self.data.snap(w);
        w.u32(self.pending);
        w.bool(self.wb);
        self.queued.snap(w);
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        Ok(Evicting {
            line: LineAddr::unsnap(r)?,
            data: LineData::unsnap(r)?,
            pending: r.u32()?,
            wb: r.bool()?,
            queued: VecDeque::unsnap(r)?,
        })
    }
}

impl wb_kernel::Snap for Event {
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        match self {
            Event::Process(msg) => {
                w.u8(0);
                msg.snap(w);
            }
            Event::MemReady { line } => {
                w.u8(1);
                line.snap(w);
            }
            Event::UncachedMemRead { line, requester } => {
                w.u8(2);
                line.snap(w);
                requester.snap(w);
            }
        }
    }
    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        match r.u8()? {
            0 => Ok(Event::Process(ProtoMsg::unsnap(r)?)),
            1 => Ok(Event::MemReady { line: LineAddr::unsnap(r)? }),
            2 => Ok(Event::UncachedMemRead {
                line: LineAddr::unsnap(r)?,
                requester: NodeId::unsnap(r)?,
            }),
            t => Err(wb_kernel::SnapError::new(format!("bad dir Event tag {t:#x}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(state: DirState, owner: Option<NodeId>, sharers: SharerSet) -> DirEntry {
        let mut e = DirEntry {
            state,
            sharers,
            owner,
            data: LineData::new(),
            queued: VecDeque::new(),
            guard: 0,
        };
        if let Some(c) = e.stable_code() {
            e.guard = dir_guard(c, e.owner, &e.sharers);
        }
        e
    }

    #[test]
    fn guard_detects_every_single_field_flip() {
        let base = entry(DirState::Shared, None, SharerSet::solo(NodeId(3)));
        assert!(Directory::guard_ok(&base));

        let mut state_flip = base.clone();
        state_flip.state = DirState::Owned;
        assert!(!Directory::guard_ok(&state_flip));

        let mut sharer_flip = base.clone();
        sharer_flip.sharers.toggle(NodeId(100));
        assert!(!Directory::guard_ok(&sharer_flip));

        let mut drop_flip = base.clone();
        drop_flip.sharers.toggle(NodeId(3));
        assert!(!Directory::guard_ok(&drop_flip));
    }

    #[test]
    fn owner_hint_decodes_only_true_owned() {
        // Owned entry whose state word was scrambled to Shared: the
        // guard still hashes as Owned over the untouched owner field.
        let mut e = entry(DirState::Owned, Some(NodeId(7)), SharerSet::EMPTY);
        e.state = DirState::Shared;
        assert_eq!(Directory::decode_owner_hint(&e), Some(NodeId(7)));

        // Uncached entry scrambled to Owned: the hint must NOT claim an
        // owner that never existed.
        let mut u = entry(DirState::Uncached, None, SharerSet::EMPTY);
        u.state = DirState::Owned;
        assert_eq!(Directory::decode_owner_hint(&u), None);
    }

    #[test]
    fn transient_entries_skip_guard_checks() {
        let e = entry(DirState::Fetching, None, SharerSet::EMPTY);
        assert!(Directory::guard_ok(&e));
        assert_eq!(Directory::entry_guard(&e), None);
    }
}
