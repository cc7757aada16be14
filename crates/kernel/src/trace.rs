//! Cycle-stamped event tracing with bounded ring buffers.
//!
//! Every simulated component (core, private cache, directory, mesh,
//! and the system glue itself) owns a [`Tracer`]: a bounded ring
//! buffer of typed, cycle-stamped [`TraceEvent`]s behind a
//! category/severity/line [`TraceFilter`]. Tracing is **off by
//! default** — a disabled tracer's `record` is a single integer
//! compare, touches no heap, and bumps no counters — so the simulation
//! hot path pays nothing unless a run opts in.
//!
//! Two sinks turn recorded events back into bytes:
//!
//! * [`render_text`] / the [`Record`] `Display` impl — the
//!   human-readable dump (what the old `System::trace_line`
//!   `eprintln!` produced, now routed through a swappable
//!   [`TraceSink`] so tests can capture it);
//! * [`chrome_trace_json`] — a Chrome trace-event JSON exporter whose
//!   output loads directly in `chrome://tracing` or
//!   <https://ui.perfetto.dev>, rendering a litmus run as a
//!   per-core/per-directory timeline (lockdowns and WritersBlock
//!   windows as spans, messages and MSHR traffic as instants).
//!
//! This module deliberately speaks only primitive types (`u64` line
//! numbers, `u16` node indices, `&'static str` mnemonics): `wb_kernel`
//! sits below `wb_mem`/`wb_protocol` in the crate DAG, so richer types
//! are flattened by the callers.

use crate::Cycle;
use std::collections::VecDeque;

/// Default ring-buffer capacity per component. At ~48 bytes per record
/// this caps a fully-traced 16-core system (16 cores + 16 caches +
/// 16 dirs + mesh + system) around 10 MB — and litmus runs, the usual
/// tracing subject, stay far below the cap.
pub const DEFAULT_RING_CAPACITY: usize = 4096;

// ---------------------------------------------------------------------------
// Filtering
// ---------------------------------------------------------------------------

/// Coarse event category — one bit each, filterable as a mask.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Category {
    /// Protocol message send/receive at the system boundary.
    Protocol,
    /// Directory state transitions, incl. WritersBlock entry/exit.
    Directory,
    /// MSHR allocate/free at private caches.
    Mshr,
    /// Core-side lockdown begin/end.
    Lockdown,
    /// LSQ load bind/commit (with the reordered flag).
    Lsq,
    /// Mesh per-hop forwarding (high volume; `Level::Debug`).
    Mesh,
}

impl Category {
    /// Every category, in bit order.
    pub const ALL: [Category; 6] = [
        Category::Protocol,
        Category::Directory,
        Category::Mshr,
        Category::Lockdown,
        Category::Lsq,
        Category::Mesh,
    ];

    /// This category's bit in a [`TraceFilter`] mask.
    #[inline]
    pub fn bit(self) -> u32 {
        1 << (self as u32)
    }

    /// Short lowercase label (used as the Chrome-trace `cat` field).
    pub fn label(self) -> &'static str {
        match self {
            Category::Protocol => "protocol",
            Category::Directory => "directory",
            Category::Mshr => "mshr",
            Category::Lockdown => "lockdown",
            Category::Lsq => "lsq",
            Category::Mesh => "mesh",
        }
    }
}

/// Event severity. `Debug` marks high-volume events (per-hop mesh
/// forwarding) that an `Info` filter drops.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// High-volume detail.
    Debug,
    /// Protocol-level milestones.
    Info,
}

/// What a [`Tracer`] records: a category mask, a minimum severity and
/// an optional cache-line filter. `TraceFilter::OFF` (the default)
/// records nothing.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TraceFilter {
    /// Bitmask of enabled [`Category`] bits; 0 disables the tracer.
    pub mask: u32,
    /// Minimum severity recorded.
    pub level: Level,
    /// When set, only events touching this line (see
    /// [`TraceEvent::line`]) are recorded; events with no line
    /// association (e.g. mesh hops) are dropped.
    pub line: Option<u64>,
}

impl Default for TraceFilter {
    fn default() -> Self {
        TraceFilter::OFF
    }
}

impl TraceFilter {
    /// Record nothing (the default).
    pub const OFF: TraceFilter = TraceFilter { mask: 0, level: Level::Info, line: None };

    /// Record every category at every severity.
    pub fn all() -> Self {
        let mut mask = 0;
        for c in Category::ALL {
            mask |= c.bit();
        }
        TraceFilter { mask, level: Level::Debug, line: None }
    }

    /// Record every category at `Info` severity (drops mesh hops).
    pub fn info() -> Self {
        TraceFilter { level: Level::Info, ..TraceFilter::all() }
    }

    /// Record only the given categories (at `Debug` severity).
    pub fn only(cats: &[Category]) -> Self {
        let mut mask = 0;
        for c in cats {
            mask |= c.bit();
        }
        TraceFilter { mask, level: Level::Debug, line: None }
    }

    /// Restrict to events touching cache line `line`.
    pub fn with_line(self, line: u64) -> Self {
        TraceFilter { line: Some(line), ..self }
    }

    /// Raise the minimum severity.
    pub fn with_level(self, level: Level) -> Self {
        TraceFilter { level, ..self }
    }

    /// True when this filter can record anything at all.
    #[inline]
    pub fn enabled(&self) -> bool {
        self.mask != 0
    }

    /// Does `event` pass this filter?
    pub fn admits(&self, event: &TraceEvent) -> bool {
        if self.mask & event.category().bit() == 0 || event.level() < self.level {
            return false;
        }
        match self.line {
            None => true,
            Some(l) => event.line() == Some(l),
        }
    }
}

// ---------------------------------------------------------------------------
// Events
// ---------------------------------------------------------------------------

/// Which component recorded (or is named by) an event.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum CompId {
    /// A CPU core.
    Core(u16),
    /// A private cache.
    Cache(u16),
    /// A directory slice.
    Dir(u16),
    /// The interconnect.
    Mesh,
    /// The system glue (message delivery/injection).
    System,
}

impl std::fmt::Display for CompId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CompId::Core(i) => write!(f, "core{i}"),
            CompId::Cache(i) => write!(f, "cache{i}"),
            CompId::Dir(i) => write!(f, "dir{i}"),
            CompId::Mesh => write!(f, "mesh"),
            CompId::System => write!(f, "system"),
        }
    }
}

/// One typed, cycle-stamped observation. Payloads are primitives only
/// (see the module docs): `line` fields are cache-line numbers
/// (`LineAddr.0` upstream), node/core indices are `u16`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TraceEvent {
    /// A protocol message was injected into the mesh.
    MsgSend {
        /// Message mnemonic, e.g. `"GetS.to"` or `"Nack"`.
        msg: &'static str,
        /// Sending component.
        from: CompId,
        /// Receiving component.
        to: CompId,
        /// Cache line the message concerns.
        line: u64,
        /// Virtual network (0 = request, 1 = forward, 2 = response).
        vnet: u8,
        /// Message size in flits.
        flits: u32,
    },
    /// A protocol message arrived at its destination.
    MsgRecv {
        /// Message mnemonic.
        msg: &'static str,
        /// Source node index.
        src: u16,
        /// Receiving component.
        to: CompId,
        /// Cache line the message concerns.
        line: u64,
    },
    /// A directory entry changed state.
    DirTransition {
        /// Cache line.
        line: u64,
        /// State name before.
        from: &'static str,
        /// State name after.
        to: &'static str,
    },
    /// A write hit a lockdown Nack and entered WritersBlock.
    WritersBlockBegin {
        /// Blocked cache line.
        line: u64,
        /// Node index of the blocked writer.
        writer: u16,
    },
    /// A WritersBlock window closed (write finally performed).
    WritersBlockEnd {
        /// Unblocked cache line.
        line: u64,
    },
    /// A miss-status holding register was allocated.
    MshrAlloc {
        /// Cache line.
        line: u64,
        /// `"Read"`, `"Write"` or `"TearOff"`.
        kind: &'static str,
    },
    /// A miss-status holding register was freed (miss completed).
    MshrFree {
        /// Cache line.
        line: u64,
        /// `"Read"`, `"Write"` or `"TearOff"`.
        kind: &'static str,
        /// Cycles the MSHR was live (miss latency).
        latency: u64,
    },
    /// A core began refusing invalidations for a line (lockdown).
    LockdownBegin {
        /// Locked-down cache line.
        line: u64,
    },
    /// A core released a lockdown (all bound loads committed).
    LockdownEnd {
        /// Released cache line.
        line: u64,
        /// Cycles the lockdown was held.
        held: u64,
    },
    /// A load bound its value (possibly out of program order).
    LoadBind {
        /// Program-order sequence number.
        seq: u64,
        /// Cache line read.
        line: u64,
        /// True when an older load was still unbound (reordering).
        reordered: bool,
    },
    /// A load committed.
    LoadCommit {
        /// Program-order sequence number.
        seq: u64,
        /// Cache line read.
        line: u64,
        /// True when the load had bound out of order (mspec in the
        /// paper's terms — committed non-speculatively under WB).
        reordered: bool,
    },
    /// A mesh message advanced one hop (`Level::Debug`).
    MeshHop {
        /// Source node index.
        src: u16,
        /// Destination node index.
        dst: u16,
        /// Hops still to travel after this one.
        hops_left: u32,
        /// Virtual network.
        vnet: u8,
    },
    /// A link-level frame was lost: dropped mid-flight by a fault plan,
    /// or discarded at the receiver because its checksum failed.
    LinkDrop {
        /// Source node index.
        src: u16,
        /// Destination node index.
        dst: u16,
        /// Virtual network.
        vnet: u8,
        /// Per-flow sequence number of the lost frame.
        seq: u64,
        /// True when a receiver-side checksum failure (not a plan drop)
        /// discarded the frame.
        corrupt: bool,
    },
    /// The reliable sublayer retransmitted an unacknowledged frame.
    LinkRetx {
        /// Source node index.
        src: u16,
        /// Destination node index.
        dst: u16,
        /// Virtual network.
        vnet: u8,
        /// Per-flow sequence number being retransmitted.
        seq: u64,
        /// Retransmission attempt (1 = first retransmit).
        attempt: u32,
    },
    /// The receiver squashed a duplicate frame (dedup window hit).
    LinkDupSquashed {
        /// Source node index.
        src: u16,
        /// Destination node index.
        dst: u16,
        /// Virtual network.
        vnet: u8,
        /// Per-flow sequence number of the squashed duplicate.
        seq: u64,
    },
}

impl TraceEvent {
    /// This event's [`Category`].
    pub fn category(&self) -> Category {
        match self {
            TraceEvent::MsgSend { .. } | TraceEvent::MsgRecv { .. } => Category::Protocol,
            TraceEvent::DirTransition { .. }
            | TraceEvent::WritersBlockBegin { .. }
            | TraceEvent::WritersBlockEnd { .. } => Category::Directory,
            TraceEvent::MshrAlloc { .. } | TraceEvent::MshrFree { .. } => Category::Mshr,
            TraceEvent::LockdownBegin { .. } | TraceEvent::LockdownEnd { .. } => {
                Category::Lockdown
            }
            TraceEvent::LoadBind { .. } | TraceEvent::LoadCommit { .. } => Category::Lsq,
            TraceEvent::MeshHop { .. }
            | TraceEvent::LinkDrop { .. }
            | TraceEvent::LinkRetx { .. }
            | TraceEvent::LinkDupSquashed { .. } => Category::Mesh,
        }
    }

    /// This event's severity ([`Level::Debug`] only for mesh hops).
    pub fn level(&self) -> Level {
        match self {
            TraceEvent::MeshHop { .. } => Level::Debug,
            _ => Level::Info,
        }
    }

    /// The cache line this event concerns, if any.
    pub fn line(&self) -> Option<u64> {
        match *self {
            TraceEvent::MsgSend { line, .. }
            | TraceEvent::MsgRecv { line, .. }
            | TraceEvent::DirTransition { line, .. }
            | TraceEvent::WritersBlockBegin { line, .. }
            | TraceEvent::WritersBlockEnd { line }
            | TraceEvent::MshrAlloc { line, .. }
            | TraceEvent::MshrFree { line, .. }
            | TraceEvent::LockdownBegin { line }
            | TraceEvent::LockdownEnd { line, .. }
            | TraceEvent::LoadBind { line, .. }
            | TraceEvent::LoadCommit { line, .. } => Some(line),
            TraceEvent::MeshHop { .. }
            | TraceEvent::LinkDrop { .. }
            | TraceEvent::LinkRetx { .. }
            | TraceEvent::LinkDupSquashed { .. } => None,
        }
    }
}

impl std::fmt::Display for TraceEvent {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            TraceEvent::MsgSend { msg, from, to, line, vnet, flits } => {
                write!(f, "send {msg} {from} -> {to} line {line:#x} vnet{vnet} ({flits}f)")
            }
            TraceEvent::MsgRecv { msg, src, to, line } => {
                write!(f, "recv {msg} n{src} -> {to} line {line:#x}")
            }
            TraceEvent::DirTransition { line, from, to } => {
                write!(f, "dir line {line:#x}: {from} -> {to}")
            }
            TraceEvent::WritersBlockBegin { line, writer } => {
                write!(f, "writersblock BEGIN line {line:#x} writer n{writer}")
            }
            TraceEvent::WritersBlockEnd { line } => {
                write!(f, "writersblock END line {line:#x}")
            }
            TraceEvent::MshrAlloc { line, kind } => {
                write!(f, "mshr+ {kind} line {line:#x}")
            }
            TraceEvent::MshrFree { line, kind, latency } => {
                write!(f, "mshr- {kind} line {line:#x} ({latency} cyc)")
            }
            TraceEvent::LockdownBegin { line } => {
                write!(f, "lockdown BEGIN line {line:#x}")
            }
            TraceEvent::LockdownEnd { line, held } => {
                write!(f, "lockdown END line {line:#x} ({held} cyc)")
            }
            TraceEvent::LoadBind { seq, line, reordered } => {
                write!(
                    f,
                    "load bind seq={seq} line {line:#x}{}",
                    if *reordered { " [reordered]" } else { "" }
                )
            }
            TraceEvent::LoadCommit { seq, line, reordered } => {
                write!(
                    f,
                    "load commit seq={seq} line {line:#x}{}",
                    if *reordered { " [reordered]" } else { "" }
                )
            }
            TraceEvent::MeshHop { src, dst, hops_left, vnet } => {
                write!(f, "hop n{src} -> n{dst} ({hops_left} left) vnet{vnet}")
            }
            TraceEvent::LinkDrop { src, dst, vnet, seq, corrupt } => {
                write!(
                    f,
                    "link drop n{src} -> n{dst} vnet{vnet} seq={seq}{}",
                    if *corrupt { " [checksum]" } else { "" }
                )
            }
            TraceEvent::LinkRetx { src, dst, vnet, seq, attempt } => {
                write!(f, "link retx n{src} -> n{dst} vnet{vnet} seq={seq} attempt={attempt}")
            }
            TraceEvent::LinkDupSquashed { src, dst, vnet, seq } => {
                write!(f, "link dup-squash n{src} -> n{dst} vnet{vnet} seq={seq}")
            }
        }
    }
}

/// A [`TraceEvent`] plus where and when it happened.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Record {
    /// Simulation cycle of the observation.
    pub cycle: Cycle,
    /// Component that recorded it.
    pub comp: CompId,
    /// The observation itself.
    pub event: TraceEvent,
}

impl std::fmt::Display for Record {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "[{:>8}] {:<8} {}", self.cycle, self.comp.to_string(), self.event)
    }
}

// ---------------------------------------------------------------------------
// Ring buffer
// ---------------------------------------------------------------------------

/// A per-component bounded ring buffer of [`Record`]s.
///
/// Disabled (the default) it is free: `record` bails on a single mask
/// compare before constructing anything. Enabled, the buffer keeps the
/// most recent [`DEFAULT_RING_CAPACITY`] admitted records and counts
/// the overwritten ones in [`Tracer::dropped`].
#[derive(Debug, Clone)]
pub struct Tracer {
    comp: CompId,
    filter: TraceFilter,
    cap: usize,
    buf: VecDeque<Record>,
    dropped: u64,
}

impl Tracer {
    /// A disabled tracer for component `comp` with the default ring
    /// capacity.
    pub fn new(comp: CompId) -> Self {
        Tracer::with_capacity(comp, DEFAULT_RING_CAPACITY)
    }

    /// A disabled tracer with an explicit ring capacity.
    pub fn with_capacity(comp: CompId, cap: usize) -> Self {
        Tracer {
            comp,
            filter: TraceFilter::OFF,
            cap: cap.max(1),
            buf: VecDeque::new(),
            dropped: 0,
        }
    }

    /// The component this tracer belongs to.
    pub fn comp(&self) -> CompId {
        self.comp
    }

    /// Replace the filter (buffer contents are kept).
    pub fn set_filter(&mut self, filter: TraceFilter) {
        self.filter = filter;
    }

    /// The active filter.
    pub fn filter(&self) -> TraceFilter {
        self.filter
    }

    /// Cheap pre-check: is `cat` enabled at all? Call this before
    /// doing any work to *construct* an event payload.
    #[inline]
    pub fn wants(&self, cat: Category) -> bool {
        self.filter.mask & cat.bit() != 0
    }

    /// Record an event at `cycle` if the filter admits it.
    #[inline]
    pub fn record(&mut self, cycle: Cycle, event: TraceEvent) {
        if self.filter.mask == 0 {
            return;
        }
        self.push(cycle, event);
    }

    #[cold]
    fn push(&mut self, cycle: Cycle, event: TraceEvent) {
        if !self.filter.admits(&event) {
            return;
        }
        if self.buf.len() == self.cap {
            self.buf.pop_front();
            self.dropped += 1;
        }
        self.buf.push_back(Record { cycle, comp: self.comp, event });
    }

    /// Records currently held, oldest first.
    pub fn records(&self) -> impl Iterator<Item = &Record> {
        self.buf.iter()
    }

    /// Number of records overwritten by ring wrap-around.
    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Number of records currently held.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True when no record is held.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Drop all held records (filter and drop count are kept).
    pub fn clear(&mut self) {
        self.buf.clear();
    }
}

// ---------------------------------------------------------------------------
// Sinks
// ---------------------------------------------------------------------------

/// Where human-readable trace lines go. `Stderr` preserves the old
/// `System::trace_line` behaviour; `Capture` makes output testable.
#[derive(Debug, Default)]
pub enum TraceSink {
    /// Print each line to stderr (the default, matching the historic
    /// `eprintln!` behaviour). This arm is the one sanctioned
    /// `eprintln!` call site in `crates/*/src`.
    #[default]
    Stderr,
    /// Collect lines in memory; retrieve with [`TraceSink::take_lines`].
    Capture(Vec<String>),
    /// Discard everything.
    Null,
}

impl TraceSink {
    /// Emit one line.
    pub fn emit(&mut self, line: &str) {
        match self {
            TraceSink::Stderr => eprintln!("{line}"),
            TraceSink::Capture(buf) => buf.push(line.to_string()),
            TraceSink::Null => {}
        }
    }

    /// Take captured lines (empty for non-capture sinks).
    pub fn take_lines(&mut self) -> Vec<String> {
        match self {
            TraceSink::Capture(buf) => std::mem::take(buf),
            _ => Vec::new(),
        }
    }
}

/// Print a debug line to stderr. The escape hatch for env-gated debug
/// output (e.g. `WB_ECL_DEBUG`) so component code stays free of bare
/// `eprintln!` (enforced by the `scripts/verify.sh` grep guard).
pub fn stderr_line(line: &str) {
    eprintln!("{line}");
}

/// Render records as the human-readable dump, one line per record.
pub fn render_text(records: &[Record]) -> String {
    let mut out = String::new();
    for r in records {
        out.push_str(&r.to_string());
        out.push('\n');
    }
    out
}

// ---------------------------------------------------------------------------
// Chrome trace-event export
// ---------------------------------------------------------------------------

/// `(pid, tid)` for a component: one process row per component class,
/// one thread row per node — the shape Perfetto renders as grouped
/// per-class swim lanes.
fn pid_tid(comp: CompId) -> (u32, u32) {
    match comp {
        CompId::Core(i) => (1, i as u32),
        CompId::Cache(i) => (2, i as u32),
        CompId::Dir(i) => (3, i as u32),
        CompId::Mesh => (4, 0),
        CompId::System => (5, 0),
    }
}

fn push_meta(out: &mut String, pid: u32, tid: Option<u32>, name: &str) {
    match tid {
        None => out.push_str(&format!(
            r#"{{"ph":"M","pid":{pid},"name":"process_name","args":{{"name":"{name}"}}}}"#
        )),
        Some(tid) => out.push_str(&format!(
            r#"{{"ph":"M","pid":{pid},"tid":{tid},"name":"thread_name","args":{{"name":"{name}"}}}}"#
        )),
    }
}

/// One Chrome trace event object for record `r` (category and
/// timestamp come from the record; `comp` picks the track). `ph` is
/// the phase; span events (`"b"`/`"e"`, async nestable) carry an `id`
/// so overlapping windows on one track pair up correctly.
fn push_event(out: &mut String, r: &Record, ph: char, name: &str, comp: CompId, id: Option<u64>, args: &str) {
    let (cat, ts) = (r.event.category().label(), r.cycle);
    let (pid, tid) = pid_tid(comp);
    out.push_str(&format!(
        r#"{{"ph":"{ph}","name":"{name}","cat":"{cat}","pid":{pid},"tid":{tid},"ts":{ts}"#
    ));
    if let Some(id) = id {
        out.push_str(&format!(r#","id":"{id:#x}""#));
    }
    if ph == 'i' {
        out.push_str(r#","s":"t""#);
    }
    if !args.is_empty() {
        out.push_str(&format!(r#","args":{{{args}}}"#));
    }
    out.push('}');
}

/// One point on a Perfetto counter track: at `cycle`, counter `track`
/// had `value`. Produced by the timeline sampler (one sample per
/// counter per window) and rendered as a `"ph":"C"` event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterSample<'a> {
    /// Simulation cycle of the sample (the window's end cycle).
    pub cycle: Cycle,
    /// Counter name; becomes the Perfetto track name. Must be a plain
    /// identifier (no quotes/control characters) — counter keys are.
    pub track: &'a str,
    /// The counter's per-window delta (or gauge value) at `cycle`.
    pub value: u64,
}

/// Export records as Chrome trace-event JSON (the `traceEvents` array
/// format), loadable in `chrome://tracing` and Perfetto.
///
/// Timestamps are simulation cycles used directly as the `ts`
/// microsecond field — absolute units don't matter for inspection.
/// Lockdown and WritersBlock windows become async nestable spans
/// (`ph:"b"`/`"e"`, id = line number) so overlapping windows on one
/// component render as parallel slices; everything else is an instant.
/// Output is deterministic: records are emitted in slice order with no
/// floats, timestamps or randomness.
pub fn chrome_trace_json(records: &[Record]) -> String {
    chrome_trace_json_ext(records, &[])
}

/// [`chrome_trace_json`] plus counter tracks: each [`CounterSample`]
/// becomes a `"ph":"C"` event under a dedicated "timeline" process row
/// (pid 6), so Perfetto plots per-window counter deltas as stacked
/// area charts alongside the event swim lanes. Samples are emitted in
/// slice order — pass them time-ordered (the timeline sampler does).
pub fn chrome_trace_json_ext(records: &[Record], counters: &[CounterSample<'_>]) -> String {
    let mut out = String::from(r#"{"displayTimeUnit":"ns","traceEvents":["#);
    let mut first = true;
    let mut sep = |out: &mut String| {
        if first {
            first = false;
        } else {
            out.push(',');
        }
    };

    // Name the process/thread rows for every component that appears.
    let mut comps: Vec<CompId> = records.iter().map(|r| r.comp).collect();
    comps.sort_unstable();
    comps.dedup();
    for &(pid, name) in
        &[(1u32, "cores"), (2, "caches"), (3, "directories"), (4, "mesh"), (5, "system")]
    {
        if comps.iter().any(|c| pid_tid(*c).0 == pid) {
            sep(&mut out);
            push_meta(&mut out, pid, None, name);
        }
    }
    for c in &comps {
        let (pid, tid) = pid_tid(*c);
        sep(&mut out);
        push_meta(&mut out, pid, Some(tid), &c.to_string());
    }
    if !counters.is_empty() {
        sep(&mut out);
        push_meta(&mut out, 6, None, "timeline");
    }

    for r in records {
        sep(&mut out);
        match &r.event {
            TraceEvent::MsgSend { msg, from, to, line, vnet, flits } => push_event(
                &mut out,
                r,
                'i',
                &format!("send {msg}"),
                *from,
                None,
                &format!(
                    r#""line":"{line:#x}","to":"{to}","vnet":{vnet},"flits":{flits}"#
                ),
            ),
            TraceEvent::MsgRecv { msg, src, to, line } => push_event(
                &mut out,
                r,
                'i',
                &format!("recv {msg}"),
                *to,
                None,
                &format!(r#""line":"{line:#x}","src":"n{src}""#),
            ),
            TraceEvent::DirTransition { line, from, to } => push_event(
                &mut out,
                r,
                'i',
                &format!("{from}->{to}"),
                r.comp,
                None,
                &format!(r#""line":"{line:#x}""#),
            ),
            TraceEvent::WritersBlockBegin { line, writer } => push_event(
                &mut out,
                r,
                'b',
                &format!("writersblock {line:#x}"),
                r.comp,
                Some(*line),
                &format!(r#""writer":"n{writer}""#),
            ),
            TraceEvent::WritersBlockEnd { line } => push_event(
                &mut out,
                r,
                'e',
                &format!("writersblock {line:#x}"),
                r.comp,
                Some(*line),
                "",
            ),
            TraceEvent::MshrAlloc { line, kind } => push_event(
                &mut out,
                r,
                'i',
                &format!("mshr+ {kind}"),
                r.comp,
                None,
                &format!(r#""line":"{line:#x}""#),
            ),
            TraceEvent::MshrFree { line, kind, latency } => push_event(
                &mut out,
                r,
                'i',
                &format!("mshr- {kind}"),
                r.comp,
                None,
                &format!(r#""line":"{line:#x}","latency":{latency}"#),
            ),
            TraceEvent::LockdownBegin { line } => push_event(
                &mut out,
                r,
                'b',
                &format!("lockdown {line:#x}"),
                r.comp,
                Some(*line),
                "",
            ),
            TraceEvent::LockdownEnd { line, held } => push_event(
                &mut out,
                r,
                'e',
                &format!("lockdown {line:#x}"),
                r.comp,
                Some(*line),
                &format!(r#""held":{held}"#),
            ),
            TraceEvent::LoadBind { seq, line, reordered } => push_event(
                &mut out,
                r,
                'i',
                "load bind",
                r.comp,
                None,
                &format!(r#""seq":{seq},"line":"{line:#x}","reordered":{reordered}"#),
            ),
            TraceEvent::LoadCommit { seq, line, reordered } => push_event(
                &mut out,
                r,
                'i',
                "load commit",
                r.comp,
                None,
                &format!(r#""seq":{seq},"line":"{line:#x}","reordered":{reordered}"#),
            ),
            TraceEvent::MeshHop { src, dst, hops_left, vnet } => push_event(
                &mut out,
                r,
                'i',
                "hop",
                r.comp,
                None,
                &format!(r#""src":"n{src}","dst":"n{dst}","hops_left":{hops_left},"vnet":{vnet}"#),
            ),
            TraceEvent::LinkDrop { src, dst, vnet, seq, corrupt } => push_event(
                &mut out,
                r,
                'i',
                "link drop",
                r.comp,
                None,
                &format!(
                    r#""src":"n{src}","dst":"n{dst}","vnet":{vnet},"seq":{seq},"corrupt":{corrupt}"#
                ),
            ),
            TraceEvent::LinkRetx { src, dst, vnet, seq, attempt } => push_event(
                &mut out,
                r,
                'i',
                "link retx",
                r.comp,
                None,
                &format!(
                    r#""src":"n{src}","dst":"n{dst}","vnet":{vnet},"seq":{seq},"attempt":{attempt}"#
                ),
            ),
            TraceEvent::LinkDupSquashed { src, dst, vnet, seq } => push_event(
                &mut out,
                r,
                'i',
                "link dup-squash",
                r.comp,
                None,
                &format!(r#""src":"n{src}","dst":"n{dst}","vnet":{vnet},"seq":{seq}"#),
            ),
        }
    }
    for c in counters {
        sep(&mut out);
        out.push_str(&format!(
            r#"{{"ph":"C","name":"{}","pid":6,"tid":0,"ts":{},"args":{{"value":{}}}}}"#,
            c.track, c.cycle, c.value
        ));
    }
    out.push_str("]}");
    out
}

/// Merge per-component record sets into one cycle-ordered timeline.
///
/// The sort is stable, so records from the same cycle keep the order
/// of `sources` — pass components in a fixed order and the output is
/// deterministic for a deterministic simulation.
pub fn merge_records<'a>(sources: impl IntoIterator<Item = &'a Tracer>) -> Vec<Record> {
    merge_records_where(sources, |_| true)
}

/// [`merge_records`], filtering *during* the merge: records failing
/// `keep` are never cloned. Because the same stable sort runs over the
/// surviving records in the same source order, the result is exactly
/// `merge_records(sources)` post-filtered with `keep` — without first
/// materialising every ring buffer (the win when one line's events are
/// wanted out of 49 full rings).
pub fn merge_records_where<'a>(
    sources: impl IntoIterator<Item = &'a Tracer>,
    keep: impl Fn(&Record) -> bool,
) -> Vec<Record> {
    let mut all: Vec<Record> = Vec::new();
    for t in sources {
        all.extend(t.records().filter(|r| keep(r)).cloned());
    }
    all.sort_by_key(|r| r.cycle);
    all
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(line: u64) -> TraceEvent {
        TraceEvent::LockdownBegin { line }
    }

    #[test]
    fn disabled_tracer_records_nothing() {
        let mut t = Tracer::new(CompId::Core(0));
        t.record(1, ev(7));
        assert!(t.is_empty());
        assert_eq!(t.dropped(), 0);
    }

    #[test]
    fn filter_by_category_and_level() {
        let mut t = Tracer::new(CompId::Mesh);
        t.set_filter(TraceFilter::only(&[Category::Mesh]).with_level(Level::Info));
        // Mesh hops are Debug, so an Info filter drops them.
        t.record(1, TraceEvent::MeshHop { src: 0, dst: 1, hops_left: 2, vnet: 0 });
        assert!(t.is_empty());
        t.set_filter(TraceFilter::only(&[Category::Mesh]));
        t.record(2, TraceEvent::MeshHop { src: 0, dst: 1, hops_left: 2, vnet: 0 });
        assert_eq!(t.len(), 1);
        // Lockdown events are outside the mask.
        t.record(3, ev(1));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn filter_by_line() {
        let mut t = Tracer::new(CompId::Cache(1));
        t.set_filter(TraceFilter::all().with_line(0x10));
        t.record(1, ev(0x10));
        t.record(2, ev(0x11));
        // Line-less events are dropped by a line filter.
        t.record(3, TraceEvent::MeshHop { src: 0, dst: 1, hops_left: 0, vnet: 0 });
        assert_eq!(t.len(), 1);
        assert_eq!(t.records().next().unwrap().event.line(), Some(0x10));
    }

    #[test]
    fn ring_wraps_and_counts_drops() {
        let mut t = Tracer::with_capacity(CompId::Dir(0), 3);
        t.set_filter(TraceFilter::all());
        for c in 0..5u64 {
            t.record(c, ev(c));
        }
        assert_eq!(t.len(), 3);
        assert_eq!(t.dropped(), 2);
        let cycles: Vec<Cycle> = t.records().map(|r| r.cycle).collect();
        assert_eq!(cycles, vec![2, 3, 4]);
    }

    #[test]
    fn record_display_is_stable() {
        let r = Record { cycle: 42, comp: CompId::Dir(3), event: ev(0x2a) };
        let s = r.to_string();
        assert!(s.contains("42") && s.contains("dir3") && s.contains("0x2a"), "{s}");
    }

    #[test]
    fn capture_sink_collects() {
        let mut sink = TraceSink::Capture(Vec::new());
        sink.emit("hello");
        sink.emit("world");
        assert_eq!(sink.take_lines(), vec!["hello", "world"]);
        assert!(sink.take_lines().is_empty());
        TraceSink::Null.emit("dropped");
    }

    #[test]
    fn merge_is_cycle_ordered_and_stable() {
        let mut a = Tracer::new(CompId::Core(0));
        let mut b = Tracer::new(CompId::Core(1));
        a.set_filter(TraceFilter::all());
        b.set_filter(TraceFilter::all());
        a.record(5, ev(1));
        a.record(1, ev(2));
        b.record(5, ev(3));
        let merged = merge_records([&a, &b]);
        assert_eq!(merged.len(), 3);
        assert_eq!(merged[0].cycle, 1);
        // Same cycle: source order (a before b) is preserved.
        assert_eq!(merged[1].comp, CompId::Core(0));
        assert_eq!(merged[2].comp, CompId::Core(1));
    }

    #[test]
    fn chrome_trace_shape() {
        let mut t = Tracer::new(CompId::Cache(2));
        t.set_filter(TraceFilter::all());
        t.record(10, TraceEvent::LockdownBegin { line: 0x40 });
        t.record(25, TraceEvent::LockdownEnd { line: 0x40, held: 15 });
        let json = chrome_trace_json(&merge_records([&t]));
        assert!(json.starts_with('{') && json.ends_with('}'));
        assert!(json.contains(r#""traceEvents":["#));
        assert!(json.contains(r#""ph":"b""#) && json.contains(r#""ph":"e""#));
        assert!(json.contains(r#""ph":"M""#));
        assert!(json.contains("cache2"));
        // Balanced span ids.
        assert_eq!(json.matches(r#""id":"0x40""#).count(), 2);
    }

    #[test]
    fn chrome_trace_empty_is_wellformed() {
        assert_eq!(chrome_trace_json(&[]), r#"{"displayTimeUnit":"ns","traceEvents":[]}"#);
    }

    #[test]
    fn counter_tracks_render_as_counter_events() {
        let samples = [
            CounterSample { cycle: 100, track: "dir_writes_blocked", value: 3 },
            CounterSample { cycle: 200, track: "dir_writes_blocked", value: 0 },
        ];
        let json = chrome_trace_json_ext(&[], &samples);
        assert!(json.contains(r#""ph":"C""#), "{json}");
        assert!(json.contains(r#""name":"dir_writes_blocked""#));
        assert!(json.contains(r#""ts":100"#) && json.contains(r#""ts":200"#));
        assert!(json.contains(r#""name":"timeline""#), "pid 6 must be named");
        crate::json::parse(&json).expect("well-formed");
        // No counters → byte-identical to the plain exporter.
        assert_eq!(chrome_trace_json_ext(&[], &[]), chrome_trace_json(&[]));
    }
}
