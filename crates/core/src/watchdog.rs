//! Incremental run-loop watchdog state.
//!
//! After every executed cycle the run loop needs three facts: the
//! oldest last-progress cycle among cores that have not drained, whether
//! every core has drained, and the retry-activity history a wedge report
//! is baselined against. Recomputing the first two by scanning every
//! core costs O(cores) per cycle — at 256 cores more than a sparse tick.
//! [`Watchdog`] keeps them incrementally instead: the non-drained cores
//! sit in a move-to-back list ordered by last-progress cycle, so the
//! list head is the oldest progress and an empty list means everything
//! drained.
//!
//! The list is exact as long as every core whose retired count or
//! drained state may have changed is [`Watchdog::observe`]d. Only a
//! component the engine visited in a cycle can change, so the sparse
//! engine observes its visit set and every other engine (and any cycle
//! that touched the machine outside a tick, such as an audit scrub)
//! observes every core. Draining is monotonic within a run — a core
//! drains only after committing `Halt`, and nothing refills its store
//! buffer afterwards — so a drained core never rejoins the list.

use std::collections::VecDeque;
use wb_cpu::Core;
use wb_kernel::Cycle;

/// List terminator.
const NIL: u32 = u32::MAX;

/// Retry-activity snapshot cadence (power of two, cheap mask test).
const SNAP_EVERY: u64 = 8192;
/// Snapshots kept: the baseline search looks back one stall window.
const SNAPS_KEPT: usize = 64;

/// Per-run watchdog bookkeeping, owned by `System::run_watchdog`.
pub(crate) struct Watchdog {
    stall_window: u64,
    /// Per core: retired count at its last observation and the cycle
    /// that count last changed. Current for every linked core.
    progress: Vec<(u64, Cycle)>,
    /// Doubly linked list of non-drained cores, oldest progress first.
    prev: Vec<u32>,
    next: Vec<u32>,
    linked: Vec<bool>,
    head: u32,
    tail: u32,
    /// First post-tick check at which every core had drained.
    drained_since: Option<Cycle>,
    /// `(cycle, retry activity)` at each 8192-cycle boundary.
    snaps: VecDeque<(Cycle, u64)>,
    /// `EngineMode::SparseVerify` oracle: the per-core progress a full
    /// scan of every core computes, checked against the list each cycle.
    shadow: Option<Vec<(u64, Cycle)>>,
}

impl Watchdog {
    /// Start watching `cores` at cycle `now`, observing every core.
    pub(crate) fn new(cores: &[Core], now: Cycle, stall_window: u64, activity: u64, verify: bool) -> Self {
        let n = cores.len();
        let progress: Vec<(u64, Cycle)> = cores.iter().map(|c| (c.retired(), now)).collect();
        let mut snaps = VecDeque::with_capacity(SNAPS_KEPT + 1);
        snaps.push_back((now, activity));
        let mut wd = Watchdog {
            stall_window,
            shadow: verify.then(|| progress.clone()),
            progress,
            prev: vec![NIL; n],
            next: vec![NIL; n],
            linked: vec![false; n],
            head: NIL,
            tail: NIL,
            drained_since: None,
            snaps,
        };
        for (i, c) in cores.iter().enumerate() {
            if !c.drained() {
                wd.push_back(i);
            }
        }
        wd
    }

    fn push_back(&mut self, i: usize) {
        self.prev[i] = self.tail;
        self.next[i] = NIL;
        match self.tail {
            NIL => self.head = i as u32,
            t => self.next[t as usize] = i as u32,
        }
        self.tail = i as u32;
        self.linked[i] = true;
    }

    fn unlink(&mut self, i: usize) {
        let (p, n) = (self.prev[i], self.next[i]);
        match p {
            NIL => self.head = n,
            p => self.next[p as usize] = n,
        }
        match n {
            NIL => self.tail = p,
            n => self.prev[n as usize] = p,
        }
        self.linked[i] = false;
    }

    /// Fold core `i`'s post-tick state in at cycle `now`: a drained core
    /// leaves the list, a core that retired since its last observation
    /// moves to the back with progress `now`.
    pub(crate) fn observe(&mut self, i: usize, core: &Core, now: Cycle) {
        if core.drained() {
            if self.linked[i] {
                self.unlink(i);
            }
            return;
        }
        let r = core.retired();
        if !self.linked[i] || r != self.progress[i].0 {
            self.progress[i] = (r, now);
            if self.linked[i] {
                self.unlink(i);
            }
            self.push_back(i);
        }
    }

    /// Has every core drained (as of the last observation)?
    pub(crate) fn all_drained(&self) -> bool {
        self.head == NIL
    }

    /// Oldest last-progress cycle of a non-drained core.
    fn oldest(&self) -> Option<Cycle> {
        (self.head != NIL).then(|| self.progress[self.head as usize].1)
    }

    /// The cycle of the last tick a dense run executes before the
    /// watchdog trips, for capping a jump that starts at `now`. Dense
    /// mode trips when, after the tick at cycle `c`, `c + 1 - base >
    /// stall_window` — so its last tick is at `base + stall_window`.
    /// `base` is the oldest progress cycle of a non-drained core or,
    /// once every core has drained, the cycle the post-tick check first
    /// observed that (which, during an inert window, is one past now).
    pub(crate) fn cap(&mut self, now: Cycle) -> Cycle {
        let base = match self.oldest() {
            Some(p) => p,
            None => *self.drained_since.get_or_insert(now + 1),
        };
        base.saturating_add(self.stall_window)
    }

    /// Post-tick check at cycle `now` (after observing): does the worst
    /// per-core stall — or, once every core has drained, the time the
    /// memory system has failed to go idle — exceed the stall window?
    pub(crate) fn tripped(&mut self, now: Cycle) -> bool {
        let mut worst = self.oldest().map_or(0, |p| now - p);
        if self.all_drained() {
            // Cores finished but the machine is not done: the memory
            // system (MSHRs, directory, mesh) is wedged. No core will
            // retire again, so measure from the moment everything
            // drained.
            let since = *self.drained_since.get_or_insert(now);
            worst = worst.max(now - since);
        } else {
            self.drained_since = None;
        }
        worst > self.stall_window
    }

    /// Cores that have gone at least half the stall window without
    /// retiring, worst first: `(core, stalled-for cycles)`. `cores`
    /// filters out a core that drained in a cycle not yet observed.
    pub(crate) fn stalled(&self, cores: &[Core], now: Cycle) -> Vec<(u16, u64)> {
        let mut v = Vec::new();
        let mut i = self.head;
        while i != NIL {
            let stalled_for = now - self.progress[i as usize].1;
            if stalled_for < self.stall_window / 2 {
                // Ordered by progress: everyone behind is younger.
                break;
            }
            if !cores[i as usize].drained() {
                v.push((i as u16, stalled_for));
            }
            i = self.next[i as usize];
        }
        v.sort_by_key(|&(c, s)| (std::cmp::Reverse(s), c));
        v
    }

    /// Record the snapshot dense ticking takes at cycle `now` when it is
    /// an 8192-cycle boundary. `activity` is evaluated only then.
    pub(crate) fn sample(&mut self, now: Cycle, activity: impl FnOnce() -> u64) {
        if now & (SNAP_EVERY - 1) == 0 {
            self.push_snap(now, activity());
        }
    }

    /// Synthesize the snapshots dense ticking would have taken at the
    /// boundaries in `(start, target]` while the machine sat inert —
    /// retry activity is constant then, so it is read once, and only
    /// when a boundary falls inside the window.
    pub(crate) fn sample_window(&mut self, start: Cycle, target: Cycle, activity: impl FnOnce() -> u64) {
        let mut b = (start / SNAP_EVERY + 1) * SNAP_EVERY;
        if b > target {
            return;
        }
        let a = activity();
        while b <= target {
            self.push_snap(b, a);
            b += SNAP_EVERY;
        }
    }

    fn push_snap(&mut self, at: Cycle, activity: u64) {
        self.snaps.push_back((at, activity));
        while self.snaps.len() > SNAPS_KEPT {
            self.snaps.pop_front();
        }
    }

    /// Retry activity accumulated over the last stall window, measured
    /// from the newest snapshot at least a full window old (falling back
    /// to the oldest kept).
    pub(crate) fn retries(&self, now: Cycle, activity_now: u64) -> u64 {
        let base = self
            .snaps
            .iter()
            .rev()
            .find(|(t, _)| now.saturating_sub(*t) >= self.stall_window)
            .or_else(|| self.snaps.front())
            .map_or(0, |&(_, a)| a);
        activity_now.saturating_sub(base)
    }

    /// `EngineMode::SparseVerify`: recompute progress for every core the
    /// way a full per-cycle scan does and assert the incrementally
    /// maintained list agrees — membership, per-core progress, head.
    /// No-op when the oracle is off.
    pub(crate) fn verify(&mut self, cores: &[Core], now: Cycle) {
        let Some(mut shadow) = self.shadow.take() else {
            return;
        };
        let mut oldest: Option<Cycle> = None;
        for (i, c) in cores.iter().enumerate() {
            let r = c.retired();
            if c.drained() || r != shadow[i].0 {
                shadow[i] = (r, now);
            }
            if c.drained() {
                assert!(!self.linked[i], "SparseVerify: drained core {i} still watched at cycle {now}");
                continue;
            }
            assert!(self.linked[i], "SparseVerify: live core {i} missing from the watchdog at cycle {now}");
            assert_eq!(
                self.progress[i], shadow[i],
                "SparseVerify: core {i}'s watchdog progress diverged at cycle {now}"
            );
            oldest = Some(oldest.map_or(shadow[i].1, |o: Cycle| o.min(shadow[i].1)));
        }
        assert_eq!(self.oldest(), oldest, "SparseVerify: watchdog head diverged at cycle {now}");
        self.shadow = Some(shadow);
    }
}
