//! Generic set-associative cache array with LRU replacement.
//!
//! Used for the L1 presence array, the private L2 coherence array and the
//! LLC/directory banks. Payload type is generic; replacement victims can
//! be filtered by the caller (e.g. lines pinned by pending loads or
//! transient coherence states are not evictable).
//!
//! # Layout
//!
//! Storage is struct-of-arrays over flat slot planes (slot = `set *
//! ways + way`): a tag plane, an LRU-stamp plane and a slot-to-payload
//! index plane. Tag scans — the operation every cache access performs —
//! walk `ways` adjacent `u64`s (one cache line for typical
//! associativities) without dragging payload bytes through the scan.
//!
//! # Lazy backing
//!
//! Every plane is zero-initialised: a free way has tag 0 (tags store
//! `line + 1`), stamp 0 and index 0. `vec![0; n]` comes from a zeroed
//! allocation, so pages of a plane the run never touches are never
//! faulted in. Payloads live in a dense arena holding resident entries
//! only. At 256 tiles the LLC/directory banks hold 4M slots of which a
//! barrier kernel touches a handful; an eager payload plane (or a
//! non-zero free sentinel) would write all of them at construction.

use wb_mem::LineAddr;

/// Tag-plane key of `line`; 0 is reserved for a free way.
#[inline]
fn key(line: LineAddr) -> u64 {
    line.0 + 1
}

/// Free-way encoding of the positional snapshot (the tag plane's
/// serialized form predates the lazy layout and is kept byte-stable).
const SNAP_FREE: u64 = u64::MAX;

/// Result of an [`SetAssocArray::insert`].
#[derive(Debug, PartialEq, Eq)]
pub enum Insert<T> {
    /// Inserted into a free way.
    Done,
    /// Inserted after evicting the returned victim.
    Evicted(LineAddr, T),
    /// The set is full and no way was evictable; nothing was inserted.
    NoVictim,
}

/// A set-associative array with per-set LRU.
///
/// # Example
///
/// ```
/// use wb_protocol::array::{Insert, SetAssocArray};
/// use wb_mem::LineAddr;
///
/// let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 1); // 2 sets, direct-mapped
/// assert!(matches!(a.insert(LineAddr(0), 10, 0, |_, _| true), Insert::Done));
/// assert!(matches!(a.insert(LineAddr(2), 20, 1, |_, _| true), Insert::Evicted(..)));
/// ```
#[derive(Debug, Clone)]
pub struct SetAssocArray<T> {
    /// `line + 1` per slot; 0 marks an empty way.
    tags: Vec<u64>,
    /// LRU stamp per slot, parallel to `tags`.
    stamps: Vec<u64>,
    /// Arena index per slot; meaningful only where the tag is non-zero.
    index: Vec<u32>,
    /// Resident payloads, dense and unordered.
    arena: Vec<T>,
    /// Slot of each arena entry (the back pointer `remove` needs to
    /// re-point the entry its swap-remove moves).
    owner: Vec<u32>,
    num_sets: usize,
    ways: usize,
}

impl<T> SetAssocArray<T> {
    /// Create an array with `num_sets` sets of `ways` ways.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero or the geometry needs more
    /// than `u32::MAX` slots.
    pub fn new(num_sets: usize, ways: usize) -> Self {
        assert!(num_sets > 0 && ways > 0, "degenerate cache geometry");
        let n = num_sets * ways;
        assert!(u32::try_from(n).is_ok(), "cache geometry {num_sets}x{ways} exceeds u32 slots");
        SetAssocArray {
            tags: vec![0; n],
            stamps: vec![0; n],
            index: vec![0; n],
            arena: Vec::new(),
            owner: Vec::new(),
            num_sets,
            ways,
        }
    }

    /// Geometry helper: sets needed for `capacity_bytes` at `ways`
    /// associativity and `line_bytes` lines.
    pub fn geometry(capacity_bytes: usize, ways: usize, line_bytes: usize) -> usize {
        let lines = capacity_bytes / line_bytes;
        (lines / ways).max(1)
    }

    #[inline]
    fn base_of(&self, line: LineAddr) -> usize {
        ((line.0 % self.num_sets as u64) as usize) * self.ways
    }

    /// Slot index holding `line`, if resident.
    #[inline]
    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = self.base_of(line);
        let k = key(line);
        self.tags[base..base + self.ways].iter().position(|&t| t == k).map(|w| base + w)
    }

    /// Does the array currently hold `line`?
    pub fn contains(&self, line: LineAddr) -> bool {
        self.find(line).is_some()
    }

    /// Borrow the payload for `line`.
    pub fn get(&self, line: LineAddr) -> Option<&T> {
        self.find(line).map(|i| &self.arena[self.index[i] as usize])
    }

    /// Mutably borrow the payload for `line`.
    pub fn get_mut(&mut self, line: LineAddr) -> Option<&mut T> {
        self.find(line).map(|i| &mut self.arena[self.index[i] as usize])
    }

    /// Mark `line` as most-recently used at time `now`.
    pub fn touch(&mut self, line: LineAddr, now: u64) {
        if let Some(i) = self.find(line) {
            self.stamps[i] = now;
        }
    }

    /// Insert `line`. If the set is full, the least-recently-used way for
    /// which `evictable` returns true is evicted and returned.
    ///
    /// # Panics
    ///
    /// Panics (debug) if `line` is already present — callers must use
    /// [`SetAssocArray::get_mut`] to update an existing entry.
    pub fn insert(
        &mut self,
        line: LineAddr,
        payload: T,
        now: u64,
        evictable: impl Fn(LineAddr, &T) -> bool,
    ) -> Insert<T> {
        debug_assert!(!self.contains(line), "inserting duplicate line {line}");
        let base = self.base_of(line);
        // Free way first; otherwise the LRU evictable way (tag scan
        // only — payloads are read just for the evictability filter).
        let mut victim: Option<usize> = None;
        for i in base..base + self.ways {
            let t = self.tags[i];
            if t == 0 {
                self.tags[i] = key(line);
                self.stamps[i] = now;
                self.index[i] = self.arena.len() as u32;
                self.arena.push(payload);
                self.owner.push(i as u32);
                return Insert::Done;
            }
            let older = victim.is_none_or(|v| self.stamps[i] < self.stamps[v]);
            if older && evictable(LineAddr(t - 1), &self.arena[self.index[i] as usize]) {
                victim = Some(i);
            }
        }
        match victim {
            Some(i) => {
                let old_line = LineAddr(self.tags[i] - 1);
                self.tags[i] = key(line);
                self.stamps[i] = now;
                let old = std::mem::replace(&mut self.arena[self.index[i] as usize], payload);
                Insert::Evicted(old_line, old)
            }
            None => Insert::NoVictim,
        }
    }

    /// Remove `line`, returning its payload.
    pub fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        self.tags[i] = 0;
        let a = self.index[i] as usize;
        let old = self.arena.swap_remove(a);
        self.owner.swap_remove(a);
        if let Some(&moved) = self.owner.get(a) {
            self.index[moved as usize] = a as u32;
        }
        Some(old)
    }

    /// Iterate over `(line, payload)` for every resident entry, in slot
    /// order. Walks the whole tag plane; use [`SetAssocArray::values`]
    /// where order does not matter.
    pub fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.tags
            .iter()
            .zip(&self.index)
            .filter(|(&t, _)| t != 0)
            .map(|(&t, &a)| (LineAddr(t - 1), &self.arena[a as usize]))
    }

    /// Every resident payload, in no particular order; O(resident).
    pub fn values(&self) -> impl Iterator<Item = &T> {
        self.arena.iter()
    }

    /// Number of resident lines.
    pub fn len(&self) -> usize {
        self.arena.len()
    }

    /// True when nothing is resident.
    pub fn is_empty(&self) -> bool {
        self.arena.is_empty()
    }
}

impl<T: wb_kernel::Snap> wb_kernel::Snap for SetAssocArray<T> {
    /// Serialized positionally as three planes — tags (free = all ones),
    /// LRU stamps, and one optional payload per slot — then the
    /// geometry and occupancy. LRU stamps decide future victims and the
    /// way an entry occupies decides scan order, so slot layout is
    /// execution-visible state; the arena order is not, and is rebuilt
    /// in slot order on restore.
    fn snap(&self, w: &mut wb_kernel::SnapWriter) {
        let n = self.tags.len();
        w.usize(n);
        for &t in &self.tags {
            w.u64(if t == 0 { SNAP_FREE } else { t - 1 });
        }
        self.stamps.snap(w);
        w.usize(n);
        for (&t, &a) in self.tags.iter().zip(&self.index) {
            if t == 0 {
                w.u8(0);
            } else {
                w.u8(1);
                self.arena[a as usize].snap(w);
            }
        }
        w.usize(self.num_sets);
        w.usize(self.ways);
        w.usize(self.arena.len());
    }

    fn unsnap(r: &mut wb_kernel::SnapReader) -> wb_kernel::SnapResult<Self> {
        let snap_tags: Vec<u64> = Vec::unsnap(r)?;
        let stamps: Vec<u64> = Vec::unsnap(r)?;
        let slots: Vec<Option<T>> = Vec::unsnap(r)?;
        let (num_sets, ways, len) = (r.usize()?, r.usize()?, r.usize()?);
        let n = num_sets.checked_mul(ways).unwrap_or(0);
        if snap_tags.len() != n || stamps.len() != n || slots.len() != n || u32::try_from(n).is_err() {
            return Err(wb_kernel::SnapError::new(format!(
                "cache array planes disagree with geometry {num_sets}x{ways}"
            )));
        }
        let mut a = SetAssocArray {
            tags: vec![0; n],
            stamps,
            index: vec![0; n],
            arena: Vec::with_capacity(len.min(n)),
            owner: Vec::with_capacity(len.min(n)),
            num_sets,
            ways,
        };
        for (i, (t, p)) in snap_tags.into_iter().zip(slots).enumerate() {
            match (t == SNAP_FREE, p) {
                (true, None) => {}
                (false, Some(p)) => {
                    a.tags[i] = t + 1;
                    a.index[i] = a.arena.len() as u32;
                    a.arena.push(p);
                    a.owner.push(i as u32);
                }
                _ => {
                    return Err(wb_kernel::SnapError::new(format!(
                        "cache array slot {i}: tag and payload planes disagree"
                    )))
                }
            }
        }
        if a.arena.len() != len {
            return Err(wb_kernel::SnapError::new(format!(
                "cache array holds {} lines, header says {len}",
                a.arena.len()
            )));
        }
        Ok(a)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn geometry_math() {
        // 32 KiB, 8-way, 64 B lines -> 64 sets.
        assert_eq!(SetAssocArray::<()>::geometry(32 * 1024, 8, 64), 64);
        assert_eq!(SetAssocArray::<()>::geometry(64, 8, 64), 1);
    }

    #[test]
    fn insert_get_remove() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(4, 2);
        assert!(matches!(a.insert(LineAddr(1), 11, 0, |_, _| true), Insert::Done));
        assert_eq!(a.get(LineAddr(1)), Some(&11));
        *a.get_mut(LineAddr(1)).unwrap() = 12;
        assert_eq!(a.remove(LineAddr(1)), Some(12));
        assert!(!a.contains(LineAddr(1)));
        assert!(a.is_empty());
    }

    #[test]
    fn lru_eviction_order() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(1, 2);
        a.insert(LineAddr(0), 0, 0, |_, _| true);
        a.insert(LineAddr(1), 1, 1, |_, _| true);
        a.touch(LineAddr(0), 2); // 1 is now LRU
        match a.insert(LineAddr(2), 2, 3, |_, _| true) {
            Insert::Evicted(l, v) => {
                assert_eq!(l, LineAddr(1));
                assert_eq!(v, 1);
            }
            other => panic!("unexpected {other:?}"), // allow(panic): test-only assertion
        }
    }

    #[test]
    fn pinned_ways_not_evicted() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(1, 2);
        a.insert(LineAddr(0), 0, 0, |_, _| true);
        a.insert(LineAddr(1), 1, 1, |_, _| true);
        // Only line 1 is evictable.
        match a.insert(LineAddr(2), 2, 2, |l, _| l == LineAddr(1)) {
            Insert::Evicted(l, _) => assert_eq!(l, LineAddr(1)),
            other => panic!("unexpected {other:?}"), // allow(panic): test-only assertion
        }
        // Now nothing is evictable.
        assert!(matches!(a.insert(LineAddr(3), 3, 3, |_, _| false), Insert::NoVictim));
        assert!(!a.contains(LineAddr(3)));
    }

    #[test]
    fn sets_are_independent() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 1);
        a.insert(LineAddr(0), 0, 0, |_, _| true); // set 0
        a.insert(LineAddr(1), 1, 0, |_, _| true); // set 1
        assert_eq!(a.len(), 2);
        assert!(a.contains(LineAddr(0)) && a.contains(LineAddr(1)));
    }

    #[test]
    fn iter_sees_everything() {
        let mut a: SetAssocArray<u32> = SetAssocArray::new(4, 4);
        for i in 0..10u64 {
            a.insert(LineAddr(i), i as u32, i, |_, _| true);
        }
        let mut lines: Vec<u64> = a.iter().map(|(l, _)| l.0).collect();
        lines.sort_unstable();
        assert_eq!(lines, (0..10).collect::<Vec<_>>());
    }

    #[test]
    fn reuse_after_remove_keeps_len_consistent() {
        // Slot arenas must recycle freed ways without leaking `len`.
        let mut a: SetAssocArray<u32> = SetAssocArray::new(2, 2);
        for round in 0..5u64 {
            for i in 0..4u64 {
                a.insert(LineAddr(i), (round * 4 + i) as u32, round, |_, _| true);
            }
            assert_eq!(a.len(), 4);
            for i in 0..4u64 {
                assert_eq!(a.remove(LineAddr(i)), Some((round * 4 + i) as u32));
            }
            assert_eq!(a.len(), 0);
        }
    }

    #[test]
    #[should_panic(expected = "degenerate")]
    fn zero_geometry_panics() {
        let _: SetAssocArray<()> = SetAssocArray::new(0, 1);
    }
}
