//! Property tests on the protocol's data structures.

use wb_kernel::check::prelude::*;
use wb_kernel::{Snap, SnapReader, SnapWriter};
use wb_mem::LineAddr;
use wb_protocol::array::{Insert, SetAssocArray};
use wb_protocol::mshr::{MshrFile, MshrKind};

#[derive(Debug, Clone)]
enum ArrayOp {
    Insert(u64),
    Remove(u64),
    Touch(u64),
}

fn array_op() -> Gen<ArrayOp> {
    prop_oneof![
        (0u64..40).prop_map(ArrayOp::Insert),
        (0u64..40).prop_map(ArrayOp::Remove),
        (0u64..40).prop_map(ArrayOp::Touch),
    ]
}

/// The eager slot-plane array the lazily backed [`SetAssocArray`]
/// replaced, kept as its executable specification: every slot holds a
/// tag (all ones when free), an LRU stamp and an optional payload, all
/// written at construction.
struct EagerArray<T> {
    tags: Vec<u64>,
    stamps: Vec<u64>,
    slots: Vec<Option<T>>,
    num_sets: usize,
    ways: usize,
    len: usize,
}

const EAGER_FREE: u64 = u64::MAX;

impl<T: Clone> EagerArray<T> {
    fn new(num_sets: usize, ways: usize) -> Self {
        let n = num_sets * ways;
        EagerArray { tags: vec![EAGER_FREE; n], stamps: vec![0; n], slots: vec![None; n], num_sets, ways, len: 0 }
    }

    fn find(&self, line: LineAddr) -> Option<usize> {
        let base = (line.0 % self.num_sets as u64) as usize * self.ways;
        (base..base + self.ways).find(|&i| self.tags[i] == line.0)
    }

    fn get(&self, line: LineAddr) -> Option<&T> {
        self.find(line).and_then(|i| self.slots[i].as_ref())
    }

    fn touch(&mut self, line: LineAddr, now: u64) {
        if let Some(i) = self.find(line) {
            self.stamps[i] = now;
        }
    }

    fn insert(&mut self, line: LineAddr, payload: T, now: u64, evictable: impl Fn(LineAddr, &T) -> bool) -> Insert<T> {
        let base = (line.0 % self.num_sets as u64) as usize * self.ways;
        let mut victim: Option<usize> = None;
        for i in base..base + self.ways {
            if self.tags[i] == EAGER_FREE {
                self.tags[i] = line.0;
                self.stamps[i] = now;
                self.slots[i] = Some(payload);
                self.len += 1;
                return Insert::Done;
            }
            let older = victim.is_none_or(|v| self.stamps[i] < self.stamps[v]);
            if older && self.slots[i].as_ref().is_some_and(|p| evictable(LineAddr(self.tags[i]), p)) {
                victim = Some(i);
            }
        }
        match victim {
            Some(i) => {
                let old_line = LineAddr(self.tags[i]);
                self.tags[i] = line.0;
                self.stamps[i] = now;
                match self.slots[i].replace(payload) {
                    Some(old) => Insert::Evicted(old_line, old),
                    None => Insert::Done,
                }
            }
            None => Insert::NoVictim,
        }
    }

    fn remove(&mut self, line: LineAddr) -> Option<T> {
        let i = self.find(line)?;
        self.tags[i] = EAGER_FREE;
        let old = self.slots[i].take();
        if old.is_some() {
            self.len -= 1;
        }
        old
    }

    fn iter(&self) -> impl Iterator<Item = (LineAddr, &T)> {
        self.tags
            .iter()
            .zip(&self.slots)
            .filter_map(|(&t, p)| p.as_ref().filter(|_| t != EAGER_FREE).map(|p| (LineAddr(t), p)))
    }
}

impl<T: Snap> EagerArray<T> {
    fn snap_bytes(&self) -> Vec<u8> {
        let mut w = SnapWriter::new();
        self.tags.snap(&mut w);
        self.stamps.snap(&mut w);
        self.slots.snap(&mut w);
        w.usize(self.num_sets);
        w.usize(self.ways);
        w.usize(self.len);
        w.into_bytes()
    }
}

fn snap_bytes<T: Snap>(a: &SetAssocArray<T>) -> Vec<u8> {
    let mut w = SnapWriter::new();
    a.snap(&mut w);
    w.into_bytes()
}

#[derive(Debug, Clone)]
enum ModelOp {
    /// Insert a line under one of four evictability filters.
    Insert(u64, u8),
    Remove(u64),
    Touch(u64),
    Get(u64),
}

fn model_op() -> Gen<ModelOp> {
    prop_oneof![
        (0u64..24, 0u8..4).prop_map(|(l, f)| ModelOp::Insert(l, f)),
        (0u64..24).prop_map(ModelOp::Remove),
        (0u64..24).prop_map(ModelOp::Touch),
        (0u64..24).prop_map(ModelOp::Get),
    ]
}

/// The evictability filters callers use, in miniature: everything,
/// nothing, a line predicate and a payload predicate.
fn filter(kind: u8) -> impl Fn(LineAddr, &u64) -> bool {
    move |l, p| match kind {
        0 => true,
        1 => false,
        2 => l.0 % 2 == 0,
        _ => p % 3 != 0,
    }
}

wb_proptest! {
    /// The array mirrors a reference model (a set-limited map): presence
    /// agrees after every operation, and occupancy never exceeds
    /// sets x ways.
    #[test]
    fn set_assoc_array_matches_reference(ops in vec_of(array_op(), 1..200)) {
        let (sets, ways) = (4usize, 2usize);
        let mut a: SetAssocArray<u64> = SetAssocArray::new(sets, ways);
        let mut reference: Vec<(u64, u64)> = Vec::new(); // (line, payload)
        let mut now = 0u64;
        for op in ops {
            now += 1;
            match op {
                ArrayOp::Insert(l) => {
                    if reference.iter().any(|(rl, _)| *rl == l) {
                        continue; // duplicate inserts are a caller error
                    }
                    match a.insert(LineAddr(l), l * 10, now, |_, _| true) {
                        Insert::Done => reference.push((l, l * 10)),
                        Insert::Evicted(victim, _) => {
                            reference.retain(|(rl, _)| *rl != victim.0);
                            reference.push((l, l * 10));
                        }
                        Insert::NoVictim => unreachable!("all ways evictable"),
                    }
                }
                ArrayOp::Remove(l) => {
                    let got = a.remove(LineAddr(l));
                    let had = reference.iter().any(|(rl, _)| *rl == l);
                    prop_assert_eq!(got.is_some(), had);
                    reference.retain(|(rl, _)| *rl != l);
                }
                ArrayOp::Touch(l) => a.touch(LineAddr(l), now),
            }
            prop_assert!(a.len() <= sets * ways);
            prop_assert_eq!(a.len(), reference.len());
            for (l, v) in &reference {
                prop_assert_eq!(a.get(LineAddr(*l)), Some(v));
            }
        }
    }

    /// The lazily backed array is observationally identical to the
    /// eager one it replaced: same `Insert` results (victim line and
    /// payload), `get`, `iter()` order, `len` and snapshot bytes after
    /// every operation, and a snapshot restores to the same bytes.
    /// Stamps advance by 0 or 1 per operation so LRU ties occur.
    #[test]
    fn lazy_array_matches_eager_model(
        sets in 1usize..4,
        ways in 1usize..5,
        ops in vec_of((model_op(), 0u64..2), 1..120),
    ) {
        let mut lazy: SetAssocArray<u64> = SetAssocArray::new(sets, ways);
        let mut eager: EagerArray<u64> = EagerArray::new(sets, ways);
        let mut now = 0u64;
        let mut payload = 0u64;
        for (op, dt) in ops {
            now += dt;
            match op {
                ModelOp::Insert(l, f) => {
                    if eager.find(LineAddr(l)).is_some() {
                        continue; // duplicate inserts are a caller error
                    }
                    payload += 1;
                    let got = lazy.insert(LineAddr(l), payload, now, filter(f));
                    let want = eager.insert(LineAddr(l), payload, now, filter(f));
                    prop_assert_eq!(got, want);
                }
                ModelOp::Remove(l) => prop_assert_eq!(lazy.remove(LineAddr(l)), eager.remove(LineAddr(l))),
                ModelOp::Touch(l) => {
                    lazy.touch(LineAddr(l), now);
                    eager.touch(LineAddr(l), now);
                }
                ModelOp::Get(l) => prop_assert_eq!(lazy.get(LineAddr(l)), eager.get(LineAddr(l))),
            }
            prop_assert_eq!(lazy.len(), eager.len);
            let order: Vec<(LineAddr, u64)> = lazy.iter().map(|(l, &p)| (l, p)).collect();
            let want: Vec<(LineAddr, u64)> = eager.iter().map(|(l, &p)| (l, p)).collect();
            prop_assert_eq!(order, want);
            prop_assert_eq!(snap_bytes(&lazy), eager.snap_bytes());
        }
        let bytes = snap_bytes(&lazy);
        let mut r = SnapReader::new(&bytes);
        let restored: SetAssocArray<u64> = SetAssocArray::unsnap(&mut r).expect("own snapshot restores");
        prop_assert_eq!(snap_bytes(&restored), bytes);
        let mut values: Vec<u64> = restored.values().copied().collect();
        values.sort_unstable();
        let mut want: Vec<u64> = eager.iter().map(|(_, &p)| p).collect();
        want.sort_unstable();
        prop_assert_eq!(values, want);
    }

    /// LRU: after touching a line, inserting a conflicting line never
    /// evicts the just-touched one while an older way exists.
    #[test]
    fn touched_line_survives_conflict(fresh in 0u64..8) {
        let mut a: SetAssocArray<u64> = SetAssocArray::new(1, 4);
        for l in 0..4u64 {
            a.insert(LineAddr(l), l, l, |_, _| true);
        }
        let keep = fresh % 4;
        a.touch(LineAddr(keep), 100);
        match a.insert(LineAddr(99), 99, 101, |_, _| true) {
            Insert::Evicted(victim, _) => prop_assert_ne!(victim.0, keep),
            other => prop_assert!(false, "expected eviction, got {:?}", other),
        }
    }

    /// MSHR invariants: occupancy bounded by capacity; non-SoS traffic
    /// always leaves one register free; free() returns exactly the
    /// allocated entries.
    #[test]
    fn mshr_reservation_invariant(
        allocs in vec_of((0u64..12, any::<bool>()), 1..40)
    ) {
        let cap = 4usize;
        let mut f = MshrFile::new(cap);
        let mut live: Vec<u64> = Vec::new();
        let mut normal_live = 0usize;
        for (line, sos) in allocs {
            if live.contains(&line) {
                continue;
            }
            match f.alloc(LineAddr(line), MshrKind::Read, sos, 0) {
                Some(_) => {
                    live.push(line);
                    if !sos {
                        normal_live += 1;
                    }
                }
                None => {
                    if sos {
                        prop_assert_eq!(live.len(), cap, "SoS refused before the file was full");
                    } else {
                        prop_assert!(live.len() >= cap - 1, "normal alloc refused too early");
                    }
                }
            }
            prop_assert!(f.in_use() <= cap);
            prop_assert!(normal_live < cap || normal_live <= f.in_use());
        }
        for line in live {
            prop_assert!(f.free(LineAddr(line), MshrKind::Read).is_some());
        }
        prop_assert!(f.is_empty());
    }
}
