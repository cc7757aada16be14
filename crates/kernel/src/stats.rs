//! A string-keyed statistics registry.
//!
//! Every counter the paper's figures need (blocked writes, uncacheable
//! reads, stall cycles by reason, flits by class, squashes, ...) is
//! accumulated in a [`Stats`] owned by each component and merged into a
//! run-level report at the end of simulation.
//!
//! Counters live in a flat `Vec<u64>` of slots with a name→slot index
//! on the side: name-based [`Stats::inc`]/[`Stats::add`] pay one map
//! probe, while hot paths pre-resolve a [`CounterHandle`] once (at
//! component construction) and bump the slot directly with
//! [`Stats::inc_h`]/[`Stats::add_h`] — no probe per event.

use crate::hist::Hist;
use std::collections::BTreeMap;

/// A pre-resolved counter slot: index into a specific [`Stats`]'
/// counter vector. Obtain one with [`Stats::handle`] and bump it with
/// [`Stats::inc_h`]/[`Stats::add_h`]. Handles are only meaningful for
/// the `Stats` that issued them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CounterHandle(usize);

/// Accumulating counters, keyed by a static name.
///
/// Besides flat counters, a `Stats` can carry [`Hist`] latency
/// histograms under their own (disjoint) key namespace — recorded with
/// [`Stats::record`], merged alongside the counters, and serialised
/// into the same JSON object as nested `{count,sum,min,max,p50,...}`
/// objects.
///
/// # Example
///
/// ```
/// use wb_kernel::Stats;
/// let mut s = Stats::new();
/// s.add("loads", 3);
/// s.inc("loads");
/// assert_eq!(s.get("loads"), 4);
/// assert_eq!(s.get("absent"), 0);
/// s.record("miss_cycles", 120);
/// assert_eq!(s.hist("miss_cycles").unwrap().count(), 1);
/// ```
#[derive(Debug, Clone, Default)]
pub struct Stats {
    slots: Vec<u64>,
    index: BTreeMap<&'static str, usize>,
    hists: BTreeMap<&'static str, Hist>,
}

impl Stats {
    /// An empty registry.
    pub fn new() -> Self {
        Stats::default()
    }

    /// Resolve `key` to a reusable slot handle, materialising the
    /// counter at zero if absent. Resolve once, bump many times.
    pub fn handle(&mut self, key: &'static str) -> CounterHandle {
        if let Some(&i) = self.index.get(key) {
            return CounterHandle(i);
        }
        let i = self.slots.len();
        self.slots.push(0);
        self.index.insert(key, i);
        CounterHandle(i)
    }

    /// Add `n` to the counter behind a pre-resolved handle.
    #[inline]
    pub fn add_h(&mut self, h: CounterHandle, n: u64) {
        self.slots[h.0] += n;
    }

    /// Increment the counter behind a pre-resolved handle by one.
    #[inline]
    pub fn inc_h(&mut self, h: CounterHandle) {
        self.slots[h.0] += 1;
    }

    /// Add `n` to counter `key`, creating it at zero if absent.
    #[inline]
    pub fn add(&mut self, key: &'static str, n: u64) {
        let h = self.handle(key);
        self.slots[h.0] += n;
    }

    /// Increment counter `key` by one.
    #[inline]
    pub fn inc(&mut self, key: &'static str) {
        self.add(key, 1);
    }

    /// Current value of `key` (0 if never touched).
    pub fn get(&self, key: &str) -> u64 {
        self.index.get(key).map(|&i| self.slots[i]).unwrap_or(0)
    }

    /// Overwrite `key` with an absolute value (for gauges like "cycles").
    pub fn set(&mut self, key: &'static str, v: u64) {
        let h = self.handle(key);
        self.slots[h.0] = v;
    }

    /// Record a sample into histogram `key`, creating it if absent.
    #[inline]
    pub fn record(&mut self, key: &'static str, v: u64) {
        self.hists.entry(key).or_default().record(v);
    }

    /// The histogram under `key`, if any sample was ever recorded.
    pub fn hist(&self, key: &str) -> Option<&Hist> {
        self.hists.get(key)
    }

    /// Fold a whole histogram into `key`, creating it if absent. Lets a
    /// report re-key a component-local histogram (e.g. publish one
    /// directory bank's `dir_bank_occupancy` as `dir_bank7_occupancy`)
    /// without replaying its samples.
    pub fn merge_hist(&mut self, key: &'static str, h: &Hist) {
        self.hists.entry(key).or_default().merge(h);
    }

    /// Iterate over `(name, histogram)` pairs in name order.
    pub fn hists(&self) -> impl Iterator<Item = (&str, &Hist)> {
        self.hists.iter().map(|(k, v)| (*k, v))
    }

    /// Merge another registry into this one (summing matching counters,
    /// folding matching histograms).
    pub fn merge(&mut self, other: &Stats) {
        for (k, &i) in &other.index {
            self.add(k, other.slots[i]);
        }
        for (k, h) in &other.hists {
            self.hists.entry(k).or_default().merge(h);
        }
    }

    /// Iterate over `(name, value)` pairs in name order.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.index.iter().map(|(k, &i)| (*k, self.slots[i]))
    }

    /// The change since `prev` was snapshotted: counters subtract
    /// (saturating — gauges that moved backwards clamp to 0 rather
    /// than wrapping), histograms take [`Hist::delta_since`]. Keys
    /// whose delta is zero are omitted entirely, so a quiet window
    /// serialises small. This is what the timeline sampler records
    /// every `sample_every` cycles.
    pub fn delta_since(&self, prev: &Stats) -> Stats {
        let mut d = Stats::new();
        for (k, &i) in &self.index {
            let n = self.slots[i].saturating_sub(prev.get(k));
            if n > 0 {
                d.add(k, n);
            }
        }
        for (k, h) in &self.hists {
            let dh = match prev.hist(k) {
                Some(p) => h.delta_since(p),
                None => h.clone(),
            };
            if !dh.is_empty() {
                d.merge_hist(k, &dh);
            }
        }
        d
    }

    /// Ratio of two counters, `None` when the denominator is zero.
    pub fn ratio(&self, num: &str, den: &str) -> Option<f64> {
        let d = self.get(den);
        if d == 0 {
            None
        } else {
            Some(self.get(num) as f64 / d as f64)
        }
    }

    /// `num / den * 1000` — the "per kilo-X" rates the paper plots in
    /// Figure 8; `None` when the denominator is zero.
    pub fn per_kilo(&self, num: &str, den: &str) -> Option<f64> {
        self.ratio(num, den).map(|r| r * 1000.0)
    }

    /// Number of distinct counters.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// True when no counter has been touched.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }

    /// Render counters and histograms as one JSON object, keys in name
    /// order. Counters serialise as plain integers, histograms as
    /// nested objects (see [`Hist::to_json`]); with no histograms the
    /// output is byte-identical to the counters-only format.
    ///
    /// Counter names are `&'static str` identifiers (no quotes or control
    /// characters), so plain escaping-free emission is sufficient; this
    /// is what `BENCH_*.json` files embed per run.
    ///
    /// # Example
    ///
    /// ```
    /// use wb_kernel::Stats;
    /// let s: Stats = [("loads", 3u64), ("stores", 1)].into_iter().collect();
    /// assert_eq!(s.to_json(), r#"{"loads":3,"stores":1}"#);
    /// ```
    pub fn to_json(&self) -> String {
        let mut fields: Vec<(&str, String)> = self
            .iter()
            .map(|(k, v)| (k, v.to_string()))
            .chain(self.hists.iter().map(|(k, h)| (*k, h.to_json())))
            .collect();
        fields.sort_by_key(|(k, _)| *k);
        let mut out = String::from("{");
        for (i, (k, v)) in fields.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push('"');
            out.push_str(k);
            out.push_str("\":");
            out.push_str(v);
        }
        out.push('}');
        out
    }
}

/// Intern a counter name recovered from a snapshot into a `&'static
/// str`. Counter names form a small, bounded universe (every name is a
/// string literal somewhere in this workspace), so leaking each
/// distinct spelling once is bounded too; the table makes re-interning
/// the same name across many restores free of further leaks.
fn intern(name: &str) -> &'static str {
    use std::sync::Mutex;
    static TABLE: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let mut table = TABLE.lock().expect("interner poisoned");
    if let Some(&s) = table.iter().find(|&&s| s == name) {
        return s;
    }
    let s: &'static str = Box::leak(name.to_owned().into_boxed_str());
    table.push(s);
    s
}

impl Stats {
    /// Overwrite this registry's *values* with `from`'s, keeping slot
    /// layout intact so [`CounterHandle`]s issued before the restore
    /// keep bumping the counters they named. Counters present here but
    /// absent in `from` are zeroed (they were zero when `from` was
    /// captured); counters absent here are materialised.
    pub fn load(&mut self, from: &Stats) {
        for s in &mut self.slots {
            *s = 0;
        }
        for (k, &i) in &from.index {
            self.set(intern(k), from.slots[i]);
        }
        self.hists.clear();
        for (k, h) in &from.hists {
            self.hists.insert(intern(k), h.clone());
        }
    }
}

impl crate::snap::Snap for Stats {
    /// Counters and histograms by name, in name order — deterministic
    /// regardless of the order handles were resolved in.
    fn snap(&self, w: &mut crate::snap::SnapWriter) {
        w.usize(self.index.len());
        for (k, &i) in &self.index {
            w.str(k);
            w.u64(self.slots[i]);
        }
        w.usize(self.hists.len());
        for (k, h) in &self.hists {
            w.str(k);
            h.snap(w);
        }
    }

    fn unsnap(r: &mut crate::snap::SnapReader) -> crate::snap::SnapResult<Self> {
        let mut s = Stats::new();
        let n = r.len_for(9)?;
        for _ in 0..n {
            let k = intern(&r.str()?);
            let v = r.u64()?;
            s.set(k, v);
        }
        let n = r.len_for(9)?;
        for _ in 0..n {
            let k = intern(&r.str()?);
            let h = <Hist as crate::snap::Snap>::unsnap(r)?;
            s.hists.insert(k, h);
        }
        Ok(s)
    }
}

/// Equality is logical: same name→value counter map (regardless of the
/// order handles were resolved in, i.e. of slot layout) and same
/// histograms.
impl PartialEq for Stats {
    fn eq(&self, other: &Self) -> bool {
        self.index.len() == other.index.len()
            && self.iter().eq(other.iter())
            && self.hists == other.hists
    }
}

impl Eq for Stats {}

impl std::fmt::Display for Stats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        for (k, v) in self.iter() {
            writeln!(f, "{k:<40} {v}")?;
        }
        for (k, h) in &self.hists {
            writeln!(f, "{k:<40} {h}")?;
        }
        Ok(())
    }
}

impl Extend<(&'static str, u64)> for Stats {
    fn extend<T: IntoIterator<Item = (&'static str, u64)>>(&mut self, iter: T) {
        for (k, v) in iter {
            self.add(k, v);
        }
    }
}

impl FromIterator<(&'static str, u64)> for Stats {
    fn from_iter<T: IntoIterator<Item = (&'static str, u64)>>(iter: T) -> Self {
        let mut s = Stats::new();
        s.extend(iter);
        s
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn add_get_inc() {
        let mut s = Stats::new();
        assert_eq!(s.get("x"), 0);
        s.add("x", 5);
        s.inc("x");
        assert_eq!(s.get("x"), 6);
    }

    #[test]
    fn add_zero_materializes_key() {
        let mut s = Stats::new();
        s.add("y", 0);
        assert_eq!(s.len(), 1);
        assert_eq!(s.get("y"), 0);
        assert!(!s.is_empty());
    }

    #[test]
    fn set_overwrites() {
        let mut s = Stats::new();
        s.add("c", 10);
        s.set("c", 3);
        assert_eq!(s.get("c"), 3);
    }

    #[test]
    fn handles_bump_the_named_counter() {
        let mut s = Stats::new();
        let h = s.handle("hot");
        assert_eq!(s.len(), 1, "handle materialises the counter at zero");
        s.inc_h(h);
        s.add_h(h, 4);
        assert_eq!(s.get("hot"), 5);
        // Re-resolving the same name yields the same slot.
        let h2 = s.handle("hot");
        assert_eq!(h, h2);
        s.inc("hot");
        assert_eq!(s.get("hot"), 6);
    }

    #[test]
    fn equality_ignores_slot_order() {
        let mut a = Stats::new();
        a.add("x", 1);
        a.add("y", 2);
        let mut b = Stats::new();
        b.add("y", 2);
        b.add("x", 1);
        assert_eq!(a, b);
        b.inc("x");
        assert_ne!(a, b);
    }

    #[test]
    fn merge_sums() {
        let mut a = Stats::new();
        a.add("k", 1);
        a.add("only_a", 2);
        let mut b = Stats::new();
        b.add("k", 10);
        b.add("only_b", 20);
        a.merge(&b);
        assert_eq!(a.get("k"), 11);
        assert_eq!(a.get("only_a"), 2);
        assert_eq!(a.get("only_b"), 20);
    }

    #[test]
    fn ratios() {
        let mut s = Stats::new();
        s.add("n", 3);
        s.add("d", 6);
        assert_eq!(s.ratio("n", "d"), Some(0.5));
        assert_eq!(s.per_kilo("n", "d"), Some(500.0));
        assert_eq!(s.ratio("n", "zero"), None);
    }

    #[test]
    fn collect_and_display() {
        let s: Stats = [("a", 1u64), ("b", 2)].into_iter().collect();
        let text = s.to_string();
        assert!(text.contains('a') && text.contains('2'));
        assert!(!s.is_empty());
    }

    #[test]
    fn to_json_shapes() {
        assert_eq!(Stats::new().to_json(), "{}");
        let s: Stats = [("b", 2u64), ("a", 1)].into_iter().collect();
        assert_eq!(s.to_json(), r#"{"a":1,"b":2}"#);
    }

    #[test]
    fn iter_ordered() {
        let s: Stats = [("b", 2u64), ("a", 1)].into_iter().collect();
        let keys: Vec<&str> = s.iter().map(|(k, _)| k).collect();
        assert_eq!(keys, vec!["a", "b"]);
    }

    #[test]
    fn record_and_hist_accessors() {
        let mut s = Stats::new();
        assert!(s.hist("lat").is_none());
        s.record("lat", 10);
        s.record("lat", 20);
        let h = s.hist("lat").unwrap();
        assert_eq!(h.count(), 2);
        assert_eq!(h.sum(), 30);
        assert_eq!(s.hists().count(), 1);
        // Hists don't leak into counter accessors.
        assert_eq!(s.get("lat"), 0);
        assert_eq!(s.len(), 0);
    }

    #[test]
    fn merge_folds_hists() {
        let mut a = Stats::new();
        a.record("lat", 1);
        let mut b = Stats::new();
        b.record("lat", 100);
        b.record("other", 5);
        b.add("count", 2);
        a.merge(&b);
        assert_eq!(a.hist("lat").unwrap().count(), 2);
        assert_eq!(a.hist("lat").unwrap().max(), 100);
        assert_eq!(a.hist("other").unwrap().count(), 1);
        assert_eq!(a.get("count"), 2);
    }

    #[test]
    fn to_json_interleaves_hists_in_key_order() {
        let mut s: Stats = [("b", 2u64)].into_iter().collect();
        s.record("a_lat", 4);
        s.record("z_lat", 8);
        let j = s.to_json();
        let a = j.find("\"a_lat\"").unwrap();
        let b = j.find("\"b\"").unwrap();
        let z = j.find("\"z_lat\"").unwrap();
        assert!(a < b && b < z, "{j}");
    }

    #[test]
    fn delta_since_subtracts_and_drops_zeroes() {
        let mut s = Stats::new();
        s.add("a", 5);
        s.add("b", 2);
        s.record("lat", 10);
        let snap = s.clone();
        s.add("a", 3);
        s.add("c", 1);
        s.record("lat", 20);
        s.record("fresh", 7);
        let d = s.delta_since(&snap);
        assert_eq!(d.get("a"), 3);
        assert_eq!(d.get("b"), 0);
        assert!(d.iter().all(|(k, _)| k != "b"), "unchanged counter must be omitted");
        assert_eq!(d.get("c"), 1);
        assert_eq!(d.hist("lat").unwrap().count(), 1);
        assert_eq!(d.hist("lat").unwrap().sum(), 20);
        assert_eq!(d.hist("fresh").unwrap().count(), 1);
        // A no-change window is entirely empty.
        let quiet = s.delta_since(&s.clone());
        assert!(quiet.is_empty());
        assert_eq!(quiet.hists().count(), 0);
    }

    #[test]
    fn snap_round_trip_and_in_place_load_keep_handles_live() {
        use crate::snap::{Snap, SnapReader, SnapWriter};
        let mut s = Stats::new();
        s.add("loads", 7);
        s.add("stores", 2);
        s.record("lat", 31);
        let mut w = SnapWriter::new();
        s.snap(&mut w);
        let bytes = w.into_bytes();
        let mut r = SnapReader::new(&bytes);
        let back = Stats::unsnap(&mut r).unwrap();
        r.finish().unwrap();
        assert_eq!(back, s);

        // In-place load: a registry with different slot layout and
        // stale values takes on the snapshot's values while its
        // previously issued handles keep addressing the right names.
        let mut live = Stats::new();
        let h_extra = live.handle("extra");
        let h_loads = live.handle("loads");
        live.add("extra", 99);
        live.add("loads", 1);
        live.load(&back);
        assert_eq!(live.get("loads"), 7);
        assert_eq!(live.get("stores"), 2);
        assert_eq!(live.get("extra"), 0, "counter absent from snapshot zeroes");
        assert_eq!(live.hist("lat").unwrap().count(), 1);
        live.inc_h(h_loads);
        live.inc_h(h_extra);
        assert_eq!(live.get("loads"), 8);
        assert_eq!(live.get("extra"), 1);
    }

    #[test]
    fn to_json_round_trips_through_parser() {
        let mut s: Stats = [("loads", 3u64), ("stores", 1)].into_iter().collect();
        for v in [1u64, 2, 3, 50, 1000] {
            s.record("miss_cycles", v);
        }
        let parsed = crate::json::parse(&s.to_json()).expect("well-formed JSON");
        assert_eq!(parsed.get("loads").unwrap().as_u64(), Some(3));
        assert_eq!(parsed.get("stores").unwrap().as_u64(), Some(1));
        let h = parsed.get("miss_cycles").unwrap();
        assert_eq!(h.get("count").unwrap().as_u64(), Some(5));
        assert_eq!(h.get("sum").unwrap().as_u64(), Some(1056));
        assert_eq!(h.get("min").unwrap().as_u64(), Some(1));
        assert_eq!(h.get("max").unwrap().as_u64(), Some(1000));
        let p50 = h.get("p50").unwrap().as_u64().unwrap();
        let p99 = h.get("p99").unwrap().as_u64().unwrap();
        assert!(p50 <= p99);
        // The counters-only serialisation is unchanged by the hist
        // extension (backward compatibility with existing BENCH JSON).
        let plain: Stats = [("a", 1u64)].into_iter().collect();
        assert_eq!(plain.to_json(), r#"{"a":1}"#);
    }
}
