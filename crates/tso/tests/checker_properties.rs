//! Property tests on the axiomatic TSO checker.
//!
//! Sequentially consistent executions are a subset of TSO, so any
//! execution generated by interleaving per-core programs against a single
//! shared memory must pass the checker; corrupting a read's value to one
//! never written must fail it.

use wb_kernel::check::prelude::*;
use wb_kernel::SimRng;
use wb_mem::Addr;
use wb_tso::{ExecutionLog, MemEvent, MemOp, TsoChecker};

/// Generate a random SC execution: pick a random interleaving of per-core
/// op lists and execute it against one memory.
fn random_sc_log(seed: u64, cores: usize, ops_per_core: usize) -> ExecutionLog {
    let mut rng = SimRng::new(seed);
    let addrs: Vec<Addr> = (0..3).map(|i| Addr::new(0x100 + i * 0x40)).collect();
    let mut log = ExecutionLog::new();
    let mut mem: std::collections::HashMap<Addr, u64> = std::collections::HashMap::new();
    let mut remaining: Vec<usize> = vec![ops_per_core; cores];
    let mut seqs: Vec<u64> = vec![0; cores];
    let mut unique = 1u64;
    let mut clock = 1u64;
    while remaining.iter().any(|&r| r > 0) {
        let c = rng.below_usize(cores);
        if remaining[c] == 0 {
            continue;
        }
        remaining[c] -= 1;
        let seq = seqs[c];
        seqs[c] += 1;
        let addr = *rng.choose(&addrs).expect("non-empty");
        clock += 7;
        match rng.below(3) {
            0 => {
                let v = mem.get(&addr).copied().unwrap_or(0);
                log.push(MemEvent { core: c, seq, addr, op: MemOp::Load { value: v } });
            }
            1 => {
                let v = unique;
                unique += 1;
                mem.insert(addr, v);
                log.push(MemEvent {
                    core: c,
                    seq,
                    addr,
                    op: MemOp::Store { value: v, performed_at: clock },
                });
            }
            _ => {
                let old = mem.get(&addr).copied().unwrap_or(0);
                let new = unique;
                unique += 1;
                mem.insert(addr, new);
                log.push(MemEvent {
                    core: c,
                    seq,
                    addr,
                    op: MemOp::Rmw { old, new, performed_at: clock },
                });
            }
        }
    }
    log
}

wb_proptest! {
    /// Every sequentially consistent execution passes the TSO checker.
    #[test]
    fn sc_executions_pass(seed in 0u64..5000) {
        let log = random_sc_log(seed, 3, 12);
        TsoChecker::new(&log).check().unwrap_or_else(|e| panic!("seed {seed}: {e}"));
    }

    /// Corrupting a read to a never-written value is always rejected.
    #[test]
    fn corrupted_read_fails(seed in 0u64..1000) {
        let mut log = random_sc_log(seed, 2, 10);
        // Find a load and corrupt it.
        let mut events: Vec<MemEvent> = log.events().to_vec();
        let Some(idx) = events.iter().position(|e| matches!(e.op, MemOp::Load { .. })) else {
            return Ok(()); // no load generated; skip
        };
        events[idx].op = MemOp::Load { value: 0xdead_beef_dead_beef };
        log = ExecutionLog::new();
        for e in events {
            log.push(e);
        }
        prop_assert!(TsoChecker::new(&log).check().is_err(), "seed {seed}");
    }

    /// Reordering a same-core same-address load before the store it read
    /// from violates uniproc and is rejected.
    #[test]
    fn uniproc_violation_fails(seed in 0u64..500) {
        let a = Addr::new(0x100 + (seed % 64) * 8);
        // Never 0, the initial value: reading it would be legal.
        let v = seed + 1;
        let mut log = ExecutionLog::new();
        // Core 0: load reads `v` at seq 0, store writes `v` at seq 1:
        // the load reads from its own *future* store.
        log.push(MemEvent { core: 0, seq: 0, addr: a, op: MemOp::Load { value: v } });
        log.push(MemEvent { core: 0, seq: 1, addr: a, op: MemOp::Store { value: v, performed_at: 10 } });
        prop_assert!(TsoChecker::new(&log).check().is_err());
    }
}

/// The O(n) ppo chain encoding must give the same verdict as the naive
/// O(n^2) pairwise relation. We re-implement the naive check here as the
/// test oracle and compare on random (not necessarily consistent) logs.
mod ppo_equivalence {
    use super::*;
    use wb_tso::TsoChecker;

    /// Naive standalone TSO-ghb verdict on a log (pairwise ppo).
    fn naive_tso_ok(log: &ExecutionLog) -> Option<bool> {
        // Recover everything through public APIs: we replicate the
        // checker pipeline coarsely — ambiguous logs are skipped.
        // (co by perform cycle; rf by value; pairwise ppo.)
        use std::collections::HashMap;
        let mut events: Vec<&MemEvent> = log.events().iter().collect();
        events.sort_by_key(|e| (e.core, e.seq));
        let n = events.len();
        let mut co: HashMap<Addr, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            if e.op.is_write() {
                co.entry(e.addr).or_default().push(i);
            }
        }
        for ws in co.values_mut() {
            ws.sort_by_key(|&i| (events[i].op.performed_at().unwrap(), events[i].core));
        }
        let mut by_value: HashMap<(Addr, u64), Vec<usize>> = HashMap::new();
        for (addr, ws) in &co {
            for &w in ws {
                by_value.entry((*addr, events[w].op.written().unwrap())).or_default().push(w);
            }
        }
        let mut edges: Vec<(usize, usize)> = Vec::new();
        // pairwise ppo
        let mut per_core: HashMap<usize, Vec<usize>> = HashMap::new();
        for (i, e) in events.iter().enumerate() {
            per_core.entry(e.core).or_default().push(i);
        }
        for idxs in per_core.values() {
            for (p, &a) in idxs.iter().enumerate() {
                for &b in &idxs[p + 1..] {
                    let a_w = matches!(events[a].op, MemOp::Store { .. });
                    let b_r = matches!(events[b].op, MemOp::Load { .. });
                    if !(a_w && b_r) {
                        edges.push((a, b));
                    }
                }
            }
        }
        for ws in co.values() {
            for w in ws.windows(2) {
                edges.push((w[0], w[1]));
            }
        }
        for (i, e) in events.iter().enumerate() {
            let Some(v) = e.op.read() else { continue };
            let src = match by_value.get(&(e.addr, v)) {
                Some(ws) if ws.len() == 1 => Some(ws[0]),
                Some(_) => return None, // ambiguous: skip
                None => {
                    if v == log.init_value(e.addr) {
                        None
                    } else {
                        return None; // unfindable: skip (not ghb's job)
                    }
                }
            };
            if let Some(w) = src {
                if events[w].core != e.core {
                    edges.push((w, i));
                }
            }
            let ws = co.get(&e.addr).cloned().unwrap_or_default();
            let start = match src {
                None => 0,
                Some(w) => ws.iter().position(|&x| x == w).unwrap() + 1,
            };
            for &t in &ws[start..] {
                if t != i {
                    edges.push((i, t));
                }
            }
        }
        // Kahn
        let mut indeg = vec![0usize; n];
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n];
        for &(a, b) in &edges {
            adj[a].push(b);
            indeg[b] += 1;
        }
        let mut stack: Vec<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut seen = 0;
        while let Some(x) = stack.pop() {
            seen += 1;
            for &y in &adj[x] {
                indeg[y] -= 1;
                if indeg[y] == 0 {
                    stack.push(y);
                }
            }
        }
        Some(seen == n)
    }

    wb_proptest! {
        #[test]
        fn chain_encoding_matches_naive(seed in 0u64..2000) {
            // Random *SC* logs always agree (both accept); to exercise
            // rejection paths, shuffle some load values between loads of
            // the same location.
            let mut log = super::random_sc_log(seed, 3, 10);
            if seed % 3 == 0 {
                // Swap the values of the first two loads on the same
                // address, potentially creating a violation.
                let mut events: Vec<MemEvent> = log.events().to_vec();
                let loads: Vec<usize> = events
                    .iter()
                    .enumerate()
                    .filter(|(_, e)| matches!(e.op, MemOp::Load { .. }))
                    .map(|(i, _)| i)
                    .collect();
                'outer: for (ai, &a) in loads.iter().enumerate() {
                    for &b in &loads[ai + 1..] {
                        if events[a].addr == events[b].addr {
                            let (va, vb) = (events[a].op.read().unwrap(), events[b].op.read().unwrap());
                            events[a].op = MemOp::Load { value: vb };
                            events[b].op = MemOp::Load { value: va };
                            break 'outer;
                        }
                    }
                }
                log = ExecutionLog::new();
                for e in events {
                    log.push(e);
                }
            }
            let Some(naive_ok) = naive_tso_ok(&log) else { return Ok(()) };
            let fast = TsoChecker::new(&log).check();
            // Compare ONLY the ghb verdict: the full checker may reject
            // earlier for uniproc, which implies a ghb-relevant cycle too;
            // accept agreement as "fast rejects whenever naive rejects".
            if naive_ok {
                // The fast checker may still reject on uniproc grounds the
                // naive ghb cannot see? No: uniproc cycles embed in ghb
                // (po-loc edges are ppo or rfi+...). Conservatively assert
                // acceptance agreement only when fast accepts or rejects
                // with TsoViolation/Uniproc.
                prop_assert!(
                    fast.is_ok()
                        || !matches!(fast, Err(wb_tso::CheckError::TsoViolation)),
                    "seed {}: naive accepts but chain-encoded ghb rejects",
                    seed
                );
            } else {
                prop_assert!(fast.is_err(), "seed {}: naive rejects but fast accepts", seed);
            }
        }
    }
}
