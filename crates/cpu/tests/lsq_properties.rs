//! Property tests on the load/store queue invariants that the lockdown
//! machinery depends on (Sections 3.1-3.2 terminology).

use wb_kernel::check::prelude::*;
use wb_cpu::lsq::{ForwardResult, LoadState, Lsq};
use wb_mem::Addr;

#[derive(Debug, Clone)]
enum LsqOp {
    AllocLoad,
    AllocAmo,
    AllocStore,
    PerformOldest,
    ResolveStore { value: u64 },
    SquashTail,
}

fn op_strategy() -> Gen<LsqOp> {
    prop_oneof![
        Just(LsqOp::AllocLoad),
        Just(LsqOp::AllocAmo),
        Just(LsqOp::AllocStore),
        Just(LsqOp::PerformOldest),
        (1u64..100).prop_map(|value| LsqOp::ResolveStore { value }),
        Just(LsqOp::SquashTail),
    ]
}

wb_proptest! {
    /// Core invariants under random operation sequences:
    /// - the SoS load is always the oldest non-performed load;
    /// - `is_ordered(seq)` iff no older non-performed load exists;
    /// - M-speculative implies performed and unordered;
    /// - squash never removes older entries.
    #[test]
    fn ordering_invariants(ops in vec_of(op_strategy(), 1..120)) {
        let mut lsq = Lsq::new(16, 16, 16, 8);
        let mut next_seq = 1u64;
        let addr = Addr::new(0x40);
        for op in ops {
            match op {
                LsqOp::AllocLoad if !lsq.lq_full() => {
                    lsq.alloc_load(next_seq, false);
                    lsq.load_mut(next_seq).unwrap().addr = Some(addr);
                    lsq.load_mut(next_seq).unwrap().state = LoadState::Ready;
                    next_seq += 1;
                }
                LsqOp::AllocAmo if !lsq.lq_full() => {
                    lsq.alloc_load(next_seq, true);
                    lsq.load_mut(next_seq).unwrap().addr = Some(addr);
                    next_seq += 1;
                }
                LsqOp::AllocStore if !lsq.sq_full() => {
                    lsq.alloc_store(next_seq);
                    next_seq += 1;
                }
                LsqOp::PerformOldest => {
                    if let Some(sos) = lsq.sos_seq() {
                        let e = lsq.load_mut(sos).unwrap();
                        e.state = LoadState::Performed;
                        e.value = 0;
                    }
                }
                LsqOp::ResolveStore { value } => {
                    let unresolved: Vec<u64> = (1..next_seq)
                        .filter(|s| lsq.store(*s).is_some_and(|e| e.addr.is_none()))
                        .collect();
                    if let Some(&s) = unresolved.first() {
                        let st = lsq.store_mut(s).unwrap();
                        st.addr = Some(addr);
                        st.data = Some(value);
                    }
                }
                LsqOp::SquashTail if next_seq > 1 => {
                    let from = next_seq - 1;
                    lsq.squash(from);
                }
                _ => {}
            }

            // Invariant: SoS = oldest non-performed.
            let oldest_np = lsq.loads().find(|e| !e.performed()).map(|e| e.seq);
            prop_assert_eq!(lsq.sos_seq(), oldest_np);

            // Invariant: is_ordered consistency.
            let seqs: Vec<u64> = lsq.loads().map(|e| e.seq).collect();
            for s in seqs {
                let older_np = lsq.loads().any(|e| e.seq < s && !e.performed());
                prop_assert_eq!(lsq.is_ordered(s), !older_np, "seq {}", s);
                if lsq.is_mspec(s) {
                    prop_assert!(lsq.load(s).unwrap().performed());
                    prop_assert!(!lsq.is_ordered(s));
                }
            }

            // Invariant: LQ entries remain in program order.
            let mut prev = 0;
            for e in lsq.loads() {
                prop_assert!(e.seq > prev);
                prev = e.seq;
            }
        }
    }

    /// Forwarding returns the *youngest* older matching store's value.
    #[test]
    fn forwarding_youngest_wins(values in vec_of(1u64..1000, 1..8)) {
        let mut lsq = Lsq::new(16, 16, 16, 8);
        let addr = Addr::new(0x80);
        let mut seq = 1u64;
        for v in &values {
            lsq.alloc_store(seq);
            let st = lsq.store_mut(seq).unwrap();
            st.addr = Some(addr);
            st.data = Some(*v);
            seq += 1;
        }
        // A load younger than all stores must forward the last value.
        prop_assert_eq!(lsq.forward(seq, addr), ForwardResult::Value(*values.last().unwrap()));
        // A load older than all stores sees nothing.
        prop_assert_eq!(lsq.forward(1, addr), ForwardResult::None);
        // A different word never forwards.
        prop_assert_eq!(lsq.forward(seq, Addr::new(0x88)), ForwardResult::None);
    }

    /// Committing stores in order through the SB preserves FIFO and the
    /// SB never exceeds capacity.
    #[test]
    fn store_buffer_fifo(count in 1usize..12) {
        let mut lsq = Lsq::new(16, 16, 16, 8);
        for s in 1..=count as u64 {
            lsq.alloc_store(s);
            let st = lsq.store_mut(s).unwrap();
            st.addr = Some(Addr::new(0x100 + s * 8));
            st.data = Some(s);
        }
        for s in 1..=count as u64 {
            prop_assert_eq!(lsq.oldest_store_seq(), Some(s));
            lsq.commit_store(s);
        }
        let mut popped = Vec::new();
        while let Some(e) = lsq.sb_pop() {
            popped.push(e.seq);
        }
        let expect: Vec<u64> = (1..=count as u64).collect();
        prop_assert_eq!(popped, expect);
    }
}
