//! Soft-error torture: the full stored-state bit-flip matrix (cache
//! state/tag scrambles, directory state and sharer-set flips, MSHR
//! strikes, mixed background radiation) across both protocols and the
//! interesting commit modes.
//!
//! Soft errors land *inside* the coherence protocol's own books, so no
//! layer below can hide them. The guard-hash detectors plus the
//! poison/recovery path (and the periodic audit scrub backstop) must
//! catch every flip before it becomes architecturally visible: each
//! run drains, passes the axiomatic TSO checker, finishes with a clean
//! final audit, and accounts for every injected flip
//! (`soft_silent == 0`).

use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::config::{CommitMode, CoreClass, ProtocolKind, SystemConfig};
use wb_kernel::soft::SoftPlan;
use wb_kernel::SimRng;
use writersblock::System;

/// Build a random straight-line program for one core (same recipe as
/// `torture.rs`: globally unique store values so the checker recovers rf).
fn random_program(core: usize, rng: &mut SimRng, ops: usize, lines: &[u64]) -> Program {
    let mut p = Program::builder();
    let addr_reg = Reg(1);
    let val_reg = Reg(2);
    let dst = Reg(3);
    let mut k: u64 = 1;
    for _ in 0..ops {
        let a = *rng.choose(lines).expect("non-empty");
        let word = rng.below(8) * 8;
        p.imm(addr_reg, a + word);
        match rng.below(10) {
            0..=4 => {
                p.load(dst, addr_reg, 0);
            }
            5..=8 => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.store(val_reg, addr_reg, 0);
            }
            _ => {
                p.imm(val_reg, ((core as u64) << 32) | k);
                k += 1;
                p.amo_swap(dst, addr_reg, 0, val_reg);
            }
        }
        if rng.chance(1, 4) {
            p.alui(AluOp::Add, Reg(4), Reg(4), 1);
        }
    }
    p.halt();
    p.build()
}

const COMBOS: [(ProtocolKind, CommitMode); 4] = [
    (ProtocolKind::BaseMesi, CommitMode::InOrder),
    (ProtocolKind::BaseMesi, CommitMode::OutOfOrder),
    (ProtocolKind::WritersBlock, CommitMode::InOrder),
    (ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb),
];

/// Run one (plan, protocol, mode) cell to completion, through the final
/// audit and the TSO checker; returns `(stats, injected, silent)`.
fn run_cell(
    plan: &SoftPlan,
    protocol: ProtocolKind,
    mode: CommitMode,
    ops: usize,
) -> (wb_kernel::Stats, u64, u64) {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let seed = 7u64;
    let mut rng = SimRng::new(seed);
    let programs = (0..4).map(|c| random_program(c, &mut rng, ops, &lines)).collect::<Vec<_>>();
    let w = Workload::new(format!("soft-{}", plan.name), programs);
    // Matrix rates are soak-tuned (thousands of cycles between strikes);
    // these cells run a few thousand cycles total, so accelerate 20x to
    // land a real barrage in every cell.
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(mode)
        .with_protocol(protocol)
        .with_seed(seed)
        .with_jitter(25)
        .with_soft(plan.clone().accelerated(20));
    let mut sys = System::new(cfg, &w);
    let out = sys.run(8_000_000);
    assert!(out.is_done(), "plan {plan} {protocol:?} {mode:?}:\n{out}");
    // Final audit: scrub any wound still latent (a flip the workload
    // never touched again), then require every invariant to hold.
    sys.run_audit(true).assert_clean(&format!("plan {plan} {protocol:?} {mode:?}"));
    let silent = sys.soft_silent();
    assert_eq!(
        silent, 0,
        "plan {plan} {protocol:?} {mode:?}: {silent} flip(s) were never detected"
    );
    sys.check_tso().unwrap_or_else(|e| panic!("plan {plan} {protocol:?} {mode:?}: {e}"));
    let (injected, _missed) = sys.soft_injected();
    (sys.report().stats, injected, silent)
}

/// Every soft plan in the standard matrix x the four protocol/commit
/// combos: each cell must drain, audit clean, account for every flip
/// and stay TSO-correct — and the matrix as a whole must show real
/// injection and detection work (flips landing in every structure
/// class, detect-latency histograms populated).
#[test]
fn soft_torture_matrix() {
    let plans = SoftPlan::matrix();
    assert!(plans.len() >= 6, "matrix shrank to {} plans", plans.len());
    let jobs: Vec<(SoftPlan, ProtocolKind, CommitMode)> = plans
        .iter()
        .flat_map(|p| COMBOS.into_iter().map(move |(pr, m)| (p.clone(), pr, m)))
        .collect();
    let results = wb_bench::sweep::run(jobs.clone(), |(plan, protocol, mode)| {
        run_cell(&plan, protocol, mode, 25)
    });
    let mut injected_total = 0u64;
    let mut detected_total = 0u64;
    let mut latency_cells = 0usize;
    for ((plan, protocol, mode), (stats, injected, _)) in jobs.iter().zip(&results) {
        injected_total += injected;
        detected_total += stats.get("soft_detected");
        if stats.hist("soft_detect_latency").is_some_and(|h| h.count() > 0) {
            latency_cells += 1;
        }
        if !plan.is_none() {
            assert!(
                stats.get("audit_runs") > 0,
                "plan {plan} {protocol:?} {mode:?}: periodic audit never ran"
            );
        }
    }
    assert!(injected_total > 0, "no plan in the matrix ever landed a flip");
    assert!(detected_total > 0, "flips landed but none were ever detected");
    assert!(latency_cells > 0, "soft_detect_latency never populated");
}

/// Heavy radiation on the paper's own configuration — the WritersBlock
/// protocol with out-of-order commit — must still audit clean and stay
/// TSO-green, with both cache-side and directory-side recovery visible.
#[test]
fn soft_torture_background_radiation_on_wb() {
    let plan = SoftPlan::background_radiation();
    let (stats, injected, silent) =
        run_cell(&plan, ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 40);
    assert!(injected > 0, "background radiation never landed a flip");
    assert_eq!(silent, 0);
    assert!(
        stats.get("soft_detected") + stats.get("soft_masked") >= injected,
        "every flip must be detected or masked: {} injected, {} detected, {} masked",
        injected,
        stats.get("soft_detected"),
        stats.get("soft_masked"),
    );
}

/// Soft-error and audit work flows through the interval telemetry: a
/// timeline-sampled soft run attributes detections to the windows in
/// which they happened, and the window deltas sum to the run totals.
#[test]
fn soft_counters_appear_in_timeline_deltas() {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let seed = 11u64;
    let mut rng = SimRng::new(seed);
    let programs = (0..4).map(|c| random_program(c, &mut rng, 40, &lines)).collect::<Vec<_>>();
    let w = Workload::new("soft-timeline".to_string(), programs);
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(25)
        .with_soft(SoftPlan::background_radiation().accelerated(20));
    let mut sys = System::new(cfg, &w);
    sys.enable_timeline(500);
    let out = sys.run(8_000_000);
    assert!(out.is_done(), "{out}");
    sys.run_audit(true).assert_clean("soft-timeline final audit");
    let totals = sys.report().stats;
    assert!(totals.get("soft_detected") > 0, "no detections to attribute");
    // Close a final partial window at the current cycle (the audit's
    // own scrub detections land after the last periodic flush), the
    // same way `timeline_jsonl` seals the ring.
    let mut tl = sys.timeline().expect("timeline enabled").clone();
    tl.flush(sys.now(), &totals);
    let sum = |k: &str| tl.windows().map(|win| win.delta.get(k)).sum::<u64>();
    for k in ["soft_injected", "soft_detected", "soft_recovered"] {
        assert_eq!(sum(k), totals.get(k), "window deltas of {k} must sum to the run total");
    }
    assert!(
        tl.windows().filter(|win| win.delta.get("soft_detected") > 0).count() > 0,
        "no window carries a detection delta"
    );
}

/// `SoftPlan::none()` is a true no-op: installing the empty plan turns
/// the guard machinery on but schedules no strikes, and the run's
/// observable behaviour (outcome, cycle, stats minus the audit's own
/// bookkeeping) matches a `soft: None` build cycle for cycle.
#[test]
fn empty_soft_plan_changes_nothing() {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let seed = 9u64;
    let mut rng = SimRng::new(seed);
    let programs = (0..4).map(|c| random_program(c, &mut rng, 30, &lines)).collect::<Vec<_>>();
    let w = Workload::new("soft-none".to_string(), programs);
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(25);
    let mut base = System::new(cfg.clone(), &w);
    let mut soft = System::new(cfg.with_soft(SoftPlan::none()), &w);
    let b_out = base.run(8_000_000);
    let s_out = soft.run(8_000_000);
    assert_eq!(b_out, s_out, "empty soft plan changed the outcome");
    assert_eq!(base.now(), soft.now(), "empty soft plan changed the final cycle");
    assert_eq!(
        base.report().stats.to_json(),
        soft.report().stats.to_json(),
        "empty soft plan perturbed the stats"
    );
    assert_eq!(soft.soft_injected(), (0, 0));
    soft.run_audit(true).assert_clean("soft-none final audit");
}
