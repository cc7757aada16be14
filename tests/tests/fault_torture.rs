//! Fault torture: the full link-fault matrix (drops, duplicates,
//! corruptions, lossy links, mixed misery — plus combined chaos+fault
//! cells) across both protocols and the interesting commit modes.
//!
//! Link faults are *below* the coherence protocol: the reliable
//! sublayer must hide them completely, so every run still drains and
//! passes the axiomatic TSO checker. A failure prints the plan's
//! reproducer via the wedge report.

use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{CommitMode, CoreClass, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::SimRng;
use writersblock::{RunOutcome, System};

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

/// Run one (plan, chaos, protocol, mode) cell to completion and through
/// the TSO checker; returns the run's merged stats for assertions.
fn run_cell(
    plan: &FaultPlan,
    chaos: Option<&ChaosPlan>,
    protocol: ProtocolKind,
    mode: CommitMode,
    ops: usize,
) -> wb_kernel::Stats {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let seed = 7u64;
    let mut rng = SimRng::new(seed);
    let programs = (0..4).map(|c| random_program(c, &mut rng, ops, &lines)).collect::<Vec<_>>();
    let w = Workload::new(format!("fault-{plan}"), programs);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(mode)
        .with_protocol(protocol)
        .with_seed(seed)
        .with_jitter(25)
        .with_fault(plan.clone());
    if let Some(c) = chaos {
        cfg = cfg.with_chaos(c.clone());
    }
    let mut sys = System::new(cfg, &w);
    let out = sys.run(8_000_000);
    assert!(out.is_done(), "plan {plan} {protocol:?} {mode:?}:\n{out}");
    sys.check_tso().unwrap_or_else(|e| panic!("plan {plan} {protocol:?} {mode:?}: {e}"));
    sys.run_audit(true).assert_clean("fault-torture final audit");
    sys.report().stats
}

/// Every fault plan in the standard matrix x the four protocol/commit
/// combos: each cell must drain and stay TSO-correct, and at least one
/// lossy cell must show actual recovery work (retransmission latency
/// and per-frame retry-count histograms populated).
#[test]
fn fault_torture_matrix() {
    let plans = FaultPlan::matrix();
    assert!(plans.len() >= 6, "matrix shrank to {} plans", plans.len());
    // Cells are independent single-threaded simulations; fan the matrix
    // out over the deterministic sweep runner and assert on the ordered
    // results (run_cell panics inside a worker still fail the test —
    // the scoped thread's panic propagates on join).
    let jobs: Vec<(FaultPlan, ProtocolKind, CommitMode)> = plans
        .iter()
        .flat_map(|p| COMBOS.into_iter().map(move |(pr, m)| (p.clone(), pr, m)))
        .collect();
    let results = wb_bench::sweep::run(jobs.clone(), |(plan, protocol, mode)| {
        run_cell(&plan, None, protocol, mode, 25)
    });
    let mut retx_seen = 0u64;
    let mut retx_hist_cells = 0usize;
    for ((plan, protocol, mode), stats) in jobs.iter().zip(&results) {
        retx_seen += stats.get("link_retx");
        let cycles_populated = stats.hist("link_retx_cycles").is_some_and(|h| h.count() > 0);
        let count_populated = stats.hist("link_retx_count").is_some_and(|h| h.count() > 0);
        assert_eq!(
            cycles_populated, count_populated,
            "plan {plan} {protocol:?} {mode:?}: retx histograms out of sync"
        );
        if cycles_populated {
            retx_hist_cells += 1;
        }
    }
    assert!(retx_seen > 0, "no plan in the matrix ever forced a retransmission");
    assert!(retx_hist_cells > 0, "link_retx_cycles/link_retx_count never populated");
}

/// Heavy loss (10% everywhere) on the paper's own configuration — the
/// WritersBlock protocol with out-of-order commit — must still be
/// TSO-green with visible recovery traffic.
#[test]
fn fault_torture_ten_percent_drop() {
    let plan = FaultPlan::drop_everywhere(1, 10);
    let stats =
        run_cell(&plan, None, ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 30);
    assert!(stats.get("link_drops") > 0, "1/10 drop never fired");
    assert!(stats.get("link_retx") > 0, "drops at 10% must force retransmissions");
    assert!(stats.hist("link_retx_cycles").is_some_and(|h| h.count() > 0));
}

/// The watchdog near-miss (satellite regression): a retransmission RTO
/// *longer* than the raw stall window must not be misread as a wedge.
/// With the default `fault_scale` the window is widened while a fault
/// plan is installed and the run completes (with real retransmissions);
/// with scaling disabled (`fault_scale = 1`) the very same run trips
/// the watchdog — proving the auto-scaling is what prevents the
/// misclassification.
#[test]
fn watchdog_near_miss_scaled_window_rides_out_retransmissions() {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let seed = 11u64;
    let build = |fault_scale: u64| {
        let mut rng = SimRng::new(seed);
        let programs =
            (0..2).map(|c| random_program(c, &mut rng, 15, &lines)).collect::<Vec<_>>();
        let w = Workload::new("near-miss".to_string(), programs);
        let mut cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(2)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(seed)
            .with_jitter(25)
            .with_fault(FaultPlan::drop_everywhere(1, 12));
        // One lost frame costs a 4000-cycle retransmission round trip —
        // longer than the raw 2500-cycle stall window. No backoff
        // (rto_max == rto_min) so consecutive losses stay under the
        // scaled window.
        cfg.network.link.rto_min = 4000;
        cfg.network.link.rto_max = 4000;
        cfg.watchdog.stall_window = 2500;
        cfg.watchdog.fault_scale = fault_scale;
        System::new(cfg, &w)
    };

    // Default-style scaling (x4 -> effective 10_000): rides out the RTO.
    let mut sys = build(4);
    assert_eq!(sys.config().effective_stall_window(), 10_000);
    let out = sys.run(8_000_000);
    assert_eq!(out, RunOutcome::Done, "scaled window must ride out retransmissions:\n{out}");
    sys.check_tso().unwrap_or_else(|e| panic!("near-miss scaled run: {e}"));
    sys.run_audit(true).assert_clean("fault-torture final audit");
    let stats = sys.report().stats;
    assert!(stats.get("link_retx") > 0, "the near-miss needs a real retransmission stall");

    // Scaling off: the same seed, plan and workload is misread as a wedge.
    let mut sys = build(1);
    assert_eq!(sys.config().effective_stall_window(), 2500);
    let out = sys.run(8_000_000);
    assert!(
        matches!(out, RunOutcome::Wedge(_)),
        "without fault-aware scaling the RTO must trip the 2500-cycle watchdog, got: {out}"
    );
}

/// Combined chaos+fault cells: timing chaos above the link layer and
/// loss/duplication/corruption below it, at once, on every combo.
#[test]
fn fault_torture_combined_with_chaos() {
    let cells = [
        (ChaosPlan::reorder_amplify(), FaultPlan::mixed_misery()),
        (ChaosPlan::response_storm(), FaultPlan::drop_everywhere(1, 20)),
    ];
    for (chaos, plan) in &cells {
        for (protocol, mode) in COMBOS {
            let stats = run_cell(plan, Some(chaos), protocol, mode, 20);
            assert!(
                stats.get("mesh_chaos_msgs") > 0,
                "chaos {chaos} never fired under plan {plan}"
            );
        }
    }
}
