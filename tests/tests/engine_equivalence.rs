//! Dense vs cycle-skipping vs sparse engine equivalence.
//!
//! The event-driven engines (`EngineMode::Skip` and the
//! activity-tracked `EngineMode::Sparse`) must be *cycle-exact*: for
//! any workload, seed, chaos plan and fault plan, they produce the
//! same `RunOutcome` at the same final cycle, byte-identical stats JSON
//! and an identical merged event trace. These tests pin that contract
//! across litmus races, barrier-heavy kernels, chaos/fault torture
//! cells, watchdog wedges and budget exhaustion — including the
//! self-checking `SkipVerify` / `SparseVerify` modes, which execute
//! densely and assert every inertness / sleep claim cycle by cycle.

use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::trace::TraceFilter;
use wb_kernel::SimRng;
use wb_workloads::{splash, Scale};
use writersblock::{RunOutcome, System};

/// Everything observable about one finished run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    final_cycle: u64,
    retired: u64,
    stats_json: String,
    trace: Vec<String>,
}

/// Wedge reproducer lines carry the engine that produced them
/// (`engine=dense` vs `engine=skip`); everything else about the two
/// runs must agree, so equivalence compares modulo that one token.
fn neutralize_engine(mut o: Observed) -> Observed {
    if let RunOutcome::Wedge(r) | RunOutcome::Fault(r) = &mut o.outcome {
        // Longer tokens first, so "engine=sparse" can't eat the prefix
        // of "engine=sparse-verify".
        r.reproducer = r
            .reproducer
            .replace("engine=sparse-verify", "engine=*")
            .replace("engine=skip-verify", "engine=*")
            .replace("engine=sparse", "engine=*")
            .replace("engine=dense", "engine=*")
            .replace("engine=skip", "engine=*");
    }
    o
}

fn run_with(engine: EngineMode, cfg: &SystemConfig, w: &Workload, budget: u64, trace: bool) -> Observed {
    let mut sys = System::new(cfg.clone().with_engine(engine), w);
    if trace {
        sys.set_trace(TraceFilter::all());
    }
    let outcome = sys.run(budget);
    if outcome.is_done() {
        // The end-of-run auditor is part of the equivalence contract:
        // it must pass in every engine and count identically in stats.
        sys.run_audit(true).assert_clean(&format!("{engine:?} final audit"));
    }
    let trace_lines = sys.collect_trace().iter().map(ToString::to_string).collect();
    Observed {
        outcome,
        final_cycle: sys.now(),
        retired: sys.total_retired(),
        stats_json: sys.report().stats.to_json(),
        trace: trace_lines,
    }
}

/// Assert Skip and Sparse (and optionally the self-checking verify
/// engines) match Dense byte for byte.
fn assert_equivalent(label: &str, cfg: &SystemConfig, w: &Workload, budget: u64, verify: bool) {
    let dense = run_with(EngineMode::Dense, cfg, w, budget, false);
    let skip = run_with(EngineMode::Skip, cfg, w, budget, false);
    assert_eq!(dense, skip, "{label}: Skip diverged from Dense");
    let sparse = run_with(EngineMode::Sparse, cfg, w, budget, false);
    assert_eq!(dense, sparse, "{label}: Sparse diverged from Dense");
    if verify {
        let verified = run_with(EngineMode::SkipVerify, cfg, w, budget, false);
        assert_eq!(dense, verified, "{label}: SkipVerify diverged from Dense");
        let sverified = run_with(EngineMode::SparseVerify, cfg, w, budget, false);
        assert_eq!(dense, sverified, "{label}: SparseVerify diverged from Dense");
    }
}

/// Random straight-line program (the torture recipe: globally unique
/// store values so the TSO checker can recover the rf relation).
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

fn torture_workload(cores: usize, seed: u64, ops: usize) -> Workload {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let mut rng = SimRng::new(seed);
    let programs = (0..cores).map(|c| random_program(c, &mut rng, ops, &lines)).collect();
    Workload::new(format!("torture-{seed}"), programs)
}

/// Litmus races: the message-passing test across many seeds, on both
/// protocols and the paper's relaxed commit mode.
#[test]
fn litmus_runs_are_cycle_exact() {
    let t = wb_tso::litmus::mp();
    for (protocol, mode) in [
        (ProtocolKind::BaseMesi, CommitMode::InOrder),
        (ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb),
    ] {
        for seed in 0..10u64 {
            let cfg = SystemConfig::new(CoreClass::Slm)
                .with_cores(2)
                .with_commit(mode)
                .with_protocol(protocol)
                .with_seed(seed)
                .with_jitter(30);
            assert_equivalent(
                &format!("mp {protocol:?}/{mode:?} seed {seed}"),
                &cfg,
                &t.workload,
                500_000,
                seed < 3,
            );
        }
    }
}

/// Barrier-heavy splash kernel on a 16-core Figure 8 configuration —
/// the quiescence-dominated shape the skip engine exists for.
#[test]
fn barrier_kernel_is_cycle_exact() {
    let w = splash::fft(4, Scale::Test);
    for class in [CoreClass::Slm, CoreClass::Hsw] {
        let cfg = SystemConfig::new(class)
            .with_commit(CommitMode::OutOfOrderWb)
            .without_event_log();
        assert_equivalent(&format!("fft {class}"), &cfg, &w, 10_000_000, class == CoreClass::Slm);
    }
}

/// A 64-core (8x8 mesh) machine: the first size where the old `u64`
/// sharer masks overflowed. All three engines must agree byte for byte
/// — and again with two directory banks per node, so bank sharding
/// cannot silently perturb timing either.
#[test]
fn machine_at_64_cores_is_cycle_exact() {
    let w = torture_workload(64, 13, 8);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(64)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(13)
        .with_jitter(25);
    assert_equivalent("64-core torture", &cfg, &w, 8_000_000, true);
    cfg.memory.dir_banks_per_node = 2;
    assert_equivalent("64-core torture, 2 banks/node", &cfg, &w, 8_000_000, false);
}

/// The 256-core (16x16 mesh) machine the sparse engine exists for:
/// most of the fleet sleeps at any instant, and a tick must only touch
/// live components. All engines agree byte for byte, with the sharded
/// directory (2 banks/node) riding along.
#[test]
fn machine_at_256_cores_is_cycle_exact() {
    let w = torture_workload(256, 17, 4);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(256)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(17)
        .with_jitter(25)
        .without_event_log();
    assert_equivalent("256-core torture", &cfg, &w, 8_000_000, false);
    cfg.memory.dir_banks_per_node = 2;
    let dense = run_with(EngineMode::Dense, &cfg, &w, 8_000_000, false);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 8_000_000, false);
    assert_eq!(dense, sparse, "256-core torture, 2 banks/node: Sparse diverged");
}

/// The sparse engine must actually be sparse: on a 64-core machine
/// running a 2-core litmus race, visits per executed cycle must be a
/// small fraction of the dense engine's (which touches every pair,
/// bank and the mesh every cycle), and whole-machine quiescent gaps
/// must still be jumped.
#[test]
fn sparse_engine_visits_only_live_components() {
    let t = wb_tso::litmus::mp();
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(64)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(3)
        .with_jitter(30)
        .with_engine(EngineMode::Sparse);
    let mut sys = System::new(cfg, &t.workload);
    assert!(sys.run(2_000_000).is_done(), "mp must complete");
    let executed = sys.now() - sys.skipped_cycles();
    assert!(sys.skipped_cycles() > 0, "sparse engine never jumped");
    // Dense visits: 64 pairs + 64 banks + mesh + 64 drains per cycle.
    let dense_visits = executed * (64 + 64 + 1 + 64);
    assert!(
        sys.engine_visits() * 10 < dense_visits,
        "sparse engine visited {} of {} dense visits over {} executed cycles — not sparse",
        sys.engine_visits(),
        dense_visits,
        executed
    );
}

/// Litmus smoke on the 8x8 machine: two active cores in the corner of a
/// 64-core mesh, where home banks sit many hops away. Engines agree;
/// the run completes.
#[test]
fn litmus_smoke_at_8x8() {
    for t in [wb_tso::litmus::mp(), wb_tso::litmus::sb()] {
        for seed in 0..3u64 {
            let cfg = SystemConfig::new(CoreClass::Slm)
                .with_cores(64)
                .with_commit(CommitMode::OutOfOrderWb)
                .with_protocol(ProtocolKind::WritersBlock)
                .with_seed(seed)
                .with_jitter(30);
            assert_equivalent(&format!("{} 8x8 seed {seed}", t.name), &cfg, &t.workload, 2_000_000, seed == 0);
        }
    }
}

/// The merged event trace — every component's ring buffer, not just the
/// end state — is identical under skipping.
#[test]
fn traces_are_identical_under_skip() {
    let t = wb_tso::litmus::sb();
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(2)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_seed(5)
        .with_jitter(30);
    let dense = run_with(EngineMode::Dense, &cfg, &t.workload, 500_000, true);
    let skip = run_with(EngineMode::Skip, &cfg, &t.workload, 500_000, true);
    assert!(!dense.trace.is_empty(), "trace cell must actually record events");
    assert_eq!(dense, skip, "traced sb run diverged");
}

/// Chaos timing injection (delay storms, reorder amplification) stays
/// cycle-exact: chaos draws happen at injection, which skipping never
/// suppresses.
#[test]
fn chaos_cells_are_cycle_exact() {
    let w = torture_workload(4, 7, 15);
    for chaos in [ChaosPlan::delay_storm(), ChaosPlan::reorder_amplify()] {
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(7)
            .with_jitter(25)
            .with_chaos(chaos.clone());
        assert_equivalent(&format!("chaos {chaos}"), &cfg, &w, 8_000_000, false);
    }
}

/// Link-fault cells: drops force RTO-timed retransmissions, the exact
/// future deadlines the mesh's `next_event` must honour.
#[test]
fn fault_cells_are_cycle_exact() {
    let w = torture_workload(4, 7, 15);
    for plan in [FaultPlan::drop_everywhere(1, 10), FaultPlan::mixed_misery()] {
        let cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(CommitMode::OutOfOrderWb)
            .with_protocol(ProtocolKind::WritersBlock)
            .with_seed(7)
            .with_jitter(25)
            .with_fault(plan.clone());
        assert_equivalent(&format!("fault {plan}"), &cfg, &w, 8_000_000, true);
    }
}

/// The quiescence-heavy cell the `sim_throughput` bench measures its
/// headline speedup on: lossy links with a long fixed RTO, so most of
/// simulated time is the machine parked on retransmission deadlines.
/// Pinned here (with SkipVerify on the BaseMesi variant) so the bench's
/// wall-clock win provably comes with byte-identical results.
#[test]
fn rto_bound_bench_cells_are_cycle_exact() {
    let w = torture_workload(4, 7, 30);
    for (protocol, mode, drop_1_in, verify) in [
        (ProtocolKind::BaseMesi, CommitMode::InOrder, 6, true),
        (ProtocolKind::WritersBlock, CommitMode::OutOfOrderWb, 10, false),
    ] {
        let mut cfg = SystemConfig::new(CoreClass::Slm)
            .with_cores(4)
            .with_commit(mode)
            .with_protocol(protocol)
            .with_seed(7)
            .with_jitter(25)
            .with_fault(FaultPlan::drop_everywhere(1, drop_1_in));
        cfg.network.link.rto_min = 12_000;
        cfg.network.link.rto_max = 12_000;
        assert_equivalent(&format!("rto-bound {protocol:?}/{mode:?}"), &cfg, &w, 8_000_000, verify);
    }
}

/// The watchdog's wedge decision — and the diagnosis report it renders —
/// must land on exactly the dense cycle. This is the near-miss scenario:
/// a 4000-cycle RTO against a raw 2500-cycle stall window, with the
/// fault-scale widening disabled so the run *must* trip the watchdog.
#[test]
fn wedge_fires_at_the_same_cycle() {
    let w = torture_workload(2, 11, 15);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(2)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(11)
        .with_jitter(25)
        .with_fault(FaultPlan::drop_everywhere(1, 12));
    cfg.network.link.rto_min = 4000;
    cfg.network.link.rto_max = 4000;
    cfg.watchdog.stall_window = 2500;
    cfg.watchdog.fault_scale = 1;
    let dense = run_with(EngineMode::Dense, &cfg, &w, 8_000_000, false);
    match &dense.outcome {
        RunOutcome::Wedge(r) => {
            // The reproducer names the engine and bank fan-out so the
            // one-liner replays exactly.
            assert!(
                r.reproducer.contains("engine=dense"),
                "reproducer must name the engine: {}",
                r.reproducer
            );
            assert!(
                r.reproducer.contains("dir_banks_per_node=1"),
                "reproducer must name the bank fan-out: {}",
                r.reproducer
            );
        }
        other => panic!("cell must wedge densely, got {other}"),
    }
    let skip = run_with(EngineMode::Skip, &cfg, &w, 8_000_000, false);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 8_000_000, false);
    // Reproducer lines deliberately differ in the engine token; the
    // wedge itself (cycle, class, parties, stats) must be identical.
    let dense = neutralize_engine(dense);
    assert_eq!(dense, neutralize_engine(skip), "wedge cell diverged under Skip");
    assert_eq!(dense, neutralize_engine(sparse), "wedge cell diverged under Sparse");
    // And with scaling restored the same cell completes — identically.
    cfg.watchdog.fault_scale = 4;
    assert_equivalent("near-miss scaled", &cfg, &w, 8_000_000, false);
}

/// The wedge cell at 16 cores, where the watchdog's incremental
/// progress list has real work: even cores run 2-op programs and drain
/// early (leaving the list), odd cores run 20 ops on links dropping 1
/// in 400 against a 4000-cycle RTO, so several stall for different
/// spans while others keep retiring. Every engine must trip on the same
/// cycle with the same report, and SparseVerify checks the list against
/// a full per-core recompute after every cycle.
#[test]
fn wide_wedge_fires_at_the_same_cycle() {
    let lines: Vec<u64> = (0..6).map(|i| 0x1000 + i * 0x440).collect();
    let mut rng = SimRng::new(7);
    let programs =
        (0..16).map(|c| random_program(c, &mut rng, if c % 2 == 0 { 2 } else { 20 }, &lines)).collect();
    let w = Workload::new("torture-mixed-7", programs);
    let mut cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(16)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(7)
        .with_jitter(25)
        .with_fault(FaultPlan::drop_everywhere(1, 400));
    cfg.network.link.rto_min = 4000;
    cfg.network.link.rto_max = 4000;
    cfg.watchdog.stall_window = 2500;
    cfg.watchdog.fault_scale = 1;
    let dense = run_with(EngineMode::Dense, &cfg, &w, 8_000_000, false);
    match &dense.outcome {
        RunOutcome::Wedge(r) => {
            let stalled = &r.stalled_cores;
            assert!(stalled.len() >= 2, "several cores must stall: {stalled:?}");
            assert!(
                stalled.windows(2).any(|p| p[0].1 != p[1].1),
                "stalls must span different windows: {stalled:?}"
            );
            assert!(
                stalled.iter().all(|&(c, _)| c % 2 == 1),
                "the short-program cores drained, so none may be reported: {stalled:?}"
            );
        }
        other => panic!("cell must wedge densely, got {other}"),
    }
    let dense = neutralize_engine(dense);
    for engine in [EngineMode::Skip, EngineMode::Sparse, EngineMode::SparseVerify] {
        let got = neutralize_engine(run_with(engine, &cfg, &w, 8_000_000, false));
        assert_eq!(dense, got, "16-core wedge cell diverged under {engine:?}");
    }
}

/// Budget exhaustion lands on the same cycle with the same partial
/// stats.
#[test]
fn budget_exhaustion_is_cycle_exact() {
    let w = splash::fft(4, Scale::Test);
    let cfg =
        SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::OutOfOrderWb).without_event_log();
    let dense = run_with(EngineMode::Dense, &cfg, &w, 3_000, false);
    assert_eq!(dense.outcome, RunOutcome::Budget, "budget must run out in 3k cycles");
    let skip = run_with(EngineMode::Skip, &cfg, &w, 3_000, false);
    assert_eq!(dense, skip, "budget cell diverged under Skip");
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 3_000, false);
    assert_eq!(dense, sparse, "budget cell diverged under Sparse");
}

/// The skip engine must actually skip: on the barrier kernel the
/// wall-clock dense/skip ratio is measured by the `sim_throughput`
/// bench; here we only pin that skipping changes nothing while dense
/// ticking visits every cycle (sanity against a silently-disabled
/// engine).
#[test]
fn skip_engine_reaches_the_same_done_cycle() {
    let w = splash::fft(2, Scale::Test);
    let cfg =
        SystemConfig::new(CoreClass::Slm).with_commit(CommitMode::InOrder).without_event_log();
    let dense = run_with(EngineMode::Dense, &cfg, &w, 10_000_000, false);
    let skip = run_with(EngineMode::Skip, &cfg, &w, 10_000_000, false);
    assert_eq!(dense.outcome, RunOutcome::Done);
    assert_eq!(dense, skip);
    let sparse = run_with(EngineMode::Sparse, &cfg, &w, 10_000_000, false);
    assert_eq!(dense, sparse);
}

/// Timeline sampling is part of the equivalence contract: the periodic
/// sampler registers its next deadline as an event source, so the skip
/// engine lands every sample on exactly the dense cycle and the
/// exported window deltas — and the Perfetto counter tracks derived
/// from them — are byte-identical. Pinned on a traced chaos cell, the
/// adversarial shape for deadline bookkeeping.
#[test]
fn timeline_sampling_is_cycle_exact() {
    let w = torture_workload(4, 7, 60);
    let cfg = SystemConfig::new(CoreClass::Slm)
        .with_cores(4)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(7)
        .with_jitter(25)
        .with_chaos(ChaosPlan::delay_storm());
    let run = |engine: EngineMode| {
        let mut sys = System::new(cfg.clone().with_engine(engine), &w);
        sys.set_trace(TraceFilter::all());
        sys.enable_timeline(500);
        let outcome = sys.run(8_000_000);
        (outcome, sys.now(), sys.timeline_jsonl(), sys.chrome_trace())
    };
    let (d_out, d_cycle, d_jsonl, d_trace) = run(EngineMode::Dense);
    let (s_out, s_cycle, s_jsonl, s_trace) = run(EngineMode::Skip);
    assert_eq!(d_out, s_out, "timeline chaos cell outcome diverged");
    assert_eq!(d_cycle, s_cycle, "timeline chaos cell final cycle diverged");
    assert!(
        d_jsonl.lines().count() >= 4,
        "cell must actually emit timeline windows, got:\n{d_jsonl}"
    );
    assert_eq!(d_jsonl, s_jsonl, "timeline JSONL diverged between Dense and Skip");
    assert!(d_trace.contains("\"ph\":\"C\""), "chrome trace must carry counter tracks");
    assert_eq!(d_trace, s_trace, "chrome trace (with counter tracks) diverged");
    // The sparse engine must land every sample on the dense cycle with
    // fully charged idle counters, even for cores asleep at the sample.
    let (p_out, p_cycle, p_jsonl, p_trace) = run(EngineMode::Sparse);
    assert_eq!((&d_out, d_cycle), (&p_out, p_cycle), "Sparse timeline cell diverged");
    assert_eq!(d_jsonl, p_jsonl, "Sparse timeline JSONL diverged");
    assert_eq!(d_trace, p_trace, "Sparse chrome trace diverged");
    // The verify engines execute densely while checking every sleep /
    // inertness claim; the sampler's deadline must survive both.
    for engine in [EngineMode::SkipVerify, EngineMode::SparseVerify] {
        let (v_out, v_cycle, v_jsonl, v_trace) = run(engine);
        assert_eq!((&d_out, d_cycle), (&v_out, v_cycle), "{engine:?} timeline cell diverged");
        assert_eq!(d_jsonl, v_jsonl, "{engine:?} timeline JSONL diverged");
        assert_eq!(d_trace, v_trace, "{engine:?} chrome trace diverged");
    }
}
