//! Checkpoint/restore exactness.
//!
//! The tentpole invariant of the snapshot subsystem: take `snapshot(S)`
//! at an arbitrary mid-run cycle, `restore` it into a freshly built
//! system, and the continuation is *byte-identical* to continuing the
//! original — same outcome at the same cycle, same stats JSON, same
//! timeline windows — in every engine mode (Dense, Skip, SkipVerify,
//! Sparse, SparseVerify), on litmus, chaos, fault (ARQ-active) and
//! wedge cells. The sparse engines additionally restore the activity
//! scheduler itself: a snapshot cut while most components sleep must
//! resume without spuriously waking (or losing) any of them.
//!
//! One subtlety: `run_watchdog` keeps its progress baseline in locals,
//! so calling `run` twice restarts the stall window at the split point.
//! Restoring a snapshot restarts it the same way, so the fair baseline
//! for a resumed run is the *split* original (run-to-cut, then run-on),
//! which these tests use throughout.

use wb_isa::{Program, Reg, Workload};
use wb_kernel::chaos::ChaosPlan;
use wb_kernel::check::prelude::*;
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, ProtocolKind, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::soft::SoftPlan;
use wb_kernel::SimRng;
use writersblock::{RunOutcome, System};

/// Everything observable about a finished (or stopped) run.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: RunOutcome,
    final_cycle: u64,
    retired: u64,
    stats_json: String,
    timeline: String,
}

fn observe(sys: &mut System, budget: u64) -> Observed {
    let outcome = sys.run(budget);
    Observed {
        outcome,
        final_cycle: sys.now(),
        retired: sys.total_retired(),
        stats_json: sys.report().stats.to_json(),
        timeline: sys.timeline_jsonl(),
    }
}

/// Random contended straight-line program (store values globally
/// unique, as in the engine-equivalence torture recipe).
fn random_program(core: usize, rng: &mut SimRng, ops: usize, lines: &[u64]) -> Program {
    let mut p = Program::builder();
    let mut k: u64 = 1;
    for _ in 0..ops {
        let a = *rng.choose(lines).expect("non-empty");
        let word = rng.below(8) * 8;
        p.imm(Reg(1), a + word);
        match rng.below(10) {
            0..=4 => {
                p.load(Reg(3), Reg(1), 0);
            }
            5..=8 => {
                p.imm(Reg(2), ((core as u64) << 32) | k);
                k += 1;
                p.store(Reg(2), Reg(1), 0);
            }
            _ => {
                p.imm(Reg(2), ((core as u64) << 32) | k);
                k += 1;
                p.amo_swap(Reg(3), Reg(1), 0, Reg(2));
            }
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

/// The cell matrix the property test draws from: litmus, plain
/// contention, chaos timing injection, a lossy-link (ARQ-active) fault
/// cell, and a soft-error cell (bit flips + guards + periodic audit).
fn cell(kind: usize, seed: u64) -> (SystemConfig, Workload) {
    let base = SystemConfig::new(CoreClass::Slm)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_protocol(ProtocolKind::WritersBlock)
        .with_seed(seed)
        .with_jitter(25);
    match kind % 5 {
        0 => (base.with_cores(2), wb_tso::litmus::mp().workload),
        1 => (base.with_cores(4), torture_workload(4, seed, 10)),
        2 => (
            base.with_cores(4).with_chaos(ChaosPlan::delay_storm()),
            torture_workload(4, seed, 8),
        ),
        3 => (
            base.with_cores(4).with_fault(FaultPlan::drop_everywhere(1, 10)),
            torture_workload(4, seed, 8),
        ),
        _ => (
            base.with_cores(4).with_soft(SoftPlan::background_radiation().accelerated(20)),
            torture_workload(4, seed, 10),
        ),
    }
}

const BUDGET: u64 = 8_000_000;

/// Split-run baseline vs snapshot/restore continuation, same engine.
fn check_resume_exact(cfg: &SystemConfig, w: &Workload, cut: u64) {
    // Baseline: run to the cut, then continue on the same system.
    let mut a = System::new(cfg.clone(), w);
    let _ = a.run(cut);
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    // Restore into a fresh system and continue from the same cycle.
    let mut b = System::new(cfg.clone(), w);
    b.restore(&bytes).expect("snapshot restores into an identical build");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "resumed run diverged from the original");
    // Snapshot at the end state agrees too (stable fixed point).
    assert_eq!(a.snapshot(), b.snapshot(), "end-state snapshots diverged");
}

wb_proptest! {
    #![cases = 12]

    /// Snapshot at a random mid-run cycle, across all five engines and
    /// the full cell matrix (litmus / contention / chaos / ARQ-fault).
    #[test]
    fn mid_run_snapshots_resume_byte_identically(
        seed in 0u64..1000,
        cut in 500u64..60_000,
        kind in 0usize..5,
    ) {
        let (cfg, w) = cell(kind, seed);
        let engines = [
            EngineMode::Dense,
            EngineMode::Skip,
            EngineMode::SkipVerify,
            EngineMode::Sparse,
            EngineMode::SparseVerify,
        ];
        for engine in engines {
            check_resume_exact(&cfg.clone().with_engine(engine), &w, cut);
        }
    }
}

/// A snapshot taken under one engine restores into another: the restored
/// Skip run must land on the same outcome/stats as the Dense original.
#[test]
fn snapshots_restore_across_engines() {
    let (cfg, w) = cell(1, 42);
    let dense_cfg = cfg.clone().with_engine(EngineMode::Dense);
    let mut a = System::new(dense_cfg.clone(), &w);
    let _ = a.run(5_000);
    let bytes = a.snapshot();
    let rest_dense = observe(&mut a, BUDGET);
    let engines =
        [EngineMode::Skip, EngineMode::SkipVerify, EngineMode::Sparse, EngineMode::SparseVerify];
    for engine in engines {
        let mut b = System::new(cfg.clone().with_engine(engine), &w);
        b.restore(&bytes).expect("engine mode is not part of the fingerprint");
        let rest = observe(&mut b, BUDGET);
        assert_eq!(rest_dense.outcome, rest.outcome, "{engine:?} outcome diverged");
        assert_eq!(rest_dense.final_cycle, rest.final_cycle, "{engine:?} cycle diverged");
        assert_eq!(rest_dense.retired, rest.retired, "{engine:?} retired diverged");
        assert_eq!(rest_dense.stats_json, rest.stats_json, "{engine:?} stats diverged");
    }
}

/// Mid-sleep scheduler snapshot: on a lossy-link cell the ARQ retry
/// timers put most components to sleep for long stretches, so a cut in
/// the middle of the run catches the sparse engine with a mostly-idle
/// calendar wheel. The snapshot's canonical wake table must restore
/// that state exactly — resuming in Sparse (same engine), and a
/// Sparse-taken snapshot must restore into Skip and Dense (which drop
/// the table) with the identical continuation.
#[test]
fn mid_sleep_scheduler_state_survives_restore() {
    let (cfg, w) = cell(3, 77); // ARQ-active fault cell: long sleeps
    let sparse_cfg = cfg.clone().with_engine(EngineMode::Sparse);
    let mut a = System::new(sparse_cfg.clone(), &w);
    let _ = a.run(4_000);
    assert!(a.skipped_cycles() > 0, "cell must actually sleep before the cut");
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    // Same-engine resume: the wheel is adopted from the snapshot.
    let mut b = System::new(sparse_cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "sparse mid-sleep resume diverged");
    // Cross-engine resume: engines that don't use the wheel ignore it.
    for engine in [EngineMode::Dense, EngineMode::Skip, EngineMode::SparseVerify] {
        let mut c = System::new(cfg.clone().with_engine(engine), &w);
        c.restore(&bytes).expect("restores");
        let rest = observe(&mut c, BUDGET);
        assert_eq!(rest_a.outcome, rest.outcome, "{engine:?} outcome diverged");
        assert_eq!(rest_a.final_cycle, rest.final_cycle, "{engine:?} cycle diverged");
        assert_eq!(rest_a.retired, rest.retired, "{engine:?} retired diverged");
        assert_eq!(rest_a.stats_json, rest.stats_json, "{engine:?} stats diverged");
    }
}

/// The wedge cell from the engine-equivalence suite: snapshot before
/// the watchdog trips, resume, and the wedge report — class, cycle,
/// parties, reproducer — is byte-identical to the split baseline.
#[test]
fn wedge_cells_resume_to_the_same_report() {
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
    let mut a = System::new(cfg.clone(), &w);
    let _ = a.run(1_000);
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    assert!(
        matches!(rest_a.outcome, RunOutcome::Wedge(_)),
        "cell must wedge, got {}",
        rest_a.outcome
    );
    let mut b = System::new(cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "wedge report diverged after resume");
}

/// Timeline sampling state rides in the snapshot: a resumed run emits
/// exactly the windows the original would have.
#[test]
fn timeline_state_survives_restore() {
    let (cfg, _) = cell(2, 7);
    let w = torture_workload(4, 7, 60);
    let mut a = System::new(cfg.clone(), &w);
    a.enable_timeline(500);
    let _ = a.run(3_750); // mid-window: origin/partial-window state matters
    let bytes = a.snapshot();
    let rest_a = observe(&mut a, BUDGET);
    assert!(rest_a.timeline.lines().count() >= 4, "cell must emit windows");
    let mut b = System::new(cfg, &w);
    b.restore(&bytes).expect("restores");
    let rest_b = observe(&mut b, BUDGET);
    assert_eq!(rest_a, rest_b, "timeline diverged after resume");
}

/// The JSON envelope round-trips through `wb_kernel::json` and restores
/// to the same state as the binary form; tampering is rejected.
#[test]
fn json_envelope_roundtrips_and_self_validates() {
    let (cfg, w) = cell(0, 3);
    let mut a = System::new(cfg.clone(), &w);
    let _ = a.run(2_000);
    let bytes = a.snapshot();
    let json = a.snapshot_json();
    // The envelope is strict wb_kernel::json-parseable and self-describing.
    let doc = wb_kernel::json::parse(&json).expect("envelope parses");
    assert_eq!(
        doc.get("format").and_then(wb_kernel::json::Json::as_str),
        Some("wb-snap")
    );
    assert_eq!(wb_kernel::snap::from_json(&json).expect("envelope decodes"), bytes);
    let mut b = System::new(cfg.clone(), &w);
    b.restore_json(&json).expect("JSON restore");
    let mut c = System::new(cfg, &w);
    c.restore(&bytes).expect("binary restore");
    assert_eq!(
        observe(&mut b, BUDGET),
        observe(&mut c, BUDGET),
        "JSON and binary restores diverged"
    );
    // Corrupt one payload nibble: the checksum must catch it.
    let tampered = json.replacen("\"payload\":\"", "\"payload\":\"00", 1);
    assert!(
        wb_kernel::snap::from_json(&tampered).is_err(),
        "tampered envelope must be rejected"
    );
}

/// Restoring into a system built from a different configuration or
/// workload is a typed error, not silent corruption.
#[test]
fn mismatched_configurations_are_rejected() {
    let (cfg, w) = cell(1, 5);
    let mut a = System::new(cfg.clone(), &w);
    let _ = a.run(2_000);
    let bytes = a.snapshot();
    // Different seed.
    let mut b = System::new(cfg.clone().with_seed(6), &w);
    let e = b.restore(&bytes).expect_err("seed mismatch must be rejected");
    assert!(e.to_string().contains("different configuration"), "got: {e}");
    // Different workload.
    let (_, w2) = cell(1, 9);
    let mut c = System::new(cfg.clone(), &w2);
    assert!(c.restore(&bytes).is_err(), "workload mismatch must be rejected");
    // Truncated payload.
    let mut d = System::new(cfg, &w);
    assert!(d.restore(&bytes[..bytes.len() / 2]).is_err(), "truncation must be rejected");
}

/// Warm-start forking: restore one warmed snapshot twice, re-seed each
/// fork identically, and the forks agree byte for byte; the recorded
/// seed follows the fork so reproducer lines stay truthful.
#[test]
fn warm_start_forks_are_deterministic() {
    let (cfg, w) = cell(3, 21);
    let mut warm = System::new(cfg.clone(), &w);
    let _ = warm.run(2_000);
    let bytes = warm.snapshot();
    let fork = |seed: u64| {
        let mut s = System::new(cfg.clone(), &w);
        s.restore(&bytes).expect("restores");
        s.reseed(seed);
        let o = observe(&mut s, BUDGET);
        (o, s.config().seed)
    };
    let (a, seed_a) = fork(0xf0f0);
    let (b, seed_b) = fork(0xf0f0);
    assert_eq!(a, b, "same-seed forks diverged");
    assert_eq!(seed_a, 0xf0f0);
    assert_eq!(seed_b, 0xf0f0);
}

/// FNV-1a, for pinning snapshot bytes without storing them.
fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The snapshot encoding is a compatibility surface: a 4-core mid-run
/// cut must serialize to exactly the pinned bytes. The digests were
/// recorded before the cache arrays moved to lazily backed planes and a
/// payload arena, whose positional encoding must not move. (The bytes
/// differ per engine only in the skipped-cycle diagnostics they carry.)
#[test]
fn snapshot_bytes_are_pinned() {
    let (cfg, w) = cell(1, 42);
    let pinned = [
        (EngineMode::Dense, "1c2ab1a61a83335b"),
        (EngineMode::Skip, "258fc64d53f9fce6"),
        (EngineMode::Sparse, "3dca56535ccba02b"),
    ];
    for (engine, digest) in pinned {
        let mut sys = System::new(cfg.clone().with_engine(engine), &w);
        let _ = sys.run(5_000);
        let bytes = sys.snapshot();
        assert_eq!(
            (bytes.len(), format!("{:016x}", fnv1a(&bytes))),
            (1_316_022, digest.to_string()),
            "{engine:?} snapshot bytes moved"
        );
    }
}
