//! The four benchmark workloads: input generation and system configuration.
//!
//! Every workload runs SLM cores with WritersBlock out-of-order commit on
//! the Sparse engine. Each is chosen to make a different layer dominant;
//! `perfbench/README.md` gives the reasons and the layer map.

use std::collections::BTreeMap;

use wb_isa::{AluOp, Program, Reg, Workload};
use wb_kernel::config::{CommitMode, CoreClass, EngineMode, SystemConfig};
use wb_kernel::fault::FaultPlan;
use wb_kernel::SimRng;
use wb_workloads::{codegen::layout, splash, Scale};

/// Workload names, in the order `BENCHMARK.json` lists them.
pub const NAMES: [&str; 4] = ["barrier256", "fft64", "ocean16_tso", "torture16_lossy"];

/// Network jitter (cycles) for the kernel workloads: just enough for the
/// seed to change the interleaving without changing the amount of work.
const KERNEL_JITTER: u64 = 4;

/// Barrier rounds in `barrier256`.
const BARRIER_ROUNDS: u64 = 2;

/// What the final memory image must satisfy once the run is done.
pub enum Invariant {
    /// `wb_workloads::invariants::check` for the named suite kernel.
    Kernel {
        name: &'static str,
        cores: usize,
        scale: Scale,
    },
    /// The central barrier counter ends at `cores x rounds`.
    BarrierCount { expected: u64 },
    /// Every touched word holds 0 or a value some store or swap wrote to
    /// that word (store values are unique, so a stale or torn value shows).
    WrittenValues(BTreeMap<u64, Vec<u64>>),
}

/// One generated input plus the configuration that runs it.
pub struct Spec {
    pub workload: Workload,
    pub cfg: SystemConfig,
    pub invariant: Invariant,
}

fn base_cfg(cores: usize, seed: u64) -> SystemConfig {
    SystemConfig::new(CoreClass::Slm)
        .with_cores(cores)
        .with_commit(CommitMode::OutOfOrderWb)
        .with_engine(EngineMode::Sparse)
        .with_seed(seed)
}

/// Generate workload `name` for `seed`, or `None` for an unknown name.
pub fn generate(name: &str, seed: u64) -> Option<Spec> {
    let spec = match name {
        "barrier256" => Spec {
            workload: wb_workloads::barrier_storm(256, BARRIER_ROUNDS),
            cfg: base_cfg(256, seed)
                .with_jitter(KERNEL_JITTER)
                .without_event_log(),
            invariant: Invariant::BarrierCount {
                expected: 256 * BARRIER_ROUNDS,
            },
        },
        "fft64" => Spec {
            workload: splash::fft(64, Scale::Small),
            cfg: base_cfg(64, seed)
                .with_jitter(KERNEL_JITTER)
                .without_event_log(),
            invariant: Invariant::Kernel {
                name: "fft",
                cores: 64,
                scale: Scale::Small,
            },
        },
        "ocean16_tso" => Spec {
            workload: splash::ocean(16, Scale::Small),
            cfg: base_cfg(16, seed).with_jitter(KERNEL_JITTER),
            invariant: Invariant::Kernel {
                name: "ocean",
                cores: 16,
                scale: Scale::Small,
            },
        },
        "torture16_lossy" => torture(seed),
        _ => return None,
    };
    Some(spec)
}

/// Cores, operations per core and shared lines of `torture16_lossy`.
const TORTURE_CORES: usize = 16;
const TORTURE_OPS: usize = 300;
const TORTURE_LINES: u64 = 24;

/// Seeded random torture on lossy links: the seed drives both the program
/// generator and (as the system seed) the fault and jitter streams.
fn torture(seed: u64) -> Spec {
    // 0x440 bytes apart: consecutive lines land on different home banks.
    let lines: Vec<u64> = (0..TORTURE_LINES).map(|i| 0x1000 + i * 0x440).collect();
    let mut rng = SimRng::new(seed);
    let mut written: BTreeMap<u64, Vec<u64>> = BTreeMap::new();
    let programs = (0..TORTURE_CORES)
        .map(|c| random_program(c, &mut rng, &lines, &mut written))
        .collect();
    Spec {
        workload: Workload::new(format!("torture-{TORTURE_CORES}x{TORTURE_OPS}"), programs),
        cfg: base_cfg(TORTURE_CORES, seed)
            .with_jitter(25)
            .with_fault(FaultPlan::drop_everywhere(1, 50)),
        invariant: Invariant::WrittenValues(written),
    }
}

/// A straight-line program of 50% loads, 40% stores and 10% swaps over
/// `lines`, with globally unique store values so the checker recovers
/// reads-from. Records every value written per word into `written`.
fn random_program(
    core: usize,
    rng: &mut SimRng,
    lines: &[u64],
    written: &mut BTreeMap<u64, Vec<u64>>,
) -> Program {
    let mut p = Program::builder();
    let (addr_reg, val_reg, dst) = (Reg(1), Reg(2), Reg(3));
    let mut k: u64 = 1;
    for _ in 0..TORTURE_OPS {
        let addr = *rng.choose(lines).expect("non-empty line set") + rng.below(8) * 8;
        p.imm(addr_reg, addr);
        match rng.below(10) {
            0..=4 => {
                written.entry(addr).or_default();
                p.load(dst, addr_reg, 0);
            }
            op => {
                let value = ((core as u64) << 32) | k;
                k += 1;
                written.entry(addr).or_default().push(value);
                p.imm(val_reg, value);
                if op <= 8 {
                    p.store(val_reg, addr_reg, 0);
                } else {
                    p.amo_swap(dst, addr_reg, 0, val_reg);
                }
            }
        }
        if rng.chance(1, 4) {
            p.alui(AluOp::Add, Reg(4), Reg(4), 1);
        }
    }
    p.halt();
    p.build()
}

/// Check `inv` against final memory read through `read`.
pub fn check_invariant(inv: &Invariant, read: impl Fn(u64) -> u64) -> Result<(), String> {
    match inv {
        Invariant::Kernel { name, cores, scale } => {
            wb_workloads::invariants::check(name, *cores, *scale, |a| read(a.0))
        }
        Invariant::BarrierCount { expected } => match read(layout::BARRIER) {
            got if got == *expected => Ok(()),
            got => Err(format!("barrier counter {got} != expected {expected}")),
        },
        Invariant::WrittenValues(written) => {
            for (&addr, values) in written {
                let got = read(addr);
                if got != 0 && !values.contains(&got) {
                    return Err(format!(
                        "word {addr:#x} holds {got:#x}, which no store wrote"
                    ));
                }
            }
            Ok(())
        }
    }
}
