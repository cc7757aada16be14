//! Cold-process benchmark runner for the WritersBlock simulator.
//!
//! One invocation runs exactly one simulation in a fresh process, times
//! the public calls it makes from outside, passes every output through
//! the correctness gate, and prints one JSON result row on stdout.
//! `perfbench/run.py` launches it repeatedly and aggregates the rows.
//!
//! ```text
//! wb-perfbench sim --workload <name> --seed <n> [--trace] [--run-id <k>]
//! wb-perfbench list
//! ```

mod gate;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::process::ExitCode;
use std::time::Instant;

use gate::{outcome_done, tso_check, Gate};
use trace::Tracer;
use wb_mem::Addr;
use writersblock::System;

/// Cycle budget; the watchdog ends a wedged run long before this.
const MAX_CYCLES: u64 = 200_000_000;

struct Args {
    workload: String,
    seed: u64,
    traced: bool,
    run_id: u64,
}

fn parse_args(mut argv: impl Iterator<Item = String>) -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 0,
        traced: false,
        run_id: 0,
    };
    let number = |v: Option<String>, flag: &str| -> Result<u64, String> {
        v.as_deref()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| format!("{flag} needs a whole number"))
    };
    while let Some(flag) = argv.next() {
        match flag.as_str() {
            "--workload" => args.workload = argv.next().ok_or("--workload needs a name")?,
            "--seed" => args.seed = number(argv.next(), "--seed")?,
            "--run-id" => args.run_id = number(argv.next(), "--run-id")?,
            "--trace" => args.traced = true,
            other => return Err(format!("unknown argument {other:?}")),
        }
    }
    if !workloads::NAMES.contains(&args.workload.as_str()) {
        return Err(format!(
            "unknown workload {:?}; known: {}",
            args.workload,
            workloads::NAMES.join(", ")
        ));
    }
    Ok(args)
}

/// A `VmRSS`/`VmHWM`-style field of this process's status, in MiB.
fn proc_status_mb(field: &str) -> f64 {
    let status = std::fs::read_to_string("/proc/self/status")
        .expect("/proc/self/status is readable on Linux");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix(field)?.strip_prefix(':'))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .unwrap_or_else(|| panic!("{field} missing from /proc/self/status"));
    kb / 1024.0
}

/// Run one simulation and return its JSON result row.
fn simulate(args: &Args) -> String {
    let t0 = Instant::now();
    let mut tr = Tracer::new(args.traced, t0);
    let mut gate = Gate::default();

    tr.enter("bench.sim");
    tr.enter("workloads.gen");
    let spec = workloads::generate(&args.workload, args.seed)
        .expect("workload name checked by parse_args");
    tr.exit();
    tr.enter("core.new");
    let mut sys = System::new(spec.cfg.clone(), &spec.workload);
    tr.exit();
    let setup_s = t0.elapsed().as_secs_f64();
    let new_rss_mb = tr.is_on().then(|| proc_status_mb("VmRSS"));

    tr.enter("core.run");
    let run_start = Instant::now();
    let outcome = sys.run(MAX_CYCLES);
    let run_s = run_start.elapsed().as_secs_f64();
    tr.exit();
    tr.enter("core.report");
    let report = sys.report();
    tr.exit();
    gate.require("outcome", outcome_done(&outcome));

    let mut events = 0;
    if spec.cfg.record_events {
        tr.enter("tso.take_log");
        let log = sys.take_log();
        tr.exit();
        events = log.len();
        tr.enter("tso.check");
        gate.require("tso", tso_check(&log));
        drop(log);
        tr.exit();
    }
    tr.enter("verify.audit");
    let audit = sys.run_audit(true);
    tr.exit();
    gate.require(
        "audit",
        if audit.clean() {
            Ok(())
        } else {
            Err(audit.to_string())
        },
    );
    tr.enter("verify.invariants");
    gate.require(
        "invariant",
        workloads::check_invariant(&spec.invariant, |a| sys.memory_word(Addr::new(a))),
    );
    tr.exit();
    tr.exit();
    let wall_s = t0.elapsed().as_secs_f64();
    let peak_rss_mb = proc_status_mb("VmHWM");

    let mut counts: BTreeMap<String, u64> = BTreeMap::new();
    let mut count = |k: &str, v: u64| counts.insert(k.to_owned(), v);
    count("sim_cycles", report.cycles);
    count("engine.skipped_cycles", report.skipped_cycles);
    count("engine.visits", sys.engine_visits());
    count("cpu.retired", sys.total_retired());
    count(
        "workloads.static_insts",
        spec.workload.static_insts() as u64,
    );
    count("tso.events", events as u64);
    count("verify.audit_violations", audit.violations.len() as u64);
    for (k, v) in report.stats.iter() {
        count(&format!("stats.{k}"), v);
    }
    for (k, h) in report.stats.hists() {
        for (q, v) in [
            ("count", h.count()),
            ("sum", h.sum()),
            ("min", h.min()),
            ("max", h.max()),
        ] {
            count(&format!("hist.{k}.{q}"), v);
        }
        for (q, v) in [("p50", h.p50()), ("p90", h.p90()), ("p99", h.p99())] {
            count(&format!("hist.{k}.{q}"), v);
        }
    }

    if tr.is_on() {
        // Construction again, once the allocator can reuse the first
        // machine's memory: the part of `core.new` that is not cold start.
        drop(sys);
        tr.enter("core.new_warm");
        drop(System::new(spec.cfg.clone(), &spec.workload));
        tr.exit();
    }

    let mut row = String::new();
    let _ = write!(
        row,
        "{{\"workload\":{},\"seed\":{},\"traced\":{},\"run_id\":{},\"profile\":{},\"ok\":{},\"failures\":[{}]",
        json_str(&args.workload),
        args.seed,
        args.traced,
        args.run_id,
        json_str(if cfg!(debug_assertions) { "debug" } else { "release" }),
        gate.passed(),
        gate.failures().iter().map(|f| json_str(f)).collect::<Vec<_>>().join(","),
    );
    let _ = write!(
        row,
        ",\"times\":{{\"wall_s\":{wall_s},\"setup_s\":{setup_s},\"run_s\":{run_s}}},\"mem\":{{\"peak_rss_mb\":{peak_rss_mb}"
    );
    if let Some(mb) = new_rss_mb {
        let _ = write!(row, ",\"new_rss_mb\":{mb}");
    }
    let counts: Vec<String> = counts
        .iter()
        .map(|(k, v)| format!("{}:{v}", json_str(k)))
        .collect();
    let _ = write!(row, "}},\"counts\":{{{}}},\"spans\":[", counts.join(","));
    for (i, s) in tr.spans().iter().enumerate() {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = write!(
            row,
            "{}{{\"name\":{},\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"run\":{}}}",
            if i == 0 { "" } else { "," },
            json_str(s.name),
            s.start.as_nanos(),
            s.end.as_nanos(),
            args.run_id,
        );
    }
    row.push_str("]}");
    row
}

/// `s` as a JSON string literal.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let mut argv = std::env::args().skip(1);
    match argv.next().as_deref() {
        Some("list") => {
            println!("{}", workloads::NAMES.join("\n"));
            ExitCode::SUCCESS
        }
        Some("sim") => match parse_args(argv) {
            Ok(args) => {
                println!("{}", simulate(&args));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("wb-perfbench: {e}");
                ExitCode::from(2)
            }
        },
        _ => {
            eprintln!("usage: wb-perfbench sim --workload <name> --seed <n> [--trace] [--run-id <k>]\n       wb-perfbench list");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn json_strings_are_escaped() {
        assert_eq!(json_str("a\"b\\c\nd\u{1}"), r#""a\"b\\c\nd\u0001""#);
    }

    #[test]
    fn unknown_workload_is_rejected() {
        let argv = ["--workload", "nope", "--seed", "1"].map(String::from);
        assert!(parse_args(argv.into_iter()).is_err());
    }
}
