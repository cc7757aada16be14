#!/usr/bin/env python3
"""Cold-process benchmark of the WritersBlock simulator.

Builds the `wb-perfbench` binary (perfbench/Cargo.toml), then launches it
again and again, one simulation per fresh process, for the requested
number of seconds, and aggregates the result rows.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1> [--out rows.jsonl]
    python3 perfbench/run.py spread --workload <name> --runs <n> [--seconds <s>] [--seed <first>] [--trace <0|1>]
    python3 perfbench/run.py compare <rows_a.jsonl> <rows_b.jsonl>

The default mode prints the end-to-end metrics (`--trace 0`) or the
per-layer metrics (`--trace 1`); the last line of stdout is one JSON
object with `correct`, `attempted`, `failed` and `metrics`. `spread`
repeats the default mode on seeds first, first+1, ... and prints each
metric's median, quartiles and range. `compare` diffs the deterministic
counts of two row files written with `--out` and names every count that
moved. See perfbench/README.md for the workloads and the layer map.
"""

import argparse
import hashlib
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = json.loads((HERE / "seeds.json").read_text())

# A simulation that runs longer than this is counted as failed (hung),
# and ends the run, which must finish well within three minutes.
PROCESS_TIMEOUT_S = 60
# A run with seed s simulates the inputs s*INPUTS .. s*INPUTS+INPUTS-1 in
# rotation, one per process. Spreading a run over several inputs keeps the
# run's figures from hanging on one input's contention luck; repeating
# each input checks that its counts are deterministic.
INPUTS = 4


def log(*parts):
    print(*parts, flush=True)


def build():
    """Build `wb-perfbench` and return its path; exit 1 if the build fails."""
    cmd = ["cargo", "build", "--release", "--offline", "--quiet",
           "--manifest-path", str(HERE / "Cargo.toml")]
    if subprocess.run(cmd, stdout=sys.stderr).returncode != 0:
        sys.exit("perfbench: build failed")
    target = Path(os.environ.get("CARGO_TARGET_DIR", HERE / "target"))
    return str(target.resolve() / "release" / "wb-perfbench")


def host_fingerprint(profile):
    def out(cmd):
        try:
            p = subprocess.run(cmd, capture_output=True, text=True, timeout=30)
        except OSError:
            return None
        return p.stdout.strip() if p.returncode == 0 else None

    cpu = None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    # Only a git checkout of this repository itself has a meaningful rev;
    # otherwise the source digest identifies the code that was built.
    top = out(["git", "-C", str(ROOT), "rev-parse", "--show-toplevel"])
    rev = out(["git", "-C", str(ROOT), "rev-parse", "HEAD"]) if top and Path(top).resolve() == ROOT else None
    digest = hashlib.sha256()
    for path in sorted([ROOT / "Cargo.lock", *ROOT.glob("crates/*/Cargo.toml"), *ROOT.glob("crates/*/src/**/*.rs"),
                        HERE / "Cargo.toml", *HERE.glob("src/**/*.rs")]):
        if path.is_file():
            digest.update(str(path.relative_to(ROOT)).encode())
            digest.update(path.read_bytes())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "rustc": out(["rustc", "--version"]),
            "git_rev": rev, "src_digest": digest.hexdigest()[:16], "profile": profile}


def simulate(binary, workload, seed, traced, run_id):
    """One simulation in a fresh process: (row, None) or (None, error)."""
    cmd = [binary, "sim", "--workload", workload, "--seed", str(seed), "--run-id", str(run_id)]
    if traced:
        cmd.append("--trace")
    try:
        p = subprocess.run(cmd, capture_output=True, text=True, timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        return None, f"timed out after {PROCESS_TIMEOUT_S} s"
    if p.returncode != 0:
        return None, f"exit {p.returncode}: {p.stderr.strip()[-4000:]}"
    return json.loads(p.stdout.strip().splitlines()[-1]), None


def input_seeds(seed):
    return [seed * INPUTS + k for k in range(INPUTS)]


def collect(binary, workload, seed, seconds, trace):
    """Launch simulations until `seconds` are used up, rotating over the
    run's inputs; untraced runs visit every input at least twice. With
    `trace`, each untraced process is followed by a traced one on the same
    input, so the tracing overhead is measured under the same host
    conditions. Returns (rows, errors)."""
    modes = [False, True] if trace else [False]
    min_rounds = INPUTS if trace else 2 * INPUTS
    inputs = input_seeds(seed)
    rows, errors, round_s = [], [], []
    start = time.monotonic()
    while len(round_s) < min_rounds or time.monotonic() - start + statistics.median(round_s) <= seconds:
        t = time.monotonic()
        for traced in modes:
            n = len(rows) + len(errors)
            row, err = simulate(binary, workload, inputs[len(round_s) % INPUTS], traced, n)
            if err:
                errors.append(err)
                log(f"process {n}: {err}")
                if err.startswith("timed out"):
                    return rows, errors
            else:
                rows.append(row)
                for f in row["failures"]:
                    log(f"process {n} failed {f}")
        round_s.append(time.monotonic() - t)
    return rows, errors


def counts_diff(a, b):
    """Names of counts that differ between two count maps."""
    return sorted(k for k in a.keys() | b.keys() if a.get(k) != b.get(k))


def self_times(row):
    """Self time (s) per span name: duration minus its children's."""
    spans = row["spans"]
    own = [(s["end_ns"] - s["start_ns"]) / 1e9 for s in spans]
    for s in spans:
        if s["parent"] is not None:
            own[s["parent"]] -= (s["end_ns"] - s["start_ns"]) / 1e9
    out = {}
    for s, t in zip(spans, own):
        out[s["name"]] = out.get(s["name"], 0.0) + t
    return out


def span_s(row, name):
    return sum((s["end_ns"] - s["start_ns"]) / 1e9 for s in row["spans"] if s["name"] == name)


def ratio(num, den):
    return num / den if den else 0.0


def layer_counts(row):
    """Per-layer metrics that are deterministic per input, as name -> (value, unit)."""
    c = row["counts"]
    st = lambda k: c.get("stats." + k, 0)
    hist = lambda k, q: c.get(f"hist.{k}.{q}", 0)
    cycles = c["sim_cycles"]
    executed = cycles - c["engine.skipped_cycles"]
    msgs, retx = st("mesh_msgs"), st("link_retx")
    return {
        "workloads.static_insts": (c["workloads.static_insts"], "count"),
        "engine.executed_cycles": (executed, "cycles"),
        "engine.skipped_cycles": (c["engine.skipped_cycles"], "cycles"),
        "engine.visits": (c["engine.visits"], "count"),
        "engine.visits_per_executed_cycle": (ratio(c["engine.visits"], executed), "visits/cycle"),
        "cpu.retired": (c["cpu.retired"], "count"),
        "cpu.ipc": (ratio(c["cpu.retired"], cycles), "inst/cycle"),
        "cpu.squashes": (st("core_squashes"), "count"),
        "cpu.loads_ooo_committed": (st("core_loads_ooo_committed"), "count"),
        "cpu.stall_rob": (st("core_stall_rob"), "cycles"),
        "cpu.stall_lq": (st("core_stall_lq"), "cycles"),
        "cpu.stall_sq": (st("core_stall_sq"), "cycles"),
        "cpu.stall_other": (st("core_stall_other"), "cycles"),
        "cache.load_accesses": (st("cache_load_accesses"), "count"),
        "cache.load_miss_ratio": (ratio(st("cache_load_misses"), st("cache_load_accesses")), "ratio"),
        "cache.read_miss_cycles.p50": (hist("cache_read_miss_cycles", "p50"), "cycles"),
        "cache.read_miss_cycles.p99": (hist("cache_read_miss_cycles", "p99"), "cycles"),
        "cache.write_miss_cycles.p50": (hist("cache_write_miss_cycles", "p50"), "cycles"),
        "cache.blocked_write_cycles.count": (hist("cache_blocked_write_cycles", "count"), "count"),
        "cache.blocked_write_cycles.p90": (hist("cache_blocked_write_cycles", "p90"), "cycles"),
        "cache.lockdown_cycles.count": (hist("cache_lockdown_cycles", "count"), "count"),
        "cache.nacks_sent": (st("cache_nacks_sent"), "count"),
        "cache.tearoff_data": (st("cache_tearoff_data"), "count"),
        "dir.requests": (st("dir_gets") + st("dir_getx"), "count"),
        "dir.invs_sent": (st("dir_invs_sent"), "count"),
        "dir.nack_retries": (st("dir_nack_retries"), "count"),
        "dir.port_stall_cycles": (st("dir_port_stall_cycles"), "cycles"),
        "dir.bank_occupancy.p90": (hist("dir_bank_occupancy", "p90"), "count"),
        "dir.wb_cycles.count": (hist("dir_wb_cycles", "count"), "count"),
        "mesh.msgs": (msgs, "count"),
        "mesh.flits": (st("mesh_flits"), "count"),
        "mesh.msg_cycles.p50": (hist("mesh_msg_cycles", "p50"), "cycles"),
        "mesh.msg_cycles.p99": (hist("mesh_msg_cycles", "p99"), "cycles"),
        "link.acks": (st("link_acks"), "count"),
        "link.retx": (retx, "count"),
        "link.drops": (st("link_drops"), "count"),
        "link.dup_squashed": (st("link_dup_squashed"), "count"),
        # 0 where the link layer is absent (no acks at all).
        "link.goodput": (ratio(msgs, msgs + retx) if st("link_acks") else 0.0, "ratio"),
        "tso.events": (c["tso.events"], "count"),
        "verify.audit_violations": (c["verify.audit_violations"], "count"),
    }


def layer_times(row):
    """Per-layer host-time and memory metrics of one traced row."""
    c = row["counts"]
    executed = c["sim_cycles"] - c["engine.skipped_cycles"]
    run_s = span_s(row, "core.run")
    check_s = span_s(row, "tso.check")
    return {
        "workloads.gen_s": (span_s(row, "workloads.gen"), "s"),
        "core.new_s": (span_s(row, "core.new"), "s"),
        "core.new_warm_s": (span_s(row, "core.new_warm"), "s"),
        "core.new_rss_mb": (row["mem"]["new_rss_mb"], "MB"),
        "core.run_s": (run_s, "s"),
        "core.report_s": (span_s(row, "core.report"), "s"),
        "engine.ns_per_executed_cycle": (ratio(run_s * 1e9, executed), "ns/cycle"),
        "engine.ns_per_visit": (ratio(run_s * 1e9, c["engine.visits"]), "ns/visit"),
        "tso.take_log_s": (span_s(row, "tso.take_log"), "s"),
        "tso.check_s": (check_s, "s"),
        "tso.ns_per_event": (ratio(check_s * 1e9, c["tso.events"]), "ns/event"),
        "tso.rss_growth_mb": (row["mem"]["peak_rss_mb"] - row["mem"]["new_rss_mb"], "MB"),
        "verify.audit_s": (span_s(row, "verify.audit"), "s"),
        "verify.invariants_s": (span_s(row, "verify.invariants"), "s"),
        "trace.wall_s": (row["times"]["wall_s"], "s"),
    }


def by_input(rows):
    """Rows grouped by input seed."""
    groups = {}
    for r in rows:
        groups.setdefault(r["seed"], []).append(r)
    return groups


# End-to-end host speeds taken from the run's fastest process. Other
# tenants of the host only ever add time, and they come and go over
# minutes; over ten runs the fastest process varied about half as much
# from run to run as the median process did (see README.md).
FASTEST = {"wall_s": min, "sim_cycles_per_s": max}


def aggregate(rows, counts_of, times_of):
    """Metrics over `rows`: count metrics as the mean over the run's inputs
    (each input once, so the figure is the same on every run of a seed),
    host metrics as the median over every process, or as the fastest
    process for the metrics in FASTEST."""
    metrics = {}
    per_input = [counts_of(group[0]) for group in by_input(rows).values()]
    for name, (_, unit) in per_input[0].items():
        metrics[name] = (statistics.fmean(m[name][0] for m in per_input), unit)
    per_row = [times_of(r) for r in rows]
    for name, (_, unit) in per_row[0].items():
        metrics[name] = (FASTEST.get(name, statistics.median)(m[name][0] for m in per_row), unit)
    return metrics


def e2e_counts(row):
    return {"sim_cycles": (row["counts"]["sim_cycles"], "cycles")}


def e2e_times(row):
    return {
        "wall_s": (row["times"]["wall_s"], "s"),
        "setup_s": (row["times"]["setup_s"], "s"),
        "sim_cycles_per_s": (row["counts"]["sim_cycles"] / row["times"]["run_s"], "cycles/s"),
        "peak_rss_mb": (row["mem"]["peak_rss_mb"], "MB"),
    }


def measure(binary, workload, seed, seconds, trace, out=None):
    """One benchmark run; returns the result object the last line prints."""
    rows, errors = collect(binary, workload, seed, seconds, trace)
    attempted = len(rows) + len(errors)
    failed = len(errors) + sum(1 for r in rows if not r["ok"])
    good = [r for r in rows if r["ok"]]
    correct = failed == 0
    # Same input, same counts: every process of one input must agree.
    for group in by_input(good).values():
        for r in group[1:]:
            moved = counts_diff(group[0]["counts"], r["counts"])
            if moved:
                correct = False
                log(f"nondeterministic counts in process {r['run_id']} (input {r['seed']}): {', '.join(moved[:20])}")
    host = host_fingerprint(rows[0]["profile"] if rows else None)
    log(f"host: {json.dumps(host)}")
    if out:
        with open(out, "a") as f:
            for r in rows:
                f.write(json.dumps({**r, "host": host}) + "\n")

    untraced = [r for r in good if not r["traced"]]
    traced = [r for r in good if r["traced"]]
    metrics = {}
    if trace and traced and untraced:
        metrics = aggregate(traced, layer_counts, layer_times)
        untraced_wall = statistics.median(r["times"]["wall_s"] for r in untraced)
        metrics["trace.overhead_s"] = (metrics["trace.wall_s"][0] - untraced_wall, "s")
        wall = metrics["trace.wall_s"][0]
        log(f"{'span':<20} {'self_s':>10} {'share':>7}   (medians of {len(traced)} traced processes)")
        selfs = [self_times(r) for r in traced]
        for name in selfs[0]:
            t = statistics.median(s.get(name, 0.0) for s in selfs)
            log(f"{name:<20} {t:>10.4f} {t / wall:>7.1%}")
        log(f"{'tracing overhead':<20} {metrics['trace.overhead_s'][0]:>10.4f} {metrics['trace.overhead_s'][0] / wall:>7.1%}")
    elif not trace and untraced:
        metrics = aggregate(untraced, e2e_counts, e2e_times)
        metrics["pass_frac"] = ((attempted - failed) / attempted, "ratio")
    else:
        correct = False
    if len(by_input(good)) < INPUTS:
        correct = False
        log(f"only {len(by_input(good))} of the run's {INPUTS} inputs completed")
    log(f"{workload} seed {seed} (inputs {input_seeds(seed)}): {attempted} simulations, {failed} failed, failed_frac {failed / max(attempted, 1):.3f}")
    for name, (value, unit) in metrics.items():
        log(f"  {name:<34} {value:>16.6g} {unit}")
    return {"correct": correct, "attempted": attempted, "failed": failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def known_workload(binary, name):
    names = subprocess.run([binary, "list"], capture_output=True, text=True, check=True).stdout.split()
    if name not in names:
        sys.exit(f"perfbench: unknown workload {name!r}; known: {', '.join(names)}")


def cmd_run(argv):
    ap = argparse.ArgumentParser(prog="run.py")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out", help="append every result row (with host fingerprint) to this JSONL file")
    a = ap.parse_args(argv)
    binary = build()
    known_workload(binary, a.workload)
    seed = SEEDS[a.workload]["default"] if a.seed is None else a.seed
    print(json.dumps(measure(binary, a.workload, seed, a.seconds, a.trace, a.out)))


def cmd_spread(argv):
    ap = argparse.ArgumentParser(prog="run.py spread")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=25)
    ap.add_argument("--seed", type=int, help="first seed (default: the workload's default seed)")
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--out")
    a = ap.parse_args(argv)
    binary = build()
    known_workload(binary, a.workload)
    first = SEEDS[a.workload]["default"] if a.seed is None else a.seed
    results = [measure(binary, a.workload, first + i, a.seconds, a.trace, a.out) for i in range(a.runs)]
    print(f"\n{a.workload}: {a.runs} runs of {a.seconds} s, seeds {first}..{first + a.runs - 1}, "
          f"{sum(r['attempted'] for r in results)} simulations, {sum(r['failed'] for r in results)} failed")
    print(f"{'metric':<34} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'min':>12} {'max':>12}")
    for name in results[0]["metrics"]:
        vals = [r["metrics"][name]["value"] for r in results if name in r["metrics"]]
        med = statistics.median(vals)
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (med, med, med)
        rel = (q3 - q1) / med if med else 0.0
        print(f"{name:<34} {med:>12.6g} {q1:>12.6g} {q3:>12.6g} {rel:>8.2%} {min(vals):>12.6g} {max(vals):>12.6g}")


def load_rows(path):
    """(workload, seed) -> counts of every row in a JSONL file; rows of one
    key that disagree are reported and the first is kept."""
    keyed = {}
    for line in Path(path).read_text().splitlines():
        if not line.strip():
            continue
        r = json.loads(line)
        key = (r["workload"], r["seed"])
        if key in keyed and keyed[key] != r["counts"]:
            print(f"{path}: {key[0]} seed {key[1]} differs between rows: {', '.join(counts_diff(keyed[key], r['counts']))}")
        keyed.setdefault(key, r["counts"])
    return keyed


def cmd_compare(argv):
    ap = argparse.ArgumentParser(prog="run.py compare")
    ap.add_argument("a")
    ap.add_argument("b")
    a = ap.parse_args(argv)
    rows_a, rows_b = load_rows(a.a), load_rows(a.b)
    shared = sorted(rows_a.keys() & rows_b.keys())
    for key in sorted(rows_a.keys() ^ rows_b.keys()):
        print(f"only in {a.a if key in rows_a else a.b}: {key[0]} seed {key[1]}")
    moved = 0
    for key in shared:
        for name in counts_diff(rows_a[key], rows_b[key]):
            moved += 1
            print(f"{key[0]} seed {key[1]} {name}: {rows_a[key].get(name)} -> {rows_b[key].get(name)}")
    print(f"{len(shared)} (workload, seed) pairs compared, {moved} counts moved")
    sys.exit(1 if moved or not shared else 0)


def main():
    argv = sys.argv[1:]
    if argv and argv[0] == "spread":
        cmd_spread(argv[1:])
    elif argv and argv[0] == "compare":
        cmd_compare(argv[1:])
    else:
        cmd_run(argv)


if __name__ == "__main__":
    main()
