#!/usr/bin/env python3
"""The repository benchmark's one command.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --workload all ...   (each workload in turn)
    python3 perfbench/run.py --self-test

Run from the repository root.  Builds perfbench/ (a CMake package that
compiles the emon library from src/) into .bench_build/perfbench, runs the
named workload and prints, as the last line of stdout, one JSON object
(with --workload all, one line per workload, each with a "workload" key):

    {"correct": bool, "attempted": int, "failed": int,
     "metrics": {name: {"value": number, "unit": str}, ...}}

--trace 0 reports the end-to-end metrics from the untraced binary.
--trace 1 runs the untraced binary and then the traced one (the same
workload plus the replay cost ledger and the counting allocator), requires
their exact counts to agree, and reports the per-layer metrics plus the
tracing overhead.  The exit status is 0 only when every correctness check
passed.  Build and progress output goes to stderr.
"""

import argparse
import fcntl
import json
import os
import shutil
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD = ROOT / ".bench_build" / "perfbench"

WORKLOADS = ["metro_10k", "serve_mixed"]

# metro_10k's traced run also runs this scenario (untraced binary, whose
# checks include the billing audit of the chain) and takes these per-layer
# metrics from it: the chain, mobility and history layers metro_10k barely
# touches.
SOAK = "roam_soak"
SOAK_LAYERS = [
    "chain.blocks", "chain.replica_copies_per_record",
    "mobility.roam_records_received", "mobility.registrations_temporary",
    "backhaul.frames_per_roam", "state.tsdb_records", "state.trace_points",
    "state.ledger_replica_records", "state.seen_sequences",
]

# Host seconds one call may spend running binaries (both, with --trace 1).
RUN_BUDGET_S = 172
# glibc's malloc backs its heaps with transparent huge pages.  metro_10k
# keeps ~400 MB of scattered state; with 4 KiB pages its page walks made
# records_per_s swing with the cache pressure other tenants put on the
# host (see perfbench/README.md).
BINARY_ENV = {"GLIBC_TUNABLES": "glibc.malloc.hugetlb=1"}

END_TO_END = {
    "setup_s": "s",
    "records_per_s": "1/s",
    "peak_rss_mb": "MB",
    "ingest_lag_p50_ms": "ms",
    "ingest_lag_p99_ms": "ms",
    "query_p50_us": "us",
    "query_p99_us": "us",
    "queries_per_s": "1/s",
}

PER_LAYER = {
    "sim.kernel.events_per_record": "1/record",
    "sim.kernel.callbacks_stored_per_record": "1/record",
    "sim.kernel.self_ns_per_event": "ns",
    "sim.shard.sync_rounds_per_sim_s": "1/sim-s",
    "sim.shard.cross_posts_per_record": "1/record",
    "sim.shard.event_imbalance": "ratio",
    "sim.trace.points_per_record": "1/record",
    "sim.trace.series": "count",
    "sim.trace.self_ns_per_append": "ns",
    "protocol.seal_ns_per_record": "ns",
    "protocol.decode_ns_per_record": "ns",
    "protocol.wire_bytes_per_record": "B",
    "protocol.allocs_per_record": "1/record",
    "net.channel.self_ns_per_frame": "ns",
    "net.channel.allocs_per_frame": "1/frame",
    "net.mqtt.dispatch_ns_per_msg": "ns",
    "net.mqtt.allocs_per_msg": "1/msg",
    "aggregator.membership_find_ns": "ns",
    "aggregator.seen_sequences": "count",
    "aggregator.nacks_per_report": "ratio",
    "tsdb.ingest_ns_per_record": "ns",
    "tsdb.allocs_per_record": "1/record",
    "tsdb.sealed_bytes_per_record": "B",
    "tsdb.duplicates_dropped": "count",
    "rollup.hook_ns_per_record": "ns",
    "rollup.drain_ns_per_window": "ns",
    "rollup.late_drops": "count",
    "query.ns_per_query.current_stats": "ns",
    "query.ns_per_query.downsample": "ns",
    "query.ns_per_query.network_breakdown": "ns",
    "query.records_scanned_per_query": "1/query",
    "serve.producer_blocked_s": "s",
    "serve.queue_depth_p99": "count",
    "serve.pump_ns": "ns",
    "chain.blocks": "count",
    "chain.replica_copies_per_record": "ratio",
    "chain.append_ns_per_record": "ns",
    "chain.merkle_ns_per_record": "ns",
    "mobility.roam_records_received": "count",
    "mobility.registrations_temporary": "count",
    "backhaul.frames_per_roam": "ratio",
    "state.tsdb_records": "count",
    "state.trace_points": "count",
    "state.ledger_replica_records": "count",
    "state.seen_sequences": "count",
    "path.wall_ns_per_record": "ns",
    "path.allocs_per_record": "1/record",
    "path.unattributed_ns_per_record": "ns",
    "tracing.overhead": "ratio",
}


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def build():
    """Configures (once) and builds both binaries; True on success."""
    BUILD.mkdir(parents=True, exist_ok=True)
    with open(BUILD / ".build.lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        jobs = str(min(4, os.cpu_count() or 1))
        try:
            if not (BUILD / "CMakeCache.txt").exists():
                generator = ["-G", "Ninja"] if shutil.which("ninja") else []
                subprocess.run(
                    ["cmake", "-S", str(HERE), "-B", str(BUILD),
                     "-DCMAKE_BUILD_TYPE=Release", *generator],
                    stdout=sys.stderr, check=True)
            subprocess.run(["cmake", "--build", str(BUILD), "-j", jobs],
                           stdout=sys.stderr, check=True)
        except (OSError, subprocess.CalledProcessError) as err:
            log(f"perfbench: build failed: {err}")
            # A half-configured tree would make every later run fail.
            if not (BUILD / "build.ninja").exists() and \
                    not (BUILD / "Makefile").exists():
                shutil.rmtree(BUILD, ignore_errors=True)
            return False
    return True


def run_binary(name, workload, seed, seconds, deadline=None):
    """Runs one binary; returns (exit code, parsed result or None)."""
    cmd = [str(BUILD / name), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    log("perfbench:", " ".join(cmd[1:]), f"({name})")
    if deadline is None:
        deadline = time.monotonic() + RUN_BUDGET_S
    env = dict(os.environ)
    for key, value in BINARY_ENV.items():
        env[key] = ":".join(filter(None, [env.get(key), value]))
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, env=env,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        log(f"perfbench: {name} timed out")
        return 1, None
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result


def metrics_of(values, units):
    missing = sorted(set(units) - set(values))
    if missing:
        raise KeyError(f"binary did not report {missing}")
    return {name: {"value": values[name], "unit": unit}
            for name, unit in units.items()}


def run_workload(workload, seed, seconds, trace):
    """Returns (result dict for stdout, correct) or (None, False)."""
    deadline = time.monotonic() + RUN_BUDGET_S
    code, plain = run_binary("perfbench", workload, seed, seconds, deadline)
    if plain is None:
        return None, False
    correct = code == 0 and plain["correct"]
    if not trace:
        return {"correct": correct, "attempted": plain["attempted"],
                "failed": plain["failed"],
                "metrics": metrics_of(plain["end_to_end"], END_TO_END)}, correct

    code, traced = run_binary("perfbench_traced", workload, seed, seconds,
                              deadline)
    if traced is None:
        return None, False
    correct = correct and code == 0 and traced["correct"]
    # The traced run must not perturb the workload: every exact count
    # (records, events, digests) has to match the untraced run's.
    if traced["counts"] != plain["counts"]:
        log("perfbench: traced counts differ from untraced:",
            json.dumps(traced["counts"]), "vs", json.dumps(plain["counts"]))
        correct = False
    layer = dict(traced["per_layer"])
    layer["tracing.overhead"] = traced["run_wall_s"] / plain["run_wall_s"] - 1
    # Wall time per record comes from the untraced run: in the traced one
    # every thread bumps the allocation probe's shared counter.
    layer["path.wall_ns_per_record"] = plain["per_layer"]["path.wall_ns_per_record"]
    layer["path.unattributed_ns_per_record"] = (
        layer["path.wall_ns_per_record"] - layer["path.attributed_ns_per_record"])
    # Replay attribution may never claim more than the measured wall time.
    if layer["path.unattributed_ns_per_record"] < 0:
        log("perfbench: replayed self time exceeds measured wall time")
        correct = False
    if workload == "metro_10k":
        code, soak = run_binary("perfbench", SOAK, seed, seconds, deadline)
        if soak is None:
            return None, False
        correct = correct and code == 0 and soak["correct"]
        layer.update({name: soak["per_layer"][name] for name in SOAK_LAYERS})
    return {"correct": correct, "attempted": traced["attempted"],
            "failed": traced["failed"],
            "metrics": metrics_of(layer, PER_LAYER)}, correct


def self_test(seconds):
    """Seeds 1 and 2 on every workload (both pass, digests differ), the
    traced metro_10k run against the untraced one (with its 4-shard parity
    run and the roam_soak scenario), and BENCHMARK.json against the metrics
    this script reports."""
    ok = True
    manifest = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = lambda key: [m["name"] for m in manifest[key]]
    for key, expected in (("end_to_end", END_TO_END), ("per_layer", PER_LAYER)):
        if sorted(names(key)) != sorted(expected):
            log(f"self-test: BENCHMARK.json {key} != run.py's list")
            ok = False
    if [w["name"] for w in manifest["workloads"]] != WORKLOADS:
        log("self-test: BENCHMARK.json workloads != run.py's list")
        ok = False
    for workload in WORKLOADS:
        digests = []
        for seed in (1, 2):
            code, res = run_binary("perfbench", workload, seed, seconds)
            passed = res is not None and code == 0 and res["correct"]
            digest = None if res is None else (
                res["counts"].get("trace_digest")
                or res["counts"].get("store_digest"))
            digests.append(digest)
            log(f"self-test: {workload} seed {seed}: "
                f"{'PASS' if passed else 'FAIL'} digest {digest}")
            ok = ok and passed
        if digests[0] is None or digests[0] == digests[1]:
            log(f"self-test: {workload}: seeds 1 and 2 gave the same digest")
            ok = False
    result, correct = run_workload("metro_10k", 1, seconds, trace=True)
    log(f"self-test: traced metro_10k matches untraced: "
        f"{'PASS' if correct else 'FAIL'}")
    ok = ok and correct and result is not None
    log("self-test:", "PASS" if ok else "FAIL")
    return ok


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ["all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    args = parser.parse_args()
    if not args.self_test and args.workload is None:
        parser.error("--workload is required")
    if not build():
        return 1
    if args.self_test:
        return 0 if self_test(args.seconds) else 1
    all_correct = True
    names = WORKLOADS if args.workload == "all" else [args.workload]
    for name in names:
        try:
            result, correct = run_workload(name, args.seed, args.seconds,
                                           bool(args.trace))
        except KeyError as err:
            log(f"perfbench: {err}")
            return 1
        if result is None:
            log(f"perfbench: {name}: no result")
            return 1
        if len(names) > 1:
            result = {"workload": name, **result}
        print(json.dumps(result), flush=True)
        all_correct = all_correct and correct
    return 0 if all_correct else 1


if __name__ == "__main__":
    sys.exit(main())
