#!/usr/bin/env python3
"""The downup benchmark: seeded workloads, end-to-end and per-layer metrics.

Run from the root of a source tree (nothing needs installing; the library
is imported from ``src/``):

    python3 bench/run.py                                  # every workload
    python3 bench/run.py --workload products --seed 1 --seconds 15 --trace 0
    python3 bench/run.py --workload leibniz --trace 1     # per-layer run
    python3 bench/run.py --smoke                          # tiny self-test

Each run prints a summary line with units, a JSON line of run facts
(Python version, core count, git SHA, seed, the percentile behind
``op_tail_ms``, error rate) and, last, one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  ``--trace 0``
reports the end-to-end metrics of BENCHMARK.json, ``--trace 1`` the
per-layer ones.

The load is a closed loop: one client, no threads, one op at a time.  The
measuring happens in fresh child processes of this script: several that
only import and set up (``setup_s`` is their median), and one that runs
ops until ``--seconds`` of op time have been spent, stopping at the end of
a round of the workload's fixed mix.  Op times are scaled to a reference
machine speed by a calibration kernel timed between blocks of ops (see
BLOCK_S).  A traced run instead runs a fixed number of ops twice,
untraced and traced, in two fresh children, so its counts repeat exactly
for a given seed and ``trace.overhead`` compares the two.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")

DEFAULT_SEED = 1
HOLDOUT_SEED = 9001      # kept for confirming a claim; do not tune on it
DEFAULT_SECONDS = 15
SETUP_PROBES = 7
# Op times are scaled to a reference machine speed.  The development box's
# speed drifts by up to a quarter over seconds to minutes, in CPU time as
# much as in wall time, so after every BLOCK_S of op time the child times
# a fixed stdlib Fraction kernel, shaped like the library's polynomial
# product but sharing no code with it, and multiplies the block's op times
# by CAL_REF_S over the kernel's mean time before and after the block.  A
# change to the library cannot change the kernel.
BLOCK_S = 0.5
CAL_REF_S = 0.0017
# op_tail_ms per workload: the highest of p99.9, p99, p95, p90, p75 that
# leaves at least TAIL_BEYOND samples above it in a run at the benchmark's
# first commit, fixed so that runs of different lengths stay comparable; a
# run goes on past --seconds until it has TAIL_BEYOND samples above it
TAIL_PERCENTILE = {"products": 99.0, "leibniz": 99.0, "oracle": 99.9,
                   "cli": 90.0}
TAIL_BEYOND = 10
LOOP_WALL_FACTOR = 4     # a child stops after this many times its seconds of wall
RUN_DEADLINE_S = 170
# ops in a traced run per second of --seconds, rounded up to whole rounds
# of the workload's mix: fixed, so the counts repeat exactly for a seed,
# and sized so each pass takes about --seconds at the first commit
TRACE_OPS_PER_S = {"products": 250, "leibniz": 50, "oracle": 800, "cli": 100}


# ---------------------------------------------------------------------------
# child processes: they import the library; the parent never does

_KERNEL_A = tuple(Fraction(i, i + 2) for i in range(1, 25))
_KERNEL_B = tuple(Fraction(-i, 2 * i + 1) for i in range(1, 25))


def kernel_seconds():
    """Median time of three runs of the calibration kernel, a dense
    product of two 24-term Fraction polynomials."""
    times = []
    for _ in range(3):
        start = time.perf_counter()
        out = [0] * (len(_KERNEL_A) + len(_KERNEL_B) - 1)
        for i, a in enumerate(_KERNEL_A):
            for j, b in enumerate(_KERNEL_B):
                out[i + j] = out[i + j] + a * b
        times.append(time.perf_counter() - start)
    return statistics.median(times)


def _import_library():
    """Import downup from this tree's src/ and nowhere else."""
    sys.path.insert(0, SRC)
    sys.path.insert(1, HERE)
    import downup
    if not os.path.abspath(downup.__file__).startswith(SRC + os.sep):
        raise ImportError("downup imported from %s, not %s"
                          % (downup.__file__, SRC))


def child_setup(workload, seed):
    """Time a fresh import plus building the workload's algebras and
    derivations, scaled like the op times; generating the raw inputs is
    not timed."""
    kernel_before = kernel_seconds()
    start = time.perf_counter()
    _import_library()
    imported = time.perf_counter()
    import workloads
    wl = workloads.WORKLOADS[workload]()
    plan = wl.plan(random.Random(seed))
    start_build = time.perf_counter()
    wl.build(plan)
    elapsed = (imported - start) + (time.perf_counter() - start_build)
    kernel_after = kernel_seconds()
    return {"setup_s": elapsed * CAL_REF_S / ((kernel_before + kernel_after) / 2)}


def child_measure(workload, seed, seconds, ops, trace, in_process):
    """Run ops until `seconds` of op time (or exactly `ops` ops) and return
    their scaled latencies, the failures among them and the raw op time."""
    start = time.perf_counter()
    _import_library()
    import downup.cli  # noqa: F401  (so the tracer can wrap cli.main)
    import_s = time.perf_counter() - start
    import reference
    import workloads
    from tracer import Tracer

    rng = random.Random(seed)
    wl = workloads.WORKLOADS[workload]()
    wl.in_process = in_process
    tracer = Tracer() if trace else None
    plan = wl.plan(rng)
    if tracer:
        tracer.install()
        tracer.active = True
    wl.build(plan)
    if tracer:
        tracer.active = False

    if ops is not None:
        ops = -(-ops // wl.cycle) * wl.cycle
    min_ops = math.ceil(TAIL_BEYOND * 100 / (100 - TAIL_PERCENTILE[workload]))
    latencies, failed, block = [], set(), []
    spent = block_spent = 0.0
    wall_start = time.perf_counter()
    kernel_before = kernel_seconds()
    while True:
        n = len(latencies) + len(block)
        if ops is not None:
            if n >= ops:
                break
        elif spent >= seconds and n >= min_ops and n % wl.cycle == 0:
            break
        if n and time.perf_counter() - wall_start > LOOP_WALL_FACTOR * seconds:
            break
        op = wl.next_op(rng)
        if tracer:
            tracer.op = n
            tracer.active = True
        t0 = time.perf_counter()
        try:
            result = wl.run(op)
        except Exception as exc:  # a failed op is counted, not fatal
            result = exc
        elapsed = time.perf_counter() - t0
        if tracer:
            tracer.active = False
        block.append(elapsed)
        spent += elapsed
        block_spent += elapsed
        if block_spent >= BLOCK_S:
            kernel_before = scale_block(block, kernel_before, latencies)
            block_spent = 0.0
        if isinstance(result, Exception):
            print("op %d failed: %r" % (n, result), file=sys.stderr)
            failed.add(n)
        elif not wl.check(op, result):
            failed.add(n)
    if block:
        scale_block(block, kernel_before, latencies)

    who = (resource.RUSAGE_CHILDREN if workload == "cli" and not in_process
           else resource.RUSAGE_SELF)
    peak_rss_mb = resource.getrusage(who).ru_maxrss / 1024.0
    if workload == "products":
        failed |= reference.mismatched_ops(seed, wl.digests)
    out = {"latencies": latencies, "raw_s": spent, "failed": len(failed),
           "peak_rss_mb": peak_rss_mb, "import_s": import_s,
           "loop_wall_s": time.perf_counter() - wall_start}
    if tracer:
        out["layers"] = tracer.layer_metrics()
        os.makedirs(OUT, exist_ok=True)
        path = os.path.join(OUT, "spans-%s-seed%d.jsonl" % (workload, seed))
        tracer.write_spans(path)
        out["spans_file"] = os.path.relpath(path, ROOT)
        out["spans_dropped"] = tracer.dropped
    return out


def scale_block(block, kernel_before, latencies):
    """Move the block's op times, scaled to the reference speed, into
    latencies; return the kernel time measured after the block."""
    kernel_after = kernel_seconds()
    factor = CAL_REF_S / ((kernel_before + kernel_after) / 2)
    latencies.extend(t * factor for t in block)
    block.clear()
    return kernel_after


# ---------------------------------------------------------------------------
# the parent: runs children and reports

class ChildFailed(RuntimeError):
    pass


def run_child(args, deadline):
    """Run this script as a child and return the JSON on its last line."""
    cmd = [sys.executable, os.path.abspath(__file__)] + [str(a) for a in args]
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.communicate()
        raise ChildFailed("child %s timed out" % " ".join(map(str, args)))
    if proc.returncode != 0:
        raise ChildFailed("child %s exited %d:\n%s"
                          % (" ".join(map(str, args)), proc.returncode, err))
    if err:
        sys.stderr.write(err)
    return json.loads(out.strip().splitlines()[-1])


def load_spec():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def git_sha():
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return proc.stdout.strip() or "unknown"


def ops_per_s(latencies):
    return len(latencies) / sum(latencies)


def run_workload(workload, seed, seconds, trace, probes=SETUP_PROBES):
    """One benchmark run: (result object, facts about the run)."""
    deadline = time.monotonic() + RUN_DEADLINE_S
    base = ["--workload", workload, "--seed", seed]
    facts = {"workload": workload, "seed": seed, "seconds": seconds,
             "trace": trace, "python": platform.python_version(),
             "nproc": os.cpu_count(), "git_sha": git_sha()}
    if not trace:
        setups = [run_child(["--role", "setup"] + base, deadline)["setup_s"]
                  for _ in range(probes)]
        m = run_child(["--role", "measure", "--seconds", seconds] + base,
                      deadline)
        ordered = sorted(m["latencies"])
        percentile = TAIL_PERCENTILE[workload]
        rank = math.ceil(percentile / 100 * len(ordered))
        metrics = {"ops_per_s": (ops_per_s(ordered), "1/s"),
                   "op_p50_ms": (statistics.median(ordered) * 1e3, "ms"),
                   "op_tail_ms": (ordered[rank - 1] * 1e3, "ms"),
                   "setup_s": (statistics.median(setups), "s"),
                   "peak_rss_mb": (m["peak_rss_mb"], "MB")}
        runs = [m]
        facts.update(ops=len(ordered), tail_percentile=percentile,
                     tail_beyond=len(ordered) - rank,
                     unscaled_ops_per_s=len(ordered) / m["raw_s"],
                     setup_samples_s=setups, loop_wall_s=m["loop_wall_s"])
    else:
        # the same fixed ops untraced, then traced; for cli both call
        # cli.main in-process, so the tracer sees the layers below it
        n_ops = max(1, round(seconds * TRACE_OPS_PER_S[workload]))
        fixed = ["--role", "trace", "--seconds", seconds, "--ops", n_ops] + base
        plain = run_child(fixed + ["--trace", 0], deadline)
        traced = run_child(fixed + ["--trace", 1], deadline)
        metrics = {name: tuple(v) for name, v in traced["layers"].items()}
        metrics["cli.import_s"] = (traced["import_s"], "s")
        metrics["trace.overhead"] = (ops_per_s(traced["latencies"])
                                     / ops_per_s(plain["latencies"]), "ratio")
        runs = [plain, traced]
        facts.update(traced_ops=len(traced["latencies"]),
                     spans_file=traced["spans_file"],
                     spans_dropped=traced["spans_dropped"])
    attempted = sum(len(r["latencies"]) for r in runs)
    failed = sum(r["failed"] for r in runs)
    facts["error_rate"] = failed / attempted
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    return result, facts


def summary_line(result, facts):
    parts = ["%s=%.6g %s" % (name, m["value"], m["unit"])
             for name, m in result["metrics"].items()]
    parts.append("error_rate=%.6g (%d/%d)" % (facts["error_rate"],
                                              result["failed"],
                                              result["attempted"]))
    tail = (" tail=p%g" % facts["tail_percentile"]
            if "tail_percentile" in facts else "")
    return "%s seed=%d%s: %s" % (facts["workload"], facts["seed"], tail,
                                 "  ".join(parts))


def smoke(seed):
    """Every workload at a tiny size, traced and untraced: each metric of
    BENCHMARK.json is emitted with its unit and no op fails."""
    spec = load_spec()
    wanted = {0: {m["name"]: m["unit"] for m in spec["end_to_end"]},
              1: {m["name"]: m["unit"] for m in spec["per_layer"]}}
    problems = []
    for workload in [w["name"] for w in spec["workloads"]]:
        for trace in (0, 1):
            result, facts = run_workload(workload, seed, 0.2, trace, probes=1)
            print(summary_line(result, facts))
            got = {n: m["unit"] for n, m in result["metrics"].items()}
            if got != wanted[trace]:
                problems.append("%s trace=%d: metrics %s, expected %s"
                                % (workload, trace, got, wanted[trace]))
            if facts["error_rate"] != 0 or not result["correct"]:
                problems.append("%s trace=%d: error_rate %g"
                                % (workload, trace, facts["error_rate"]))
    for line in problems:
        print("smoke: " + line, file=sys.stderr)
    print("smoke: %s" % ("FAILED" if problems else "ok"))
    return 1 if problems else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all",
                        help="products, leibniz, oracle, cli or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=DEFAULT_SECONDS,
                        help="op time one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="run every workload tiny and check the output")
    parser.add_argument("--role", choices=("setup", "measure", "trace"),
                        help=argparse.SUPPRESS)
    parser.add_argument("--ops", type=int, help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "downup", "__init__.py")):
        print("error: no library at %s" % os.path.join(SRC, "downup"),
              file=sys.stderr)
        return 2
    if args.role == "setup":
        print(json.dumps(child_setup(args.workload, args.seed)))
        return 0
    if args.role in ("measure", "trace"):
        print(json.dumps(child_measure(args.workload, args.seed, args.seconds,
                                       args.ops, args.trace,
                                       args.role == "trace")))
        return 0
    if args.smoke:
        return smoke(args.seed)

    names = [w["name"] for w in load_spec()["workloads"]]
    chosen = names if args.workload == "all" else [args.workload]
    if not set(chosen) <= set(names):
        parser.error("unknown workload %r" % args.workload)
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in chosen:
        try:
            result, facts = run_workload(workload, args.seed, args.seconds,
                                         args.trace)
        except ChildFailed as exc:
            print("error: %s" % exc, file=sys.stderr)
            return 1
        print(summary_line(result, facts))
        print(json.dumps({"run": facts}))
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            key = name if len(chosen) == 1 else "%s.%s" % (workload, name)
            merged["metrics"][key] = m
    print(json.dumps(merged))
    return 0


if __name__ == "__main__":
    sys.exit(main())
