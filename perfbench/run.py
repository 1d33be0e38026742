#!/usr/bin/env python3
"""Repository benchmark: simulated requests per host second.

Builds the simulator library and the measuring program (stepbench) from
source with perfbench/CMakeLists.txt, runs one workload, checks its
outputs, and prints every metric by name and unit. The last line of
standard output is one JSON object with the keys correct, attempted,
failed and metrics.

    python3 perfbench/run.py --workload engine_bursty --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --selftest

--trace 0 measures the end-to-end metrics: the workload's instances are
split over ROUNDS processes, each of which sets the whole workload up
and serves its share; the rounds run at once, each pinned to a CPU of
its own (in waves when fewer CPUs are available), so a run averages over
the host's CPUs instead of riding one CPU's slow spells. Calls, set-ups
and the host-speed probe are timed in CPU seconds of the round's
process, so time the process spends descheduled (by the guest or by the
hypervisor) counts in none of them. Setup time and peak RSS are medians
over rounds, sim_req_per_s pools every timed call. --trace 1 is the separate traced
run: one process takes the per-layer measurements and prints its spans'
self-time table. BENCHMARK.json at the checkout root names the metrics;
a run that does not produce exactly those names is not correct.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH_DIR = Path(__file__).resolve().parent
ROUNDS = 4
# Mean host seconds of one stepbench probe pass (probeSeconds) on the
# reference box, a shared 4-core x86 VM in a quiet spell: host times are
# reported in the reference box's seconds (see host_factor below).
PROBE_REF_S = 0.0045
# Every run, its build included, must end well inside the 180 s limit.
DEADLINE_S = 170.0
FNV_OFFSET, FNV_PRIME = 0xCBF29CE484222325, 0x100000001B3


def fail(msg, code=1):
    print(f"perfbench: {msg}", file=sys.stderr)
    sys.exit(code)


def build_dir():
    target = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    if not target.is_absolute():
        target = ROOT / target
    return target / "perfbench"


def build(deadline):
    """Configure and build perfbench/ into the build directory (an
    incremental no-op once built); returns the build directory."""
    if not any((ROOT / "src").rglob("*.cc")):
        fail(f"no simulator sources under {ROOT / 'src'}", 2)
    out = build_dir()
    out.mkdir(parents=True, exist_ok=True)
    log = out / "build.log"
    steps = []
    if not (out / "CMakeCache.txt").exists():
        gen = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(BENCH_DIR), "-B", str(out),
                      "-DCMAKE_BUILD_TYPE=Release", *gen])
    steps.append(["cmake", "--build", str(out), "--parallel", "3"])
    with open(log, "w") as f:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=f, stderr=subprocess.STDOUT,
                                    timeout=max(1.0, deadline - time.monotonic())
                                    ).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                tail = log.read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                fail(f"build failed ({' '.join(cmd[:2])}); log in {log}")
    return out


def run_programs(cmds, deadline):
    """Run the stepbench command lines at once, each pinned to its own
    CPU (in waves of as many as there are CPUs); returns one (exit code,
    stdout lines) per command. Every child is reaped, and killed first if
    it outlives the deadline."""
    cpus = sorted(os.sched_getaffinity(0))
    results = []
    for start in range(0, len(cmds), len(cpus)):
        procs = []
        try:
            for cmd, cpu in zip(cmds[start:start + len(cpus)], cpus):
                procs.append(subprocess.Popen(
                    cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                    text=True,
                    preexec_fn=lambda c=cpu: os.sched_setaffinity(0, {c})))
            for proc in procs:
                try:
                    out, err = proc.communicate(
                        timeout=max(1.0, deadline - time.monotonic()))
                    results.append((proc.returncode, out.splitlines()))
                except subprocess.TimeoutExpired:
                    proc.kill()
                    out, err = proc.communicate()
                    results.append((-1, ["timed out"]))
                if err:
                    sys.stderr.write(err)
        finally:
            for proc in procs:
                if proc.poll() is None:
                    proc.kill()
                proc.wait()
    return results


def run_program(args, deadline):
    """Run one stepbench command, unpinned (the traced run measures two
    worker threads); returns (exit code, stdout lines). The child is
    killed and reaped if it outlives the deadline."""
    try:
        proc = subprocess.run(args, capture_output=True, text=True,
                              timeout=max(1.0, deadline - time.monotonic()))
    except subprocess.TimeoutExpired:
        return -1, ["timed out"]
    if proc.stderr:
        sys.stderr.write(proc.stderr)
    return proc.returncode, proc.stdout.splitlines()


def expected_metrics(key):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[key]}


def percentile(xs, p):
    """Nearest rank, as support/stats percentileSorted computes it."""
    if not xs:
        return 0.0
    rank = math.ceil(p / 100.0 * len(xs))
    return xs[min(max(rank, 1), len(xs)) - 1]


def timed_run(exe, workload, seed, seconds, deadline):
    rounds, errors = [], []
    outputs = run_programs(
        [[str(exe), "--workload", workload, "--seed", str(seed),
          "--seconds", str(seconds), "--mode", "timed",
          "--round", str(r), "--rounds", str(ROUNDS)]
         for r in range(ROUNDS)], deadline)
    for r, (rc, lines) in enumerate(outputs):
        try:
            if rc != 0:
                raise ValueError(f"exit code {rc}")
            rounds.append(json.loads(lines[-1]))
        except (ValueError, IndexError) as e:
            errors.append(f"round {r}: {e}: {' '.join(lines[-3:])}")
    if not rounds:
        return None, errors

    calls = sorted(c for d in rounds for c in d["calls"])
    instances = rounds[0]["instances"]
    for d in rounds:
        errors += d["errors"]
    served = [c[0] for c in calls]
    if not errors and served != list(range(instances)):
        errors.append(f"served instances {served} != 0..{instances - 1}")
    attempted = sum(d["attempted"] for d in rounds)
    failed = sum(d["failed"] for d in rounds)
    requests = sum(c[1] for c in calls)
    sim_seconds = sum(c[2] for c in calls)
    wall_seconds = sum(c[4] for c in calls)
    # Each round's host factor: its mean probe pass over the reference
    # box's. The probe calls no simulator code, so a change to the
    # simulator does not move it; dividing host times by it removes the
    # shared host's slow drift, which the probe follows closely.
    for d in rounds:
        d["host_factor"] = d["probe_s"] / PROBE_REF_S if d["probe_s"] > 0 else 1.0
    ref_seconds = sum(c[2] / d["host_factor"] for d in rounds
                      for c in d["calls"])
    digest = FNV_OFFSET
    for c in calls:
        digest = ((digest ^ int(c[3], 16)) * FNV_PRIME) % (1 << 64)

    ttft = sorted(x for d in rounds for x in d["ttft_cycles"])
    tpot = sorted(x for d in rounds for x in d["tpot_cycles"])
    done = sum(d["completed"] for d in rounds)
    sim_failed = sum(d["sim_failed"] for d in rounds)
    shed = sum(d["shed"] for d in rounds)
    ended = done + sim_failed + shed
    makespan = sum(d["makespan_kcyc"] for d in rounds)
    metrics = {
        "sim_req_per_s": requests / ref_seconds if ref_seconds > 0 else 0.0,
        "setup_s": statistics.median(d["setup_s"] / d["host_factor"]
                                     for d in rounds),
        "peak_rss_mb": statistics.median(d["peak_rss_mb"] for d in rounds),
    }
    simulated = {
        "ttft_p50_kcyc": (percentile(ttft, 50) / 1000.0, "kcyc"),
        "ttft_p95_kcyc": (percentile(ttft, 95) / 1000.0, "kcyc"),
        "tpot_p95_kcyc": (percentile(tpot, 95) / 1000.0, "kcyc"),
        "goodput_tok_per_kcyc": (
            sum(d["slo_good_tokens"] for d in rounds) / makespan
            if makespan > 0 else 0.0, "tok/kcyc"),
        "availability": (done / ended if ended else 1.0, "frac"),
        "sim_failed_or_shed_share": (
            (sim_failed + shed) / ended if ended else 0.0, "frac"),
    }
    print(f"{workload} seed {seed}: {instances} instances, {requests} "
          f"requests in {len(calls)} timed calls over {len(rounds)} rounds, "
          f"{sim_seconds:.3f} CPU s simulating ({wall_seconds:.3f} wall s), "
          f"{ref_seconds:.3f} s on the reference box")
    print(f"  unscaled: {requests / sim_seconds if sim_seconds > 0 else 0:.6g}"
          f" req/s; host factor per round "
          + " ".join(f"{d['host_factor']:.4f} ({d['probes']} probes)"
                     for d in rounds))
    print(f"  setup_s per round (CPU s): "
          + " ".join(f"{d['setup_s']:.6f}" for d in rounds))
    print(f"  simulated outcomes: {done} completed, {sim_failed} failed, "
          f"{shed} shed (open loop in simulated time: no generator "
          f"lateness on the host)")
    for name, (value, unit) in simulated.items():
        print(f"  {name:26s} {value:14.6g} {unit}")
    print(f"  outcome digest {digest:016x}")
    return dict(metrics=metrics, attempted=attempted, failed=failed), errors


def traced_run(exe, out, workload, seed, seconds, deadline):
    spans = out / "spans" / f"{workload}-seed{seed}.jsonl"
    spans.parent.mkdir(parents=True, exist_ok=True)
    rc, lines = run_program(
        [str(exe), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--mode", "traced",
         "--spans", str(spans)], deadline)
    for line in lines[:-1]:
        print(line)
    try:
        if rc != 0:
            raise ValueError(f"exit code {rc}")
        d = json.loads(lines[-1])
    except (ValueError, IndexError) as e:
        return None, [f"traced run: {e}: {' '.join(lines[-3:])}"]
    print(f"  spans -> {spans}")
    errors = [] if d["correct"] else ["traced run reported failed checks"]
    metrics = {k: v["value"] for k, v in d["metrics"].items()}
    return dict(metrics=metrics, attempted=d["attempted"],
                failed=d["failed"]), errors


def run_workload(exe, out, workload, seed, seconds, trace, deadline):
    """One workload's result object (the benchmark's last line)."""
    expected = expected_metrics("per_layer" if trace else "end_to_end")
    if trace:
        res, errors = traced_run(exe, out, workload, seed, seconds, deadline)
    else:
        res, errors = timed_run(exe, workload, seed, seconds, deadline)
    if res is None:
        for e in errors:
            print(f"  CHECK FAILED: {e}")
        return None
    if set(res["metrics"]) != set(expected):
        errors.append("metric names differ from BENCHMARK.json: "
                      f"{sorted(set(res['metrics']) ^ set(expected))}")
    for e in errors:
        print(f"  CHECK FAILED: {e}")
    metrics = {}
    for name, unit in expected.items():
        if name in res["metrics"]:
            metrics[name] = {"value": res["metrics"][name], "unit": unit}
            print(f"  {name:32s} {res['metrics'][name]:16.6g} {unit}")
    return {"correct": not errors, "attempted": max(1, res["attempted"]),
            "failed": res["failed"], "metrics": metrics}


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="build and run the self-test of the derivations")
    a = ap.parse_args()
    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "BENCHMARK.json").exists():
        fail(f"{ROOT / 'BENCHMARK.json'} missing", 2)
    if a.seconds < 1:
        fail("--seconds must be >= 1", 2)
    out = build(deadline)
    if a.selftest:
        sys.exit(subprocess.run([str(out / "stepbench_selftest")]).returncode)
    if not a.workload:
        fail("--workload is required", 2)

    names = [w["name"] for w in
             json.loads((ROOT / "BENCHMARK.json").read_text())["workloads"]]
    todo = names if a.workload == "all" else [a.workload]
    if any(w not in names for w in todo):
        fail(f"unknown workload {a.workload!r}; one of {names} or 'all'", 2)
    results = {}
    for w in todo:
        if len(todo) > 1:
            # Each workload gets the deadline of a single run.
            deadline = time.monotonic() + DEADLINE_S
        res = run_workload(out / "stepbench", out, w, a.seed, a.seconds,
                           a.trace, deadline)
        if res is None:
            fail(f"{w}: no result")
        results[w] = res
    if len(todo) == 1:
        print(json.dumps(results[todo[0]]))
        return
    print(json.dumps({
        "correct": all(r["correct"] for r in results.values()),
        "attempted": sum(r["attempted"] for r in results.values()),
        "failed": sum(r["failed"] for r in results.values()),
        "metrics": {f"{w}.{k}": v for w, r in results.items()
                    for k, v in r["metrics"].items()},
    }))


if __name__ == "__main__":
    main()
