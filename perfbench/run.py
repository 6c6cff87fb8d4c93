"""Benchmark entry point: one workload, one seed, one JSON result line.

Usage (from the root of a checkout)::

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 10 --trace 0

The command re-runs itself as a child process that does only this
workload, so ``peak_rss_mb`` is that child's high-water mark and not
another workload's.  The child sets up the workload's inputs from the seed
(several times, for ``setup_s``), runs the timed phase, checks every output
and reports raw samples; this parent turns them into the metrics named in
``BENCHMARK.json`` and prints them as the last line of standard output:

* ``--trace 0``: the end-to-end metrics, with tracing off.
* ``--trace 1``: the per-layer metrics.  The timed work runs twice, first
  untraced and then with :mod:`tracing` installed, so ``trace_overhead`` is
  measured in the same run; the spans are written under ``.perfbench_out``.

Exit status is 0 only when every correctness check passed.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT_DIR = os.path.join(ROOT, ".perfbench_out")
WORK_DIR = os.path.join(ROOT, ".perfbench_work")
CHILD_TIMEOUT_S = 170

WORKLOAD_NAMES = ("sweep", "serve", "follow", "mine")

#: Traced runs do a fixed amount of work per workload (passes, mining jobs)
#: so per-layer counts repeat exactly for a seed and compare across
#: revisions; serve's work is already fixed by its rates and step lengths.
TRACE_PASSES = {"sweep": 3, "follow": 3, "mine": 2, "serve": None}

END_TO_END_UNITS = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_p99_ms": "ms",
}


def _parse(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true",
                        help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    return args


def calibrate() -> float:
    """Seconds for a fixed pure-Python loop: host context, not a metric."""
    started = time.perf_counter()
    total = 0
    for value in range(1_000_000):
        total += value * value % 7
    return time.perf_counter() - started


# ----------------------------------------------------------------- child
def _layer_metrics(workload, state, summary, recorder, base,
                   traced) -> dict[str, float]:
    from tracing import RPC_METHODS
    from workloads import latency

    def span(name: str, field: str) -> float:
        return float(summary.get(name, {}).get(field, 0.0))

    metrics: dict[str, float] = {}
    keccak_calls = span("utils.keccak", "calls")
    metrics["utils.keccak.calls"] = keccak_calls
    metrics["utils.keccak.bytes"] = float(recorder.keccak_bytes)
    metrics["utils.keccak.self_s"] = span("utils.keccak", "self_s")
    metrics["utils.keccak.distinct_ratio"] = (
        len(recorder.keccak_inputs) / keccak_calls if keccak_calls else 0.0)
    for name in ("evm.execute", "chain.send_transaction",
                 "core.monitor.poll"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.self_s"] = span(name, "self_s")
    for name in ("chain.snapshot", "chain.revert", "chain.fork",
                 "store.commit", "store.read", "store.invalidate"):
        metrics[f"{name}.calls"] = span(name, "calls")
        metrics[f"{name}.s"] = span(name, "s")
    for method in RPC_METHODS:
        metrics[f"rpc.{method}.calls"] = span(f"rpc.{method}", "calls")
    for name in ("core.analyze_all", "core.analyze_contract",
                 "core.proxy_check", "core.logic_history",
                 "core.function_collision", "core.storage_collision",
                 "serve.route"):
        metrics[f"{name}.self_s"] = span(name, "self_s")
    tags = summary.get("serve.query", {}).get("by_tag", {})
    hit_n, hit_s = tags.get("store", (0, 0.0))
    fresh_n, fresh_s = tags.get("fresh", (0, 0.0))
    metrics["serve.query.hit.s"] = hit_s
    metrics["serve.query.fresh.s"] = fresh_s
    metrics["serve.hit_ratio"] = (hit_n / (hit_n + fresh_n)
                                  if hit_n + fresh_n else 0.0)
    metrics["serve.admission_wait_s"] = span("serve.admission", "s")
    queries = span("serve.query", "calls")
    client_s, client_n = state.get("service", (0.0, 0))
    metrics["serve.http_overhead_ms"] = (
        (client_s / client_n - span("serve.query", "s") / queries) * 1000
        if client_n and queries else 0.0)
    for name in ("rpc.getstorageat_per_proxy", "store.bytes_per_contract",
                 "core.dedup.proxy_check.hit_ratio",
                 "core.dedup.function_collision.hit_ratio",
                 "core.dedup.storage_collision.hit_ratio",
                 "core.mine.attempts", "core.monitor.reorgs",
                 "core.monitor.invalidated", "core.monitor.reanalysis_ratio",
                 "serve.refused", "serve.lateness_p99_ms", "serve.max_qps"):
        metrics[name] = 0.0
    metrics.update(workload.layers(state))
    metrics["corpus.generate.s"] = statistics.median(workload.generate_s)
    self_total = sum(entry["self_s"] for entry in summary.values())
    metrics["unattributed_s"] = traced.wall_s - self_total
    untraced_p50 = latency(base, 0.5)
    metrics["trace_overhead"] = (latency(traced, 0.5) / untraced_p50
                                 if untraced_p50 else 0.0)
    return metrics


def child(args: argparse.Namespace) -> int:
    source = os.path.join(ROOT, "src")
    if not os.path.isdir(os.path.join(source, "repro")):
        print(f"perfbench: no repro package under {source}", file=sys.stderr)
        return 2
    sys.path.insert(0, source)
    import repro  # noqa: F401  (fail here, before any timing)
    from workloads import (SETUP_REPEATS, WORKLOADS, Phase, Workdir,
                           latency, throughput, world_seed)

    calibration_s = calibrate()
    workdir = Workdir(os.path.join(
        WORK_DIR, f"{args.workload}-{args.seed}-{os.getpid()}"))
    try:
        workload = WORKLOADS[args.workload](workdir)
        worlds, setup_s = [], []
        for index in range(SETUP_REPEATS):
            started = time.perf_counter()
            worlds.append(workload.setup(world_seed(args.seed, index)))
            setup_s.append(time.perf_counter() - started)
        state = workload.prepare(worlds)
        del worlds
        # The inputs live for the whole run: move them out of the cyclic
        # collector's reach, so timed phases pay only for the collections
        # their own allocations cause, not for traversing the set-up heap.
        gc.collect()
        gc.freeze()
        detail: dict = {}
        if args.trace:
            from tracing import SpanRecorder, install

            passes = TRACE_PASSES[args.workload]
            base = workload.measure(state, args.seconds / 2, passes=passes)
            recorder = SpanRecorder()
            installation = install(recorder)
            try:
                traced = workload.measure(state, args.seconds / 2,
                                          recorder=recorder, passes=passes)
            finally:
                installation.restore()
            phase = traced
            summary = recorder.summary()
            metrics = _layer_metrics(workload, state, summary, recorder,
                                     base, traced)
            os.makedirs(OUT_DIR, exist_ok=True)
            spans_path = os.path.join(
                OUT_DIR, f"{args.workload}-seed{args.seed}.spans.jsonl.gz")
            detail["spans"] = recorder.write(spans_path)
            detail["spans_path"] = os.path.relpath(spans_path, ROOT)
            detail["not_traced"] = installation.missing
            attempted = base.attempted + traced.attempted
            failed = base.failed + traced.failed
            problems = workload.check(
                state, Phase(attempted=attempted, failed=failed))
        else:
            phase = workload.measure(state, args.seconds)
            problems = workload.check(state, phase)
            attempted, failed = phase.attempted, phase.failed
            metrics = {
                "setup_s": statistics.median(setup_s),
                "throughput_per_s": throughput(phase),
                "latency_p50_ms": latency(phase, 0.50) * 1000,
                "latency_p99_ms": latency(phase, 0.99) * 1000,
            }
        detail.update(
            workload=args.workload, seed=args.seed, trace=args.trace,
            setup_s=setup_s, latency_samples=len(phase.latencies_s),
            items=phase.items, timed_s=phase.elapsed_s,
            calibration_s=calibration_s, problems=problems,
            host={"nproc": os.cpu_count(),
                  "usable_cpus": len(os.sched_getaffinity(0)),
                  "python": platform.python_version(),
                  "machine": platform.machine()})
        # This process ran only the workload (the serve load generator is
        # a process of its own), so its high-water mark is the workload's.
        detail["peak_rss_mb"] = (
            resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024)
        print(json.dumps({"metrics": metrics, "attempted": attempted,
                          "failed": failed, "problems": problems,
                          "detail": detail}))
    finally:
        workdir.cleanup()
    return 0


# ---------------------------------------------------------------- parent
def parent(args: argparse.Namespace) -> int:
    command = [sys.executable, os.path.abspath(__file__), "--child",
               "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", repr(args.seconds), "--trace", str(args.trace)]
    # Keep any temporary file (Python's or sqlite's) inside the checkout.
    os.makedirs(WORK_DIR, exist_ok=True)
    env = dict(os.environ, TMPDIR=WORK_DIR, SQLITE_TMPDIR=WORK_DIR)
    try:
        completed = subprocess.run(command, cwd=ROOT, stdout=subprocess.PIPE,
                                   env=env, timeout=CHILD_TIMEOUT_S,
                                   check=False)
    except subprocess.TimeoutExpired:
        print(f"perfbench: {args.workload} exceeded {CHILD_TIMEOUT_S}s",
              file=sys.stderr)
        return 3
    if completed.returncode != 0:
        print(f"perfbench: {args.workload} child exited "
              f"{completed.returncode}", file=sys.stderr)
        return completed.returncode or 1
    lines = completed.stdout.decode("utf-8").strip().splitlines()
    try:
        report = json.loads(lines[-1])
    except (IndexError, json.JSONDecodeError):
        print("perfbench: the child printed no result", file=sys.stderr)
        return 4
    detail = report["detail"]
    if args.trace:
        metrics = {name: {"value": value, "unit": _layer_unit(name)}
                   for name, value in report["metrics"].items()}
    else:
        values = dict(report["metrics"], peak_rss_mb=detail["peak_rss_mb"])
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in END_TO_END_UNITS.items()}
    correct = not report["problems"]
    os.makedirs(OUT_DIR, exist_ok=True)
    detail["metrics"] = metrics
    with open(os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}-"
                                    f"trace{args.trace}.json"), "w",
              encoding="utf-8") as sink:
        json.dump(detail, sink, indent=2, sort_keys=True)
    for problem in report["problems"]:
        print(f"perfbench: {args.workload}: {problem}", file=sys.stderr)
    print(f"perfbench: {args.workload} seed {args.seed}: "
          f"{detail['latency_samples']} latency samples, "
          f"{detail['items']} items in {detail['timed_s']:.2f}s, "
          f"calibration {detail['calibration_s']:.3f}s, "
          f"nproc {detail['host']['nproc']}, "
          f"python {detail['host']['python']}", file=sys.stderr)
    print(json.dumps({"correct": correct,
                      "attempted": max(1, int(report["attempted"])),
                      "failed": int(report["failed"]),
                      "metrics": metrics}))
    return 0 if correct else 1


def _layer_unit(name: str) -> str:
    if name.endswith((".calls", ".attempts", ".reorgs", ".invalidated",
                      ".refused")):
        return "count"
    if name.endswith("_ms"):
        return "ms"
    if name.endswith((".s", "_s")):
        return "s"
    if name.endswith("_qps"):
        return "1/s"
    if name.endswith((".bytes", "bytes_per_contract")):
        return "B"
    return "ratio"


def main(argv: list[str] | None = None) -> int:
    args = _parse(sys.argv[1:] if argv is None else argv)
    return child(args) if args.child else parent(args)


if __name__ == "__main__":
    sys.exit(main())
