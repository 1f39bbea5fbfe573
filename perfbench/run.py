#!/usr/bin/env python3
"""caosim benchmark: one command for the loop, chain and ensemble workloads.

    python3 perfbench/run.py [--workload loop|chain|ensemble|all] [--seed N]
                             [--seconds S] [--trace 0|1]

Builds a private copy of ``src/caosim`` with its compiled kernel under
``.bench_build/perfbench`` (reused while the sources are unchanged), runs each
workload in a process of its own, prints every metric by name with its unit,
writes the full record to ``.bench_build/perfbench/results/``, and prints as
its last line one JSON object: ``correct``, ``attempted``, ``failed`` and
``metrics`` (the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``). See ``perfbench/README.md``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

from build import BuildError, build

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".bench_build" / "perfbench"
SETUP_PROBES = 6  # extra fresh processes timed for set-up; the worker is one more
WORKLOAD_TIMEOUT_S = 170  # all processes of one workload; a run must end within 180 s


def worker(lib: Path, args, deadline: float, *extra: str) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--lib", str(lib),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--tmp", str(OUT / "tmp"), *extra]
    done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
                          timeout=max(1.0, deadline - time.monotonic()))
    if done.returncode != 0:
        raise RuntimeError(f"worker for {args.workload} exited with {done.returncode}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def percentile(values: list[float], q: float) -> float:
    ordered = sorted(values)
    return ordered[min(len(ordered) - 1, int(q * len(ordered)))]


def per_run(samples: list[float], units: int) -> list[float]:
    """Mean time per unit of each run of a pass (samples come run by run)."""
    return [statistics.fmean(samples[i:i + units]) for i in range(0, len(samples), units)]


def end_to_end(workload: str, raw: dict, setup_samples: list[float]) -> tuple[dict, list]:
    """The gated metrics, and report lines for the figures named per workload.

    A ``solve_s`` metric is the median over a pass's runs of the mean
    reference-scaled time per unit: one solve on ``loop`` and ``chain``, one
    graph on ``ensemble``. On ``chain`` the gated ``solve_s.*`` are the named
    figures themselves; every report line also gives the raw wall-clock figure.
    """
    units = raw["units"]
    metrics = {"setup_s": (statistics.median(setup_samples), "s")}
    for p, xs in raw["scaled"].items():
        metrics[f"solve_s.{p}"] = (statistics.median(per_run(xs, units)), "s")
    metrics["peak_rss_mb"] = (raw["peak_rss_mb"], "MB")

    lines = []
    for p, xs in raw["scaled"].items():
        runs = len(xs) // units
        solve = metrics[f"solve_s.{p}"][0]
        wall = statistics.median(per_run(raw["samples"][p], units))
        if workload == "loop":
            steps = raw["steps_per_unit"]
            lines.append((f"steps_per_s.{p}", steps / solve, "1/s",
                          f"median of {runs} runs of {steps} steps; wall {steps / wall:.6g}"))
        elif workload == "ensemble":
            above = len(xs) - 1 - int(0.99 * len(xs))
            lines.append((f"graphs_per_s.{p}", 1 / solve, "1/s",
                          f"median of {runs} runs of {units} graphs; wall {1 / wall:.6g}"))
            lines.append((f"graph_ms.p50.{p}", 1000 * statistics.median(xs), "ms",
                          f"of {len(xs)} graph runs; wall {1000 * statistics.median(raw['samples'][p]):.6g}"))
            lines.append((f"graph_ms.p99.{p}", 1000 * percentile(xs, 0.99), "ms",
                          f"of {len(xs)} graph runs, {above} above it"))
        else:
            lines.append((f"solve_s.{p}", solve, "s", f"median of {runs} solves; wall {wall:.6g}"))
    return {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}, lines


def per_layer(raw: dict) -> dict:
    def unit(name: str) -> str:
        if name.endswith("steps_per_s"):
            return "1/s"
        if name.endswith("_s"):
            return "s"
        if name.endswith("ratio"):
            return "ratio"
        return "bytes" if name.endswith("bytes") else "count"

    return {k: {"value": v, "unit": unit(k)} for k, v in raw["layers"].items()}


def git_sha() -> str | None:
    try:
        done = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
    except OSError:
        return None
    return done.stdout.strip() if done.returncode == 0 else None


def run_workload(lib: Path, facts: dict, args) -> dict:
    deadline = time.monotonic() + WORKLOAD_TIMEOUT_S
    if args.trace:
        raw = worker(lib, args, deadline)
        metrics, lines = per_layer(raw), []
        detail = f"{raw['rounds']} untraced/traced round pairs"
    else:
        probes = [worker(lib, args, deadline, "--setup-only")["setup_s"] for _ in range(SETUP_PROBES)]
        raw = worker(lib, args, deadline)
        setup = probes + [raw["setup_s"]]
        metrics, lines = end_to_end(args.workload, raw, setup)
        runs = " ".join(f"{p}={n}" for p, n in raw["runs"].items())
        detail = f"runs {runs} in {raw['measured_s']:.1f} s; set-up median of {len(setup)} processes"

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "git_sha": git_sha(), **facts, **raw["build"],
        "attempted": raw["attempted"], "failed": raw["failed"], "metrics": metrics,
    }
    print(f"== {args.workload}  seed={args.seed}  trace={args.trace}  {detail}")
    print(f"   python {record['python']}  COMPILED_AVAILABLE={record['COMPILED_AVAILABLE']}  "
          f"git {record['git_sha'] or 'n/a'}  source {record['source_sha256'][:12]}")
    print("   backends: " + "  ".join(f"{p}={b}" for p, b in record["pass_backends"].items()))
    for name, m in metrics.items():
        print(f"   {name:42s} {m['value']:>14.6g} {m['unit']}")
    for name, value, unit, note in lines:
        print(f"   {name:42s} {value:>14.6g} {unit:5s} {note}")
    rate = raw["failed"] / raw["attempted"]
    print(f"   {'error_rate':42s} {rate:>14.6g} ratio ({raw['failed']} failed of {raw['attempted']} attempted)")

    OUT.joinpath("results").mkdir(parents=True, exist_ok=True)
    path = OUT / "results" / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    return record


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=("loop", "chain", "ensemble", "all"), default="all")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30, help="measuring time per workload")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    try:
        lib, facts = build(ROOT, OUT)
    except BuildError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    OUT.joinpath("tmp").mkdir(parents=True, exist_ok=True)

    names = ("loop", "chain", "ensemble") if args.workload == "all" else (args.workload,)
    records = []
    try:
        for name in names:
            records.append(run_workload(lib, facts, argparse.Namespace(**{**vars(args), "workload": name})))
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in records)
    failed = sum(r["failed"] for r in records)
    if len(records) == 1:
        metrics = records[0]["metrics"]
    else:
        metrics = {f"{r['workload']}/{k}": m for r in records for k, m in r["metrics"].items()}
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
