"""One workload in one process, so that caches and peak RSS belong to it.

    python3 perfbench/worker.py --lib DIR --workload NAME --seed N --seconds S
                                --trace 0|1 --tmp DIR [--setup-only]

``--lib`` is the directory holding the privately built ``caosim`` package.
The last line of standard output is one JSON object with the raw results;
``run.py`` turns it into the report.

Untraced (``--trace 0``): the three passes share the time equally, each
run at least three times; every unit is timed and checked.

Traced (``--trace 1``): the ``kernel.step`` microcase first, then pairs of an
untraced and a traced round over the same fixed work. Every pass starts from
empty caches, so the traced rounds' counts repeat exactly. Self times
are medians over the traced rounds; the tracing overhead is the traced
rounds' timed work against the untraced rounds'. All times are
reference-scaled (see ``reference.py``).
"""

from __future__ import annotations

import argparse
import importlib
import json
import resource
import statistics
import sys
import time
from pathlib import Path

from reference import Meter

MIN_RUNS = 3  # of each pass
MIN_TRACED_PAIRS = 2
MICRO_STEPS = 20_000
MICRO_REPEAT = 5

# The kernel-only showcase case, stepped from (10^6, 10^6, 0, ...) and
# restarted whenever it reaches its fixed point, so the kernel stays busy.
SHOWCASE = """\
cao showcase {
  initial i = 100
  initial j = 100
  intermediate d
  intermediate s
  intermediate g
  intermediate u
  final h

  M (i:10, j:8) -> (d:1, s:2)
  L (d:8) -> (g:2)
  D (s:10) -> (g:1, u:3)
  F (g:4, u:2) -> (h:1)
}
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(1)


def check_build(lib: Path) -> dict:
    """Make sure the passes named compiled will run the compiled kernel."""
    import caosim

    package = Path(caosim.__file__).resolve().parent
    if package != (lib / "caosim").resolve():
        fail(f"imported caosim from {package}, not from the benchmark build {lib}")
    try:
        ext_file = Path(importlib.import_module("caosim._stepcore").__file__).resolve()
    except ImportError:
        ext_file = None
    if not caosim.COMPILED_AVAILABLE or ext_file is None or package not in ext_file.parents:
        fail("the compiled kernel is not loaded; compiled passes would run on the pure backend")
    if caosim.DEFAULT_BACKEND != "compiled":
        fail(
            f"the default backend is {caosim.DEFAULT_BACKEND!r} (is CAOSIM_PURE set?); "
            "the 'both' pass would not run on the compiled backend"
        )
    return {
        "python": sys.version.split()[0],
        "COMPILED_AVAILABLE": caosim.COMPILED_AVAILABLE,
        "DEFAULT_BACKEND": caosim.DEFAULT_BACKEND,
        "pass_backends": {"both": caosim.DEFAULT_BACKEND, "matrix": "compiled", "matrix-pure": "pure"},
    }


def measure(workload, seconds: float) -> dict:
    """Run passes, always the one with the least time so far, until the time is spent.

    Each pass gets an equal share of the time: the precision of a median of
    scaled samples follows the time measured, not the number of samples.
    """
    from workloads import PASSES, run_pass

    samples = {p: [] for p in PASSES}
    scaled = {p: [] for p in PASSES}
    runs = {p: 0 for p in PASSES}
    busy = {p: 0.0 for p in PASSES}
    attempted = failed = 0
    began = time.perf_counter()
    while True:
        p = min(PASSES, key=busy.get)
        if min(runs.values()) >= MIN_RUNS and (
            time.perf_counter() - began + busy[p] / runs[p] > seconds
        ):
            break
        started = time.perf_counter()
        out = run_pass(workload, p)
        busy[p] += time.perf_counter() - started
        runs[p] += 1
        samples[p] += out.seconds
        scaled[p] += out.scaled
        attempted += out.attempted
        failed += out.failed
    return {"samples": samples, "scaled": scaled, "attempted": attempted, "failed": failed,
            "runs": runs, "units": workload.units, "measured_s": time.perf_counter() - began,
            "steps_per_unit": getattr(workload, "steps", None)}


def kernel_step_rates() -> dict[str, float]:
    """Steps per reference-scaled second of ``kernel.step`` alone on the showcase."""
    import caosim

    kernel = caosim.kernel
    plan = kernel.plan_for(caosim.parse(SHOWCASE))
    start = (10**6, 10**6, 0, 0, 0, 0, 0)
    rates = {}
    for backend in ("pure", "compiled"):
        times = []
        meter = Meter()
        for _ in range(MICRO_REPEAT):
            state = start
            with meter:
                for _ in range(MICRO_STEPS):
                    nxt, _, pc = kernel.step(state, plan, backend=backend)
                    state = nxt if any(pc) else start
            times.append(meter.scaled)
        rates[f"kernel.step.{backend}.steps_per_s"] = MICRO_STEPS / statistics.median(times)
    return rates


def traced(workload, seconds: float) -> dict:
    from layers import Tracer
    from workloads import PASSES, run_pass

    micro = kernel_step_rates()
    attempted = failed = 0
    untraced_s, traced_s, per_round = [], [], []
    began = time.perf_counter()
    while True:
        for tracer in (None, Tracer()):
            if tracer:
                tracer.install()
            try:
                outs = [run_pass(workload, p) for p in PASSES]
            finally:
                if tracer:
                    tracer.uninstall()
            attempted += sum(o.attempted for o in outs)
            failed += sum(o.failed for o in outs)
            work = sum(sum(o.scaled) for o in outs)
            if tracer:
                traced_s.append(work)
                # self times in the same reference-scaled seconds as the units
                speed = work / sum(sum(o.seconds) for o in outs)
                per_round.append({k: v * speed if k.endswith("self_s") else v
                                  for k, v in tracer.metrics().items()})
            else:
                untraced_s.append(work)
        pairs = len(traced_s)
        spent = time.perf_counter() - began
        if pairs >= MIN_TRACED_PAIRS and spent + spent / pairs > seconds:
            break

    layers = {}
    for name in per_round[0]:
        values = [r[name] for r in per_round]
        if name.endswith("self_s"):
            layers[name] = statistics.median(values)
        else:
            layers[name] = values[0]
            if any(v != values[0] for v in values):
                failed += 1
                print(f"perfbench: count {name} differs between traced rounds: {values}",
                      file=sys.stderr)
    layers.update(micro)
    layers["trace.untraced_s"] = statistics.median(untraced_s)
    layers["trace.traced_s"] = statistics.median(traced_s)
    layers["trace.overhead_ratio"] = layers["trace.traced_s"] / layers["trace.untraced_s"]
    return {"layers": layers, "attempted": attempted, "failed": failed, "rounds": pairs}


def main() -> None:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--lib", type=Path, required=True)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tmp", type=Path, required=True)
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    # set-up: importing the package and everything before the first timed call
    with Meter() as setup:
        sys.path.insert(0, str(args.lib))
        import caosim  # noqa: F401  (timed: the import is part of set-up)
        from workloads import WORKLOADS

        workload = WORKLOADS[args.workload](args.seed, args.tmp)

    result = {"setup_s": setup.scaled, "setup_wall_s": setup.seconds}
    if not args.setup_only:
        result["build"] = check_build(args.lib)
        result.update(traced(workload, args.seconds) if args.trace else measure(workload, args.seconds))
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    print(json.dumps(result))


if __name__ == "__main__":
    main()
