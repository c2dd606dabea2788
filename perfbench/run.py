"""Benchmark of the sphertwist engine: one workload, one seed, one process.

    python3 perfbench/run.py --workload tilting_cycle3 --seed 0 --seconds 20 --trace 0

Run from the root of a source checkout; the package is imported from
``src/``.  The run is a closed loop of one caller on one thread: it
repeats (set-up, solve, golden checks) while the next repetition, taken to
last as long as the previous one, would end within ``--seconds``; there is
always at least one.  It reports medians over the repetitions.

``setup_s`` and ``solve_s`` are in reference seconds: wall time corrected
for the shared host's momentary speed by ``hostspeed.Stopwatch``.  The
report line also holds the wall seconds of every repetition.

``--trace 0`` reports the end-to-end metrics named in ``BENCHMARK.json``.
``--trace 1`` alternates untraced and traced repetitions (at least one of
each) and reports the per-layer metrics from the traced ones, together
with the tracing overhead: traced over untraced solve time.
``--spans-out FILE`` also writes the raw spans of the last traced
repetition as JSON lines.

The last line of standard output is the result object
``{"correct", "attempted", "failed", "metrics"}``; ``attempted`` and
``failed`` count golden-output checks, so their ratio is the fail ratio.
The line before it is a report with the environment, every sample and
the names of failed checks.
"""

import argparse
import gc
import json
import os
import platform
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

from hostspeed import Stopwatch
from tracer import TARGETS, Tracer, aggregate, span_name

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"


def _environment():
    model = None
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    model = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "machine": os.uname().machine,
        "nproc": os.cpu_count(),
        "cpu_model": model,
    }


def _repetition(workload, seed, tracer, stopwatch):
    """One set-up, solve and check; returns (sample, checks).

    Untraced repetitions are timed by the host-speed stopwatch: the
    sample holds wall seconds and reference seconds.  Traced ones hold
    wall seconds only, so that no probe runs inside a span.
    """
    gc.collect()
    clock = time.perf_counter
    if tracer is None:
        ctx, setup_wall, setup_ref, setup_probes = stopwatch.time(workload.setup, seed)
        result, solve_wall, solve_ref, solve_probes = stopwatch.time(workload.solve, ctx)
        sample = {"setup_s": setup_ref, "solve_s": solve_ref,
                  "setup_wall_s": setup_wall, "solve_wall_s": solve_wall,
                  "probes": setup_probes + solve_probes}
    else:
        with tracer.stage("bench.setup"):
            t0 = clock()
            ctx = workload.setup(seed)
            t1 = clock()
        with tracer.stage("bench.solve"):
            result = workload.solve(ctx)
            t2 = clock()
        sample = {"setup_wall_s": t1 - t0, "solve_wall_s": t2 - t1}
    return sample, workload.checks(ctx, result)


def layer_metrics(spans, counts):
    """Every per-layer figure the trace of one repetition yields."""
    agg = aggregate(spans)
    empty = {"calls": 0, "s": 0.0, "self_s": 0.0, "size": []}
    out = {name + ".calls": cell[0] for name, cell in counts.items()}
    for module, attr, _ in TARGETS:
        name = span_name(module, attr)
        a = agg.get(name, empty)
        out[name + ".calls"] = a["calls"]
        out[name + ".s"] = a["s"]
        out[name + ".self_s"] = a["self_s"]

    def sizes(name):
        return agg.get(name, empty)["size"]

    rref = sizes("exactlin.rref")
    rows = sum(r for r, _, _ in rref)
    out["exactlin.rref.cells"] = sum(c for _, c, _ in rref)
    out["exactlin.rref.rank_ratio"] = sum(k for _, _, k in rref) / rows if rows else 0.0
    out["exactlin.kronecker.cells"] = sum(sizes("exactlin.kronecker"))
    out["algebra.Algebra.init.max_dim"] = max(sizes("algebra.Algebra.init"), default=0)
    out["algebra.enveloping.max_dim"] = max(sizes("algebra.enveloping"), default=0)
    out["modules.hom_space.unknowns"] = sum(sizes("modules.hom_space"))
    out["resolutions.minimal_resolution.terms"] = sum(sizes("resolutions.minimal_resolution"))

    solve = [i for i, rec in enumerate(spans) if rec[0] == "bench.solve"]
    if solve:
        rec = spans[solve[0]]
        total = rec[3] - rec[2]
        roots = sum(end - start for _, parent, start, end, _, _ in spans
                    if parent == solve[0])
        out["trace.solve_s"] = total
        out["trace.root_coverage"] = roots / total
    out["trace.spans"] = len(spans)
    return out


def _median_metrics(samples):
    return {k: statistics.median(s[k] for s in samples) for k in samples[0]}


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans-out", default=None)
    args = ap.parse_args(argv)

    if not (SRC / "sphertwist" / "__init__.py").is_file():
        raise SystemExit("perfbench: no package sources at src/sphertwist")
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit("perfbench: unknown workload %r (have %s)"
                         % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    tracer = Tracer() if args.trace else None
    stopwatch = Stopwatch()

    plain, traced, layers, failed_labels = [], [], [], []
    attempted = failed = 0
    last_spans = None
    start = last = time.perf_counter()
    while True:
        use_tracer = tracer if len(plain) > len(traced) else None
        if use_tracer is not None:
            tracer.install()
        try:
            sample, checks = _repetition(workload, args.seed, use_tracer, stopwatch)
        except Exception:  # a crash of the engine is a failed output
            traceback.print_exc()
            attempted += 1
            failed += 1
            failed_labels.append("exception")
            break
        finally:
            if use_tracer is not None:
                tracer.uninstall()
        attempted += len(checks)
        bad = [label for label, ok in checks if not ok]
        failed += len(bad)
        failed_labels.extend(bad)
        if use_tracer is None:
            plain.append(sample)
        else:
            traced.append(sample)
            last_spans = list(tracer.spans)
            layers.append(layer_metrics(tracer.spans, tracer.counts))
            tracer.reset()
        # stop before a repetition that would end past the deadline
        now = time.perf_counter()
        rep_s, last = now - last, now
        if now - start + rep_s > args.seconds and (tracer is None or traced):
            break

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    values = {}
    if plain:
        values.update(_median_metrics(plain))
        values["peak_rss_mb"] = peak_rss_mb
    if layers:
        values.update(_median_metrics(layers))
        values["trace.overhead"] = (
            statistics.median(s["solve_wall_s"] for s in traced)
            / values["solve_wall_s"])

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] in values:
            metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit("perfbench: not measured: %s" % ", ".join(missing))

    if args.spans_out and last_spans is not None:
        with open(args.spans_out, "w") as fh:
            for i, (name, parent, t0, t1, size, outer) in enumerate(last_spans):
                fh.write(json.dumps({"id": i, "name": name, "parent": parent,
                                     "start": t0, "end": t1, "size": size}) + "\n")

    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": _environment(),
        "samples": {"untraced": plain, "traced": traced},
        "sample_counts": {"untraced": len(plain), "traced": len(traced)},
        "fail_ratio": failed / attempted if attempted else None,
        "failed_checks": failed_labels,
        "wall_s": time.perf_counter() - start,
    }
    print(json.dumps({"report": report}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
