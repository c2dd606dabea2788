"""Sanity tests of the benchmark's tracer.

    python3 -m pytest -q perfbench/test_trace.py

The unit tests are quick.  The per-workload tests run ``run.py --trace 1``
twice for each workload, one untraced and one traced repetition each, and
take a few minutes in all.
"""

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

from sphertwist import exactlin, modules  # noqa: E402
from hostspeed import Stopwatch  # noqa: E402
from tracer import Tracer, aggregate  # noqa: E402

# figures that count work; they must repeat exactly between runs
COUNT_SUFFIXES = (".calls", ".cells", ".unknowns", ".terms", ".max_dim", ".rank_ratio")


def _spec():
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def test_install_rebinds_every_namespace_and_uninstall_restores():
    original = exactlin.rref
    holders = [exactlin, modules]
    assert all(h.rref is original for h in holders)
    init = exactlin.Matrix.__dict__["__init__"]
    tracer = Tracer()
    tracer.install()
    try:
        assert all(h.rref is not original for h in holders)
        assert all(h.rref.__wrapped__ is original for h in holders)
        assert exactlin.Matrix.__dict__["__init__"] is not init
    finally:
        tracer.uninstall()
    assert all(h.rref is original for h in holders)
    assert exactlin.Matrix.__dict__["__init__"] is init


def test_self_time_excludes_children():
    f = exactlin.QQ
    m = exactlin.Matrix(f, [[f.coerce(i * j + 1) for j in range(6)] for i in range(5)])
    tracer = Tracer()
    tracer.install()
    try:
        with tracer.stage("root"):
            exactlin.kernel_basis(m)
    finally:
        tracer.uninstall()
    agg = aggregate(tracer.spans)
    # kernel_basis calls rref twice (directly and through row_space_canonical)
    assert agg["exactlin.kernel_basis"]["calls"] == 1
    assert agg["exactlin.rref"]["calls"] == 2
    assert tracer.counts["exactlin.Matrix.init"][0] > 0
    root = tracer.spans[0]
    total = root[3] - root[2]
    # self times partition the root span exactly
    self_sum = sum(a["self_s"] for a in agg.values())
    assert self_sum == pytest.approx(total, rel=1e-9, abs=1e-12)
    for a in agg.values():
        assert 0.0 <= a["self_s"] <= a["s"] + 1e-12


def test_stopwatch_leaves_probes_out_of_wall_time_and_restores_the_timer():
    def busy(seconds):
        end = time.perf_counter() + seconds
        while time.perf_counter() < end:
            pass
        return "done"

    before = signal.getsignal(signal.SIGALRM)
    result, wall, ref, probes = Stopwatch().time(busy, 0.2)
    assert result == "done"
    # one probe before the stage and one about every 20 ms inside it
    assert probes >= 4
    # the stage lasted 0.2 s of which the probes took a part
    assert 0.1 < wall < 0.2
    assert ref > 0
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def _traced_run(workload, *extra):
    out = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload,
         "--seed", "0", "--seconds", "0", "--trace", "1", *extra],
        cwd=ROOT, capture_output=True, text=True, check=True, timeout=600,
    ).stdout.strip().splitlines()
    report = json.loads(out[-2])["report"]
    result = json.loads(out[-1])
    return report, result, {k: v["value"] for k, v in result["metrics"].items()}


@pytest.mark.parametrize("workload", [w["name"] for w in _spec()["workloads"]])
def test_traced_runs_repeat_and_cover_solve(workload):
    names = [m["name"] for m in _spec()["per_layer"]]
    first_report, first, a = _traced_run(workload)
    _, second, b = _traced_run(workload)
    for res in (first, second):
        assert res["correct"] and res["failed"] == 0
        assert sorted(res["metrics"]) == sorted(names)

    counts = [k for k in names if k.endswith(COUNT_SUFFIXES) or k == "trace.spans"]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}

    # the layer calls made directly by the workload cover the traced solve
    assert 0.95 <= a["trace.root_coverage"] <= 1.0
    # and the traced solve differs from the untraced one by the overhead
    untraced = first_report["samples"]["untraced"][0]["solve_wall_s"]
    assert a["trace.solve_s"] / untraced == pytest.approx(a["trace.overhead"], rel=1e-3)

    if workload == "ladder_cycle4":
        assert a["algebra.enveloping.calls"] == 0
    twist_calls = [a[k] for k in names if k.startswith("twist.") and k.endswith(".calls")]
    if workload == "twist_cycle3_gf":
        assert a["twist.equivalence_certificate.calls"] == 1
    else:
        assert not any(twist_calls)


def test_spans_out_writes_the_traced_repetition(tmp_path):
    path = tmp_path / "spans.jsonl"
    _, result, values = _traced_run("twist_cycle3_gf", "--spans-out", str(path))
    spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert len(spans) == values["trace.spans"]
    assert [s["id"] for s in spans] == list(range(len(spans)))
    assert all(-1 <= s["parent"] < s["id"] and s["start"] <= s["end"] for s in spans)
    roots = [s["name"] for s in spans if s["parent"] == -1]
    assert roots == ["bench.setup", "bench.solve"]
