"""Tests of the benchmark itself: seeded inputs, self time, metric names."""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import workloads
from spans import Span, Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def _bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
                           *args], cwd=cwd, capture_output=True, text=True,
                          timeout=120)


def test_same_seed_gives_identical_inputs_and_trace_digests():
    w = workloads.WORKLOADS["oracle-sweep"]
    first, second = workloads.specs(w, "half", 11), workloads.specs(w, "half", 11)
    assert first == second
    assert first != workloads.specs(w, "half", 12)
    tr = Tracer(enabled=False)
    for spec in first[:4]:
        a = [r.outcome for r in w.run(w, spec, tr)]
        b = [r.outcome for r in w.run(w, spec, tr)]
        assert a == b
        assert len(a[0]["digest"]) == 16


def test_self_time_is_duration_minus_time_children_cover():
    # root [0, 10] has children [1, 4] and [3, 6] (overlapping, union 5)
    # and [8, 12] (clipped to the root: 2); the child [3, 6] has [4, 5]
    spans = [Span(0, "history", None, 0, 0.0, 10.0),
             Span(1, "simnet.run", 0, 0, 1.0, 4.0),
             Span(2, "witness.build", 0, 0, 3.0, 6.0),
             Span(3, "predicates.EV", 0, 0, 8.0, 12.0),
             Span(4, "model.rb", 2, 0, 4.0, 5.0)]
    got = self_times(spans)
    assert got == {0: 3.0, 1: 3.0, 2: 2.0, 3: 4.0, 4: 1.0}


def test_tracer_records_parent_and_history():
    ticks = iter(range(100))
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.history = 7
    with tr.span("history"):
        with tr.span("simnet.run"):
            pass
    root, child = tr.spans
    assert (child.parent, child.history, child.layer) == (root.id, 7, "simnet")
    assert self_times(tr.spans) == {root.id: 2.0, child.id: 1.0}


def test_every_printed_metric_is_declared_in_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    for trace, key in (("0", "end_to_end"), ("1", "per_layer")):
        out = _bench("--workload", "oracle-sweep", "--seed", "3",
                     "--seconds", "0.3", "--trace", trace)
        assert out.returncode == 0, out.stderr
        *lines, last = out.stdout.strip().splitlines()
        result = json.loads(last)
        assert result["correct"] and result["failed"] == 0
        want = {m["name"]: m["unit"] for m in declared[key]}
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == want
        printed = {ln.split()[0] for ln in lines if not ln.startswith("#")}
        assert printed == set(want) | {"failed"}


def test_refuses_to_run_without_the_source_tree(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    out = _bench("--workload", "oracle-sweep", "--seed", "1",
                 "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
