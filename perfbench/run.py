"""Run one actsim benchmark workload and print its metrics.

    python3 perfbench/run.py --workload counter-bec-lin --seed 1 \
        --seconds 25 --trace 0

With `--trace 0` the run prints the end-to-end metrics: set-up time, the
median and tail wall time per history, events per second and peak memory.
With `--trace 1` it prints the per-layer metrics instead: for two thirds of
`--seconds` it runs each history twice, untraced and traced, alternating
which goes first, and for the last third it traces half-size histories; it
reports per-layer times, counts, self time, growth exponents and the
tracing overhead.  Every history's outputs are compared with
`reference.json`; the last line of standard output is one JSON object with
`correct`, `attempted`, `failed` and `metrics`, and the exit status is 1 when
any history failed.  Run it from the root of an actsim source tree.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import resource
import shutil
import statistics
import sys
import tempfile
import time
import traceback
from pathlib import Path

from spans import Tracer, self_times

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_REPEATS = 9

# per-history times reported for every workload; a layer a workload never
# calls reads 0
TIMED = ("simnet.run", "simnet.lint", "protocols.converge",
         "harness.history_of", "witness.build", "witness.brute",
         "predicates.EV", "predicates.NCC", "predicates.RVal",
         "predicates.FRVal", "predicates.CPar", "predicates.SinOrd",
         "predicates.RT", "rdt.context", "rdt.evaluate", "model.rb",
         "model.hb", "cli.check")
# layers whose spans make up a history; rdt, model and cli are probes
PIPELINE_LAYERS = ("simnet", "protocols", "harness", "witness", "predicates")
# count -> the span it is counted per
COUNTS = {
    "simnet.steps": "simnet.run",
    "simnet.final_now": "simnet.run",
    "simnet.messages": "simnet.run",
    "simnet.withheld": "simnet.run",
    "witness.brute_ars_tried": "witness.brute",
    "witness.brute_candidates_tried": "witness.brute",
    "witness.brute_sat_share": "witness.brute",
    "predicates.par_differs": "witness.build",
    "model.vis_edges": "witness.build",
}
UNITS = {"setup_s": "s", "history_s_p50": "s", "history_s_tail": "s",
         "events_per_s": "1/s", "peak_rss_mb": "MB"}


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(2)


def setup(name, seed):
    """Import actsim afresh and generate the run's inputs SETUP_REPEATS
    times; returns the last import's workload module, the workload, its
    inputs, and the median set-up time."""
    times = []
    for _ in range(SETUP_REPEATS):
        for mod in [m for m in sys.modules
                    if m.split(".")[0] in ("actsim", "workloads")]:
            del sys.modules[mod]
        gc.collect()  # the last repeat's garbage is not this one's cost
        t0 = time.perf_counter()
        wl = importlib.import_module("workloads")
        if name not in wl.WORKLOADS:
            fail("unknown workload %r; one of: %s"
                 % (name, ", ".join(wl.WORKLOADS)))
        w = wl.WORKLOADS[name]
        inputs = wl.specs(w, "full", seed)
        times.append(time.perf_counter() - t0)
    return wl, w, inputs, statistics.median(times)


class Phase:
    """Histories run back to back until `seconds` have passed, each checked
    against the reference."""

    def __init__(self, w, inputs, reference, tracer):
        self.w, self.inputs, self.reference, self.tr = w, inputs, reference, tracer
        self.results = []
        self.attempted = self.failed = 0
        self.artifact = None

    def run(self, seconds, min_inputs=1):
        end = time.perf_counter() + seconds
        i = 0
        while i < min_inputs or time.perf_counter() < end:
            self.step(i)
            i += 1

    def step(self, i):
        """Run the i-th input (wrapping round the pool)."""
        spec = self.inputs[i % len(self.inputs)]
        expected = self.reference[spec.index]
        try:
            got = self.w.run(self.w, spec, self.tr)
        except Exception:
            traceback.print_exc()
            self.attempted += len(expected)
            self.failed += len(expected)
            return
        for r, want in zip(got, expected):
            self.attempted += 1
            if r.outcome != want:
                self.failed += 1
                print("mismatch on pool entry %d: got %r, reference %r"
                      % (spec.index, r.outcome, want), file=sys.stderr)
            if self.artifact is None and r.artifact is not None:
                self.artifact = (r.artifact, want)
            r.artifact = None
            self.results.append(r)

    @property
    def seconds(self):
        return [r.seconds for r in self.results]

    @property
    def mean_events(self):
        return statistics.mean(r.events for r in self.results)


def tail(samples):
    """The highest percentile that leaves at least ten samples beyond it,
    as (value, percentile).  Below twenty samples no percentile above the
    median does, and the median stands in for it."""
    s = sorted(samples)
    n = len(s)
    if n < 20:
        return statistics.median(s), 50.0
    return s[n - 11], 100.0 * (n - 10) / n


def end_to_end(phase, setup_s):
    t = phase.seconds
    value, pct = tail(t)
    metrics = {
        "setup_s": setup_s,
        "history_s_p50": statistics.median(t),
        "history_s_tail": value,
        "events_per_s": sum(r.events for r in phase.results) / sum(t),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        / 1024.0,
    }
    notes = {"setup_s": "median of %d" % SETUP_REPEATS,
             "history_s_p50": "n=%d" % len(t),
             "history_s_tail": "p%.1f of n=%d" % (pct, len(t)),
             "events_per_s": "%.1f events/history" % phase.mean_events}
    for k, v in metrics.items():
        print("%-16s %12.6g %-4s %s" % (k, v, UNITS[k], notes.get(k, "")))
    return {k: {"value": v, "unit": UNITS[k]} for k, v in metrics.items()}


def cli_check(wl, w, phase):
    """Re-check the phase's first witness through `actsim check`, timed as
    one cli.check span; a wrong exit status counts as a failed history."""
    if phase.artifact is None:
        return
    artifact, want = phase.artifact
    directory = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    try:
        with phase.tr.span("cli.check", probe=True):
            status = wl.cli_check(w, artifact, directory)
    finally:
        shutil.rmtree(directory)
    composite, level = w.checks[0]
    expected = 0 if want["verdicts"]["%s(%s)" % (composite, level)] == "holds" else 1
    phase.attempted += 1
    if status != expected:
        phase.failed += 1
        print("actsim check exited %d, expected %d" % (status, expected),
              file=sys.stderr)


def layer_times(phase):
    """Per-history seconds in each TIMED span name (cli.check: per call)."""
    spans = phase.tr.spans
    histories = sum(1 for s in spans if s.name == "history")
    out = {}
    for name in TIMED:
        total = sum(s.duration for s in spans if s.name == name)
        out[name] = total if name == "cli.check" else total / histories
    return out


def per_layer(untraced, full, half):
    metrics = {}
    times, half_times = layer_times(full), layer_times(half)
    ratio = full.mean_events / half.mean_events
    for name in TIMED:
        metrics[name + "_s"] = (times[name], "s")
        f, h = times[name], half_times[name]
        metrics[name + "_exp"] = (
            math.log(f / h) / math.log(ratio) if f > 0 and h > 0 else 0.0,
            "1")
    spans = full.tr.spans
    calls = {}
    for s in spans:
        calls[s.name] = calls.get(s.name, 0) + 1
    counts = dict(full.tr.counts)
    counts["witness.brute_sat_share"] = counts.pop("witness.brute_sat", 0)
    for name, basis in COUNTS.items():
        n = calls.get(basis, 0)
        metrics[name] = (counts.get(name, 0) / n if n else 0.0,
                         "1" if name.endswith("share") else "count")
    roots = [s for s in spans if s.name == "history"]
    per_history = sum(s.duration for s in roots) / len(roots)
    own = self_times(spans)
    for layer in PIPELINE_LAYERS:
        total = sum(own[s.id] for s in spans
                    if s.layer == layer and not s.probe) / len(roots)
        metrics[layer + ".self_s"] = (total, "s")
        metrics[layer + ".self_share"] = (total / per_history, "1")
    base = statistics.median(untraced.seconds)
    overhead = statistics.median(full.seconds) - base
    metrics["trace.overhead_s"] = (overhead, "s")
    metrics["trace.overhead_share"] = (overhead / base, "1")

    print("# %d histories traced at full size, %d at half size"
          % (len(roots), len(half.results)))
    for k, (v, unit) in metrics.items():
        print("%-34s %12.6g %s" % (k, v, unit))
    return {k: {"value": v, "unit": unit} for k, (v, unit) in metrics.items()}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    if not (ROOT / "src" / "actsim" / "__init__.py").is_file():
        fail("no actsim source tree at %s" % (ROOT / "src"))
    sys.path.insert(0, str(ROOT / "src"))
    with open(HERE / "reference.json") as f:
        reference = json.load(f)

    wl, w, inputs, setup_s = setup(args.workload, args.seed)
    ref = reference[w.name]

    if not args.trace:
        phase = Phase(w, inputs, ref["full"], Tracer(enabled=False))
        phase.run(args.seconds)
        phases = [phase]
        metrics = end_to_end(phase, setup_s)
    else:
        untraced = Phase(w, inputs, ref["full"], Tracer(enabled=False))
        full = Phase(w, inputs, ref["full"], Tracer())
        half = Phase(w, wl.specs(w, "half", args.seed), ref["half"], Tracer())
        phases = [untraced, full, half]
        # pairs on the same input, so drift and input cost cancel in the
        # overhead
        end = time.perf_counter() + args.seconds * 2 / 3
        i = 0
        while i < 2 or time.perf_counter() < end:
            for phase in (untraced, full)[::1 if i % 2 else -1]:
                phase.step(i)
            i += 1
        half.run(args.seconds / 3, min_inputs=2)
        for phase in (full, half):
            cli_check(wl, w, phase)
        metrics = per_layer(untraced, full, half)

    attempted = sum(ph.attempted for ph in phases)
    failed = sum(ph.failed for ph in phases)
    print("failed           %12d      of %d histories" % (failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0 if failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
