"""Record every pool entry's outputs into reference.json.

    PYTHONPATH=src python3 perfbench/record_reference.py [workload ...]

Runs each history of the named workloads (default: all) untraced and
stores its outcome, replacing those workloads' entries and keeping the
rest.  Record only from a commit whose outputs are the accepted ones: the
benchmark counts every later difference as a failed history.
"""

import json
import sys
from pathlib import Path

import workloads
from spans import Tracer

PATH = Path(__file__).resolve().parent / "reference.json"


def record(w):
    tr = Tracer(enabled=False)
    return {size: [[r.outcome for r in w.run(w, workloads.pool_entry(w, size, i), tr)]
                   for i in range(w.pool[size])]
            for size in w.pool}


def main(names):
    reference = json.loads(PATH.read_text()) if PATH.exists() else {}
    for name in names or list(workloads.WORKLOADS):
        reference[name] = record(workloads.WORKLOADS[name])
        print("recorded", name, file=sys.stderr)
    PATH.write_text(dump(reference))


def dump(reference):
    """JSON with one pool entry per line, so a re-recording diffs by entry."""
    def entries(xs):
        return ",\n".join(json.dumps(x, sort_keys=True, separators=(",", ":"))
                          for x in xs)
    return "{\n%s\n}\n" % ",\n".join(
        "%s: {\n%s\n}" % (json.dumps(name), ",\n".join(
            "%s: [\n%s\n]" % (json.dumps(size), entries(sizes[size]))
            for size in sorted(sizes)))
        for name, sizes in sorted(reference.items()))


if __name__ == "__main__":
    main(sys.argv[1:])
