"""Compare two sets of benchmark results, or summarise one.

    python3 bench/compare.py BASE_DIR [CHANGE_DIR]

Each argument is a directory (or a single file) of records written by
`bench/run.py` to `bench/out/results/`.  For every workload and
end-to-end metric it prints each side's median and quartiles and the
spread (quartile distance over the median).  A metric is `unresolved`
when either side's spread is wider than the metric's bound in
`BENCHMARK.json`, unless every run of the change beats every run of the
base; otherwise it is `worse` when the change's median is worse than the
base's by more than the bound, `better` when it is better by more than
the base's spread, and `same` otherwise.  Traced records are summarised
as per-module medians.
"""

from __future__ import annotations

import json
import statistics
import sys
from collections import defaultdict
from pathlib import Path

BENCHMARK = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(arg: str) -> dict:
    """{(workload, trace): {metric: [values]}} from a directory or file of records."""
    path = Path(arg)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    out: dict = defaultdict(lambda: defaultdict(list))
    for f in files:
        rec = json.loads(f.read_text(encoding="utf-8"))
        for name, m in rec["metrics"].items():
            out[(rec["workload"], rec["trace"])][name].append(m["value"])
    return out


def quartiles(values: list) -> tuple:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, q2, q3


def spread(values: list) -> float:
    q1, q2, q3 = quartiles(values)
    return (q3 - q1) / q2 if q2 else float("inf")


def verdict(base: list, change: list, better: str, bound: float) -> str:
    sign = 1 if better == "higher" else -1
    if max(spread(base), spread(change)) > bound:
        beats = min(sign * v for v in change) > max(sign * v for v in base)
        return "better" if beats else "unresolved"
    b, c = quartiles(base)[1], quartiles(change)[1]
    rel = sign * (c - b) / b
    if rel < -bound:
        return "worse"
    return "better" if rel > spread(base) else "same"


def _fmt(values: list) -> str:
    q1, q2, q3 = quartiles(values)
    return f"{q2:11.5g} [{q1:.4g}, {q3:.4g}] n={len(values)}"


def main(argv: list) -> int:
    if not 1 <= len(argv) <= 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(BENCHMARK.read_text(encoding="utf-8"))
    sides = [load(a) for a in argv]
    for workload in [w["name"] for w in spec["workloads"]]:
        print(f"== {workload}")
        for m in spec["end_to_end"]:
            vals = [side[(workload, 0)].get(m["name"], []) for side in sides]
            if not all(vals):
                continue
            row = f"  {m['name']:16s} {m['unit']:5s}"
            for v in vals:
                row += f"  {_fmt(v)} spread {spread(v):.3f}"
            if len(vals) == 2:
                row += f"  {verdict(vals[0], vals[1], m['better'], m['bound'])}"
            elif spread(vals[0]) > m["bound"]:
                row += f"  spread over bound {m['bound']}"
            print(row)
        traced = [side.get((workload, 1), {}) for side in sides]
        for m in spec["per_layer"]:
            vals = [t.get(m["name"]) for t in traced]
            if all(vals):
                print(f"  {m['name']:24s} {m['unit']:5s}" + "".join(
                    f"  {statistics.median(v):12.6g}" for v in vals))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
