"""Run one keysec benchmark workload and print its metrics.

    python3 bench/run.py --workload score-float --seed 1 --seconds 20 --trace 0

Run it from anywhere inside a checkout; it uses the checkout's `src/`.
Each round of a workload is generated afresh from (seed, round), so no
timed call repeats an earlier input.

With `--trace 0` a worker process (`worker.py`) makes the timed calls,
one case at a time, in a closed loop with one client, in a seeded order
that changes from round to round; rounds run until
`--seconds` have passed, at least MIN_ROUNDS of them.  Each slot of the
round keeps its interquartile mean latency over the rounds, each on
fresh inputs of the same size, and the end-to-end metrics come from
those per-slot figures.  A latency is the call's CPU time scaled to a
reference speed (`worker.cpu_s`, `worker.reference_s`), and this
process, the worker and every interpreter they start share one CPU
(`worker.pin`).  `setup_s` is the CPU time of
fresh interpreters spread over the run.  With `--trace 1` a fixed
number of rounds (set by `--seconds`) runs in this process, each round
once untraced and once traced, and the per-module metrics come from the
traced passes.  Every output is checked here, outside the timed calls.
The last line of stdout is one JSON object; a full record goes to
`bench/out/results/`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import pickle
import platform
import random
import statistics
import subprocess
import sys
import time
from pathlib import Path

import worker

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

#: the entry point whose import in a fresh interpreter is `setup_s`
ENTRY = {"score-float": "keysec", "exact-attack": "keysec", "cli-batch": "keysec.cli"}
#: seconds of `--seconds` per traced round (an untraced plus a traced pass)
TRACE_ROUND_S = {"score-float": 5.0, "exact-attack": 20.0, "cli-batch": 3.0}
TAIL_LADDER = (99, 95, 90, 80, 75, 50)
#: whole rounds a run makes at least; an exact-attack or cli-batch round takes 12 to 16 s
MIN_ROUNDS = {"score-float": 3, "exact-attack": 2, "cli-batch": 2}
#: fresh interpreters timed for `setup_s`, shared out over the first MIN_ROUNDS rounds
SETUP_SAMPLES = 18
#: what a fresh interpreter runs to probe the speed of interpreter start and import
IMPORT_PROBE = "import numpy"
#: CPU seconds the import probe is scaled to take; see `setup_samples`
IMPORT_REFERENCE_S = 0.2
#: fresh interpreters timed for `cli.startup_ms` and `cli.import_ms`
SETUP_REPEATS = 7


def _interpreter_ms(env: dict, code: str) -> float:
    """CPU milliseconds of a fresh interpreter running `code`, its start included."""
    t0 = worker.cpu_s()
    subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return (worker.cpu_s() - t0) * 1000


def _import_ms(env: dict, module: str) -> float:
    """In-process import time of `module` in a fresh interpreter."""
    code = f"import time; t = time.perf_counter(); import {module}; print(time.perf_counter() - t)"
    out = subprocess.run([sys.executable, "-c", code], cwd=ROOT, env=env, check=True,
                         capture_output=True, text=True).stdout
    return float(out) * 1000


def setup_samples(env: dict, entry: str, count: int) -> tuple:
    """CPU ms of `count` fresh interpreters importing `entry`, and of one import probe per two of them.

    Interpreter start and import slow down and speed up with the host, by a
    quarter over minutes, and the compute probe of the timed calls does not
    follow them.  A fresh interpreter that imports numpy does: `setup_s` is
    scaled by IMPORT_REFERENCE_S over the median of these probes.
    """
    ms, probe = [], []
    for k in range(count):
        ms.append(_interpreter_ms(env, entry))
        if k % 2:
            probe.append(_interpreter_ms(env, IMPORT_PROBE))
    return ms, probe


def median_of(fn, *args) -> float:
    fn(*args)  # warm the page cache and write bytecode before timing
    return statistics.median(fn(*args) for _ in range(SETUP_REPEATS))


class Worker:
    """The process that makes the timed calls (`worker.py`); stopped on leaving the block."""

    def __enter__(self):
        self.proc = subprocess.Popen([sys.executable, str(BENCH / "worker.py")], cwd=ROOT,
                                     env=worker.child_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE)
        return self

    def run(self, ops: list) -> list:
        """(latency, output, error) of every case of one round, made back to back."""
        worker.send(self.proc.stdin, ops)
        raw = [worker.receive_raw(self.proc.stdout) for _ in ops]  # unpickled after the round
        return [pickle.loads(r) for r in raw]

    def close(self) -> dict:
        """Stop the worker; its peak resident memory and its largest child's, in KiB."""
        worker.send(self.proc.stdin, None)
        return worker.receive(self.proc.stdout)

    def __exit__(self, *exc):
        self.proc.stdin.close()
        try:
            self.proc.wait(timeout=10)
        except subprocess.TimeoutExpired:
            self.proc.kill()
            self.proc.wait()
        self.proc.stdout.close()


def check_op(cases, case, result: tuple, failures: list) -> float:
    """Check one timed call's output; returns its latency in seconds."""
    latency, out, error = result[:3]
    if error is None:
        try:
            cases.CHECKS[case["kind"]](case, out)
        except Exception as exc:
            error = f"{type(exc).__name__}: {exc}"
    if error is not None:
        failures.append(f"{cases.label(case)}: {error}")
    return latency


def run_op(cases, case, failures: list) -> float:
    """Time one case in this process and check it untimed; returns the latency in seconds."""
    import calls  # imports keysec, which main() first finds in the checkout

    return check_op(cases, case, calls.timed(case), failures)


def run_round(cases, ops: list, failures: list, tracer=None) -> list:
    latencies = []
    for case in ops:
        if tracer is not None:
            tracer.op_id += 1
        latencies.append(run_op(cases, case, failures))
    return latencies


def interquartile_mean(values) -> float:
    """Mean of `values` without the fastest and the slowest quarter; the plain mean of up to three."""
    ranked = sorted(values)
    cut = len(ranked) // 4
    return statistics.fmean(ranked[cut:len(ranked) - cut])


def tail_percentile(n: int) -> int:
    """Highest percentile of `n` values that leaves at least ten beyond it."""
    return next(p for p in TAIL_LADDER if (n - 1) * (100 - p) / 100 >= 10)


def environment() -> dict:
    import numpy

    sha = "unknown"
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                                 text=True, check=True).stdout.strip()
        except (OSError, subprocess.CalledProcessError):
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0" + path.read_bytes())
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
    }


def untraced(cases, args, failures: list) -> tuple:
    env, entry = worker.child_env(), f"import {ENTRY[args.workload]}"
    _interpreter_ms(env, entry)  # warm the page cache and write bytecode before timing
    _interpreter_ms(env, IMPORT_PROBE)
    setup, probes, rounds, cpu, labels = [], [], [], [], []
    least = MIN_ROUNDS[args.workload]
    t0 = time.perf_counter()
    with Worker() as wk:
        while len(rounds) < least or time.perf_counter() - t0 < args.seconds:
            ops = cases.CASES[args.workload](args.seed, len(rounds))
            # a seeded order per round spreads each group of like slots over the round, so a
            # slow phase of the machine hits a few of its members rather than all of them
            order = random.Random(f"order:{args.seed}:{len(rounds)}").sample(range(len(ops)), len(ops))
            results = dict(zip(order, wk.run([ops[i] for i in order])))
            rounds.append([check_op(cases, case, results[i], failures) for i, case in enumerate(ops)])
            cpu.append([results[i][3] for i in range(len(ops))])
            labels = [cases.label(case) for case in ops]
            if len(rounds) <= least:  # spread over the run, so a slow phase is outvoted
                ms, probe = setup_samples(env, entry, SETUP_SAMPLES // least)
                setup += ms
                probes += probe
        kib = wk.close()
    per_slot = [interquartile_mean(slot) for slot in zip(*rounds)]
    ranked = sorted(per_slot)
    pct = tail_percentile(len(ranked))
    tail = statistics.quantiles(ranked, n=100, method="inclusive")[pct - 1]
    metrics = {
        "setup_s": (statistics.median(setup) / statistics.median(probes) * IMPORT_REFERENCE_S, "s"),
        "ops_per_s": (len(ranked) / math.fsum(ranked), "1/s"),
        "latency_p50_ms": (statistics.median(ranked) * 1000, "ms"),
        "latency_tail_ms": (tail * 1000, "ms"),
        "peak_rss_mb": (kib["children" if args.workload == "cli-batch" else "self"] / 1024, "MB"),
    }
    beyond = sorted((x, label) for x, label in zip(per_slot, labels) if x > tail)
    info = {"rounds": len(rounds), "slots": len(ranked), "tail_percentile": pct,
            "tail_slots_beyond": len(beyond), "tail_slots": [f"{x * 1000:.1f} ms {label}" for x, label in beyond],
            "setup_samples_ms": setup, "import_probe_ms": probes, "slot_labels": labels, "latencies_s": rounds,
            "cpu_latencies_s": cpu}
    return metrics, info, len(rounds) * len(ranked)


def traced(cases, args, failures: list) -> tuple:
    import tracer as tracing

    if args.workload == "cli-batch":
        import keysec.cli  # noqa: F401  (imported before the tracer wraps it)
    rounds = max(1, round(args.seconds / TRACE_ROUND_S[args.workload]))
    metrics = {
        "cli.startup_ms": (median_of(_interpreter_ms, worker.child_env(), "pass"), "ms"),
        "cli.import_ms": (median_of(_import_ms, worker.child_env(), "keysec.cli"), "ms"),
    }
    tr = tracing.Tracer()
    plain, spanned, attempted = [], [], 0
    for rnd in range(rounds):  # alternate, so both passes see the same machine phases
        ops = [{**case, "in_process": True} for case in cases.CASES[args.workload](args.seed, rnd)]
        attempted += 2 * len(ops)
        plain += run_round(cases, ops, failures)
        tr.install()
        try:
            spanned += run_round(cases, ops, failures, tracer=tr)
        finally:
            tr.uninstall()
    plain, traced_s = math.fsum(plain), math.fsum(spanned)
    units = {"calls": "count", "self_s": "s", "errors": "count"}
    for name, value in tr.summary().items():
        metrics[name] = (value, units.get(name.split(".")[1], "count"))
    metrics["trace.overhead_ratio"] = (traced_s / plain, "ratio")
    out = BENCH / "out" / "spans"
    out.mkdir(parents=True, exist_ok=True)
    tr.save(out / f"{args.workload}-seed{args.seed}.npz")
    info = {"rounds": rounds, "spans": len(tr.start), "untraced_s": plain, "traced_s": traced_s}
    return metrics, info, attempted


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(ENTRY))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "keysec" / "__init__.py").is_file():
        print(f"no keysec source at {SRC}; run from a full checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    worker.pin()  # the worker and every interpreter started here run on this CPU too
    os.environ.pop("KEYSEC_NUMERIC_MODE", None)
    os.chdir(ROOT)
    import keysec

    if Path(keysec.__file__).resolve().parent != SRC / "keysec":
        print(f"keysec resolved to {keysec.__file__}, not the checkout", file=sys.stderr)
        return 2
    import cases

    if args.workload == "cli-batch":
        cases.write_cli_files()
    failures: list = []
    t0 = time.perf_counter()
    run = traced if args.trace else untraced
    metrics, info, attempted = run(cases, args, failures)
    record = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace, "run_seconds": args.seconds,
        "wall_s": time.perf_counter() - t0, "attempted": attempted, "failed": len(failures),
        "failed_share": len(failures) / attempted, "failures": failures[:20], **info,
        "env": environment(),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    results = BENCH / "out" / "results"
    results.mkdir(parents=True, exist_ok=True)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-{time.time_ns()}.json"
    (results / name).write_text(json.dumps(record, indent=2) + "\n", encoding="utf-8")
    for key in ("workload", "seed", "trace", "rounds", "slots", "attempted", "failed", "failed_share",
                "tail_percentile", "tail_slots_beyond", "tail_slots", "wall_s", "env"):
        if key in record:
            print(f"# {key}: {record[key]}")
    for failure in failures[:5]:
        print(f"# FAILED {failure}")
    for key, (value, unit) in metrics.items():
        print(f"{key:28s} {value:14.6g} {unit}")
    print(json.dumps({"correct": not failures, "attempted": attempted, "failed": len(failures),
                      "metrics": record["metrics"]}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
