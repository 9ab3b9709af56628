"""Run the timed keysec calls in a process of their own.

    python3 bench/worker.py

`run.py` starts this worker and hands it one round of cases at a time
on stdin.  The worker makes the round's calls back to back, timing each
one (`calls.timed`), and writes (scaled latency, output, error, CPU
latency) to stdout right after each call, so it holds one output at a
time; the scaled latency is the CPU latency at the reference speed
(`reference_s`).  Every message is a
length-prefixed pickle.  The parent only reads during a round, so the
worker is never left waiting on it; generating the cases and checking
the outputs happen in the parent, between rounds.  The worker's peak
resident memory is thus that of the calls plus the round's inputs.  When
stdin sends `None`, the worker answers with its own peak resident
memory and that of its largest child process, in KiB, and exits.
"""

from __future__ import annotations

import copyreg
import json
import math
import os
import pickle
import resource
import struct
import sys
import time
from fractions import Fraction
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

#: CPU seconds the reference task is scaled to take; see `reference_s`
REFERENCE_S = 0.002
_REFERENCE_LAW = json.dumps([i / 997 for i in range(400)])


def child_env() -> dict:
    """The environment of every child interpreter: the checkout's `src/`, no mode override."""
    env = {k: v for k, v in os.environ.items() if k not in ("KEYSEC_NUMERIC_MODE", "PYTHONPATH")}
    env["PYTHONPATH"] = str(ROOT / "src")
    return env


def cpu_s() -> float:
    """CPU seconds used so far by this process, all its threads, and its waited-for children.

    Latencies are differences of this clock rather than of wall time: on a
    shared host the wall clock also counts the time the scheduler gives to
    other work, which made runs of the same code disagree by a quarter.
    """
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return time.process_time() + kids.ru_utime + kids.ru_stime


def reference_s() -> float:
    """CPU seconds of a fixed task in the benchmark's own code, a probe of the CPU's speed.

    The task mixes what keysec's calls spend their time on: JSON decoding,
    small numpy arrays, float sums and Fraction arithmetic.  The host's
    speed shifts in phases lasting about a second, by up to half; a call's
    latency is scaled by REFERENCE_S over the mean of this probe taken
    just before and just after it, which takes most of that shift out.
    """
    t0 = time.process_time()
    for _ in range(6):
        xs = json.loads(_REFERENCE_LAW)
        arr = np.array(xs)
        arr = arr / arr.sum()
        math.fsum(xs)
        float(np.abs(arr - 1 / len(xs)).sum())
        acc = Fraction(0)
        for k in range(1, 30):
            acc += Fraction(k, 3 * k + 1)
    return time.process_time() - t0


def pin() -> None:
    """Keep this process and the interpreters it starts on one CPU, the one its probe measures."""
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})


def send(stream, obj) -> None:
    data = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    stream.write(struct.pack("<Q", len(data)) + data)
    stream.flush()


def receive_raw(stream) -> bytes:
    head = stream.read(8)
    if len(head) < 8:
        raise EOFError("the other side closed the pipe")
    return stream.read(struct.unpack("<Q", head)[0])


def receive(stream):
    return pickle.loads(receive_raw(stream))


def serve() -> None:
    sys.path.insert(0, str(ROOT / "src"))
    import calls

    copyreg.pickle(calls.ks.KeyDistribution, lambda d: (calls.Dist, (d.n, d.probs)))
    inp, out = sys.stdin.buffer, sys.stdout.buffer
    sys.stdout = sys.stderr  # keep stray prints off the reply pipe
    os.chdir(ROOT)
    while (ops := receive(inp)) is not None:
        before = reference_s()
        for case in ops:
            latency, output, error = calls.timed(case)
            after = reference_s()
            send(out, (latency * 2 * REFERENCE_S / (before + after), output, error, latency))
            before = after
    send(out, {"self": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               "children": resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss})


if __name__ == "__main__":
    serve()
