"""Spans around the calls into each keysec module, for the traced run.

`Tracer.install` replaces every public keysec function, in every keysec
namespace that binds it, with a wrapper that records a span: name,
start, end, parent span and operation id.  Public methods and
constructors of keysec classes are wrapped at class level the same way;
the wrappers on `KeyDistribution.__init__` and
`HashFamilySpec.hash_value` also count the entries built and the hash
evaluations.  A call from a module into itself is not a module
boundary, so it runs unrecorded and its time stays in the caller's
span.  Spans stay in memory in flat
arrays until `save` writes them out.
"""

from __future__ import annotations

import functools
import sys
import time
import types
from array import array
from collections import defaultdict

import numpy as np

#: the package's modules, which are the benchmark's layers
MODULES = ("numerics", "dist", "extremal", "kpa", "mac", "ecpa", "budget", "cvqkd", "verify", "cli")
#: counts kept at two boundaries: (count name, amount per call)
COUNTED = {
    "dist.KeyDistribution.__init__": ("dist.entries_built", lambda args: 1 << args[0].n),
    "mac.HashFamilySpec.hash_value": ("mac.hash_value_calls", lambda args: 1),
}


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_id: dict = {}
        self.name = array("l")
        self.layer = array("l")
        self.start = array("d")
        self.end = array("d")
        self.parent = array("l")
        self.op = array("l")
        self.error = array("b")
        self.stack: list = []
        self.op_id = -1
        self.counts = {name: 0 for name, _ in COUNTED.values()}
        self._patched: list = []

    def _wrap(self, fn, name: str, count=None):
        layer = MODULES.index(name.split(".")[0])
        name_idx = self.name_id.setdefault(name, len(self.names))
        if name_idx == len(self.names):
            self.names.append(name)
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer.stack
            if stack and tracer.layer[stack[-1]] == layer:
                result = fn(*args, **kwargs)
            else:
                i = len(tracer.start)
                tracer.name.append(name_idx)
                tracer.layer.append(layer)
                tracer.parent.append(stack[-1] if stack else -1)
                tracer.op.append(tracer.op_id)
                tracer.error.append(0)
                tracer.end.append(0.0)
                stack.append(i)
                tracer.start.append(time.perf_counter())
                try:
                    result = fn(*args, **kwargs)
                except BaseException:
                    tracer.error[i] = 1
                    raise
                finally:
                    tracer.end[i] = time.perf_counter()
                    stack.pop()
            if count is not None:
                tracer.counts[count[0]] += count[1](args)
            return result

        return traced

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patched.append((owner, attr, owner.__dict__[attr]))
        setattr(owner, attr, wrapper)

    def install(self) -> None:
        """Wrap every public keysec function and method; import what is traced first."""
        wrappers: dict = {}

        def wrapped(fn, name):
            if fn not in wrappers:
                wrappers[fn] = self._wrap(fn, name, COUNTED.get(name))
            return wrappers[fn]

        for modname, mod in list(sys.modules.items()):
            if modname != "keysec" and not modname.startswith("keysec."):
                continue
            for attr, value in list(vars(mod).items()):
                owner = getattr(value, "__module__", None) or ""
                layer = owner.split(".")[-1]
                if attr.startswith("_") or not owner.startswith("keysec.") or layer not in MODULES:
                    continue
                if isinstance(value, types.FunctionType):
                    self._patch(mod, attr, wrapped(value, f"{layer}.{value.__name__}"))
                elif isinstance(value, type) and owner == modname:
                    self._wrap_methods(value, f"{layer}.{value.__name__}", wrapped)

    def _wrap_methods(self, cls, prefix: str, wrapped) -> None:
        for attr, member in list(vars(cls).items()):
            if attr.startswith("_") and attr != "__init__":
                continue
            if isinstance(member, types.FunctionType):
                self._patch(cls, attr, wrapped(member, f"{prefix}.{attr}"))
            elif isinstance(member, (classmethod, staticmethod)):
                fn = member.__func__
                self._patch(cls, attr, type(member)(wrapped(fn, f"{prefix}.{attr}")))

    def uninstall(self) -> None:
        for owner, attr, value in reversed(self._patched):
            setattr(owner, attr, value)
        self._patched.clear()

    def summary(self) -> dict:
        """`<module>.calls`, `.self_s` and `.errors` for every module, plus the counts."""
        own = self_times(self.start, self.end, self.parent)
        out = {}
        for idx, module in enumerate(MODULES):
            mine = np.asarray(self.layer) == idx
            out[f"{module}.calls"] = int(mine.sum())
            out[f"{module}.self_s"] = float(own[mine].sum())
            out[f"{module}.errors"] = int(np.asarray(self.error, dtype=np.int64)[mine].sum())
        out.update(self.counts)
        return out

    def save(self, path) -> None:
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.name), start=np.asarray(self.start),
            end=np.asarray(self.end), parent=np.asarray(self.parent), op=np.asarray(self.op),
            error=np.asarray(self.error),
        )


def self_times(start, end, parent) -> np.ndarray:
    """Each span's duration minus the part of it that its child spans cover."""
    children = defaultdict(list)
    for i, p in enumerate(parent):
        if p >= 0:
            children[p].append(i)
    own = np.asarray(end, dtype=float) - np.asarray(start, dtype=float)
    for p, kids in children.items():
        lo, hi = start[p], end[p]
        reach, covered = lo, 0.0
        for c in sorted(kids, key=start.__getitem__):
            s, e = max(start[c], reach), min(end[c], hi)
            if e > s:
                covered += e - s
                reach = e
        own[p] -= covered
    return own
