"""In-memory span tracer for the benchmark's traced run.

While :meth:`Tracer.patched` is active, every public function of the
``field``, ``linearized``, ``degrees``, ``codec``, ``bounds`` and
``analysis`` modules is replaced by a recording wrapper, both in the module
that defines it and in every ``rsprod`` module that imported it by name
(``from .field import mat_rank`` binds a second reference that patching the
defining module alone would miss).  ``FieldCtx.mul_arr`` is patched on the
class.  Leaving the context restores every original.

A span is (name, parent span, start, end, self time, work).  Self time is
the span's duration minus the durations of its direct children, computed
when the span closes.  Work is an operation count computed from the call's
arguments or result for the few spans that have one (array elements,
echelon cells, point evaluations); it is derived, not measured.  Spans
opened in forked enumeration workers stay in those processes and are lost.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import math
import sys
import time
from array import array

import numpy as np

LAYERS = ("field", "linearized", "degrees", "codec", "bounds", "analysis")


def _ref_basis_cells(args, kwargs, out) -> float:
    # the eliminated matrix has r^2 rows and 2(r-1)n + 1 columns
    rows = len(out)
    r = math.isqrt(rows)
    return rows * (2 * (r - 1) * args[0].n_frak + 1)


# computed operation counts, keyed by span name
WORK = {
    "field.mul_arr": lambda args, kwargs, out: out.size,
    "field.mat_rref": lambda args, kwargs, out: out[0].size,
    "degrees.ref_basis": _ref_basis_cells,
    "codec.build_code": lambda args, kwargs, out: out.k * out.length,
}


class Tracer:
    """Records spans of wrapped calls into flat arrays."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.name_id = array("H")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self.self_s = array("d")
        self.work = array("d")
        self._open: list[int] = []
        self._child_s: list[float] = []

    def wrap(self, name: str, fn):
        if name not in self.names:
            self.names.append(name)
        nid = self.names.index(name)
        work = WORK.get(name)
        clock = time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(self.start)
            self.name_id.append(nid)
            self.parent.append(self._open[-1] if self._open else -1)
            self.end.append(0.0)
            self.self_s.append(0.0)
            self.work.append(0.0)
            self._open.append(i)
            self._child_s.append(0.0)
            t0 = clock()
            self.start.append(t0)
            try:
                out = fn(*args, **kwargs)
            finally:
                t1 = clock()
                self._open.pop()
                dur = t1 - t0
                self.end[i] = t1
                self.self_s[i] = dur - self._child_s.pop()
                if self._child_s:
                    self._child_s[-1] += dur
            if work is not None:
                self.work[i] = work(args, kwargs, out)
            return out

        return traced

    @contextlib.contextmanager
    def patched(self, package):
        """Wrap the package's public layer functions for the duration."""
        prefix = package.__name__
        wrappers = {}
        for layer in LAYERS:
            mod = sys.modules[f"{prefix}.{layer}"]
            for attr, obj in vars(mod).items():
                if (
                    inspect.isfunction(obj)
                    and obj.__module__ == mod.__name__
                    and not attr.startswith("_")
                ):
                    wrappers[obj] = self.wrap(f"{layer}.{attr}", obj)
        field_ctx = sys.modules[f"{prefix}.field"].FieldCtx
        undo = [(field_ctx, "mul_arr", field_ctx.mul_arr)]
        field_ctx.mul_arr = self.wrap("field.mul_arr", field_ctx.mul_arr)
        for modname, mod in list(sys.modules.items()):
            if modname != prefix and not modname.startswith(prefix + "."):
                continue
            for attr, obj in list(vars(mod).items()):
                if inspect.isfunction(obj) and obj in wrappers:
                    undo.append((mod, attr, obj))
                    setattr(mod, attr, wrappers[obj])
        try:
            yield self
        finally:
            for owner, attr, obj in reversed(undo):
                setattr(owner, attr, obj)

    def summary(self) -> dict[str, dict]:
        """Per span name: calls, inclusive and self seconds, summed work,
        and the median inclusive duration in ms."""
        ids = np.frombuffer(self.name_id, dtype=np.uint16)
        dur = np.frombuffer(self.end) - np.frombuffer(self.start)
        self_s = np.frombuffer(self.self_s)
        work = np.frombuffer(self.work)
        out = {}
        for nid, name in enumerate(self.names):
            sel = ids == nid
            calls = int(sel.sum())
            out[name] = {
                "calls": calls,
                "s": float(dur[sel].sum()),
                "self_s": float(self_s[sel].sum()),
                "work": float(work[sel].sum()),
                "ms_p50": float(np.median(dur[sel]) * 1e3) if calls else 0.0,
            }
        return out

    def save(self, path) -> None:
        np.savez(
            path,
            names=np.array(self.names),
            name_id=np.frombuffer(self.name_id, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int32),
            start=np.frombuffer(self.start),
            end=np.frombuffer(self.end),
            self_s=np.frombuffer(self.self_s),
            work=np.frombuffer(self.work),
        )
