"""In-memory spans around calls into the package's public functions.

A traced run replaces each covered public function, in every cycosc module
that binds it, with a wrapper that records a span (name, start, end, parent
span, op id).  Calls the package makes to these functions internally are
therefore spans too, nested under the caller, so self time is a span's
duration minus that of its direct children.  Spans stay in memory and are
written out once, when the run ends.  Untraced runs install nothing.
"""

from __future__ import annotations

import dataclasses
import importlib
import json
import statistics
import time
from collections import defaultdict

import numpy as np

# module -> (function, kind).  kind "build": the summed nbytes of the arrays in
# the result are counted; "check": relation entries are counted and the name is
# split by the op's truncation dimension; "stream": each record drawn from the
# returned generator is one call.
COVERED = {
    "algebra": (("new_params", "call"), ("validate_fock", "call")),
    "fock": (
        ("build_rep", "build"),
        ("check_relations", "check"),
        ("klein_reduction_check", "check"),
        ("rep_to_dict", "call"),
    ),
    "shape_invariance": (
        ("build_hierarchy", "build"),
        ("partner_check", "check"),
        ("sqm2_check", "check"),
    ),
    "variants": (
        ("pssqm_build", "build"),
        ("pseudo_family1_build", "build"),
        ("pseudo_family2_build", "build"),
        ("ossqm_build", "build"),
        ("pssqm_check", "check"),
        ("pssqm_cubic_check", "check"),
        ("pseudo_check", "check"),
        ("ossqm_check", "check"),
        ("variant_to_dict", "call"),
    ),
    "spectrum": (
        ("analytic_spectrum", "call"),
        ("classify_degeneracy", "call"),
        ("sweep", "stream"),
    ),
    "cli": (("main", "call"),),
}

_END = object()


def array_bytes(obj) -> int:
    """Summed nbytes of the distinct arrays reachable from obj.

    Walks dataclass fields, tuples, lists and dicts generically, so no field
    of any result type is read by name.
    """
    seen: set[int] = set()
    total = 0
    stack = [obj]
    while stack:
        cur = stack.pop()
        if id(cur) in seen:
            continue
        seen.add(id(cur))
        if isinstance(cur, np.ndarray):
            total += cur.nbytes
        elif dataclasses.is_dataclass(cur) and not isinstance(cur, type):
            stack.extend(getattr(cur, f.name) for f in dataclasses.fields(cur))
        elif isinstance(cur, (tuple, list)):
            stack.extend(cur)
        elif isinstance(cur, dict):
            stack.extend(cur.values())
    return total


class Tracer:
    """Span store and function wrappers for one traced run."""

    def __init__(self):
        self.spans: list = []
        self.counts: dict[str, int] = defaultdict(int)
        self._stack: list[int] = []
        self._op_id: int | None = None
        self._dim: int | None = None
        self._patched: list = []

    def begin_op(self, op_id: int, dim: int | None) -> int:
        """Open the root span of one op; returns its span id."""
        self._op_id, self._dim = op_id, dim
        return self._open()

    def end_op(self, sid: int, label: str, start: float, end: float) -> None:
        self._close(sid, f"op.{label}", start, end)

    def _open(self) -> int:
        sid = len(self.spans)
        self.spans.append(None)
        self._stack.append(sid)
        return sid

    def _close(self, sid: int, name: str, start: float, end: float) -> None:
        self._stack.pop()
        parent = self._stack[-1] if self._stack else None
        self.spans[sid] = (sid, parent, self._op_id, name, start, end)

    def _wrap(self, name: str, fn, kind: str):
        tracer = self

        def traced(*args, **kwargs):
            if kind == "stream":
                return tracer._stream(name, fn(*args, **kwargs))
            span_name = f"{name}.dim{tracer._dim}" if kind == "check" else name
            sid = tracer._open()
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(sid, span_name, start, time.perf_counter())
            if kind == "build":
                tracer.counts[f"{span_name}.bytes"] += array_bytes(result)
            elif kind == "check":
                entries = result.entries
                tracer.counts[f"{span_name}.relations_checked"] += len(entries)
                tracer.counts[f"{span_name}.relations_failed"] += sum(
                    not e.passed for e in entries
                )
            return result

        return traced

    def _stream(self, name: str, records):
        while True:
            sid = self._open()
            start = time.perf_counter()
            try:
                rec = next(records, _END)
            finally:
                self._close(sid, name, start, time.perf_counter())
            if rec is _END:
                self.spans[sid] = None
                return
            yield rec

    def install(self, package) -> None:
        """Wrap every covered function wherever a cycosc module binds it."""
        modules = {m: importlib.import_module(f"{package.__name__}.{m}") for m in COVERED}
        for mod_name, funcs in COVERED.items():
            for func, kind in funcs:
                original = getattr(modules[mod_name], func)
                wrapper = self._wrap(f"{mod_name}.{func}", original, kind)
                for mod in [package, *modules.values()]:
                    for attr, value in list(vars(mod).items()):
                        if value is original:
                            setattr(mod, attr, wrapper)
                            self._patched.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._patched):
            setattr(mod, attr, original)
        self._patched.clear()

    def layer_metrics(self) -> dict[str, float]:
        """calls, median self time and counters per span name."""
        spans = [s for s in self.spans if s is not None]
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, _op, _name, start, end in spans:
            if parent is not None:
                child_time[parent] += end - start
        selfs: dict[str, list[float]] = defaultdict(list)
        for sid, _parent, _op, name, start, end in spans:
            if not name.startswith("op."):
                selfs[name].append(end - start - child_time[sid])
        out: dict[str, float] = {}
        for name, values in selfs.items():
            out[f"{name}.calls"] = len(values)
            out[f"{name}.self_s"] = statistics.median(values)
        out.update(self.counts)
        return out

    def write(self, path) -> None:
        """Write the spans as JSON lines: id, parent, op, name, start, end."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in self.spans:
                if span is not None:
                    fh.write(json.dumps(span) + "\n")
