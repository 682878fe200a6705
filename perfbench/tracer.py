"""
Span tracer that wraps rslab's public functions and Poly/MPoly/Series
methods from outside the package, in the traced worker only.

A span is recorded where a call crosses from one layer (module) into
another; a call that stays inside its caller's layer is only counted,
since its time is already inside a span of the same layer.  Spans live in
typed arrays (name, parent, op, start, end) and are written out when the
pass ends.  A layer's self time is the duration of its spans minus the
duration of their child spans.

Counters that need the arguments or the result (distinct Sturm inputs,
divmod operand sizes, n! per enumeration) run in hook spans of the pseudo
layer ``trace``, so their cost is charged to no program layer.  The one
exception is the count of words ``enumerate_runsorted`` yields: a C-level
``zip`` with an ``itertools.count`` counts them as they stream, with no
Python frame, and its small cost per word is charged to the layer that
consumes them.
"""
from __future__ import annotations

import functools
import gzip
import itertools
import json
import types
from array import array
from collections import Counter
from math import factorial
from operator import itemgetter
from time import perf_counter

LAYERS = ("perms", "bijections", "polynomials", "series", "realroot", "binwords", "stats", "prng")

# Arithmetic dunders are traced; cheap accessors (__getitem__, __eq__,
# __hash__, degree) are not, and their time stays with the caller.
TRACED_DUNDERS = frozenset({
    "__add__", "__radd__", "__sub__", "__rsub__", "__neg__", "__mul__",
    "__rmul__", "__truediv__", "__pow__", "__call__",
})

MPOLY_BUILDS = (
    "polynomials.descent_multivar",
    "polynomials.eulerian_multivar",
    "polynomials.peak_multivar",
    "polynomials.descent_multivar_from_end",
)


def _coeff_bits(coeffs) -> int:
    best = 0
    for c in coeffs:
        if isinstance(c, int):
            best = max(best, abs(c).bit_length())
        else:
            best = max(best, abs(c.numerator).bit_length(), c.denominator.bit_length())
    return best


class Tracer:
    def __init__(self):
        self.names: list[str] = []
        self.layer_of: list[str] = []
        self.calls: list[int] = []
        self._ids: dict[str, int] = {}
        self.s_name = array("i")
        self.s_parent = array("i")
        self.s_op = array("i")
        self.s_start = array("d")
        self.s_end = array("d")
        self.stack: list[tuple[int, str]] = []
        self.op = -1
        self.on = False
        self.counters: Counter = Counter()
        self.sturm_inputs: set = set()
        self._yielded: list = []
        self._hook_id = self.name_id("trace.hook", "trace")
        self._op_id = self.name_id("bench.op", "bench")

    def name_id(self, name: str, layer: str) -> int:
        if name not in self._ids:
            self._ids[name] = len(self.names)
            self.names.append(name)
            self.layer_of.append(layer)
            self.calls.append(0)
        return self._ids[name]

    # -- spans ------------------------------------------------------------

    def open(self, nid: int, layer: str) -> int:
        idx = len(self.s_start)
        self.s_name.append(nid)
        self.s_parent.append(self.stack[-1][0] if self.stack else -1)
        self.s_op.append(self.op)
        self.s_end.append(0.0)
        self.stack.append((idx, layer))
        self.s_start.append(perf_counter())
        return idx

    def close(self, idx: int) -> None:
        self.s_end[idx] = perf_counter()
        self.stack.pop()

    def begin_op(self, op: int) -> int:
        self.op = op
        root = self.open(self._op_id, "bench")
        self.on = True
        return root

    def end_op(self, root: int) -> None:
        self.on = False
        self.s_end[root] = perf_counter()
        self.stack.clear()

    def _hook(self, fn, *args):
        idx = self.open(self._hook_id, "trace")
        try:
            return fn(*args)
        finally:
            self.close(idx)

    def wrap(self, fn, name: str, layer: str, pre=None, post=None):
        nid = self.name_id(name, layer)
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not tr.on:
                return fn(*args, **kwargs)
            tr.calls[nid] += 1
            if pre is not None:
                tr._hook(pre, args)
            if tr.stack and tr.stack[-1][1] == layer:
                out = fn(*args, **kwargs)
            else:
                idx = tr.open(nid, layer)
                try:
                    out = fn(*args, **kwargs)
                finally:
                    tr.close(idx)
            if post is not None:
                out = tr._hook(post, args, out)
            return out

        return traced

    # -- counters ---------------------------------------------------------

    def _counted(self, it):
        """``it`` unchanged, its items counted by a C-level zip."""
        n = itertools.count()
        self._yielded.append(n)
        return map(itemgetter(0), zip(it, n))

    def yielded(self) -> int:
        """Items passed through ``_counted`` so far; read once, when the
        pass ends, since reading advances each count by one."""
        return sum(next(n) for n in self._yielded)

    def _hooks(self, name: str, fn):
        """(pre, post) hooks for the functions whose counters need more
        than a call count."""
        c = self.counters
        if name == "realroot.sturm_chain":
            return (lambda args: self.sturm_inputs.add(args[0].coeffs)), None
        if name == "polynomials.Poly.divmod":
            def pre(args):
                bits = max(_coeff_bits(args[0].coeffs), _coeff_bits(args[1].coeffs))
                c["divmod_max_bits"] = max(c["divmod_max_bits"], bits)
            return pre, None
        if name == "perms.enumerate_sn":
            # every caller consumes the stream to its end
            def pre(args):
                c["words_enumerated"] += factorial(args[0])
            return pre, None
        if name == "perms.enumerate_runsorted":
            def pre(args):
                c["runsorted_scanned"] += factorial(args[0])
            return pre, lambda args, out: self._counted(out)
        if name == "bijections.build_peak_transport":
            def post(args, out):
                c["transport_entries"] += len(out)
                return out
            return None, post
        if name == "binwords.maj_pair_table":
            # a cache miss computes the table from all n! permutations
            def post(args, out):
                misses = fn.cache_info().misses if hasattr(fn, "cache_info") else None
                if misses is None or misses > c["maj_pair_misses"]:
                    c["maj_pair_scanned"] += factorial(args[0])
                    c["maj_pair_misses"] = misses or 0
                return out
            return None, post
        return None, None

    # -- installation -----------------------------------------------------

    def install(self, rslab) -> None:
        """Wrap every public function and method of each layer module and
        rebind every reference to it in the package, so that names brought
        in with ``from .x import y`` are traced too."""
        modules = {layer: getattr(rslab, layer) for layer in LAYERS}
        swap: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                    continue
                if isinstance(obj, type):
                    self._wrap_class(layer, obj)
                elif isinstance(obj, types.FunctionType) or hasattr(obj, "cache_info"):
                    name = f"{layer}.{attr}"
                    swap[id(obj)] = self.wrap(obj, name, layer, *self._hooks(name, obj))
        for mod in modules.values():
            for attr, obj in list(vars(mod).items()):
                if id(obj) in swap:
                    setattr(mod, attr, swap[id(obj)])

    def _wrap_class(self, layer: str, cls: type) -> None:
        for attr, obj in list(vars(cls).items()):
            if not isinstance(obj, types.FunctionType):
                continue
            if attr.startswith("_") and attr not in TRACED_DUNDERS:
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            setattr(cls, attr, self.wrap(obj, name, layer, *self._hooks(name, obj)))

    # -- results ----------------------------------------------------------

    def self_times(self) -> dict[str, float]:
        """Self time per layer (plus ``bench`` and ``trace``), in seconds."""
        start, end = self.s_start, self.s_end
        own = array("d", (e - s for s, e in zip(start, end)))
        for i, p in enumerate(self.s_parent):
            if p >= 0:
                own[p] -= end[i] - start[i]
        out: dict[str, float] = {}
        layer_of, names = self.layer_of, self.s_name
        for i, t in enumerate(own):
            layer = layer_of[names[i]]
            out[layer] = out.get(layer, 0.0) + t
        return out

    def inclusive(self, name: str) -> float:
        nid = self._ids.get(name)
        return sum(
            e - s for n, s, e in zip(self.s_name, self.s_start, self.s_end) if n == nid
        )

    def count(self, name: str) -> int:
        nid = self._ids.get(name)
        return 0 if nid is None else self.calls[nid]

    def write(self, path) -> None:
        """Header line (JSON), then the raw name, parent, op, start and end
        arrays in that order, gzip-compressed."""
        header = {
            "names": self.names,
            "layers": self.layer_of,
            "spans": len(self.s_start),
            "arrays": ["name:i", "parent:i", "op:i", "start:d", "end:d"],
        }
        with gzip.open(path, "wb", compresslevel=1) as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.s_name, self.s_parent, self.s_op, self.s_start, self.s_end):
                arr.tofile(fh)
