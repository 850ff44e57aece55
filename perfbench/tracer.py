"""Span and call-count tracing of heckeb, installed from outside the package.

The tracer replaces functions and methods by dotted name (relative to the
``heckeb`` package) with wrappers:

- a *span* target records one span per call (name, start, end, parent) and
  counts its calls;
- a *count* target only counts its calls, because it runs too often for a
  span per call;
- an ``lru_cache``'d target is rebuilt as a fresh cache of the same size
  around a span wrapper, so only the calls that run its body (the misses)
  make spans and count as calls.

A name that does not resolve, for example a helper that a refactor removed,
is reported as absent and never raises.  Module-level functions are imported
by name into other modules (``from .domino import length``), so a wrapper
replaces every global of every loaded ``heckeb`` module bound to the original
object.  Methods are replaced on their class.
"""

from __future__ import annotations

import contextlib
import functools
import gzip
import importlib
import inspect
import json
import sys
import time
from array import array

from metrics import CACHED_FUNCTIONS

PACKAGE = "heckeb"
MODULES = ("laurent", "cyclo", "domino", "combinat", "orders", "hecke",
           "specht", "fock", "crystal", "canonical", "cli")

# Public module-level functions called so often that a span per call would
# cost more than the work it measures: counted only.
HOT_FUNCTIONS = frozenset({
    "domino.length", "domino.reduced_word",
    "combinat.q_r_inverse", "combinat.q_r", "combinat.delta_core",
    "combinat.format_partition", "combinat.format_bipartition",
    "combinat.staircase_index", "combinat.two_core",
    "combinat.core_and_quotient",
    "orders.dominance_partitions",
    "hecke.generator_gamma",
    "fock.content", "fock.residue", "fock.node_key", "fock.addable_nodes",
    "fock.removable_nodes", "fock.weight_ni",
    "crystal.signature_word", "crystal.crystal_f", "crystal.crystal_e",
    "crystal.epsilon", "crystal.phi",
})

# Private stage functions traced as spans while they exist.
STAGE_FUNCTIONS = (
    "hecke._bar_t", "hecke._dagger_t",
    "specht._generic_data", "specht._specialized_data",
    "specht._action_matrices", "specht._radical_traces",
)

# Methods on the hot path of each arithmetic and algebra layer: counted only.
COUNTED_METHODS = (
    "laurent.ACoeff.__mul__", "laurent.ACoeff.__add__",
    "laurent.VPoly.__mul__", "laurent.VPoly.__add__",
    "cyclo.CycloNumber.__mul__", "cyclo.CycloNumber.__add__",
    "cyclo.CycloNumber.inverse",
    "domino.SignedPermutation.__mul__",
    "combinat.Partition.part",
    "hecke.HeckeElement.mul_gen", "hecke.HeckeElement.mul_gen_left",
    "hecke.HeckeElement.mul_gen_right", "hecke.HeckeElement.__mul__",
    "hecke.CellDatum.expand",
)


def metric_name(dotted: str) -> str:
    """'laurent.ACoeff.__mul__' -> 'laurent.ACoeff.mul'."""
    head, _, last = dotted.rpartition(".")
    return f"{head}.{last.strip('_') if last.startswith('__') else last}"


def _resolve(dotted: str):
    """(owner, attribute, object) for a dotted name, or None if absent."""
    first, *middle, last = dotted.split(".")
    try:
        owner = importlib.import_module(f"{PACKAGE}.{first}")
    except ImportError:
        return None
    for attr in middle:
        owner = getattr(owner, attr, None)
        if owner is None:
            return None
    obj = inspect.getattr_static(owner, last, None)
    return None if obj is None else (owner, last, obj)


def _loaded_modules():
    return [m for name, m in list(sys.modules.items())
            if m is not None and (name == PACKAGE
                                  or name.startswith(PACKAGE + "."))]


class Tracer:
    """Wraps heckeb by dotted name; keeps spans and counts in memory."""

    def __init__(self):
        self.names: list[str] = []        # metric name per wrapped target
        self.kinds: list[str] = []        # 'span' or 'count'
        self.calls: list[int] = []
        self.absent: list[str] = []
        self.labels: list[str] = []       # one per operation root span
        # Span i: name index (>= 0 a target, < 0 the operation label
        # -1 - index), start, end, parent span (-1 for none).
        self.span_name = array("i")
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_parent = array("i")
        self.stack: list[int] = []
        self.kl_terms = 0
        self.cache_totals: dict[str, list[int]] = {}
        self._cache_seen: dict[str, tuple[int, int]] = {}

    # -- installation ------------------------------------------------------

    def targets(self) -> list[tuple[str, str]]:
        """(dotted name, kind) for every target."""
        out = []
        for mod_name in MODULES:
            try:
                module = importlib.import_module(f"{PACKAGE}.{mod_name}")
            except ImportError:
                self.absent.append(mod_name)
                continue
            for attr, obj in sorted(vars(module).items()):
                if attr.startswith("_") or inspect.isclass(obj) \
                        or not callable(obj) \
                        or getattr(obj, "__module__", None) != module.__name__:
                    continue
                dotted = f"{mod_name}.{attr}"
                out.append((dotted,
                            "count" if dotted in HOT_FUNCTIONS else "span"))
        out.extend((name, "span") for name in STAGE_FUNCTIONS)
        out.extend((name, "count") for name in COUNTED_METHODS)
        return out

    def install(self) -> None:
        for dotted, kind in self.targets():
            found = _resolve(dotted)
            if found is None or isinstance(found[2],
                                           (staticmethod, classmethod)):
                self.absent.append(dotted)
                continue
            owner, attr, original = found
            idx = len(self.names)
            self.names.append(metric_name(dotted))
            self.kinds.append(kind)
            self.calls.append(0)
            if hasattr(original, "cache_parameters"):
                body = self._span(original.__wrapped__, idx)
                if dotted == "hecke.kl_basis":
                    body = self._count_terms(body)
                params = original.cache_parameters()
                wrapper = functools.lru_cache(
                    maxsize=params["maxsize"], typed=params["typed"])(body)
            elif kind == "span":
                wrapper = self._span(original, idx)
            else:
                wrapper = self._count(original, idx)
            if inspect.isclass(owner):
                setattr(owner, attr, wrapper)
                continue
            for module in _loaded_modules():
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapper)

    def _count(self, fn, idx):
        calls = self.calls

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            calls[idx] += 1
            return fn(*args, **kwargs)

        return counted

    def _span(self, fn, idx):
        calls, stack = self.calls, self.stack
        names, starts = self.span_name, self.span_start
        ends, parents = self.span_end, self.span_parent
        clock = time.perf_counter

        @functools.wraps(fn)
        def spanned(*args, **kwargs):
            calls[idx] += 1
            sid = len(names)
            names.append(idx)
            parents.append(stack[-1] if stack else -1)
            ends.append(0.0)
            stack.append(sid)
            starts.append(clock())
            try:
                return fn(*args, **kwargs)
            finally:
                ends[sid] = clock()
                stack.pop()

        return spanned

    def _count_terms(self, fn):
        @functools.wraps(fn)
        def kl_basis(*args, **kwargs):
            basis = fn(*args, **kwargs)
            self.kl_terms += sum(len(c.terms) for c in basis.values())
            return basis

        return kl_basis

    @contextlib.contextmanager
    def operation(self, label: str):
        """The root span of one operation: every span the operation causes
        descends from it, so they share its id."""
        self.labels.append(label)
        sid = len(self.span_name)
        self.span_name.append(-len(self.labels))
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_end.append(0.0)
        self.stack.append(sid)
        self.span_start.append(time.perf_counter())
        try:
            yield
        finally:
            self.span_end[sid] = time.perf_counter()
            self.stack.pop()

    # -- caches -------------------------------------------------------------

    def read_caches(self) -> None:
        """Add the hits and misses since the last read to the totals."""
        for dotted in CACHED_FUNCTIONS:
            found = _resolve(dotted)
            info = getattr(found[2], "cache_info", None) if found else None
            if info is None:
                continue
            info = info()
            hits0, misses0 = self._cache_seen.get(dotted, (0, 0))
            total = self.cache_totals.setdefault(dotted, [0, 0])
            total[0] += info.hits - hits0
            total[1] += info.misses - misses0
            self._cache_seen[dotted] = (info.hits, info.misses)

    def clear_caches(self) -> None:
        """Empty every lru_cache of the package, as in a fresh process."""
        self.read_caches()
        for module in _loaded_modules():
            for value in list(vars(module).values()):
                if hasattr(value, "cache_clear"):
                    value.cache_clear()
        self._cache_seen.clear()

    # -- results -------------------------------------------------------------

    def summary(self) -> dict:
        """Calls, total and self seconds per target, and cache counters.

        A span's self time is its duration minus the durations of its child
        spans; spans nest, so the children never overlap."""
        nspans = len(self.span_name)
        dur = [self.span_end[i] - self.span_start[i] for i in range(nspans)]
        child = [0.0] * nspans
        for sid in range(nspans):
            if self.span_parent[sid] >= 0:
                child[self.span_parent[sid]] += dur[sid]
        total = [0.0] * len(self.names)
        self_s = [0.0] * len(self.names)
        for sid in range(nspans):
            idx = self.span_name[sid]
            if idx >= 0:
                total[idx] += dur[sid]
                self_s[idx] += dur[sid] - child[sid]
        functions = {}
        for idx, name in enumerate(self.names):
            entry = {"calls": self.calls[idx]}
            if self.kinds[idx] == "span":
                entry["total_s"] = total[idx]
                entry["self_s"] = self_s[idx]
            functions[name] = entry
        return {"functions": functions,
                "caches": {k: {"hits": h, "misses": m}
                           for k, (h, m) in self.cache_totals.items()},
                "kl_basis_terms": self.kl_terms,
                "spans": nspans, "absent": sorted(self.absent)}

    def write_spans(self, path) -> None:
        """Write the spans as JSON: a name table (targets, then operation
        labels) and one [name, start, end, parent] list per span."""
        base = len(self.names)
        spans = [[idx if idx >= 0 else base - 1 - idx,
                  self.span_start[i], self.span_end[i], self.span_parent[i]]
                 for i, idx in enumerate(self.span_name)]
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            json.dump({"names": self.names + self.labels, "spans": spans}, fh)

