"""Span tracing of the public ``tauadic`` functions, installed from outside.

The tracer replaces each traced function with a wrapper in every ``tauadic``
namespace that holds it: the defining module, every module that bound it
with ``from .x import name``, and module-level dicts such as the suite table
in ``checks``.  Uninstalling puts every original back.

Spans live in memory as flat arrays (name, start, end, parent span, op id)
and are written out once, at the end of a run.  Per-layer metrics are
derived from them: ``calls``, ``self_s`` (span time minus the time covered
by child spans), ``errors`` (exceptions that escaped), and work counts taken
from arguments and return values.
"""

from __future__ import annotations

import functools
import json
import re
import time
from array import array
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

TRACED = {
    "ring": ("evaluate_expansion", "multiply", "quotient_by_tau"),
    "digits": ("tnaf_digit", "tnaf_candidates", "gls_digit",
               "build_tnaf_digit_set"),
    "normform": ("norm_sq", "enumerate_short_vectors", "ldl_decompose",
                 "enumerate_bruteforce_oracle"),
    "expand": ("expand_tnaf", "expand_gls", "check_expansion",
               "enumerate_naf_words", "min_hamming_weight"),
    "tables": ("fixture_text", "check_tnaf_existence_table",
               "reproduce_gls_existence", "gls_nonuniqueness_census"),
    "checks": ("ring_suite", "norm_suite", "digits_suite", "expansion_suite"),
    "cli": ("main",),
}
SPAN_NAMES = tuple(f"{m}.{f}" for m, fs in TRACED.items() for f in fs)
SEARCHES = ("expand.min_hamming_weight", "expand.enumerate_naf_words")

_CASES = re.compile(r"^\d+/(\d+) failures")


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs[name]


def _count_cases(counters, args, kwargs, results):
    # _counted() results carry "failures/total"; the others are one case each.
    for r in results:
        m = _CASES.match(r.detail)
        counters["checks.cases"] += int(m.group(1)) if m else 1


def _count_oracle(counters, args, kwargs, result):
    box = _arg(args, kwargs, 2, "box")
    counters["normform.enumerate_bruteforce_oracle.box_points"] += (2 * box + 1) ** 4
    counters["normform.enumerate_bruteforce_oracle.hits"] += len(result)


def _count_min_weight(counters, args, kwargs, result):
    counters["expand.search.found"] += result is not None


def _count_naf_words(counters, args, kwargs, result):
    counters["expand.enumerate_naf_words.words"] += len(result)
    counters["expand.search.found"] += len(result)


def _adder(key, measure):
    def count(counters, args, kwargs, result):
        counters[key] += measure(args, kwargs, result)
    return count


# Work counts, keyed by span name; each is called with the call's arguments
# and return value.
COUNTERS = {
    "ring.evaluate_expansion": _adder(
        "ring.evaluate_expansion.digits",
        lambda a, k, r: len(_arg(a, k, 0, "digits"))),
    "expand.expand_tnaf": _adder("expand.expand_tnaf.digits",
                                 lambda a, k, r: len(r.digits)),
    "expand.expand_gls": _adder("expand.expand_gls.digits",
                                lambda a, k, r: len(r.digits)),
    "normform.enumerate_short_vectors": _adder(
        "normform.enumerate_short_vectors.elements", lambda a, k, r: len(r)),
    "normform.enumerate_bruteforce_oracle": _count_oracle,
    "expand.enumerate_naf_words": _count_naf_words,
    "expand.min_hamming_weight": _count_min_weight,
    "tables.fixture_text": _adder("tables.fixture_text.bytes",
                                  lambda a, k, r: len(r.encode())),
    "checks.ring_suite": _count_cases,
    "checks.norm_suite": _count_cases,
    "checks.digits_suite": _count_cases,
    "checks.expansion_suite": _count_cases,
}

# Every per-layer metric name, in report order.
LAYER_METRICS = (
    tuple(f"{n}.{stat}" for n in SPAN_NAMES for stat in ("calls", "self_s", "errors"))
    + ("ring.evaluate_expansion.digits", "expand.expand_tnaf.digits",
       "expand.expand_gls.digits", "normform.enumerate_short_vectors.elements",
       "normform.enumerate_bruteforce_oracle.box_points",
       "normform.enumerate_bruteforce_oracle.hit_ratio",
       "expand.enumerate_naf_words.words", "tables.fixture_text.bytes",
       "expand.search.nodes", "expand.search.yield", "checks.cases",
       "cli.stdout_bytes"))


class Tracer:
    """Collects spans of wrapped calls; ``op_id`` tags spans with the op."""

    def __init__(self) -> None:
        self.names = array("B")
        self.parents = array("l")
        self.ops = array("l")
        self.starts = array("q")
        self.ends = array("q")
        self.errors = [0] * len(SPAN_NAMES)
        self.counters: Counter = Counter()
        self.op_id = -1
        self._stack = [-1]
        self._patches: list = []

    def __len__(self) -> int:
        return len(self.names)

    def _wrap(self, name_id: int, fn):
        names, parents, ops = self.names, self.parents, self.ops
        starts, ends, stack = self.starts, self.ends, self._stack
        count = COUNTERS.get(SPAN_NAMES[name_id])
        counters, errors, clock = self.counters, self.errors, time.thread_time_ns

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            ops.append(self.op_id)
            starts.append(0)
            ends.append(0)
            stack.append(idx)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                errors[name_id] += 1
                raise
            finally:
                ends[idx] = clock()
                starts[idx] = start
                stack.pop()
            if count is not None:
                count(counters, args, kwargs, result)
            return result

        return traced

    @contextmanager
    def installed(self, program):
        """Patch every traced function for the duration of the block."""
        namespaces = [vars(m) for m in program.package_modules]
        try:
            for name_id, name in enumerate(SPAN_NAMES):
                module, fname = name.split(".")
                original = getattr(program.modules[module], fname)
                wrapped = self._wrap(name_id, original)
                for ns in namespaces:
                    for key, value in list(ns.items()):
                        if value is original:
                            self._patch(ns, key, original, wrapped)
                        elif type(value) is dict:
                            for k, v in list(value.items()):
                                if v is original:
                                    self._patch(value, k, original, wrapped)
            yield self
        finally:
            while self._patches:
                table, key, original = self._patches.pop()
                table[key] = original

    def _patch(self, table: dict, key, original, wrapped) -> None:
        self._patches.append((table, key, original))
        table[key] = wrapped

    def metrics(self, stdout_bytes: int) -> dict:
        """Per-layer metrics derived from the recorded spans."""
        n = len(self.names)
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        child_ns = array("q", bytes(8 * n))
        in_search = bytearray(n)
        search_ids = {SPAN_NAMES.index(s) for s in SEARCHES}
        quotient_id = SPAN_NAMES.index("ring.quotient_by_tau")
        calls = [0] * len(SPAN_NAMES)
        self_ns = [0] * len(SPAN_NAMES)
        nodes = 0
        for i in range(n):
            name, parent, dur = names[i], parents[i], ends[i] - starts[i]
            calls[name] += 1
            if parent >= 0:
                child_ns[parent] += dur
                if in_search[parent] or names[parent] in search_ids:
                    in_search[i] = 1
                    nodes += name == quotient_id
        for i in range(n):
            self_ns[names[i]] += ends[i] - starts[i] - child_ns[i]
        out = {}
        for k, name in enumerate(SPAN_NAMES):
            out[f"{name}.calls"] = calls[k]
            out[f"{name}.self_s"] = self_ns[k] / 1e9
            out[f"{name}.errors"] = self.errors[k]
        c = self.counters
        points = c["normform.enumerate_bruteforce_oracle.box_points"]
        out["normform.enumerate_bruteforce_oracle.hit_ratio"] = (
            c["normform.enumerate_bruteforce_oracle.hits"] / points if points else 0)
        out["expand.search.nodes"] = nodes
        out["expand.search.yield"] = c["expand.search.found"] / nodes if nodes else 0
        out["cli.stdout_bytes"] = stdout_bytes
        return {k: out[k] if k in out else c[k] for k in LAYER_METRICS}

    def write(self, path: Path, meta: dict) -> None:
        """One JSON header line, then the raw span arrays (see read_spans)."""
        header = dict(meta, names=SPAN_NAMES, spans=len(self.names),
                      arrays=[[a, getattr(self, a).typecode]
                              for a in ("names", "parents", "ops", "starts", "ends")])
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as f:
            f.write(json.dumps(header).encode() + b"\n")
            for a, _ in header["arrays"]:
                getattr(self, a).tofile(f)


def read_spans(path: Path) -> tuple[dict, dict]:
    """Header and span arrays of a file written by Tracer.write."""
    with open(path, "rb") as f:
        header = json.loads(f.readline())
        arrays = {}
        for name, typecode in header["arrays"]:
            arrays[name] = array(typecode)
            arrays[name].fromfile(f, header["spans"])
    return header, arrays
