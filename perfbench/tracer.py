"""Spans and call counts around ulbkit's layers, installed from outside the package.

A traced run wraps each layer's public functions in the namespace that
calls them: ``levenshtein`` imports ``kernel_zeros`` and ``largest_zero``
by name and ``ulb`` imports ``quadrature_rule``, so those names are
replaced in the importing module as well as in the defining one.  The
package's source is never edited, and a name a later version no longer
has is skipped, so its metric reads zero.
"""

import functools
import importlib
import json
from collections import Counter
from time import perf_counter

# (module, attribute, layer name, kind).  A "span" records
# [name, start, end, parent index, op id]; a "count" only counts calls,
# for functions called too often to time one by one.
TARGETS = (
    ("ulbkit._recurrence", "eval_one", "recurrence.eval_one", "count"),
    ("ulbkit.orthopoly", "eval_q", "orthopoly.eval_q", "count"),
    ("ulbkit.levenshtein", "eval_q", "orthopoly.eval_q", "count"),
    ("ulbkit.orthopoly", "largest_zero", "orthopoly.largest_zero", "span"),
    ("ulbkit.levenshtein", "largest_zero", "orthopoly.largest_zero", "span"),
    ("ulbkit.orthopoly", "kernel_zeros", "orthopoly.kernel_zeros", "span"),
    ("ulbkit.levenshtein", "kernel_zeros", "orthopoly.kernel_zeros", "span"),
    ("ulbkit.orthopoly", "expand_in_q", "orthopoly.expand_in_q", "span"),
    ("ulbkit.ulb", "expand_in_q", "orthopoly.expand_in_q", "span"),
    ("ulbkit.pmspace", "gauss_rule", "pmspace.gauss_rule", "span"),
    ("ulbkit.levenshtein", "validity_interval", "levenshtein.validity_interval", "span"),
    ("ulbkit.levenshtein", "tau_for_cardinality", "levenshtein.tau_for_cardinality", "span"),
    ("ulbkit.levenshtein", "solve_separation", "levenshtein.solve_separation", "span"),
    ("ulbkit.levenshtein", "quadrature_rule", "levenshtein.quadrature_rule", "span"),
    ("ulbkit.ulb", "quadrature_rule", "levenshtein.quadrature_rule", "span"),
    ("ulbkit.potentials", "check_absolutely_monotone", "potentials.check_absolutely_monotone", "span"),
    ("ulbkit.ulb", "check_absolutely_monotone", "potentials.check_absolutely_monotone", "span"),
    ("ulbkit.ulb", "hermite_certificate", "ulb.hermite_certificate", "span"),
    ("ulbkit.ulb", "verify_certificate", "ulb.verify_certificate", "span"),
    # importlib resolves the submodule: the package attribute ulbkit.ulb
    # is the function, which shadows the module of the same name
    ("ulbkit.ulb", "ulb", "ulb.ulb", "span"),
    ("ulbkit.cli", "ulb", "ulb.ulb", "span"),
    ("ulbkit.oracle", "minimize_sphere", "oracle.minimize_sphere", "span"),
    ("ulbkit.oracle", "exhaustive_hamming", "oracle.exhaustive_hamming", "span"),
)


class Tracer:
    """Keeps spans and counts in memory; ``op`` tags the spans of the current op."""

    def __init__(self):
        self.spans = []
        self.counts = Counter()
        self.op = 0
        self._stack = []
        self._undo = []

    def install(self, targets=TARGETS):
        wrappers = {}
        for modname, attr, name, kind in targets:
            try:
                module = importlib.import_module(modname)
            except ImportError:
                continue
            fn = getattr(module, attr, None)
            if not callable(fn):
                continue
            if fn not in wrappers:
                wrap = self._span if kind == "span" else self._count
                wrappers[fn] = wrap(name, fn)
            self._undo.append((module, attr, fn))
            setattr(module, attr, wrappers[fn])
        return self

    def uninstall(self):
        while self._undo:
            module, attr, fn = self._undo.pop()
            setattr(module, attr, fn)

    def _span(self, name, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            rec = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op]
            stack.append(len(spans))
            spans.append(rec)
            rec[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                rec[2] = perf_counter()
                stack.pop()

        return wrapper

    def _count(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper


def summarize(spans):
    """{name: [calls, total seconds, self seconds]} for one list of spans.

    Self time is a span's duration minus the time its child spans cover;
    calls run on one thread, so children never overlap.
    """
    covered = [0.0] * len(spans)
    for _, start, end, parent, _ in spans:
        if parent >= 0:
            covered[parent] += end - start
    out = {}
    for i, (name, start, end, _, _) in enumerate(spans):
        acc = out.setdefault(name, [0, 0.0, 0.0])
        acc[0] += 1
        acc[1] += end - start
        acc[2] += end - start - covered[i]
    return out


def merge_summaries(parts):
    out = {}
    for part in parts:
        for name, (calls, total, own) in part.items():
            acc = out.setdefault(name, [0, 0.0, 0.0])
            acc[0] += calls
            acc[1] += total
            acc[2] += own
    return out


def write_spans(path, spans):
    with open(path, "w") as fh:
        for name, start, end, parent, op in spans:
            fh.write(json.dumps({"name": name, "start": start, "end": end,
                                 "parent": parent, "op": op}) + "\n")
