"""Span tracer for the benchmark: wraps the public functions of each
``bhforms`` layer from outside and derives per-layer metrics from the spans.

Wrapping rebinds every module attribute that refers to a wrapped function,
so calls that go through names imported across modules (``search`` calling
its own ``exact_norm_real`` binding, ``sums`` calling ``lp_sum``) are traced
too.  No source file of the library changes.

A span is ``[function id, start_ns, end_ns, parent span, op id, info]``.
Spans are kept in memory and written once, at the end of a run.  A wrapper
that computes a work counter after the call records that bookkeeping as a
child span of the caller (layer ``trace``), so the counter's cost lands in
no layer's self time.
"""

from __future__ import annotations

import functools
import gzip
import json
import os
from time import perf_counter_ns

from bhforms import cli, constructions, core, generators, norms, search, sums

import bhforms

MODULES = (bhforms, core, generators, norms, sums, constructions, search, cli)

GROUPS = ("op", "trace", "core.build", "core.parse", "core.dumps", "generators",
          "norms.exact", "norms.heuristic", "sums", "constructions", "search",
          "cli")


def _coeff_count(args, kwargs, out):
    return len(out.coeffs)


def _parse_bytes(args, kwargs, out):
    source = args[0] if args else kwargs.get("source")
    return os.path.getsize(source) if isinstance(source, (str, os.PathLike)) else 0


def _dumps_bytes(args, kwargs, out):
    return len(out)


def exact_counters(T, result) -> tuple[int, int, str]:
    """(vertex space, computed cells, numeric path) of one exact_norm_real
    call.  Cells are the enumerated assignments times the eliminated slot's
    active support: the size of the dense intermediate, computed, not
    measured."""
    k = result.eliminated_slot
    nk = len({t[k] for t in T.coeffs}) if k is not None else 0
    return result.work, result.work * nk, "int" if isinstance(result.value, int) else "float"


def _exact_info(args, kwargs, out):
    return exact_counters(args[0] if args else kwargs["T"], out)


def _work(args, kwargs, out):
    return out.work


# (layer, owner, attribute names, counter); a counter maps
# (args, kwargs, result) to the work count stored in the span's info field
TARGETS = (
    ("core.build", core.MultilinearForm, ("build",), _coeff_count),
    ("core.build", core.HomogeneousPolynomial, ("build",), _coeff_count),
    ("core.parse", core, ("load_any", "load_form", "load_poly"), _parse_bytes),
    ("core.dumps", core, ("dumps",), _dumps_bytes),
    ("generators", generators,
     ("littlewood_s2", "s_family", "r_family", "a_family", "ksz_random",
      "random_sparse"), _coeff_count),
    ("norms.exact", norms, ("exact_norm_real",), _exact_info),
    ("norms.heuristic", norms, ("ascent_lower_bound", "poly_lower_bound"), _work),
    ("sums", sums, ("lp_sum",), None),
    ("sums", sums, ("restricted_sum", "block_sum", "poly_restricted_sum"), None),
    ("constructions", constructions,
     ("disjointify", "diagonal_polynomial", "reconstruct_form",
      "lift_polynomial"), None),
    ("search", search,
     ("maximize_ratio", "constant_table", "ksz_scaling_experiment"), None),
    ("cli", cli, ("run",), None),
)


class Tracer:
    """Records spans of ops while ``on``.  ``install`` rebinds the library's
    names to the wrappers and ``uninstall`` restores every original."""

    def __init__(self):
        self.names = ["op", "trace.count"]
        self.groups = [GROUPS.index("op"), GROUPS.index("trace")]
        self.spans = []
        self.stack = []
        self.op = -1
        self.on = False
        self._bindings = []  # (owner, attribute, original, wrapper)
        for group, owner, attrs, counter in TARGETS:
            for attr in attrs:
                if isinstance(owner, type):
                    orig = owner.__dict__[attr]
                    fid = self._fid(group, f"{owner.__name__}.{attr}")
                    wrapped = classmethod(self._wrap(fid, orig.__func__, counter, False))
                    self._bindings.append((owner, attr, orig, wrapped))
                    continue
                orig = getattr(owner, attr)
                fid = self._fid(group, f"{owner.__name__.split('.')[-1]}.{attr}")
                wrapped = self._wrap(fid, orig, counter, attr == "lp_sum")
                for mod in MODULES:
                    for name, value in vars(mod).items():
                        if value is orig:
                            self._bindings.append((mod, name, orig, wrapped))

    # -- spans -------------------------------------------------------------

    def _fid(self, group: str, name: str) -> int:
        self.names.append(name)
        self.groups.append(GROUPS.index(group))
        return len(self.names) - 1

    def begin(self, fid: int) -> list:
        span = [fid, 0, 0, self.stack[-1] if self.stack else -1, self.op, 0]
        self.stack.append(len(self.spans))
        self.spans.append(span)
        span[1] = perf_counter_ns()
        return span

    def end(self, span: list):
        span[2] = perf_counter_ns()
        self.stack.pop()

    def begin_op(self, op: int) -> list:
        self.op = op
        return self.begin(0)

    def end_op(self, span: list):
        self.end(span)
        self.op = -1

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fid: int, fn, counter, materialize_first: bool):
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not tracer.on:
                return fn(*args, **kwargs)
            span = tracer.begin(fid)
            try:
                if materialize_first:
                    # lp_sum takes any iterable; count its terms in the span
                    terms = list(args[0])
                    span[5] = len(terms)
                    args = (terms,) + args[1:]
                out = fn(*args, **kwargs)
            finally:
                tracer.end(span)
            if counter is not None:
                extra = tracer.begin(1)
                span[5] = counter(args, kwargs, out)
                tracer.end(extra)
            return out

        return wrapper

    def install(self):
        for owner, attr, _, wrapped in self._bindings:
            setattr(owner, attr, wrapped)

    def uninstall(self):
        for owner, attr, orig, _ in self._bindings:
            setattr(owner, attr, orig)

    # -- analysis ----------------------------------------------------------

    def _tree(self):
        """Per span: duration, duration of direct children, and the bitmask
        of groups among its ancestors (spans are stored in start order, so a
        parent always precedes its children)."""
        n = len(self.spans)
        dur = [0] * n
        child = [0] * n
        anc = [0] * n
        for i, (fid, start, end, parent, _, _) in enumerate(self.spans):
            dur[i] = end - start
            if parent >= 0:
                child[parent] += dur[i]
                anc[i] = anc[parent] | (1 << self.groups[self.spans[parent][0]])
        return dur, child, anc

    def check_self_times(self, latency_ns: dict, slack: tuple) -> tuple[int, int, float]:
        """For every op, checks that the self times of the library layers'
        spans account for the op's latency as measured outside the tracer
        (``latency_ns``: op id -> ns) up to ``slack``: (share of the
        latency, ns) for the fixed cost of the op's own code.  The
        tracer's counter bookkeeping (``trace`` spans) is subtracted; the
        benchmark's own glue (the ``op`` span's self time) counts as
        unattributed, like any work that runs outside every wrapped
        function.  Returns (ops, ops failing, largest unattributed
        fraction)."""
        dur, child, _ = self._tree()
        glue = GROUPS.index("op")
        accounted = dict.fromkeys(latency_ns, 0)
        for i, (fid, _, _, _, op, _) in enumerate(self.spans):
            if op in accounted and self.groups[fid] != glue:
                accounted[op] += dur[i] - child[i]
        worst, bad = 0.0, 0
        for op, lat in latency_ns.items():
            gap = lat - accounted[op]
            worst = max(worst, gap / lat)
            bad += gap > slack[0] * lat + slack[1]
        return len(latency_ns), bad, worst

    def layer_metrics(self) -> dict:
        """Per-layer counts and times over every recorded span (set-up spans
        included, so generator work done in set-up is counted)."""
        dur, child, anc = self._tree()
        g = {name: {"calls": 0, "busy": 0, "self": 0, "count": 0} for name in GROUPS}
        exact = {"space": 0, "cells": 0, "int": 0, "float": 0}
        search_bit = 1 << GROUPS.index("search")
        evals = builds_in_search = 0
        for i, (fid, _, _, _, _, info) in enumerate(self.spans):
            gi = self.groups[fid]
            rec = g[GROUPS[gi]]
            rec["self"] += dur[i] - child[i]
            top = not anc[i] & (1 << gi)
            if top:
                rec["calls"] += 1
                rec["busy"] += dur[i]
            if GROUPS[gi] == "norms.exact":
                space, cells, path = info
                exact["space"] += space
                exact["cells"] += cells
                exact[path] += 1
                evals += bool(anc[i] & search_bit)
            else:
                # lp_sum, nested in the other sums, is the one that counts
                # terms; elsewhere only the outermost call of a layer counts
                if top or GROUPS[gi] == "sums":
                    rec["count"] += info
                if GROUPS[gi] == "core.build" and anc[i] & search_bit:
                    builds_in_search += 1

        def secs(ns):
            return ns / 1e9

        def rate(x, ns):
            return x / secs(ns) if ns else 0.0

        ex, se = g["norms.exact"], g["search"]
        out = {
            "norms.exact.calls": ex["calls"],
            "norms.exact.busy_s": secs(ex["busy"]),
            "norms.exact.vertex_space": exact["space"],
            "norms.exact.space_per_s": rate(exact["space"], ex["busy"]),
            "norms.exact.cells": exact["cells"],
            "norms.exact.cells_per_s": rate(exact["cells"], ex["busy"]),
            "norms.exact.int_calls": exact["int"],
            "norms.exact.float_calls": exact["float"],
            "search.calls": se["calls"],
            "search.self_s": secs(se["self"]),
            "search.evals": evals,
            "search.evals_per_s": rate(evals, se["busy"]),
            "search.builds_per_eval": builds_in_search / evals if evals else 0.0,
            "cli.calls": g["cli"]["calls"],
            "cli.self_s": secs(g["cli"]["self"]),
        }
        for name, count in (("core.build", "coeffs"), ("sums", "terms"),
                            ("generators", "coeffs"), ("core.parse", "bytes"),
                            ("core.dumps", "bytes"), ("norms.heuristic", "rounds"),
                            ("constructions", None)):
            out[f"{name}.calls"] = g[name]["calls"]
            out[f"{name}.busy_s"] = secs(g[name]["busy"])
            if count:
                out[f"{name}.{count}"] = g[name]["count"]
        out["trace.count_s"] = secs(g["trace"]["self"])
        return out

    def dump(self, path: str):
        """Writes every span as one row of a gzip-compressed JSON table."""
        t0 = min((s[1] for s in self.spans), default=0)
        doc = {
            "functions": self.names,
            "groups": [GROUPS[g] for g in self.groups],
            "columns": ["function", "start_ns", "end_ns", "parent", "op", "info"],
            "spans": [[f, s - t0, e - t0, p, op, info]
                      for f, s, e, p, op, info in self.spans],
        }
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as fh:
            json.dump(doc, fh, separators=(",", ":"))
