"""The four benchmark workloads.

Each workload turns the workload seed into one pass of op inputs before any
timing starts; the timed loop repeats that pass.  ``op`` is the only code
that runs inside the timed section.  ``check`` validates one op's output
outside it: ``deep`` checks re-derive the answer independently (witness
re-evaluation, recomputed sums, a reference table, the brute-force oracle),
and every output returns a fingerprint that must equal the one of the deeply
checked first occurrence of the same input.

All library calls go through module attributes (``norms.exact_norm_real``,
not a name imported here), so the tracer's rebinding sees them.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
from dataclasses import replace
from pathlib import Path

import numpy as np

from bhforms import cli, core, generators, norms, search, sums
from tracer import exact_counters

HERE = Path(__file__).resolve().parent
SEARCH_REFERENCE = HERE / "search_reference.json"

REL_TOL = 1e-9


class CheckFailed(Exception):
    pass


def _require(cond: bool, what: str):
    if not cond:
        raise CheckFailed(what)


def _seeds(seed: int, count: int) -> list[int]:
    return [int(c.generate_state(1)[0])
            for c in np.random.SeedSequence(seed).spawn(count)]


def _shuffled(seed: int, items: list) -> list:
    order = np.random.default_rng(np.random.SeedSequence([seed, 1])).permutation(len(items))
    return [items[i] for i in order]


def _check_witness(T, result):
    """The witness must reproduce the reported value: exactly (Python ints)
    for integer forms, which would expose an int64 wraparound, and to
    ``REL_TOL`` for float forms."""
    v = abs(T.evaluate(result.witness))
    if T.is_integer():
        _require(isinstance(result.value, int), "integer form, non-integer value")
        _require(v == result.value, f"witness gives {v}, reported {result.value}")
    else:
        _require(abs(v - result.value) <= REL_TOL * max(1.0, abs(v)),
                 f"witness gives {v}, reported {result.value}")


def _check_brute(T, value):
    b = norms.brute_force_norm_real(T)
    _require(abs(b - value) <= REL_TOL * max(1.0, abs(b)),
             f"brute force gives {b}, exact gave {value}")


def _direct_lp(values, p: float) -> float:
    """l_p sum without the max factoring of ``sums.lp_sum``."""
    return math.fsum(abs(c) ** p for c in values) ** (1.0 / p)


def _close(a: float, b: float, tol: float = REL_TOL) -> bool:
    return abs(a - b) <= tol * max(1.0, abs(a), abs(b))


class Workload:
    name = ""
    #: typical pass wall time on a 2-core x86 host when the benchmark was
    #: added; sets the number of passes of a traced run, so that its counts
    #: repeat exactly
    nominal_pass_s = 1.0
    #: the reported tail percentile, fixed per workload so that it lies
    #: inside one input class of the pass
    tail_pct = 75.0
    #: largest vertex space 2^(sum of dims) the brute-force oracle is run on
    brute_bits = 12
    #: inputs of the first pass that get the brute-force cross-check
    brute_samples = 3

    def setup(self, seed: int, tiny: bool, workdir: Path) -> list:
        raise NotImplementedError

    def op(self, inp, seq: int):
        raise NotImplementedError

    def check(self, inp, out, deep: bool, brute: bool):
        raise NotImplementedError

    def label(self, inp) -> str:
        return inp[0]

    def brute_pick(self, seed: int, inputs: list) -> set:
        """A seeded subsample of the small inputs for the brute-force oracle."""
        small = [i for i, inp in enumerate(inputs) if self.small(inp)]
        rng = np.random.default_rng(np.random.SeedSequence([seed, 2]))
        k = min(self.brute_samples, len(small))
        return {small[i] for i in rng.choice(len(small), size=k, replace=False)}

    def small(self, inp) -> bool:
        return False

    def exact_counters(self, inp, out):
        """(vertex space, computed cells, path) next to an exact-norm op."""
        return None

    def mean_best_ratio(self, fingerprints: dict) -> float:
        """Mean best search ratio over one pass; 0 where no op searches."""
        return 0.0


class ExactLarge(Workload):
    """One op: one exact_norm_real call on a prebuilt large form."""

    name = "exact-large"
    nominal_pass_s = 1.3
    tail_pct = 90.0

    # the three (4,6) draws hold the median (33-58% of a pass), the two
    # (2,19) draws the p90 tail (83-100%)
    FULL = ([("ksz", 2, 19)] * 2 + [("ksz", 2, 18), ("ksz", 3, 9)] + [("ksz", 4, 6)] * 3
            + [("ksz", 5, 4)] * 3
            + [("gauss", (18, 30), 0.5), ("gauss", (16, 40), 0.6)])
    TINY = [("ksz", 2, 8), ("ksz", 3, 4), ("ksz", 5, 2), ("gauss", (6, 9), 0.5)]

    def setup(self, seed, tiny, workdir):
        specs = self.TINY if tiny else self.FULL
        inputs = []
        for spec, s in zip(specs, _seeds(seed, len(specs))):
            if spec[0] == "ksz":
                _, m, n = spec
                T = generators.ksz_random(m, n, seed=s)
                label = f"ksz m={m} n={n}"
            else:
                _, dims, density = spec
                T = generators.random_sparse(len(dims), dims, density,
                                             coeff_dist="gaussian", seed=s)
                label = f"gaussian dims={'x'.join(map(str, dims))}"
            inputs.append((label, T))
        return _shuffled(seed, inputs)

    def op(self, inp, seq):
        return norms.exact_norm_real(inp[1])

    def check(self, inp, out, deep, brute):
        T = inp[1]
        _require(out.exact, "exact flag not set")
        if deep:
            _check_witness(T, out)
            # too large for the brute-force oracle; no certified lower bound
            # may exceed the exact maximum
            low = norms.ascent_lower_bound(T, seed=0, restarts=4).value
            _require(low <= out.value * (1 + REL_TOL), f"ascent found {low} > {out.value}")
        return (out.value, out.witness, out.work)

    def exact_counters(self, inp, out):
        return exact_counters(inp[1], out)


class KszBatch(Workload):
    """One op: draw a KSZ +-1 form, take its exact norm, its full l_p sum and
    its card-restricted sum at the critical exponent."""

    name = "ksz-batch"
    nominal_pass_s = 0.2
    tail_pct = 95.0

    # (m, n, draws per pass); the weights centre the median on the cluster
    # (2,12), (4,4), whose neighbours are clearly faster or slower, so the
    # median does not sit on a boundary between size classes, and the p95
    # tail inside the four (2,16) draws (85-100%)
    FULL = [(2, 4, 1), (2, 8, 2), (2, 12, 4), (2, 16, 4), (3, 3, 1), (3, 4, 1),
            (3, 5, 2), (4, 3, 1), (4, 4, 4), (4, 5, 4)]
    TINY = [(2, 4, 2), (2, 8, 2), (3, 3, 2), (3, 4, 2), (4, 3, 2)]

    def setup(self, seed, tiny, workdir):
        shapes = [(m, n) for m, n, w in (self.TINY if tiny else self.FULL)
                  for _ in range(w)]
        inputs = [(f"ksz m={m} n={n}", m, n, s)
                  for (m, n), s in zip(shapes, _seeds(seed, len(shapes)))]
        return _shuffled(seed, inputs)

    def op(self, inp, seq):
        _, m, n, s = inp
        T = generators.ksz_random(m, n, seed=s)
        r = norms.exact_norm_real(T)
        p = core.bh_exponent(m)
        full = sums.lp_sum(T.coeffs.values(), p)
        card = sums.restricted_sum(T, min(2, m - 1), p)
        return T, r, full, card

    def small(self, inp):
        return inp[1] * inp[2] <= self.brute_bits

    def check(self, inp, out, deep, brute):
        _, m, n, _ = inp
        T, r, full, card = out
        _require(r.exact, "exact flag not set")
        _require(len(T.coeffs) == n**m and T.dims == (n,) * m, "wrong KSZ shape")
        if deep:
            _check_witness(T, r)
            p = core.bh_exponent(m)
            M = min(2, m - 1)
            _require(_close(full, _direct_lp(T.coeffs.values(), p)), "lp_sum")
            kept = [c for t, c in T.coeffs.items() if len(set(t)) <= M]
            _require(_close(card, _direct_lp(kept, p)), "restricted_sum")
            if brute:
                _check_brute(T, r.value)
        return (r.value, r.witness, full, card)

    def exact_counters(self, inp, out):
        return exact_counters(out[0], out[1])


class SearchClimb(Workload):
    """One op: one maximize_ratio call at a fixed evaluation budget."""

    name = "search-climb"
    nominal_pass_s = 1.5
    tail_pct = 90.0
    brute_bits = 10
    POOL = 8  # search seeds per config with a recorded reference

    # (name, dims, restriction M or None, starting family or None, restarts);
    # the free configs get enough restarts to always spend the whole budget,
    # so their cost does not depend on the drawn search seed.  M=1 is the
    # only M that restricts dims (2,2,2,2,2); the cell-* configs repeat
    # constant_table cells (m, M) with its family starts, (3,3) included.
    # At this budget the five small searches are the fast 42% of a pass, the
    # two (2,2,2,2,2) searches, alike in cost, meet at the median, and the
    # two (3,3,3,3) searches, also alike, hold the p90 tail (83-100%)
    CONFIGS = [
        ("d444-full", (4, 4, 4), None, None, 8),
        ("d444-card2", (4, 4, 4), 2, None, 8),
        ("d3333-full", (3, 3, 3, 3), None, None, 8),
        ("d3333-card2", (3, 3, 3, 3), 2, None, 8),
        ("d22222-full", (2, 2, 2, 2, 2), None, None, 12),
        ("d22222-card1", (2, 2, 2, 2, 2), 1, None, 12),
        ("d55-full", (5, 5), None, None, 24),
        ("cell-s3-card3", None, 3, ("s", 3), 4),
        ("cell-a3-card2", None, 2, ("a", 3), 4),
        ("cell-r4-card2", None, 2, ("r", 4), 4),
        ("cell-s4-card3", None, 3, ("s", 4), 4),
        ("cell-a5-card2", None, 2, ("a", 5), 4),
    ]
    BUDGET = {"full": 600, "tiny": 40}

    @classmethod
    def configs(cls, size: str):
        """(name, SearchConfig without its seed, initial form) per config;
        cells of the constant table start restart 0 from a named family."""
        families = {"s": generators.s_family, "r": generators.r_family,
                    "a": generators.a_family}
        out = []
        for name, dims, M, start, restarts in cls.CONFIGS:
            initial = families[start[0]](start[1]) if start else None
            dims = initial.dims if initial is not None else dims
            restriction = sums.Restriction("card", M=M) if M else sums.FULL
            cfg = search.SearchConfig(m=len(dims), dims=dims, restriction=restriction,
                                      budget=cls.BUDGET[size],
                                      restarts=min(restarts, cls.BUDGET[size] // 4))
            out.append((name, cfg, initial))
        return out

    @staticmethod
    def reference_key(size, name, seed):
        return f"{size}/{name}/seed={seed}"

    def setup(self, seed, tiny, workdir):
        self.size = "tiny" if tiny else "full"
        self.reference = json.loads(SEARCH_REFERENCE.read_text())
        rng = np.random.default_rng(np.random.SeedSequence([seed, 3]))
        inputs = []
        for name, cfg, initial in self.configs(self.size):
            s = int(rng.integers(self.POOL))
            inputs.append((name, replace(cfg, seed=s), initial))
        return _shuffled(seed, inputs)

    def op(self, inp, seq):
        return search.maximize_ratio(inp[1], initial=inp[2])

    def small(self, inp):
        return sum(inp[1].dims) <= self.brute_bits

    def check(self, inp, out, deep, brute):
        name, cfg, _ = inp
        form, report = out
        ref = self.reference[self.reference_key(self.size, name, cfg.seed)]
        h = search.form_hash(form)
        _require(h == ref["form_hash"], f"form hash {h} != reference {ref['form_hash']}")
        _require(_close(report.ratio, ref["ratio"], 1e-12),
                 f"ratio {report.ratio} != reference {ref['ratio']}")
        if deep:
            _require(report.norm.exact, "search norm not exact")
            _check_witness(form, report.norm)
            _require(_close(report.ratio, report.sum / report.norm.value), "ratio")
            if brute:
                _check_brute(form, report.norm.value)
        return (report.ratio, h)

    def mean_best_ratio(self, fingerprints):
        return sum(fp[0] for fp in fingerprints.values()) / len(fingerprints)


class CliDocs(Workload):
    """One op: a chain of in-process ``cli.run`` calls on files: generate,
    norm, card sum, ratio, symmetrize, lift, and the norm of the lift."""

    name = "cli-docs"
    nominal_pass_s = 1.1
    tail_pct = 90.0
    brute_samples = 2

    # (dims, density, coefficient distribution, draws per pass).  Full
    # density keeps the cost of a draw steady across seeds; the two sparse
    # classes are the fast 17% of a pass, the sixteen (4,4,4) draws hold the
    # median (17-83%), and the four (5,5,5) draws the p90 tail (83-100%)
    FULL = [("5,5", 0.6, "pm1", 2), ("3,3,3", 0.7, "pm1", 2),
            ("4,4,4", 1.0, "pm1", 8), ("4,4,4", 1.0, "gaussian", 8),
            ("5,5,5", 1.0, "pm1", 4)]
    TINY = [("3,3,3", 0.5, "pm1", 1), ("3,3", 0.6, "gaussian", 1)]

    def setup(self, seed, tiny, workdir):
        self.workdir = workdir
        workdir.mkdir(parents=True, exist_ok=True)
        specs = [(d, rho, dist) for d, rho, dist, w in (self.TINY if tiny else self.FULL)
                 for _ in range(w)]
        inputs = [(f"{dist} dims={d.replace(',', 'x')}", d, rho, dist, s)
                  for (d, rho, dist), s in zip(specs, _seeds(seed, len(specs)))]
        return _shuffled(seed, inputs)

    def _paths(self, seq):
        return {k: str(self.workdir / f"{seq}-{k}.json") for k in "fpel"}

    def op(self, inp, seq):
        _, dims, density, dist, s = inp
        m = len(dims.split(","))
        f = self._paths(seq)
        steps = [
            ["gen", "--family", "random", "--m", str(m), "--dims", dims,
             "--density", str(density), "--dist", dist, "--seed", str(s),
             "--out", f["f"]],
            ["norm", "--in", f["f"]],
            ["sum", "--in", f["f"], "--card", "2"],
            ["ratio", "--in", f["f"]],
            ["construct", "symmetrize", "--in", f["f"], "--out", f["p"],
             "--emit-embedding", f["e"]],
            ["construct", "lift", "--in", f["p"], "--m", str(m + 2), "--out", f["l"]],
            ["norm", "--in", f["l"]],
        ]
        codes, texts = [], []
        for argv in steps:
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                codes.append(cli.run(argv))
            texts.append(buf.getvalue())
        return seq, tuple(codes), tuple(texts)

    def small(self, inp):
        return sum(int(d) for d in inp[1].split(",")) <= self.brute_bits

    def check(self, inp, out, deep, brute):
        seq, codes, texts = out
        _require(codes == (0,) * 7, f"exit codes {codes}")
        f = self._paths(seq)
        try:
            T = core.load_form(f["f"])
            P = core.load_poly(f["p"])
            L = core.load_poly(f["l"])
            emb = json.loads(Path(f["e"]).read_text())
            _, norm, total, ratio, _, _, lnorm = (
                json.loads(t) if t else None for t in texts)
        except (core.BHError, ValueError, OSError) as exc:
            raise CheckFailed(f"output does not re-parse: {exc}") from exc
        docs = tuple(Path(f[k]).read_text() for k in "fpel")
        for path in f.values():
            os.remove(path)
        _require(emb.get("kind") == "embedding" and emb.get("m") == T.m, "embedding")
        if deep:
            _require(norm["exact"], "form norm not exact")
            witness = tuple(tuple(w) for w in norm["witness"])
            _check_witness(T, norms.NormResult(norm["value"], witness, True, None, 0))
            p = core.bh_exponent(T.m)
            kept = [c for t, c in T.coeffs.items() if len(set(t)) <= 2]
            _require(_close(total["sum"], _direct_lp(kept, p)), "card sum")
            _require(ratio["norm"]["value"] == norm["value"], "ratio norm")
            _require(_close(ratio["ratio"], ratio["sum"] / norm["value"]), "ratio")
            _require(P.m == T.m and len(P.coeffs) == len(T.coeffs), "symmetrize")
            _require(L.m == T.m + 2 and len(L.coeffs) == len(P.coeffs), "lift")
            v = abs(L.evaluate(lnorm["witness"][0]))
            _require(_close(v, lnorm["value"]), "lifted norm witness")
            if brute:
                _check_brute(T, norm["value"])
        return codes, texts, docs


WORKLOADS = {w.name: w for w in (ExactLarge, KszBatch, SearchClimb, CliDocs)}
