"""Self-contained verification suite: recomputes every checkable quantity of
the underlying inequalities (family norms, coefficient sums, ratio witnesses,
interpolation algebra, upper bounds, construction identities, scaling law) and
reports one pass/fail outcome per check.

True optimal constants and asymptotic liminf/limsup statements are not
desk-reproducible; the suite certifies finite witnesses and inequalities only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .constructions import diagonal_polynomial, disjointify, lift_polynomial
from .core import MultiIndex, HomogeneousPolynomial, bh_exponent
from .generators import (
    a_family,
    littlewood_s2,
    r_family,
    random_sparse,
    s_family,
)
from .norms import brute_force_norm_real, exact_norm_real, poly_lower_bound
from .search import SearchConfig, ksz_scaling_experiment, maximize_ratio
from .sums import (
    interpolation_bound,
    lp_sum,
    restricted_sum,
    theorem_upper_bound,
)


@dataclass(frozen=True)
class VerifyOutcome:
    name: str
    expected: float
    computed: float
    tolerance: float
    passed: bool
    source: str

    def to_json(self) -> dict:
        return {
            "name": self.name,
            "expected": self.expected,
            "computed": self.computed,
            "tolerance": self.tolerance,
            "passed": self.passed,
            "source": self.source,
        }


def _check(name, expected, computed, tol, source) -> VerifyOutcome:
    passed = abs(computed - expected) <= tol * max(1.0, abs(expected))
    return VerifyOutcome(name, expected, computed, tol, passed, source)


def _same(a, b, exact) -> bool:
    """Whether two norms agree: equal when ``exact``, else within rel 1e-9
    of b."""
    return a == b if exact else abs(a - b) <= 1e-9 * max(1.0, abs(b))


def _draw(m, dims, dist, seed):
    """A random_sparse form at density 0.8; a tiny grid that draws empty
    falls back to the dense +-1 draw."""
    try:
        return random_sparse(m, dims, 0.8, coeff_dist=dist, seed=seed)
    except ValueError:
        return random_sparse(m, dims, 1.0, coeff_dist="pm1", seed=seed)


def make_corpus(count, max_m, max_dim, seed):
    """Seeded corpus of small random real forms with mixed coefficient
    distributions; deterministic for a fixed seed."""
    dists = ("pm1", "uniform", "gaussian")
    children = np.random.SeedSequence(seed).spawn(count)
    forms = []
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        m = int(rng.integers(1, max_m + 1))
        dims = tuple(int(rng.integers(1, max_dim + 1)) for _ in range(m))
        forms.append(_draw(m, dims, dists[i % 3], int(child.generate_state(1)[0])))
    return forms


def _family_checks(out):
    for m in (2, 3, 4, 5):
        S = s_family(m)
        norm = exact_norm_real(S)
        out.append(_check(f"s{m}_norm", 2 ** (m - 1), norm.value, 0.0,
                          "inductive family norm 2^(m-1)"))
        s = lp_sum(S.coeffs.values(), bh_exponent(m))
        out.append(_check(f"s{m}_bh_sum", 2 ** ((m - 1) * (m + 1) / m), s, 1e-9,
                          "critical-exponent sum of 2^(2(m-1)) unimodular terms"))
        out.append(_check(f"s{m}_ratio", 2 ** ((m - 1) / m), s / norm.value, 1e-9,
                          "lower-bound witness 2^((m-1)/m)"))
        out.append(_check(f"s{m}_card3", 0,
                          sum(1 for t in S.coeffs if len(set(t)) > 3), 0.0,
                          "at most three distinct indices per monomial"))
    for m in (2, 4, 6):
        R = r_family(m)
        norm = exact_norm_real(R)
        out.append(_check(f"r{m}_norm", 2 ** (m / 2), norm.value, 0.0,
                          "product-of-blocks norm 2^(m/2)"))
        out.append(_check(f"r{m}_count", 4 ** (m // 2), len(R.coeffs), 0.0,
                          "4^(m/2) monomials"))
        s = lp_sum(R.coeffs.values(), bh_exponent(m))
        out.append(_check(f"r{m}_ratio", math.sqrt(2), s / norm.value, 1e-9,
                          "even-arity witness sqrt(2)"))
    for m in (3, 5):
        A = a_family(m)
        norm = exact_norm_real(A)
        out.append(_check(f"a{m}_norm", 2 ** ((m - 1) / 2), norm.value, 0.0,
                          "odd-arity companion norm 2^((m-1)/2)"))
        out.append(_check(f"a{m}_count", 4 ** ((m - 1) // 2), len(A.coeffs), 0.0,
                          "4^((m-1)/2) monomials"))
        s = lp_sum(A.coeffs.values(), bh_exponent(m))
        out.append(_check(f"a{m}_ratio", 2 ** ((m - 1) / (2 * m)), s / norm.value,
                          1e-9, "odd-arity witness 2^((m-1)/2m)"))
    S2 = littlewood_s2()
    ratio = lp_sum(S2.coeffs.values(), 4 / 3) / exact_norm_real(S2).value
    out.append(_check("littlewood_sharp", math.sqrt(2), ratio, 1e-9,
                      "Littlewood 4/3 inequality: sqrt(2) is sharp over the reals"))


def _oracle_checks(out):
    bad = sum(not _same(exact_norm_real(T).value, brute_force_norm_real(T),
                        T.is_integer()) for T in make_corpus(100, 3, 3, seed=1001))
    out.append(_check("oracle_equivalence", 0, bad, 0.0,
                      "closed-form elimination vs full vertex enumeration"))

    forms = make_corpus(200, 3, 3, seed=2002)
    bad = sum(
        1
        for T in forms
        if lp_sum(T.coeffs.values(), 2) > exact_norm_real(T).value * (1 + 1e-9)
    )
    out.append(_check("khinchin_l2_bound", 0, bad, 0.0,
                      "Khinchin consequence: l2 coefficient sum <= norm"))


def _interpolation_checks(out):
    bad = 0
    for m in range(1, 13):
        for M in range(1, m + 1):
            theta = Fraction(M, m)
            lhs = theta * Fraction(M + 1, 2 * M) + (1 - theta) * Fraction(1, 2)
            if lhs != Fraction(m + 1, 2 * m):
                bad += 1
    out.append(_check("interpolation_exponent_algebra", 0, bad, 0.0,
                      "theta=M/m mixes 2M/(M+1) and 2 into 2m/(m+1), exactly"))

    rng = np.random.default_rng(np.random.SeedSequence(3003))
    bad = 0
    for _ in range(1000):
        size = int(rng.integers(1, 201))
        mags = 10.0 ** rng.uniform(-8, 8, size=size)
        signs = rng.integers(0, 2, size=size) * 2 - 1
        vec = mags * signs
        p1 = float(rng.uniform(1, 4))
        p2 = float(rng.uniform(1, 4))
        theta = float(rng.random())
        _, holds = interpolation_bound(vec, p1, p2, theta)
        if not holds:
            bad += 1
    out.append(_check("interpolation_inequality", 0, bad, 0.0,
                      "lp_sum at the mixed exponent never exceeds the bound"))


def _upper_bound_checks(out):
    corpus = [(s_family(m), 3) for m in (3, 4, 5)]
    corpus += [(r_family(m), 2) for m in (2, 4, 6)]
    corpus += [(a_family(m), 2) for m in (3, 5)]
    children = np.random.SeedSequence(4004).spawn(100)
    for i, child in enumerate(children):
        m, M = (3, 2) if i % 2 == 0 else (4, 3)
        dims = (3, 3, 3) if m == 3 else (2, 2, 2, 2)
        T = _draw(m, dims, ("pm1", "uniform", "gaussian")[i % 3],
                  int(child.generate_state(1)[0]))
        corpus.append((T, M))
    bad = 0
    for T, M in corpus:
        ratio = restricted_sum(T, M, bh_exponent(T.m)) / exact_norm_real(T).value
        if ratio > theorem_upper_bound(T.m, M) * (1 + 1e-12):
            bad += 1
    out.append(_check("restricted_ratio_upper_bound", 0, bad, 0.0,
                      "every restricted ratio below (1.3)^(M/m) M^(0.365M/m+(M+1)/2)"))


def _construction_checks(out):
    forms = make_corpus(50, 3, 3, seed=5005)
    bad = 0
    for T in forms:
        T1, _ = disjointify(T)
        if sorted(T1.coeffs.values()) != sorted(T.coeffs.values()):
            bad += 1
            continue
        n_t = exact_norm_real(T).value
        if not _same(exact_norm_real(T1).value, n_t, T.is_integer()):
            bad += 1
            continue
        P = diagonal_polynomial(T1)
        p = bh_exponent(T.m)
        if abs(lp_sum(P.coeffs.values(), p) - lp_sum(T.coeffs.values(), p)) > 1e-9 * max(
            1.0, lp_sum(T.coeffs.values(), p)
        ):
            bad += 1
            continue
        if poly_lower_bound(P, seed=11).value > n_t + 1e-9:
            bad += 1
    out.append(_check("symmetrization_chain", 0, bad, 0.0,
                      "disjoint re-indexing preserves coefficients, norm, and sums"))

    children = np.random.SeedSequence(6006).spawn(50)
    bad = 0
    for i, child in enumerate(children):
        rng = np.random.default_rng(child)
        d = 1 + i % 2  # degree M-1
        M = d + 1
        n_terms = int(rng.integers(1, 5))
        coeffs = {}
        for _ in range(n_terms):
            vars_ = rng.choice(np.arange(2, 7), size=d, replace=False)
            alpha = MultiIndex.from_pairs([(int(v), 1) for v in vars_])
            coeffs[alpha] = float(rng.uniform(-2, 2))
        P = HomogeneousPolynomial.build(d, 6, coeffs)
        m = M + int(rng.integers(0, 3))
        L = lift_polynomial(P, m)
        if len(L.coeffs) != len(P.coeffs):
            bad += 1
            continue
        if sorted(L.coeffs.values()) != sorted(P.coeffs.values()):
            bad += 1
            continue
        if any(alpha.omega > M for alpha in L.coeffs):
            bad += 1
            continue
        for _ in range(100):
            x = rng.uniform(-1, 1, size=6)
            if abs(L.evaluate(x)) > abs(P.evaluate(x)) * (1 + 1e-12) + 1e-15:
                bad += 1
                break
    out.append(_check("lift_chain", 0, bad, 0.0,
                      "degree lift keeps coefficients, caps variables at M, shrinks |P|"))

    bad = 0
    for T in make_corpus(50, 3, 3, seed=7007):
        n_t = exact_norm_real(T).value
        L = lift_polynomial(diagonal_polynomial(disjointify(T)[0]), T.m + 2)
        r = poly_lower_bound(L)
        v = abs(L.evaluate(r.witness[0]))
        bad += not (_same(r.value, n_t, T.is_integer())
                    and _same(r.value, v, T.is_integer()))
    out.append(_check("lift_norm_chain", 0, bad, 0.0,
                      "the lift of the symmetrized form has the form's norm, "
                      "with a witness"))


def _experiment_checks(out):
    table = ksz_scaling_experiment(2, (4, 8, 16), samples=50, seed=2024)
    out.append(_check("ksz_scaling_slope", 1.5, table.metadata["slope"], 0.1,
                      "random +-1 bilinear norms grow like n^(3/2)"))

    cfg = SearchConfig(m=2, dims=(2, 2), p=4 / 3, budget=10_000, restarts=4, seed=7)
    _, report = maximize_ratio(cfg)
    out.append(_check("search_recovers_sqrt2", math.sqrt(2), report.ratio, 1e-9,
                      "sign-flip ascent rediscovers the sharp bilinear witness"))


def run_suite(suite: str = "paper") -> list[VerifyOutcome]:
    if suite != "paper":
        raise ValueError(f"unknown suite {suite!r}")
    out: list[VerifyOutcome] = []
    _family_checks(out)
    _oracle_checks(out)
    _interpolation_checks(out)
    _upper_bound_checks(out)
    _construction_checks(out)
    _experiment_checks(out)
    return out
