"""Named extremal form families and seeded random corpora.

All random generators draw from numpy's PCG64 seeded through a SeedSequence
(splitmix64-based), with a fixed lexicographic tuple order, so corpora are
bit-reproducible across runs and platforms.
"""

from __future__ import annotations

import itertools

import numpy as np

from .core import REAL, BudgetExceededError, MultilinearForm

KSZ_BUDGET = 1 << 22


def littlewood_s2() -> MultilinearForm:
    """The sharp Littlewood witness x1*y1 + x1*y2 + x2*y1 - x2*y2."""
    return MultilinearForm.build(
        2, (2, 2), {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1}
    )


def s_family(m: int) -> MultilinearForm:
    """Inductive +-1 family with norm 2^(m-1) and 2^(2(m-1)) monomials, each
    using at most three distinct index values.

    Step: S_m = (x1' + x2') * S_{m-1} + (x1' - x2') * shift(S_{m-1}), where x'
    is a fresh dimension-2 slot and shift offsets slot-1 indices by 2^(m-2).
    Slot 1 ends with dimension 2^(m-1); all other slots have dimension 2.
    """
    if m < 2:
        raise ValueError(f"s_family needs m >= 2, got {m}")
    coeffs = dict(littlewood_s2().coeffs)
    for k in range(3, m + 1):
        shift = 1 << (k - 2)
        new = {}
        for t, c in coeffs.items():
            ts = (t[0] + shift,) + t[1:]
            new[t + (1,)] = c
            new[t + (2,)] = c
            new[ts + (1,)] = c
            new[ts + (2,)] = -c
        coeffs = new
    dims = (1 << (m - 1),) + (2,) * (m - 1)
    return MultilinearForm.build(m, dims, coeffs)


def r_family(m: int) -> MultilinearForm:
    """Product of m/2 independent bilinear blocks on consecutive slot pairs;
    norm 2^(m/2), exactly 4^(m/2) +-1 monomials, at most two distinct indices
    per monomial.  Requires m even."""
    if m < 2 or m % 2:
        raise ValueError(f"r_family needs even m >= 2, got {m}")
    block = littlewood_s2().coeffs
    coeffs = {}
    for parts in itertools.product(block.items(), repeat=m // 2):
        t = ()
        c = 1
        for bt, bc in parts:
            t += bt
            c *= bc
        coeffs[t] = c
    return MultilinearForm.build(m, (2,) * m, coeffs)


def a_family(m: int) -> MultilinearForm:
    """Odd-arity companion: the even family on slots 1..m-1 tensored with the
    first coordinate of slot m; norm 2^((m-1)/2), 4^((m-1)/2) monomials."""
    if m < 3 or m % 2 == 0:
        raise ValueError(f"a_family needs odd m >= 3, got {m}")
    base = r_family(m - 1)
    coeffs = {t + (1,): c for t, c in base.coeffs.items()}
    return MultilinearForm.build(m, base.dims + (1,), coeffs)



# family name -> a function of the arity m (s2 has a fixed arity and
# ignores it).  The constructors are looked up when called, so a
# wrapper bound to this module's attribute (as the benchmark's tracer binds
# one) is the one that runs.
FAMILIES = {
    "s2": lambda m: littlewood_s2(),
    "s": lambda m: s_family(m),
    "r": lambda m: r_family(m),
    "a": lambda m: a_family(m),
}

def ksz_random(m: int, n: int, seed: int, budget: int = KSZ_BUDGET) -> MultilinearForm:
    """Dense +-1 coefficient tensor over {1..n}^m with i.i.d. uniform signs,
    drawn in lexicographic tuple order from the seeded stream."""
    if m < 1 or n < 1:
        raise ValueError(f"need m, n >= 1, got m={m}, n={n}")
    count = n**m
    if count > budget:
        raise BudgetExceededError(
            f"{count} coefficients exceed budget {budget}", required=count
        )
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    signs = rng.integers(0, 2, size=count) * 2 - 1
    coeffs = {}
    for t, s in zip(itertools.product(range(1, n + 1), repeat=m), signs):
        coeffs[t] = int(s)
    return MultilinearForm.build(m, (n,) * m, coeffs)


def random_sparse(
    m: int,
    dims: tuple[int, ...],
    density: float,
    coeff_dist: str = "pm1",
    seed: int = 0,
) -> MultilinearForm:
    """Seeded sparse form: each grid tuple is kept with probability ``density``
    and given a coefficient from the chosen distribution (pm1, uniform,
    gaussian).  An empty draw is retried once with a spawned seed."""
    if not 0 < density <= 1:
        raise ValueError(f"density must be in (0, 1], got {density}")
    if coeff_dist not in ("pm1", "uniform", "gaussian"):
        raise ValueError(f"unknown coefficient distribution {coeff_dist!r}")
    dims = tuple(int(d) for d in dims)
    ss = np.random.SeedSequence(seed)
    for attempt_ss in (ss, ss.spawn(1)[0]):
        rng = np.random.default_rng(attempt_ss)
        coeffs = {}
        for t in itertools.product(*(range(1, d + 1) for d in dims)):
            if rng.random() >= density:
                continue
            if coeff_dist == "pm1":
                c = int(rng.integers(0, 2)) * 2 - 1
            elif coeff_dist == "uniform":
                c = float(rng.uniform(-1.0, 1.0))
            else:
                c = float(rng.standard_normal())
            if c != 0:
                coeffs[t] = c
        if coeffs:
            return MultilinearForm.build(m, dims, coeffs)
    raise ValueError(
        f"random_sparse drew an empty form twice (density={density}, dims={dims})"
    )
