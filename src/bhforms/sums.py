"""Coefficient l_p sums: full, card-restricted, monomial-restricted, blocked,
plus the interpolation inequality used to trade block exponents for the
critical one."""

from __future__ import annotations

import math
from dataclasses import dataclass

from .core import (
    BAYART_C,
    PRINTED_REAL_RATE,
    HomogeneousPolynomial,
    MultilinearForm,
    bh_exponent,
    distinct_count,
)
from .norms import (
    DEFAULT_BUDGET,
    NormResult,
    ascent_lower_bound,
    exact_norm_real,
    poly_lower_bound,
)

__all__ = [
    "Restriction",
    "RatioReport",
    "bh_exponent",
    "lp_sum",
    "restricted_sum",
    "block_sum",
    "poly_restricted_sum",
    "restriction_sum",
    "interpolation_bound",
    "theorem_upper_bound",
    "ratio_report",
]


@dataclass(frozen=True)
class Restriction:
    """Which coefficients enter a sum: all of them, tuples with at most M
    distinct indices, monomials in at most M variables, or a block pattern."""

    kind: str  # full | card | omega | block
    M: int | None = None
    partition: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in ("full", "card", "omega", "block"):
            raise ValueError(f"unknown restriction kind {self.kind!r}")
        if self.kind in ("card", "omega") and (self.M is None or self.M < 1):
            raise ValueError(f"restriction {self.kind!r} needs M >= 1")
        if self.kind == "block" and not self.partition:
            raise ValueError("block restriction needs a partition")

    def default_exponent(self, m: int) -> float:
        """The Bohnenblust-Hille exponent of the sum for degree m: 2M/(M+1)
        over the M blocks of a block restriction, 2m/(m+1) otherwise."""
        return bh_exponent(len(self.partition) if self.kind == "block" else m)

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.M is not None:
            out["M"] = self.M
        if self.partition is not None:
            out["partition"] = list(self.partition)
        return out


FULL = Restriction("full")


def lp_sum(coeffs, p: float) -> float:
    """(sum |c|^p)^(1/p), with the max magnitude factored out so small p and
    huge coefficient counts cannot overflow.  An int coefficient whose
    magnitude is beyond the float range, or a sum beyond it, raises
    ``ValueError``."""
    if p < 1:
        raise ValueError(f"exponent must be >= 1, got {p}")
    mags = [abs(c) for c in coeffs]
    mx = max(mags, default=0)
    if mx == 0:
        return 0.0
    try:
        value = mx * sum((x / mx) ** p for x in mags) ** (1.0 / p)
    except OverflowError:
        # an int beyond the float range: the sum has no float value
        raise ValueError("a coefficient is beyond the float range") from None
    if not math.isfinite(value):
        raise ValueError("the sum is beyond the float range")
    return value


def restricted_sum(T: MultilinearForm, M: int, p: float) -> float:
    """l_p sum over coefficients whose tuples use at most M distinct indices."""
    if not 1 <= M <= T.m:
        raise ValueError(f"need 1 <= M <= {T.m}, got {M}")
    return lp_sum(
        (c for t, c in T.coeffs.items() if distinct_count(t) <= M), p
    )


def block_sum(
    T: MultilinearForm, partition: tuple[int, ...], p: float | None = None
) -> float:
    """l_p sum of the blocked array v(i_1,...,i_M) = T(e_{i_1} repeated n_1
    times, ..., e_{i_M} repeated n_M times); default exponent 2M/(M+1)."""
    partition = tuple(int(n) for n in partition)
    M = len(partition)
    if any(n < 1 for n in partition) or sum(partition) != T.m:
        raise ValueError(
            f"partition {partition} must have positive parts summing to {T.m}"
        )
    if p is None:
        p = bh_exponent(M)
    # each block index ranges within every slot the block covers
    ranges = []
    ofs = 0
    for n in partition:
        ranges.append(min(T.dims[ofs : ofs + n]))
        ofs += n
    values = []

    def rec(block: int, prefix: tuple):
        if block == M:
            values.append(T.coeffs.get(prefix, 0))
            return
        for i in range(1, ranges[block] + 1):
            rec(block + 1, prefix + (i,) * partition[block])

    rec(0, ())
    return lp_sum(values, p)


def poly_restricted_sum(P: HomogeneousPolynomial, M: int, p: float) -> float:
    """l_p sum over monomials using at most M distinct variables."""
    if not 1 <= M <= P.m:
        raise ValueError(f"need 1 <= M <= {P.m}, got {M}")
    return lp_sum((c for a, c in P.coeffs.items() if a.omega <= M), p)


def restriction_sum(obj, restriction: Restriction, p: float) -> float:
    """l_p sum of the coefficients of a form or a homogeneous polynomial that
    ``restriction`` selects; card and block apply to forms, omega to
    polynomials."""
    kind = restriction.kind
    if kind == "full":
        return lp_sum(obj.coeffs.values(), p)
    if isinstance(obj, MultilinearForm):
        if kind == "card":
            return restricted_sum(obj, restriction.M, p)
        if kind == "block":
            return block_sum(obj, restriction.partition, p)
        raise ValueError("omega restriction applies to polynomials only")
    if kind == "omega":
        return poly_restricted_sum(obj, restriction.M, p)
    raise ValueError(f"restriction {kind!r} applies to forms only")


def interpolation_bound(
    coeffs, p1: float, p2: float, theta: float
) -> tuple[float, bool]:
    """Mixed-exponent bound lp_sum(a,p1)^theta * lp_sum(a,p2)^(1-theta) for the
    target exponent 1/p = theta/p1 + (1-theta)/p2; returns (bound, holds)
    where holds checks lp_sum(a,p) <= bound.  The inequality always holds."""
    if p1 < 1 or p2 < 1:
        raise ValueError("exponents must be >= 1")
    if not 0 <= theta <= 1:
        raise ValueError(f"theta must be in [0,1], got {theta}")
    coeffs = list(coeffs)
    inv_p = theta / p1 + (1 - theta) / p2
    p = 1.0 / inv_p if inv_p > 0 else float("inf")
    bound = lp_sum(coeffs, p1) ** theta * lp_sum(coeffs, p2) ** (1 - theta)
    target = lp_sum(coeffs, p)
    holds = target <= bound * (1 + 1e-12) + 1e-300
    return bound, holds


def theorem_upper_bound(m: int, M: int) -> float:
    """Upper bound (1.3)^(M/m) * M^(0.365 M/m + (M+1)/2) on the optimal
    card-restricted constant, using the printed rate 0.365."""
    if not 1 <= M <= m:
        raise ValueError(f"need 1 <= M <= m, got M={M}, m={m}")
    return BAYART_C ** (M / m) * M ** (PRINTED_REAL_RATE * M / m + (M + 1) / 2)


@dataclass(frozen=True)
class RatioReport:
    """A coefficient-sum / norm ratio; a valid lower bound for the matching
    optimal constant only when the norm is exact."""

    p: float
    sum: float
    norm: NormResult
    ratio: float
    restriction: Restriction

    def to_json(self) -> dict:
        return {
            "p": self.p,
            "sum": self.sum,
            "norm": self.norm.to_json(),
            "exact_norm": self.norm.exact,
            "ratio": self.ratio,
            "restriction": self.restriction.to_json(),
        }


def ratio_report(
    obj,
    p: float | None = None,
    restriction: Restriction = FULL,
    norm_method: str = "exact",
    seed: int = 0,
    budget: int = DEFAULT_BUDGET,
) -> RatioReport:
    """Assemble the l_p sum, the norm (``budget`` capping an exact one), and
    their ratio for a form or a homogeneous polynomial."""
    if p is None:
        p = restriction.default_exponent(obj.m)
    s = restriction_sum(obj, restriction, p)
    if isinstance(obj, MultilinearForm):
        if norm_method == "exact":
            norm = exact_norm_real(obj, budget)
        elif norm_method == "ascent":
            norm = ascent_lower_bound(obj, seed=seed)
        else:
            raise ValueError(f"unknown norm method {norm_method!r}")
    else:
        norm = poly_lower_bound(obj, seed=seed, budget=budget)
    if norm.value == 0:
        raise ValueError("zero norm: ratio undefined")
    return RatioReport(p=p, sum=s, norm=norm, ratio=s / norm.value, restriction=restriction)
