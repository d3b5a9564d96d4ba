"""Coefficient l_p sums: full, card-restricted, monomial-restricted, blocked,
plus the interpolation inequality used to trade block exponents for the
critical one."""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass

from .core import (
    BAYART_C,
    PRINTED_REAL_RATE,
    HomogeneousPolynomial,
    MultilinearForm,
    bh_exponent,
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


# the objects whose coefficients each kind of restriction selects
_APPLIES = {
    "full": (MultilinearForm, HomogeneousPolynomial),
    "card": MultilinearForm,
    "omega": HomogeneousPolynomial,
    "block": MultilinearForm,
}


@dataclass(frozen=True)
class Restriction:
    """Which coefficients enter a sum, and of what: the one statement of each
    kind's rules.  ``full`` keeps every coefficient of a form or a polynomial;
    ``card`` the tuples t of a form with len(set(t)) <= M; ``omega`` the
    monomials alpha of a polynomial with alpha.omega <= M; ``block`` the
    tuples of a form that are constant on each block of the partition.  For
    degree m, 1 <= M <= m, and the partition's positive parts sum to m."""

    kind: str  # full | card | omega | block
    M: int | None = None
    partition: tuple[int, ...] | None = None

    def __post_init__(self):
        if self.kind not in _APPLIES:
            raise ValueError(f"unknown restriction kind {self.kind!r}")
        if self.kind in ("card", "omega") and (self.M is None or self.M < 1):
            raise ValueError(f"restriction {self.kind!r} needs M >= 1")
        if self.kind == "block" and not (self.partition and min(self.partition) >= 1):
            raise ValueError("block restriction needs a partition of positive parts")

    def check(self, cls: type, m: int) -> None:
        """Refuse an object of type ``cls`` and degree ``m`` that the
        restriction does not apply to or does not fit."""
        if not issubclass(cls, _APPLIES[self.kind]):
            what = "polynomials" if self.kind == "omega" else "forms"
            raise ValueError(f"restriction {self.kind!r} applies to {what} only")
        if self.kind in ("card", "omega") and self.M > m:
            raise ValueError(f"need 1 <= M <= {m}, got {self.M}")
        if self.kind == "block" and sum(self.partition) != m:
            raise ValueError(f"partition {self.partition} must sum to {m}")

    def kept(self, coeffs: dict):
        """The coefficients of ``coeffs`` that the restriction keeps, in the
        order they are summed: index order for block, dict order otherwise."""
        M = self.M
        if self.kind == "card":
            return (c for t, c in coeffs.items() if len(set(t)) <= M)
        if self.kind == "omega":
            return (c for a, c in coeffs.items() if a.omega <= M)
        if self.kind == "full":
            return coeffs.values()
        # each slot must repeat the index of its block's first slot
        starts = itertools.accumulate(self.partition[:-1], initial=0)
        firsts = [s for s, n in zip(starts, self.partition) for _ in range(n)]
        keys = [t for t in coeffs if all(t[j] == t[f] for j, f in enumerate(firsts))]
        return [coeffs[t] for t in sorted(keys)]

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
    return restriction_sum(T, Restriction("card", M=M), p)


def block_sum(
    T: MultilinearForm, partition: tuple[int, ...], p: float | None = None
) -> float:
    """l_p sum of the blocked array v(i_1,...,i_M) = T(e_{i_1} repeated n_1
    times, ..., e_{i_M} repeated n_M times); default exponent 2M/(M+1)."""
    restriction = Restriction("block", partition=tuple(int(n) for n in partition))
    if p is None:
        p = restriction.default_exponent(T.m)
    return restriction_sum(T, restriction, p)


def poly_restricted_sum(P: HomogeneousPolynomial, M: int, p: float) -> float:
    """l_p sum over monomials using at most M distinct variables."""
    return restriction_sum(P, Restriction("omega", M=M), p)


def restriction_sum(obj, restriction: Restriction, p: float) -> float:
    """l_p sum of the coefficients of a form or a homogeneous polynomial that
    ``restriction`` keeps; ``Restriction`` states the rules."""
    restriction.check(type(obj), obj.m)
    return lp_sum(restriction.kept(obj.coeffs), p)


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
