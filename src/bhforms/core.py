"""Sparse multilinear forms and homogeneous polynomials on finite slices of l_inf.

Coefficients are plain Python numbers: ``int`` (kept exact end-to-end, so norms
of +-1 forms carry no rounding), ``float``, or ``complex``.  Containers carry a
``field`` tag ("real" or "complex"); real containers never hold a nonzero
imaginary part.  Zero coefficients are never stored.

Indices are 1-based externally: the tuple (1, 2) addresses the coefficient of
x_1 * y_2 in a bilinear form.
"""

from __future__ import annotations

import cmath
import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import IO, Iterable, Mapping

REAL = "real"
COMPLEX = "complex"

# --- named constants -------------------------------------------------------

EULER_GAMMA = 0.5772156649015328606
#: growth rate of the best known complex constants: m^((1-gamma)/2)
COMPLEX_EXPONENT_RATE = (1.0 - EULER_GAMMA) / 2.0
#: growth rate of the best known real constants: m^((2-log2-gamma)/2)
REAL_EXPONENT_RATE = (2.0 - math.log(2.0) - EULER_GAMMA) / 2.0
#: printed rounding of REAL_EXPONENT_RATE used in the displayed upper bound
PRINTED_REAL_RATE = 0.365
#: multiplicative constant C with B_m <= C * m^rate for both fields
BAYART_C = 1.3


def bh_exponent(m: int) -> float:
    """The critical exponent 2m/(m+1); 4/3 for bilinear forms, -> 2 as m grows."""
    if m < 1:
        raise ValueError(f"arity must be >= 1, got {m}")
    return 2.0 * m / (m + 1.0)


# --- errors ----------------------------------------------------------------


class BHError(Exception):
    """Base class for all library errors."""


class ParseError(BHError):
    """Malformed document; carries a human-readable location."""

    def __init__(self, message: str, location: str = ""):
        self.location = location
        super().__init__(f"{message}" + (f" (at {location})" if location else ""))


class FieldMismatchError(BHError):
    """Complex data fed into a real-only operation, or vice versa."""


class BudgetExceededError(BHError):
    """An enumeration would exceed the configured work budget."""

    def __init__(self, message: str, required: int):
        self.required = required
        super().__init__(message)


# --- scalar helpers ---------------------------------------------------------


def is_exact_int(c) -> bool:
    return isinstance(c, int) and not isinstance(c, bool)


def _check_scalar(c, field: str, where: str):
    if isinstance(c, bool):
        raise ParseError("boolean is not a coefficient", where)
    if isinstance(c, complex):
        if field == REAL:
            raise FieldMismatchError(
                f"complex coefficient {c!r} in a real container ({where})"
            )
    elif not isinstance(c, (int, float)):
        raise ParseError(f"unsupported coefficient type {type(c).__name__}", where)
    if not isinstance(c, int) and not cmath.isfinite(c):
        raise ParseError(f"non-finite coefficient {c!r}", where)


def _scalar_to_json(c) -> dict:
    if isinstance(c, complex):
        return {"re": c.real, "im": c.imag}
    return {"re": c}


def _scalar_from_json(entry: Mapping, field: str, where: str):
    re = entry.get("re", 0)
    im = entry.get("im", 0)
    for key, v in (("re", re), ("im", im)):
        if not isinstance(v, (int, float)) or isinstance(v, bool):
            raise ParseError(f"coefficient field '{key}' must be a number", where)
    if im != 0:
        if field == REAL:
            raise ParseError("nonzero imaginary part in a real document", where)
        return complex(re, im)
    if field == COMPLEX and not is_exact_int(re):
        return complex(re, 0.0)
    return re


# --- multilinear forms ------------------------------------------------------


@dataclass(frozen=True)
class MultilinearForm:
    """An m-linear form given by its finite coefficient tensor.

    ``coeffs`` maps 1-based index tuples (i_1, ..., i_m) to nonzero scalars;
    absent tuples are zero.  Instances are immutable values: never mutate the
    coefficient dict after construction.
    """

    m: int
    dims: tuple[int, ...]
    field: str
    coeffs: dict

    @classmethod
    def build(
        cls,
        m: int,
        dims: Iterable[int],
        coeffs: Mapping,
        field: str = REAL,
    ) -> "MultilinearForm":
        dims = tuple(int(d) for d in dims)
        if m < 1:
            raise ValueError(f"arity must be >= 1, got {m}")
        if len(dims) != m:
            raise ValueError(f"expected {m} slot dimensions, got {len(dims)}")
        if any(d < 1 for d in dims):
            raise ValueError(f"slot dimensions must be >= 1, got {dims}")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {field!r}")
        canon = {}
        for t, c in coeffs.items():
            t = tuple(int(i) for i in t)
            if len(t) != m:
                raise ValueError(f"index tuple {t} has length {len(t)}, expected {m}")
            for j, i in enumerate(t):
                if not 1 <= i <= dims[j]:
                    raise ValueError(
                        f"index {i} out of range 1..{dims[j]} in slot {j + 1}"
                    )
            _check_scalar(c, field, f"coefficient at {t}")
            if c != 0:
                canon[t] = c
        return cls(m=m, dims=dims, field=field, coeffs=canon)

    def coefficient(self, t: Iterable[int]):
        """Stored value at the 1-based tuple ``t``, or zero."""
        t = tuple(int(i) for i in t)
        if len(t) != self.m:
            raise ValueError(f"index tuple {t} has length {len(t)}, expected {self.m}")
        for j, i in enumerate(t):
            if not 1 <= i <= self.dims[j]:
                raise ValueError(
                    f"index {i} out of range 1..{self.dims[j]} in slot {j + 1}"
                )
        return self.coeffs.get(t, 0)

    def evaluate(self, args):
        """Direct expansion of the multilinear sum at m argument vectors.

        Argument vectors are read 1-based; entries beyond the slot dimension
        are ignored.  Exact when all coefficients and entries are ints.
        """
        if len(args) != self.m:
            raise ValueError(f"expected {self.m} argument vectors, got {len(args)}")
        for j, x in enumerate(args):
            if len(x) < self.dims[j]:
                raise ValueError(
                    f"argument {j + 1} has length {len(x)} < dim {self.dims[j]}"
                )
            if self.field == REAL and any(isinstance(v, complex) for v in x):
                raise FieldMismatchError("complex argument into a real form")
        total = 0
        for t, c in self.coeffs.items():
            term = c
            for j, i in enumerate(t):
                term = term * args[j][i - 1]
            total += term
        return total

    def active_support(self) -> tuple[tuple[int, ...], ...]:
        """Per slot, the sorted 1-based indices appearing in some stored tuple."""
        act = [set() for _ in range(self.m)]
        for t in self.coeffs:
            for j, i in enumerate(t):
                act[j].add(i)
        return tuple(tuple(sorted(s)) for s in act)

    def is_integer(self) -> bool:
        return all(is_exact_int(c) for c in self.coeffs.values())

    def scale(self, c) -> "MultilinearForm":
        return MultilinearForm.build(
            self.m,
            self.dims,
            {t: c * v for t, v in self.coeffs.items()},
            field=self.field if not isinstance(c, complex) else COMPLEX,
        )

    def to_json(self) -> dict:
        return {
            "kind": "form",
            "m": self.m,
            "field": self.field,
            "dims": list(self.dims),
            "coeffs": [
                {"idx": list(t), **_scalar_to_json(c)}
                for t, c in sorted(self.coeffs.items())
            ],
        }


def distinct_count(t: Iterable[int]) -> int:
    """Number of distinct index values in a tuple; the card({i_1,...,i_m}) statistic."""
    return len(set(t))


# --- multi-indices and polynomials -----------------------------------------


@dataclass(frozen=True, order=True)
class MultiIndex:
    """A monomial exponent pattern: sorted (variable, exponent) pairs, exponents >= 1."""

    exponents: tuple[tuple[int, int], ...]

    @classmethod
    def from_pairs(cls, pairs: Iterable[tuple[int, int]]) -> "MultiIndex":
        seen = {}
        for var, exp in pairs:
            var, exp = int(var), int(exp)
            if var < 1:
                raise ValueError(f"variable positions are 1-based, got {var}")
            if exp < 1:
                raise ValueError(f"stored exponents must be >= 1, got {exp}")
            if var in seen:
                raise ValueError(f"duplicate variable {var} in multi-index")
            seen[var] = exp
        return cls(tuple(sorted(seen.items())))

    @classmethod
    def from_tuple(cls, t: Iterable[int]) -> "MultiIndex":
        """Multi-index of the monomial x_{t_1} * ... * x_{t_m}."""
        counts = {}
        for i in t:
            counts[i] = counts.get(i, 0) + 1
        return cls.from_pairs(counts.items())

    @property
    def degree(self) -> int:
        return sum(e for _, e in self.exponents)

    @property
    def omega(self) -> int:
        """Number of distinct variables in the monomial."""
        return len(self.exponents)

    def exponent_of(self, var: int) -> int:
        for v, e in self.exponents:
            if v == var:
                return e
        return 0

    def max_variable(self) -> int:
        return self.exponents[-1][0] if self.exponents else 0

    def plus(self, var: int, amount: int) -> "MultiIndex":
        d = dict(self.exponents)
        d[var] = d.get(var, 0) + amount
        return MultiIndex.from_pairs(d.items())


@dataclass(frozen=True)
class HomogeneousPolynomial:
    """A degree-m homogeneous polynomial in n variables, as a sparse monomial map."""

    m: int
    n: int
    field: str
    coeffs: dict

    @classmethod
    def build(
        cls, m: int, n: int, coeffs: Mapping, field: str = REAL
    ) -> "HomogeneousPolynomial":
        if m < 1:
            raise ValueError(f"degree must be >= 1, got {m}")
        if n < 1:
            raise ValueError(f"ambient dimension must be >= 1, got {n}")
        if field not in (REAL, COMPLEX):
            raise ValueError(f"unknown field tag {field!r}")
        canon = {}
        for alpha, c in coeffs.items():
            if not isinstance(alpha, MultiIndex):
                alpha = MultiIndex.from_pairs(alpha)
            if alpha.degree != m:
                raise ValueError(f"multi-index {alpha} has degree {alpha.degree}, expected {m}")
            if alpha.max_variable() > n:
                raise ValueError(
                    f"variable {alpha.max_variable()} exceeds ambient dimension {n}"
                )
            _check_scalar(c, field, f"coefficient at {alpha}")
            if c != 0:
                canon[alpha] = c
        return cls(m=m, n=n, field=field, coeffs=canon)

    def evaluate(self, x):
        """P(x) for a 1-based vector x of length >= n (extra entries ignored)."""
        if len(x) < self.n:
            raise ValueError(f"argument has length {len(x)} < dim {self.n}")
        if self.field == REAL and any(isinstance(v, complex) for v in x):
            raise FieldMismatchError("complex argument into a real polynomial")
        total = 0
        for alpha, c in self.coeffs.items():
            term = c
            for var, exp in alpha.exponents:
                term = term * x[var - 1] ** exp
            total += term
        return total

    def active_variables(self) -> tuple[int, ...]:
        act = set()
        for alpha in self.coeffs:
            act.update(v for v, _ in alpha.exponents)
        return tuple(sorted(act))

    def is_multiaffine(self) -> bool:
        return all(
            e == 1 for alpha in self.coeffs for _, e in alpha.exponents
        )

    def is_integer(self) -> bool:
        return all(is_exact_int(c) for c in self.coeffs.values())

    def to_json(self) -> dict:
        return {
            "kind": "poly",
            "m": self.m,
            "n": self.n,
            "field": self.field,
            "coeffs": [
                {"alpha": [list(p) for p in alpha.exponents], **_scalar_to_json(c)}
                for alpha, c in sorted(self.coeffs.items())
            ],
        }


# --- JSON documents ---------------------------------------------------------

_FORM_KEYS = {"kind", "m", "field", "dims", "coeffs"}
_POLY_KEYS = {"kind", "m", "n", "field", "coeffs"}


def _check_keys(doc: Mapping, allowed: set, where: str):
    unknown = set(doc) - allowed
    if unknown:
        raise ParseError(f"unknown fields {sorted(unknown)}", where)


def _reject_constant(name: str):
    raise ParseError(f"non-finite number {name} is not allowed", "document")


def _read_doc(source) -> dict:
    if isinstance(source, (str, Path)):
        with open(source, "r", encoding="utf-8") as fh:
            text = fh.read()
    else:
        text = source.read()
    try:
        doc = json.loads(text, parse_constant=_reject_constant)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON: {exc.msg}", f"line {exc.lineno}") from exc
    if not isinstance(doc, dict):
        raise ParseError("top-level document must be an object", "top level")
    return doc


def form_from_json(doc: Mapping) -> MultilinearForm:
    _check_keys(doc, _FORM_KEYS, "top level")
    if doc.get("kind") != "form":
        raise ParseError(f"expected kind 'form', got {doc.get('kind')!r}", "kind")
    for key in ("m", "field", "dims", "coeffs"):
        if key not in doc:
            raise ParseError(f"missing field '{key}'", "top level")
    m, field, dims = doc["m"], doc["field"], doc["dims"]
    if field not in (REAL, COMPLEX):
        raise ParseError(f"unknown field tag {field!r}", "field")
    coeffs = {}
    for pos, entry in enumerate(doc["coeffs"]):
        where = f"coeffs[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError("coefficient entry must be an object", where)
        _check_keys(entry, {"idx", "re", "im"}, where)
        if "idx" not in entry:
            raise ParseError("missing 'idx'", where)
        idx = entry["idx"]
        if not isinstance(idx, list) or not all(
            isinstance(i, int) and not isinstance(i, bool) for i in idx
        ):
            raise ParseError("'idx' must be a list of integers", where)
        if any(i < 1 for i in idx):
            raise ParseError("indices are 1-based; got an index < 1", where)
        t = tuple(idx)
        if t in coeffs:
            raise ParseError(f"duplicate tuple {t}", where)
        coeffs[t] = _scalar_from_json(entry, field, where)
    try:
        return MultilinearForm.build(m, dims, coeffs, field=field)
    except (ValueError, FieldMismatchError) as exc:
        raise ParseError(str(exc), "document") from exc


def poly_from_json(doc: Mapping) -> HomogeneousPolynomial:
    _check_keys(doc, _POLY_KEYS, "top level")
    if doc.get("kind") != "poly":
        raise ParseError(f"expected kind 'poly', got {doc.get('kind')!r}", "kind")
    for key in ("m", "n", "field", "coeffs"):
        if key not in doc:
            raise ParseError(f"missing field '{key}'", "top level")
    m, n, field = doc["m"], doc["n"], doc["field"]
    if field not in (REAL, COMPLEX):
        raise ParseError(f"unknown field tag {field!r}", "field")
    coeffs = {}
    for pos, entry in enumerate(doc["coeffs"]):
        where = f"coeffs[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError("coefficient entry must be an object", where)
        _check_keys(entry, {"alpha", "re", "im"}, where)
        if "alpha" not in entry:
            raise ParseError("missing 'alpha'", where)
        pairs = entry["alpha"]
        if not isinstance(pairs, list) or not all(
            isinstance(p, list) and len(p) == 2 for p in pairs
        ):
            raise ParseError("'alpha' must be a list of [variable, exponent] pairs", where)
        try:
            alpha = MultiIndex.from_pairs(pairs)
        except ValueError as exc:
            raise ParseError(str(exc), where) from exc
        if alpha in coeffs:
            raise ParseError(f"duplicate multi-index {alpha}", where)
        coeffs[alpha] = _scalar_from_json(entry, field, where)
    try:
        return HomogeneousPolynomial.build(m, n, coeffs, field=field)
    except (ValueError, FieldMismatchError) as exc:
        raise ParseError(str(exc), "document") from exc


def load_form(source) -> MultilinearForm:
    return form_from_json(_read_doc(source))


def load_poly(source) -> HomogeneousPolynomial:
    return poly_from_json(_read_doc(source))


def load_any(source):
    doc = _read_doc(source)
    kind = doc.get("kind")
    if kind == "form":
        return form_from_json(doc)
    if kind == "poly":
        return poly_from_json(doc)
    raise ParseError(f"unknown document kind {kind!r}", "kind")


def dumps(obj) -> str:
    """Canonical serialization: fixed key order, coefficients sorted, so equal
    values produce byte-identical documents."""
    return json.dumps(obj.to_json(), separators=(",", ":"), sort_keys=False)


def _write_doc(obj, target):
    text = dumps(obj) + "\n"
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


def save_form(T: MultilinearForm, target):
    _write_doc(T, target)


def save_poly(P: HomogeneousPolynomial, target):
    _write_doc(P, target)
