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
from fractions import Fraction
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


def _is_real(v) -> bool:
    """Whether v is a real scalar: an int or a float, not a bool."""
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _check_scalar(c, field: str, key):
    """Refuse a coefficient, stored at ``key``, that is not a finite scalar of
    the field.  The location is formatted only for an error."""
    if isinstance(c, complex):
        if field == REAL:
            raise FieldMismatchError(
                f"complex coefficient {c!r} in a real container (coefficient at {key})"
            )
    elif not _is_real(c):
        raise ParseError(f"unsupported coefficient type {type(c).__name__}",
                         f"coefficient at {key}")
    if not isinstance(c, int) and not cmath.isfinite(c):
        raise ParseError(f"non-finite coefficient {c!r}", f"coefficient at {key}")


def _check_index(t: tuple, dims: tuple):
    """Refuse an index tuple that does not address a coefficient of a form
    with these slot dimensions."""
    if len(t) != len(dims):
        raise ValueError(f"index tuple {t} has length {len(t)}, expected {len(dims)}")
    for j, i in enumerate(t):
        if not 1 <= i <= dims[j]:
            raise ValueError(
                f"index {i} out of range 1..{dims[j]} in slot {j + 1} "
                "(indices are 1-based)"
            )


def _real_value(expand, coeffs: Mapping, args):
    """``expand(coeffs, args)``, the float sum of a real container's terms in
    stored order, when it is finite.  When that sum overflows, or an int too
    large for a float meets a float, the terms are added again exactly and
    the sum is rounded once: a value in the float range is returned, one
    beyond it raises ``ValueError``."""
    try:
        total = expand(coeffs, args)
        if not isinstance(total, float) or math.isfinite(total):
            return total
    except OverflowError:
        pass
    try:
        exact = expand({k: Fraction(c) for k, c in coeffs.items()}, _fractions(args))
        return float(exact)
    except OverflowError:
        raise ValueError("the value is beyond the float range") from None


def _fractions(v):
    """A real scalar, or nested sequences of them, as exact fractions."""
    try:
        return Fraction(v)
    except TypeError:
        return [_fractions(u) for u in v]


def _scalar_to_json(c) -> dict:
    if isinstance(c, complex):
        return {"re": c.real, "im": c.imag}
    return {"re": c}


def _scalar_from_json(entry: Mapping, field: str, where: str):
    re = entry.get("re", 0)
    im = entry.get("im", 0)
    for key, v in (("re", re), ("im", im)):
        if not _is_real(v):
            raise ParseError(f"coefficient field '{key}' must be a number", where)
    if im != 0:
        try:
            return complex(re, im)
        except OverflowError:
            raise ParseError("a coefficient is beyond the float range", where) from None
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
            _check_index(t, dims)
            _check_scalar(c, field, t)
            if c != 0:
                canon[t] = c
        return cls(m=m, dims=dims, field=field, coeffs=canon)

    def coefficient(self, t: Iterable[int]):
        """Stored value at the 1-based tuple ``t``, or zero."""
        t = tuple(int(i) for i in t)
        _check_index(t, self.dims)
        return self.coeffs.get(t, 0)

    def evaluate(self, args):
        """Direct expansion of the multilinear sum at m argument vectors.

        Argument vectors are read 1-based; entries beyond the slot dimension
        are ignored.  Exact when all coefficients and entries are ints.  A real
        form's value is returned whenever it is in the float range, and one
        beyond it raises ``ValueError``: see ``_real_value``.
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
        if self.field == COMPLEX:
            return self._expand(self.coeffs, args)
        return _real_value(self._expand, self.coeffs, args)

    @staticmethod
    def _expand(coeffs: Mapping, args):
        total = 0
        for t, c in coeffs.items():
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
            _check_scalar(c, field, alpha)
            if c != 0:
                canon[alpha] = c
        return cls(m=m, n=n, field=field, coeffs=canon)

    def evaluate(self, x):
        """P(x) for a 1-based vector x of length >= n (extra entries ignored).
        A real polynomial's value is returned whenever it is in the float
        range, and one beyond it raises ``ValueError``: see ``_real_value``."""
        if len(x) < self.n:
            raise ValueError(f"argument has length {len(x)} < dim {self.n}")
        if self.field == REAL and any(isinstance(v, complex) for v in x):
            raise FieldMismatchError("complex argument into a real polynomial")
        if self.field == COMPLEX:
            return self._expand(self.coeffs, x)
        return _real_value(self._expand, self.coeffs, x)

    @staticmethod
    def _expand(coeffs: Mapping, x):
        total = 0
        for alpha, c in coeffs.items():
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


def _ints(v) -> bool:
    """Whether a JSON value is a list of integers."""
    return type(v) is list and all(type(i) is int for i in v)


def _read_idx(v) -> tuple:
    if not _ints(v):
        raise ValueError("'idx' must be a list of integers")
    return tuple(v)


def _read_alpha(v) -> MultiIndex:
    if type(v) is not list or not all(
        type(p) is list and len(p) == 2 and type(p[0]) is type(p[1]) is int for p in v
    ):
        raise ValueError("'alpha' must be a list of [variable, exponent] pairs")
    return MultiIndex.from_pairs(v)


# what differs between the two document kinds: the class, the size field and
# the test of its JSON shape, the key field and the reader of one key
_KINDS = {
    "form": (MultilinearForm, "dims", _ints, "idx", _read_idx),
    "poly": (HomogeneousPolynomial, "n", is_exact_int, "alpha", _read_alpha),
}


def _from_json(doc: Mapping, kind: str | None):
    """The form or polynomial of a parsed document of ``kind``, or of the kind
    the document names when ``kind`` is None.  The reader checks the JSON
    shape only (known fields, integers where integers belong, numbers in
    're' and 'im', no key twice); ``build`` checks the values."""
    if kind is None:
        kind = doc.get("kind")
        if not isinstance(kind, str) or kind not in _KINDS:
            raise ParseError(f"unknown document kind {kind!r}", "kind")
    if doc.get("kind") != kind:
        raise ParseError(f"expected kind {kind!r}, got {doc.get('kind')!r}", "kind")
    cls, size, size_ok, key, read_key = _KINDS[kind]
    _check_keys(doc, {"kind", "m", "field", size, "coeffs"}, "top level")
    for name in ("m", "field", size, "coeffs"):
        if name not in doc:
            raise ParseError(f"missing field '{name}'", "top level")
    m, field, entries = doc["m"], doc["field"], doc["coeffs"]
    if not (is_exact_int(m) and size_ok(doc[size]) and isinstance(entries, list)):
        raise ParseError(f"'m' and '{size}' must hold integers, 'coeffs' a list",
                         "top level")
    coeffs = {}
    for pos, entry in enumerate(entries):
        where = f"coeffs[{pos}]"
        if not isinstance(entry, dict):
            raise ParseError("coefficient entry must be an object", where)
        _check_keys(entry, {key, "re", "im"}, where)
        if key not in entry:
            raise ParseError(f"missing '{key}'", where)
        try:
            k = read_key(entry[key])
        except ValueError as exc:
            raise ParseError(str(exc), where) from exc
        if k in coeffs:
            raise ParseError(f"duplicate {key} {entry[key]}", where)
        coeffs[k] = _scalar_from_json(entry, field, where)
    try:
        return cls.build(m, doc[size], coeffs, field=field)
    except (ValueError, FieldMismatchError) as exc:
        raise ParseError(str(exc), "document") from exc


def form_from_json(doc: Mapping) -> MultilinearForm:
    return _from_json(doc, "form")


def poly_from_json(doc: Mapping) -> HomogeneousPolynomial:
    return _from_json(doc, "poly")


def load_form(source) -> MultilinearForm:
    return _from_json(_read_doc(source), "form")


def load_poly(source) -> HomogeneousPolynomial:
    return _from_json(_read_doc(source), "poly")


def load_any(source):
    return _from_json(_read_doc(source), None)


def dumps(obj) -> str:
    """Canonical serialization: fixed key order, coefficients sorted, so equal
    values produce byte-identical documents."""
    return json.dumps(obj.to_json(), separators=(",", ":"), sort_keys=False)


def save_form(obj, target):
    """Write the canonical document of a form or a polynomial, and a newline,
    to a path or a text stream."""
    text = dumps(obj) + "\n"
    if isinstance(target, (str, Path)):
        with open(target, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        target.write(text)


save_poly = save_form
