"""Supremum norms over products of unit balls of l_inf^n.

A real multilinear form is affine in every coordinate of every argument, so
its maximum over the product of cubes [-1,1]^{n_j} is attained at vertices
(+-1 vectors).  ``exact_norm_real`` exploits that, eliminating one slot in
closed form: once the other m-1 slots carry fixed signs, the form is a linear
functional in the remaining slot and its maximum over the cube is the l_1 norm
of that functional's coefficients.

The enumeration of the other slots' signs (``_sweep``, which also scores
the search's sign flips) rests on three facts.

- Symmetry.  Negating every sign of one enumerated slot negates the induced
  functional and leaves its l_1 norm unchanged.  Of two such twins the one
  with -1 on the slot's first active coordinate is lexicographically smaller,
  so the lex-smallest maximizer (the reported witness) always has that -1.
  Only those patterns are enumerated: 2^(m-1) times fewer than the vertex
  space, which ``work`` still reports because the result certifies all of it.
- Doubling.  A slot's signed sums sum_c s_c x_c are built in lex order by
  additions alone: start from -x_0, then for each coordinate c from the last
  down to 1 the block G becomes [G - x_c, G + x_c].  Slots are contracted one
  after another in this way; no sign matrix is formed.
- Bounded chunks.  When a slot's sums would not fit in ``_CHUNK_CELLS``
  cells, its low coordinates' sums are built once and each prefix of its high
  coordinates adds its offset vector to them, one chunk at a time.  No
  intermediate array exceeds ``_CHUNK_CELLS`` cells (unless a single vector
  of the remaining slots does), so peak memory does not grow with the vertex
  space, and each chunk's add, abs and sum run inside the cache.

Integer forms are enumerated in int64 when sum |c| < 2^63.  That sum bounds
every partial sum and every value, so no intermediate can wrap.  Larger
integer forms run the same kernel on Python ints (``dtype=object``): slower,
still exact.  Forms with any float coefficient use float64; every partial
sum is a value of the form in the unit ball, so none leaves the float range
unless the norm does (``ValueError``).

Polynomials reach this kernel through forms.  A real polynomial
P = x^beta * Q, with x^beta the monomial common to all its terms, has
||P|| = ||Q||; when Q is multiaffine (multiaffine P and lifts of
symmetrized forms among them) its variables split into classes that no
monomial uses twice, and Q is normed as a form over those classes (see
``_poly_form_norm``).

Complex norms are nonconvex over the torus.  For complex forms, complex
polynomials and the remaining real polynomials only seeded lower bounds are
provided (``ascent_lower_bound``, ``poly_lower_bound``).
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .core import (
    COMPLEX,
    REAL,
    BudgetExceededError,
    FieldMismatchError,
    HomogeneousPolynomial,
    MultilinearForm,
)

DEFAULT_BUDGET = 1 << 24
BRUTE_BUDGET = 1 << 20
# cap on the cells of any intermediate array of the exact-norm kernel; 512 KB
# of int64 or float64, so that one chunk's add, abs and sum stay in L2 cache
_CHUNK_CELLS = 1 << 16

REL_TOL = 1e-9


@dataclass(frozen=True)
class NormResult:
    """A norm value with its certificate.

    ``exact`` is True only when full vertex enumeration completed (real
    scalars); otherwise the value is a certified lower bound.  ``witness``
    holds one vector per slot (a single vector for polynomials) whose
    evaluation reproduces ``value`` in absolute value.
    """

    value: float
    witness: tuple
    exact: bool
    eliminated_slot: int | None
    work: int

    def to_json(self) -> dict:
        def num(v):
            if isinstance(v, complex):
                return {"re": v.real, "im": v.imag}
            return v

        return {
            "value": self.value,
            "exact": self.exact,
            "witness": [[num(v) for v in w] for w in self.witness],
            "eliminated_slot": self.eliminated_slot,
            "work": self.work,
        }


def _signed_sums(X, fixed):
    """Signed sums sum_c s_c X[c] of X, shape (a, q, B), for every sign
    pattern s in lex order (-1 < +1, coordinate 0 most significant), as an
    array (q, B * 2^w) whose column b * 2^w + s holds batch column b under
    pattern s.  ``fixed`` pins s_0 = -1 (w = a - 1); otherwise w = a.

    Built by doubling: start from -X[0] (or 0), then for each coordinate c
    from a-1 down, the patterns built so far, G, become [G - X[c], G + X[c]],
    which puts c's sign above theirs.  Additions only, along contiguous batch
    rows; one transposing copy puts the batch first."""
    a, q, B = X.shape
    start = 1 if fixed else 0
    out = np.empty((q, 1 << (a - start), B), dtype=X.dtype)
    if fixed:
        np.negative(X[0], out=out[:, 0])
    else:
        out[:, 0] = 0
    w = 1
    for c in range(a - 1, start - 1, -1):
        x = X[c][:, None]
        np.add(out[:, :w], x, out=out[:, w : 2 * w])
        np.subtract(out[:, :w], x, out=out[:, :w])
        w *= 2
    return out.transpose(0, 2, 1).reshape(q, -1)


def _expand(X, cap):
    """Enumerate one slot: yield (offset, Y) chunks of the signed sums of X,
    shape (a, q, B), over the slot's sign patterns with the first sign -1.
    Output column b * 2^(a-1) + s holds batch column b under pattern s; a
    chunk Y (q, n) covers columns offset..offset+n-1, in order, and holds at
    most ``cap`` cells unless q alone needs more."""
    a, q, B = X.shape
    S = 1 << (a - 1)
    if q * S <= cap or a == 1:
        nb = max(1, cap // (q * S))
        for b0 in range(0, B, nb):
            yield b0 * S, _signed_sums(X[:, :, b0 : b0 + nb], True)
        return
    # too large for one batch column: the low w coordinates' sums are built
    # once and each high prefix's offset vector is added to them
    w = min(a - 1, max(1, (cap // q).bit_length() - 1))
    for b in range(B):
        col = X[:, :, b : b + 1]
        low = _signed_sums(col[a - w :], False)
        for h0, H in _expand(col[: a - w], cap):
            for h in range(H.shape[1]):
                yield b * S + ((h0 + h) << w), H[:, h : h + 1] + low


def _induced(X, counts, cap, base=0):
    """Yield (offset, Y) over the enumerated slots' sign patterns in lex order
    (the first sign of each slot -1): column s of Y, shape (n_k, w), is the
    induced functional g on the eliminated slot under pattern offset + s.
    Each Y is a fresh array that the caller may overwrite."""
    S = 1 << (counts[0] - 1)
    for off, Y in _expand(X, cap):
        start = base * S + off
        if len(counts) == 1:
            yield start, Y
        else:
            yield from _induced(
                Y.reshape(counts[1], -1, Y.shape[1]), counts[1:], cap, start
            )


def _all_ones_witness(T: MultilinearForm) -> tuple:
    return tuple(tuple(1 for _ in range(d)) for d in T.dims)


class _Layout(NamedTuple):
    """The enumeration layout of a nonzero real form.

    ``k`` is the eliminated slot, ``others`` the enumerated slots and
    ``counts`` their active counts; ``assignments`` is the vertex space.
    ``C`` holds the coefficients over active coordinates, the enumerated
    slots' axes first, then slot k; ``index`` has one list per axis, placing
    each coefficient of ``T.coeffs`` in C."""

    active: list
    k: int
    others: list
    counts: list
    assignments: int
    dtype: object
    index: tuple
    C: np.ndarray


def _eliminated(active: list) -> int:
    """The slot eliminated in closed form: the largest active support, first."""
    return max(range(len(active)), key=lambda j: (len(active[j]), -j))


def _layout(T: MultilinearForm, budget: int) -> _Layout | None:
    """The enumeration layout of a real form, or None for the zero form.

    The dtype is int64 for integer forms with sum |c| < 2^63 (that sum bounds
    every partial sum, so nothing can wrap), Python ints (``object``) for
    larger integer forms and float64 otherwise.
    """
    if T.field != REAL:
        raise FieldMismatchError(
            "exact norms are only computed for real forms; use ascent_lower_bound"
        )
    if not T.coeffs:
        return None

    active = T.active_support()
    k = _eliminated(active)
    others = [j for j in range(T.m) if j != k]
    counts = [len(active[j]) for j in others]
    assignments = 1
    for a in counts:
        assignments <<= a
    if assignments > budget:
        raise BudgetExceededError(
            f"{assignments} sign assignments exceed budget {budget}; "
            f"rerun with budget >= {assignments}",
            required=assignments,
        )

    if not T.is_integer():
        dtype = np.float64
    elif sum(map(abs, T.coeffs.values())) < 1 << 63:
        dtype = np.int64
    else:
        dtype = object

    pos = [{i: c for c, i in enumerate(active[j])} for j in range(T.m)]
    index = tuple([pos[j][t[j]] for t in T.coeffs] for j in others + [k])
    C = np.zeros(tuple(counts) + (len(active[k]),), dtype=dtype)
    try:
        C[index] = list(T.coeffs.values())
    except OverflowError:
        raise ValueError(
            "a coefficient of this float form is beyond the float range"
        ) from None
    return _Layout(active, k, others, counts, assignments, dtype, index, C)


def exact_norm_real(T: MultilinearForm, budget: int = DEFAULT_BUDGET) -> NormResult:
    """Exact sup norm of a real form by vertex enumeration with one slot
    eliminated in closed form.

    The eliminated slot is the one with the largest active support (the
    lowest such index), so the vertex space is 2^(sum of the other slots'
    supports); ``work`` reports it and ``budget`` caps it.  Only active
    coordinates are enumerated; inactive ones are fixed to +1.  Among
    maximizers the lexicographically smallest sign assignment (slot-major,
    -1 < +1) is reported; by the symmetry in the module docstring it has -1
    on the first active coordinate of every enumerated slot, so only those
    2^(m-1)-times fewer patterns are evaluated.  The eliminated slot takes the
    signs of its induced functional (-1 where that is 0).

    Integer forms give an exact ``int`` (int64 arithmetic when sum |c| <
    2^63, Python ints otherwise); other real forms a ``float``.  A float form
    holding an int beyond the float range, or whose norm is beyond it, raises
    ``ValueError``.
    """
    layout = _layout(T, budget)
    if layout is None:
        return NormResult(0, _all_ones_witness(T), True, None, 0)
    active, k, others, counts, assignments, dtype, _, C = layout
    best_idx, best_val, _ = _sweep(layout, 0)

    slot_signs = {
        j: [1 if best_idx & bit else -1 for bit in bits]
        for j, bits in zip(others, _pattern_bits(counts))
    }
    # closed-form signs for the eliminated slot from the induced functional
    g = C
    for j in others:
        sv = np.asarray(slot_signs[j], dtype=dtype)
        g = sv @ g.reshape(len(sv), -1)
    slot_signs[k] = [1 if gi > 0 else -1 for gi in g]

    witness = []
    for j in range(T.m):
        w = [1] * T.dims[j]
        for c, i in enumerate(active[j]):
            w[i - 1] = slot_signs[j][c]
        witness.append(tuple(w))

    value = float(best_val) if dtype is np.float64 else int(best_val)
    return NormResult(value, tuple(witness), True, k, assignments)


def _pattern_bits(counts: list) -> list:
    """Per enumerated slot, per coordinate, the bit of a pattern index that
    holds its sign (set: +1).  Slots come most significant first, each with
    coordinate 1 highest; coordinate 0 is pinned to -1 and has no bit (0)."""
    out, low = [], 0
    for a in reversed(counts):
        out.append([0] + [1 << (low + a - 1 - q) for q in range(1, a)])
        low += a - 1
    return out[::-1]


def _sweep(L: _Layout, n: int):
    """One pass over the enumerated sign patterns of the form laid out in L,
    with C as it stands.  Returns the lex-first maximizing pattern index, the
    norm, and the norms of the n forms that each flip the sign of one of its
    first n coefficients (in ``T.coeffs`` order).

    The induced functionals g_p are streamed from C by ``_induced``.  A flip
    keeps the support, so it keeps the layout: the eliminated slot k, the
    patterns and the numeric path.  Under pattern p it changes one coordinate
    of g_p, g_p[t_k] -> g_p[t_k] - 2 c_t mono_t[p] with mono_t[p] =
    prod_{j != k} s_j[t_j], so the flipped form's norm is

        max_p  |g_p|_1 - |g_p[t_k]| + |g_p[t_k] - 2 c_t mono_t[p]|.

    The candidates are scored in blocks: no temporary holds more than
    ``_CHUNK_CELLS`` cells (and at least one), whatever the vertex space.
    Integer scores are exact (in int64, g_p[t_k] - c_t mono_t[p] is a partial
    sum of the flipped form, so nothing can wrap); float scores agree with
    ``exact_norm_real`` of the flipped form up to rounding.  A float beyond
    the float range raises ``ValueError``: see the module docstring.
    """
    _, _, others, counts, _, dtype, index, C = L
    cap = _CHUNK_CELLS
    if others:
        chunks = _induced(C.reshape(counts[0], -1, 1), counts, cap)
    else:
        chunks = [(0, C.reshape(-1, 1).copy())]
    if n:
        rows = np.asarray(index[-1][:n], dtype=np.intp)
        c = C[tuple(i[:n] for i in index)]
        if len(others) % 2:
            c = -c
        # mono_t[p] = (-1)^(m-1) (-1)^popcount(p & mask_t): a coordinate is +1
        # exactly when its bit in p is set, and coordinate 0 (no bit) is -1;
        # so c_t mono_t[p] is cm[popcount parity, t]
        cm = np.stack([c, -c])
        masks = np.zeros(n, dtype=np.int64)
        for j, bits in enumerate(_pattern_bits(counts)):
            masks |= np.asarray(bits, dtype=np.int64)[index[j][:n]]
    scores = np.empty(n, dtype=dtype)
    best_idx, value = 0, None
    with np.errstate(over="raise", invalid="raise"):
        try:
            for start, Y in chunks:
                # the candidates read the signed Y, so only n = 0 takes abs in place
                vals = np.abs(Y, out=None if n else Y).sum(axis=0)
                i = int(np.argmax(vals))
                if value is None or vals[i] > value:
                    best_idx, value = start + i, vals[i]
                if not n:
                    continue
                p = np.arange(start, start + Y.shape[1], dtype=np.int64)
                nb = max(1, cap // len(p))
                for i0 in range(0, n, nb):
                    t = np.arange(i0, min(n, i0 + nb))
                    ct = cm[np.bitwise_count(masks[t, None] & p) & 1, t[:, None]]
                    g = Y[rows[t]]
                    d = g - ct
                    d -= ct
                    v = np.abs(d, out=d)
                    v -= np.abs(g, out=g)
                    v += vals
                    top = v.max(axis=1)
                    scores[t] = top if start == 0 else np.maximum(scores[t], top)
        except FloatingPointError:
            raise ValueError("the norm is beyond the float range") from None
    return best_idx, value, scores


def brute_force_norm_real(T: MultilinearForm, budget: int = BRUTE_BUDGET):
    """Test oracle: full enumeration over all 2^(sum n_j) vertex combinations,
    with no elimination shortcut.  Returns the bare value."""
    if T.field != REAL:
        raise FieldMismatchError("brute force enumeration requires a real form")
    total = sum(T.dims)
    if 1 << total > budget:
        raise BudgetExceededError(
            f"2^{total} vertex combinations exceed budget {budget}",
            required=1 << total,
        )
    best = 0
    for signs in itertools.product((-1, 1), repeat=total):
        args = []
        ofs = 0
        for d in T.dims:
            args.append(signs[ofs : ofs + d])
            ofs += d
        v = abs(T.evaluate(args))
        if v > best:
            best = v
    return best


def _induced_functional(T: MultilinearForm, x: list, j: int):
    """Coefficients of the linear functional in slot j with the other slots
    frozen at x."""
    c = [0] * T.dims[j]
    for t, coeff in T.coeffs.items():
        term = coeff
        for l, i in enumerate(t):
            if l != j:
                term = term * x[l][i - 1]
        c[t[j] - 1] += term
    return c


def _finite(val):
    """val, |value| at a point of the unit ball, if it is in the float range;
    otherwise the norm is not, and ``ValueError`` is raised."""
    if not math.isfinite(val):
        raise ValueError("the norm is beyond the float range")
    return val


def ascent_lower_bound(
    T: MultilinearForm, seed: int = 0, restarts: int = 8
) -> NormResult:
    """Alternating maximization: cycle through slots, replacing each argument
    by the exact maximizer of the induced linear functional (sign vector for
    real scalars, conjugate phases for complex), for at most 100 rounds.  The
    value is nondecreasing; the result is a certified lower bound,
    deterministic for a fixed seed.  The ascent computes in floats, so a
    coefficient or a value beyond the float range raises ``ValueError``."""
    if not T.coeffs:
        return NormResult(0, _all_ones_witness(T), False, None, 0)
    try:
        return _form_ascent(T, seed, restarts)
    except OverflowError:
        # an int beyond the float range meets the ascent's floats
        raise ValueError("a coefficient is beyond the float range") from None


def _form_ascent(T: MultilinearForm, seed: int, restarts: int) -> NormResult:
    active = T.active_support()
    complex_field = T.field == COMPLEX
    children = np.random.SeedSequence(seed).spawn(restarts)
    best_val = -1.0
    best_x = None
    work = 0
    for child in children:
        rng = np.random.default_rng(child)
        x = []
        for j in range(T.m):
            w = [1] * T.dims[j]
            for i in active[j]:
                if complex_field:
                    theta = 2.0 * math.pi * rng.random()
                    w[i - 1] = complex(math.cos(theta), math.sin(theta))
                else:
                    w[i - 1] = int(rng.integers(0, 2)) * 2 - 1
            x.append(w)
        val = _finite(abs(T.evaluate(x)))
        for _ in range(100):
            before = val
            for j in range(T.m):
                c = _induced_functional(T, x, j)
                for i in active[j]:
                    ci = c[i - 1]
                    if complex_field:
                        mag = abs(ci)
                        x[j][i - 1] = ci.conjugate() / mag if mag > 0 else 1
                    else:
                        x[j][i - 1] = -1 if ci < 0 else 1
                val = _finite(sum(abs(c[i - 1]) for i in active[j]))
                work += 1
            if val - before <= 1e-12 * max(1.0, abs(val)):
                break
        if val > best_val:
            best_val = val
            best_x = tuple(tuple(w) for w in x)
    return NormResult(best_val, best_x, False, None, work)


def _best_on_interval(coefs: list) -> tuple:
    """Maximize |q(t)| over [-1,1] for q given by ascending power coefficients.
    Candidates: endpoints and real critical points of q.  A subnormal leading
    coefficient of q' overflows its companion matrix (under the ascent's
    ``np.errstate``, silently); it is dropped, with the roots beyond the
    float range it stands for, until the roots are found.  A value of q or a
    coefficient of q' beyond the float range raises ``ValueError``."""
    poly = np.polynomial.Polynomial(coefs)
    cands = [-1.0, 1.0]
    if poly.degree() >= 1:
        d = poly.deriv()
        while True:
            try:
                roots = d.roots()
                break
            except np.linalg.LinAlgError:
                if not np.isfinite(d.coef).all():
                    raise ValueError("q' is beyond the float range") from None
                d = np.polynomial.Polynomial(d.coef[:-1])
        for r in roots:
            if abs(r.imag) < 1e-12 and -1.0 <= r.real <= 1.0:
                cands.append(float(r.real))
    best_t, best_v = 1.0, -1.0
    for t in cands:
        v = _finite(abs(poly(t)))
        if v > best_v:
            best_v, best_t = v, t
    return best_t, best_v


def _poly_form_norm(P: HomogeneousPolynomial, budget: int) -> NormResult | None:
    """Exact norm of a real polynomial P = x^beta * Q as a form, or None when
    Q is not multiaffine or the enumeration exceeds ``budget``.

    x^beta is the monomial common to every term (per variable the least
    exponent), so |P| = |Q| at every vertex and ||P|| = ||Q|| for a
    multiaffine Q of degree m'.  Q's variables, in increasing order, join
    class (v-1) mod m' or, when a variable sharing a monomial with v holds
    it, the least class >= m' that none of those holds.  Each class is a
    slot of a form T: v sits at coordinate (v-1) div m' + 1 in a class below
    m' and at its rank of arrival in the others, and a last coordinate
    stands for "no variable of this class".  A term c x^beta x_S is c at the
    tuple picking, per slot, its variable in S or the last coordinate.  With
    s_v = u_v * (the last sign of v's slot), |T(u)| = |P(s)| and every s
    arises, so ||T|| = ||P||.  When every monomial of Q has one variable of
    each class mod m', no last coordinate is used and T is the form
    ``reconstruct_form`` rebuilds; a single monomial (m' = 0) is c u.
    T's witness is mapped back to s, every other variable +1, and
    re-evaluated on P.  ``work`` (capped by ``budget``) is T's vertex space
    without the last coordinates, which only flip whole slots: at most 2^n.
    """
    beta = dict(next(iter(P.coeffs)).exponents)
    for alpha in P.coeffs:
        e = dict(alpha.exponents)
        beta = {v: min(b, e[v]) for v, b in beta.items() if v in e}
    m = P.m - sum(beta.values())
    terms = [([v for v, e in a.exponents if e > beta.get(v, 0)], c)
             for a, c in P.coeffs.items()]
    if any(len(vs) < m for vs, _ in terms):
        return None  # a variable of Q is squared

    near = {}
    for vs, _ in terms:
        for v in vs:
            near.setdefault(v, set()).update(vs)
    cls = {}
    for v in sorted(near):
        held = {cls[u] for u in near[v] if u in cls}
        c = (v - 1) % m
        if c in held:
            c = min(set(range(m, m + len(held) + 1)) - held)
        cls[v] = c
    slot = {c: j for j, c in enumerate(sorted(set(cls.values())))}
    # dims[j] - 1 is the last coordinate placed in slot j so far
    place, dims = {}, [1] * max(1, len(slot))
    for v, c in cls.items():
        j = slot[c]
        i = (v - 1) // m + 1 if c < m else dims[j]
        place[v] = (j, i)
        dims[j] = i + 1
    coeffs = {}
    for vs, c in terms:
        t = list(dims)
        for j, i in map(place.get, vs):
            t[j] = i
        coeffs[tuple(t)] = c
    # P is validated: its coefficients are nonzero reals
    T = MultilinearForm(m=len(dims), dims=tuple(dims), field=REAL, coeffs=coeffs)
    # budget and work count the enumerated slots' variables, not last signs
    active = T.active_support()
    k = _eliminated(active)
    extra = sum(dims[j] in active[j] for j in range(len(dims)) if j != k)
    try:
        r = exact_norm_real(T, budget=budget << extra)
    except BudgetExceededError:
        return None

    x = [1] * P.n
    for v, (j, i) in place.items():
        x[v - 1] = r.witness[j][i - 1] * r.witness[j][-1]
    v = abs(P.evaluate(x))
    if isinstance(r.value, int):
        ok = v == r.value
    else:
        ok = abs(v - r.value) <= REL_TOL * max(1.0, v)
    if not ok:
        raise RuntimeError(f"the witness gives {v}, the form's norm is {r.value}")
    return NormResult(r.value, (tuple(x),), True, None, r.work >> extra)


def poly_lower_bound(
    P: HomogeneousPolynomial,
    seed: int = 0,
    restarts: int = 8,
    budget: int = DEFAULT_BUDGET,
) -> NormResult:
    """Lower bound on sup |P| over the unit ball of l_inf^n; exact (the flag
    set) for the real polynomials below.

    A real polynomial whose quotient by its common monomial is multiaffine
    is normed exactly as a form by ``exact_norm_real`` (see
    ``_poly_form_norm``): multiaffine polynomials, single monomials and the
    lifts of symmetrized forms among them.  ``budget`` caps that path's
    ``work``.  Complex polynomials, the other real ones and those past the
    budget get the coordinate ascent of ``_poly_ascent``.  The ascent
    computes in floats, so a coefficient or a value beyond the float range
    raises ``ValueError`` there; the exact path raises it for a float
    polynomial holding such an int, or whose norm is beyond the float range.
    """
    if not P.coeffs:
        return NormResult(0, (tuple(1 for _ in range(P.n)),), False, None, 0)
    if P.field == REAL:
        result = _poly_form_norm(P, budget)
        if result is not None:
            return result
    try:
        return _poly_ascent(P, seed, restarts)
    except OverflowError:
        raise ValueError("a coefficient is beyond the float range") from None


@np.errstate(over="ignore", invalid="ignore")
def _poly_ascent(
    P: HomogeneousPolynomial, seed: int = 0, restarts: int = 8
) -> NormResult:
    """A seeded lower bound on sup |P| for a nonzero P by cyclic coordinate
    ascent, for at most 60 rounds: each real coordinate update solves the
    univariate problem on [-1,1] by derivative root isolation, each complex
    coordinate scans 16 phases on the unit circle and refines locally (by
    the maximum modulus principle the per-coordinate optimum lies on the
    circle).  numpy's float warnings are off; a value or coordinate
    polynomial beyond the float range raises ``ValueError``.

    The ascent runs on a plan built once per call: per active variable its
    degree and, in ``P.coeffs`` order, each monomial's exponent of the
    variable, its coefficient and its other factors as positions in a table
    of the powers x_v^e.  A move recomputes only the moved variable's
    powers.  A real coordinate of degree 1 takes the larger of |q(-1)| and
    |q(1)| (a line has no critical point); higher degrees go through root
    isolation.  Every product, sum and power is the one the naive ascent
    (rescan every monomial per update) computes, in the same order, so the
    trajectory, the value, the witness and ``work`` are the same bits.
    """
    act = P.active_variables()
    complex_field = P.field == COMPLEX
    zero = 0.0 + 0.0j if complex_field else 0.0
    # pw[i] = x_v^e for the i-th pair (v, e) some monomial uses
    pairs = sorted({ve for alpha in P.coeffs for ve in alpha.exponents})
    where = {ve: i for i, ve in enumerate(pairs)}
    own = {v: [(i, e) for i, (v2, e) in enumerate(pairs) if v2 == v] for v in act}
    plan = []
    for var in act:
        terms = []
        for alpha, c in P.coeffs.items():
            e = 0
            rest = []
            for ve in alpha.exponents:
                if ve[0] == var:
                    e = ve[1]
                else:
                    rest.append(where[ve])
            terms.append((e, c, rest))
        plan.append((var, max(e for e, _, _ in terms), terms))
    if complex_field:
        phases = np.exp(2j * math.pi * np.arange(16) / 16.0)
        top = max(deg for _, deg, _ in plan)
        phase_pw = [[z**d for d in range(top + 1)] for z in phases]

    children = np.random.SeedSequence(seed).spawn(restarts)
    best_val = -1.0
    best_x = None
    work = 0
    for child in children:
        rng = np.random.default_rng(child)
        x = [1.0] * P.n
        for var in act:
            if complex_field:
                theta = 2.0 * math.pi * rng.random()
                x[var - 1] = complex(math.cos(theta), math.sin(theta))
            else:
                x[var - 1] = 2.0 * rng.random() - 1.0
        pw = [x[v - 1] ** e for v, e in pairs]
        val = _finite(abs(P.evaluate(x)))
        for _ in range(60):
            before = val
            for var, deg, terms in plan:
                coefs = [zero] * (deg + 1)
                for e, c, rest in terms:
                    term = c
                    for i in rest:
                        term = term * pw[i]
                    coefs[e] += term
                if complex_field:
                    vals = [
                        abs(sum(coefs[d] * zp[d] for d in range(deg + 1)))
                        for zp in phase_pw
                    ]
                    bi = int(np.argmax(vals))
                    theta, width = 2.0 * math.pi * bi / 16.0, 2.0 * math.pi / 16.0
                    bv, bz = vals[bi], phases[bi]
                    for _ in range(20):
                        for th in (theta - width / 2, theta + width / 2):
                            z = complex(math.cos(th), math.sin(th))
                            v = abs(sum(coefs[d] * z**d for d in range(deg + 1)))
                            if v > bv:
                                bv, bz, theta = v, z, th
                        width /= 2
                    t, val = bz, _finite(bv)
                elif deg == 1:
                    # _best_on_interval's endpoints, in its order and tie rule
                    c0, c1 = coefs
                    t, val = 1.0, -1.0
                    for u in (-1.0, 1.0):
                        v = _finite(abs(c0 + c1 * u))
                        if v > val:
                            t, val = u, v
                else:
                    t, val = _best_on_interval(coefs)
                x[var - 1] = t
                for i, e in own[var]:
                    pw[i] = t**e
                work += 1
            if val - before <= 1e-12 * max(1.0, abs(val)):
                break
        if val > best_val:
            best_val = val
            best_x = tuple(x)
    return NormResult(best_val, (best_x,), False, None, work)
