import dataclasses
import io
import itertools
import json
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given
from hypothesis import strategies as st

from bhforms import (
    BudgetExceededError,
    FieldMismatchError,
    HomogeneousPolynomial,
    MultiIndex,
    MultilinearForm,
    a_family,
    ascent_lower_bound,
    brute_force_norm_real,
    diagonal_polynomial,
    disjointify,
    dumps,
    exact_norm_real,
    ksz_random,
    lift_polynomial,
    littlewood_s2,
    load_form,
    lp_sum,
    poly_lower_bound,
    r_family,
    random_sparse,
    s_family,
)
from bhforms.norms import DEFAULT_BUDGET, _flip_scores, _layout, _poly_ascent
from bhforms.verify import make_corpus


def test_family_norms_integer_exact():
    assert exact_norm_real(s_family(3)).value == 4
    assert exact_norm_real(s_family(4)).value == 8
    for m in (2, 4, 6):
        assert exact_norm_real(r_family(m)).value == 2 ** (m // 2)
    for m in (3, 5):
        assert exact_norm_real(a_family(m)).value == 2 ** ((m - 1) // 2)


def test_mixed_coefficient_bilinear():
    # brute force over all 16 sign pairs gives 8 for ((1,2),(3,-4))
    T = MultilinearForm.build(2, (2, 2), {(1, 1): 1, (1, 2): 2, (2, 1): 3, (2, 2): -4})
    assert brute_force_norm_real(T) == 8
    assert exact_norm_real(T).value == 8


def test_brute_force_examples():
    assert brute_force_norm_real(littlewood_s2()) == 2
    zero = MultilinearForm.build(2, (2, 2), {})
    assert brute_force_norm_real(zero) == 0
    assert exact_norm_real(zero).value == 0


def test_oracle_equivalence_random_corpus():
    for T in make_corpus(100, 3, 3, seed=515):
        a = exact_norm_real(T).value
        b = brute_force_norm_real(T)
        if T.is_integer():
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-9)


def test_witness_reproduces_value():
    for T in make_corpus(40, 3, 3, seed=616):
        r = exact_norm_real(T)
        got = abs(T.evaluate(r.witness))
        if T.is_integer():
            assert got == r.value
        else:
            assert got == pytest.approx(r.value, rel=1e-9)


def test_witness_is_lexicographically_minimal_small():
    # exhaustive cross-check on a form with many maximizers
    T = littlewood_s2()
    r = exact_norm_real(T)
    best = None
    for sx in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
        for sy in [(-1, -1), (-1, 1), (1, -1), (1, 1)]:
            if abs(T.evaluate([sx, sy])) == r.value:
                cand = (sx, sy)
                if best is None:
                    best = cand
    assert r.witness == best


def test_exact_rejects_complex():
    T = MultilinearForm.build(1, (2,), {(1,): 1j}, field="complex")
    with pytest.raises(FieldMismatchError):
        exact_norm_real(T)


def test_budget_refusal_reports_requirement():
    T = ksz_random(2, 8, seed=5)
    with pytest.raises(BudgetExceededError) as exc:
        exact_norm_real(T, budget=4)
    assert exc.value.required == 256


def test_khinchin_l2_lower_bound():
    for T in make_corpus(200, 3, 3, seed=717):
        assert lp_sum(T.coeffs.values(), 2) <= exact_norm_real(T).value * (1 + 1e-9)


def test_ascent_matches_exact_on_s4():
    r = ascent_lower_bound(s_family(4), seed=0, restarts=8)
    assert r.value == 8
    assert not r.exact


def test_ascent_single_coefficient():
    T = MultilinearForm.build(3, (2, 2, 2), {(1, 2, 1): -3.5})
    r = ascent_lower_bound(T, seed=1, restarts=2)
    assert r.value == pytest.approx(3.5)


def test_ascent_never_exceeds_exact():
    for T in make_corpus(50, 3, 3, seed=818):
        lb = ascent_lower_bound(T, seed=4, restarts=3)
        assert lb.value <= exact_norm_real(T).value * (1 + 1e-9)


def test_ascent_witness_and_determinism():
    T = ksz_random(2, 4, seed=11)
    a = ascent_lower_bound(T, seed=9, restarts=5)
    b = ascent_lower_bound(T, seed=9, restarts=5)
    assert a.value == b.value
    assert a.witness == b.witness
    assert abs(T.evaluate(a.witness)) == pytest.approx(a.value, rel=1e-9)


def test_complex_ascent_bounded_by_l1():
    signs = ksz_random(2, 3, seed=21)
    T = MultilinearForm.build(2, (3, 3), dict(signs.coeffs), field="complex")
    r = ascent_lower_bound(T, seed=2, restarts=4)
    assert not r.exact
    assert r.value <= lp_sum(T.coeffs.values(), 1) * (1 + 1e-9)


def test_poly_power_monomial():
    for m in (1, 3, 6):
        P = HomogeneousPolynomial.build(m, 1, {MultiIndex.from_pairs([(1, m)]): 1})
        assert poly_lower_bound(P, seed=0).value == pytest.approx(1.0)


def test_poly_multiaffine_exact_path_matches_form_norm():
    T1, _ = disjointify(littlewood_s2())
    P = diagonal_polynomial(T1)
    r = poly_lower_bound(P, seed=0)
    assert r.exact
    assert r.value == 2
    assert abs(P.evaluate(r.witness[0])) == 2


def test_poly_lower_bound_complex():
    P = HomogeneousPolynomial.build(
        2, 2,
        {MultiIndex.from_pairs([(1, 1), (2, 1)]): 1 + 0j,
         MultiIndex.from_pairs([(1, 2)]): 1j},
        field="complex",
    )
    r = poly_lower_bound(P, seed=0, restarts=4)
    assert not r.exact
    # triangle inequality cap and witness consistency
    assert r.value <= 2 * (1 + 1e-9)
    assert abs(P.evaluate(r.witness[0])) == pytest.approx(r.value, rel=1e-6)


def test_poly_lower_bound_never_exceeds_sup_quadratic():
    # sup of |x1^2 - x2^2| on the square is 1
    P = HomogeneousPolynomial.build(
        2, 2,
        {MultiIndex.from_pairs([(1, 2)]): 1.0, MultiIndex.from_pairs([(2, 2)]): -1.0},
    )
    r = poly_lower_bound(P, seed=5, restarts=6)
    assert r.value == pytest.approx(1.0, rel=1e-9)


def test_exact_norm_determinism_and_work():
    T = ksz_random(3, 3, seed=77)
    a = exact_norm_real(T)
    b = exact_norm_real(T)
    assert a == b
    assert a.work == 2 ** (3 + 3)  # two slots of support 3 enumerated
    assert a.eliminated_slot is not None


def test_chunked_enumeration_agrees():
    import bhforms.norms as normsmod

    forms = [
        ksz_random(2, 8, seed=123),
        ksz_random(3, 4, seed=124),
        ksz_random(4, 3, seed=125),
        random_sparse(2, (7, 9), 0.6, coeff_dist="gaussian", seed=126),
        random_sparse(3, (4, 3, 5), 0.7, coeff_dist="uniform", seed=127),
        random_sparse(4, (3, 3, 2, 3), 0.8, coeff_dist="gaussian", seed=128),
    ]
    full = [exact_norm_real(T) for T in forms]
    old = normsmod._CHUNK_CELLS
    try:
        for cap in (64, 5):
            normsmod._CHUNK_CELLS = cap
            for T, want in zip(forms, full):
                got = exact_norm_real(T)
                assert got.witness == want.witness
                assert (got.work, got.eliminated_slot) == (want.work, want.eliminated_slot)
                # float sums may associate differently across chunkings
                if T.is_integer():
                    assert got.value == want.value
                else:
                    assert got.value == pytest.approx(want.value, rel=1e-12)
    finally:
        normsmod._CHUNK_CELLS = old


def test_int64_overflow_falls_back_to_python_ints():
    # sum |c| = 2^64 here, so int64 partial sums would wrap to -2^63
    T = littlewood_s2().scale(2**62)
    r = exact_norm_real(T)
    assert r.value == 2**63 == brute_force_norm_real(T)
    assert T.evaluate(r.witness) in (2**63, -(2**63))
    assert r.witness == exact_norm_real(littlewood_s2()).witness


def test_coefficients_beyond_int64_are_exact():
    T = MultilinearForm.build(
        3, (2, 2, 1), {(1, 1, 1): 2**70, (2, 1, 1): -5, (2, 2, 1): 3}
    )
    r = exact_norm_real(T)
    assert r.value == 2**70 + 8 == brute_force_norm_real(T)
    assert abs(T.evaluate(r.witness)) == r.value


def test_exact_norm_peak_memory_bounded():
    import bhforms.norms as normsmod

    T = ksz_random(2, 20, seed=1)
    tracemalloc.start()
    try:
        r = exact_norm_real(T)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert r.work == 2**20
    assert peak < 4 * normsmod._CHUNK_CELLS * 8


# --- property tests against naive enumeration ---------------------------------


def _naive_lex_max(T):
    """(value, witness) by the documented rule, by plain enumeration: the slot
    with the largest active support (lowest index on ties) is eliminated, every
    sign pattern of the other slots' active coordinates is tried in lex order
    (slot-major, -1 < +1), and the first maximizer is kept."""
    if not T.coeffs:
        return 0, tuple(tuple(1 for _ in range(d)) for d in T.dims)
    active = T.active_support()
    k = max(range(T.m), key=lambda j: (len(active[j]), -j))
    others = [j for j in range(T.m) if j != k]
    best = None
    for signs in itertools.product((-1, 1), repeat=sum(len(active[j]) for j in others)):
        x = [[1] * d for d in T.dims]
        it = iter(signs)
        for j in others:
            for i in active[j]:
                x[j][i - 1] = next(it)
        g = [0] * T.dims[k]
        for t, c in T.coeffs.items():
            term = c
            for j in others:
                term *= x[j][t[j] - 1]
            g[t[k] - 1] += term
        value = sum(abs(v) for v in g)
        if best is None or value > best[0]:
            for i in active[k]:
                x[k][i - 1] = 1 if g[i - 1] > 0 else -1
            best = (value, tuple(tuple(w) for w in x))
    return best


@st.composite
def small_forms(draw, coeff):
    """Real forms with m <= 4 and at most 9 coordinates in all, so that
    brute force stays cheap."""
    m = draw(st.integers(1, 4))
    dims = tuple(draw(st.integers(1, min(4, 9 // m))) for _ in range(m))
    tuples = st.tuples(*(st.integers(1, d) for d in dims))
    coeffs = draw(st.dictionaries(tuples, coeff, max_size=12))
    return MultilinearForm.build(m, dims, coeffs)


# ints span the int64 and the Python-int paths; dyadic floats add exactly, so
# the float path can be held to exact equality too
INTS = st.integers(-5, 5) | st.sampled_from([2**61, -(2**62), 2**63 - 1, 2**70])
DYADIC = st.integers(-40, 40).map(lambda v: v / 8)
FLOATS = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@given(small_forms(INTS) | small_forms(DYADIC), st.sampled_from([None, 64, 2]))
def test_exact_is_the_lex_smallest_maximizer(T, cap):
    import bhforms.norms as normsmod

    old = normsmod._CHUNK_CELLS
    normsmod._CHUNK_CELLS = cap or old
    try:
        r = exact_norm_real(T)
    finally:
        normsmod._CHUNK_CELLS = old
    assert (r.value, r.witness) == _naive_lex_max(T)
    assert r.value == brute_force_norm_real(T)
    assert abs(T.evaluate(r.witness)) == r.value
    assert isinstance(r.value, int) == T.is_integer()


@given(small_forms(FLOATS))
def test_exact_matches_brute_on_float_forms(T):
    r = exact_norm_real(T)
    assert r.value == pytest.approx(brute_force_norm_real(T), rel=1e-9)
    assert abs(T.evaluate(r.witness)) == pytest.approx(r.value, rel=1e-9)


@given(small_forms(INTS) | small_forms(DYADIC), st.integers(-6, 6))
def test_exact_norm_scales_by_abs_c(T, c):
    r = exact_norm_real(T)
    scaled = exact_norm_real(T.scale(c))
    assert scaled.value == abs(c) * r.value
    if c > 0:
        assert scaled.witness == r.witness


@given(small_forms(INTS) | small_forms(FLOATS))
def test_json_round_trip_is_byte_stable(T):
    text = dumps(T)
    assert dumps(load_form(io.StringIO(text))) == text


def test_float_form_beyond_float_range_is_a_value_error():
    T = MultilinearForm.build(2, (2, 2), {(1, 1): 10**400, (2, 2): 0.5})
    with pytest.raises(ValueError, match="float range"):
        exact_norm_real(T)


@pytest.mark.parametrize("field, small", [("real", 1), ("real", 0.5), ("complex", 0.5j)])
def test_ascent_beyond_float_range_is_a_value_error(field, small):
    T = MultilinearForm.build(2, (2, 2), {(1, 1): 10**400, (2, 2): small}, field=field)
    with pytest.raises(ValueError, match="float range"):
        ascent_lower_bound(T, seed=0)


# --- incremental flip scoring -------------------------------------------------


def _flipped(T, t):
    coeffs = dict(T.coeffs)
    coeffs[t] = -coeffs[t]
    return MultilinearForm.build(T.m, T.dims, coeffs)


def _assert_scores(layout, T):
    value, scores = _flip_scores(layout, len(T.coeffs))
    assert value == exact_norm_real(T).value
    for score, t in zip(scores, T.coeffs):
        want = exact_norm_real(_flipped(T, t)).value
        if T.is_integer():
            assert score == want
        else:
            assert score == pytest.approx(want, rel=1e-12)


NONZERO = (small_forms(INTS) | small_forms(FLOATS)).filter(lambda T: T.coeffs)


@given(NONZERO, st.sampled_from([None, 64, 2, 1]),
       st.lists(st.integers(0, 11), max_size=6))
def test_flip_scores_are_exact_norms_of_the_flipped_forms(T, cap, flips):
    """Scores of every flip, then again after each of a run of applied flips,
    with chunk caps that split the candidates and the patterns into several
    chunks."""
    import bhforms.norms as normsmod

    old = normsmod._CHUNK_CELLS
    normsmod._CHUNK_CELLS = cap or old
    try:
        layout = _layout(T, DEFAULT_BUDGET)
        _assert_scores(layout, T)
        for r in flips:
            r %= len(T.coeffs)
            layout.C[tuple(axis[r] for axis in layout.index)] *= -1
            T = _flipped(T, list(T.coeffs)[r])
            _assert_scores(layout, T)
    finally:
        normsmod._CHUNK_CELLS = old


def test_flip_scores_past_16_pattern_bits():
    """Slot 2 enumerates 18 coordinates, 2^17 patterns: the parity of a
    flip's sign pattern needs bits above the 16-bit table."""
    rng = np.random.default_rng(5)
    coeffs = {(i, 1 + (i * 5) % 18): int(rng.integers(1, 9)) * (-1) ** i
              for i in range(1, 19)}
    coeffs.update({(1, 2): 7, (3, 1): -4})
    T = MultilinearForm.build(2, (18, 18), coeffs)
    layout = _layout(T, DEFAULT_BUDGET)
    assert layout.assignments >> 1 == 2**17
    value, scores = _flip_scores(layout, len(T.coeffs))
    assert value == exact_norm_real(T).value
    assert list(scores) == [exact_norm_real(_flipped(T, t)).value for t in T.coeffs]


# --- table-driven polynomial ascent -------------------------------------------


def _naive_poly_lower_bound(P, seed=0, restarts=8, max_rounds=60):
    """Reference: the coordinate ascent of ``poly_lower_bound`` written out
    naively, rescanning every monomial for the degree and each exponent of
    the variable at every update."""
    from bhforms.norms import NormResult, _best_on_interval

    if not P.coeffs:
        return NormResult(0, (tuple(1 for _ in range(P.n)),), False, None, 0)
    act = P.active_variables()
    complex_field = P.field == "complex"
    best_val, best_x, work = -1.0, None, 0
    for child in np.random.SeedSequence(seed).spawn(restarts):
        rng = np.random.default_rng(child)
        x = [1.0] * P.n
        for var in act:
            if complex_field:
                theta = 2.0 * math.pi * rng.random()
                x[var - 1] = complex(math.cos(theta), math.sin(theta))
            else:
                x[var - 1] = 2.0 * rng.random() - 1.0
        val = abs(P.evaluate(x))
        for _ in range(max_rounds):
            before = val
            for var in act:
                deg = max(alpha.exponent_of(var) for alpha in P.coeffs)
                coefs = [0.0 + 0.0j if complex_field else 0.0] * (deg + 1)
                for alpha, c in P.coeffs.items():
                    term = c
                    for v2, e2 in alpha.exponents:
                        if v2 != var:
                            term = term * x[v2 - 1] ** e2
                    coefs[alpha.exponent_of(var)] += term
                if complex_field:
                    phases = np.exp(2j * math.pi * np.arange(16) / 16.0)
                    vals = [abs(sum(coefs[d] * z**d for d in range(deg + 1)))
                            for z in phases]
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
                    x[var - 1] = bz
                    val = bv
                else:
                    t, v = _best_on_interval(coefs)
                    x[var - 1] = t
                    val = v
                work += 1
            if val - before <= 1e-12 * max(1.0, abs(val)):
                break
        if val > best_val:
            best_val, best_x = val, tuple(x)
    return NormResult(best_val, (best_x,), False, None, work)


def _lifted(dims, dist, seed, boost):
    T = random_sparse(len(dims), dims, 0.8, coeff_dist=dist, seed=seed)
    P = diagonal_polynomial(disjointify(T)[0])
    return lift_polynomial(P, P.m + boost)


def _poly(m, n, coeffs, field="real"):
    return HomogeneousPolynomial.build(
        m, n, {MultiIndex.from_pairs(a): c for a, c in coeffs}, field=field)


def _complex_lift(boost):
    P = diagonal_polynomial(disjointify(random_sparse(2, (3, 3), 0.9, seed=4))[0])
    PC = HomogeneousPolynomial.build(
        P.m, P.n, {a: complex(c, 0.5 - c) for a, c in P.coeffs.items()},
        field="complex")
    return lift_polynomial(PC, P.m + boost)


POLY_CASES = {
    **{f"lift-{dist}-{dims}+{b}": (lambda d=dims, s=dist, b=b: _lifted(d, s, 7, b))
       for dist in ("pm1", "gaussian", "uniform")
       for dims in ((3, 3), (2, 2, 2))
       for b in (1, 2)},
    "complex-lift+1": lambda: _complex_lift(1),
    "complex-lift+2": lambda: _complex_lift(2),
    "complex-mixed": lambda: _poly(3, 3, [
        ([(1, 2), (2, 1)], 1 + 2j), ([(2, 3)], -0.5j), ([(1, 1), (2, 1), (3, 1)], 0.75),
        ([(3, 2), (1, 1)], -1.25 + 0.5j)], field="complex"),
    **{f"power-{m}": (lambda m=m: _poly(m, 2, [([(2, m)], 1)])) for m in (2, 3, 6)},
    "complex-power": lambda: _poly(4, 1, [([(1, 4)], 2j)], field="complex"),
    "mixed-real": lambda: _poly(4, 3, [
        ([(1, 2), (2, 2)], 1.5), ([(2, 3), (3, 1)], -2), ([(1, 1), (3, 3)], 0.25),
        ([(1, 1), (2, 1), (3, 2)], -0.875), ([(3, 4)], 3)]),
    "mixed-int": lambda: _poly(3, 4, [
        ([(1, 2), (4, 1)], 2), ([(2, 2), (3, 1)], -3), ([(3, 3)], 1),
        ([(1, 1), (2, 1), (4, 1)], -1)]),
}


@pytest.mark.parametrize("name", sorted(POLY_CASES))
def test_poly_lower_bound_is_bit_identical_to_the_naive_ascent(name):
    """Same value, witness and work to the last bit (compared as JSON text)
    as the naive ascent, for every seed and restart count.  Real lifts and
    single monomials are normed exactly by ``poly_lower_bound``, so their
    ascent is called directly."""
    P = POLY_CASES[name]()
    assert not P.is_multiaffine()
    exact = name.startswith(("lift-", "power-"))
    ascent = _poly_ascent if exact else poly_lower_bound
    assert poly_lower_bound(P).exact is exact
    for seed in (0, 3, 11):
        for restarts in (1, 4, 8):
            got = ascent(P, seed=seed, restarts=restarts)
            want = _naive_poly_lower_bound(P, seed=seed, restarts=restarts)
            assert json.dumps(got.to_json()) == json.dumps(want.to_json())


def test_poly_lower_bound_has_no_per_update_rescan():
    """The plan is built once per call: no exponent_of call, and no
    numpy Polynomial for a coordinate of degree 1."""
    import bhforms.norms as normsmod

    P = _lifted((3, 3), "gaussian", 7, 2)
    calls = []
    real = normsmod._best_on_interval
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(MultiIndex, "exponent_of",
                   lambda self, var: pytest.fail("exponent_of called"))
        mp.setattr(normsmod, "_best_on_interval",
                   lambda coefs: calls.append(len(coefs)) or real(coefs))
        r = _poly_ascent(P, seed=3, restarts=4)
    assert calls and min(calls) >= 3  # only x_1, of degree >= 2
    assert len(calls) < r.work


# --- exact norms of lifted polynomials through their form ---------------------


@st.composite
def lifts(draw, coeff):
    """(T, L): a nonzero real form with m <= 3 and dims <= 3, and the lift of
    its symmetrization by x_1 or x_1^2 when that is not multiaffine
    (``factored_polys`` draws multiaffine polynomials)."""
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(m))
    tuples = st.tuples(*(st.integers(1, d) for d in dims))
    coeffs = draw(st.dictionaries(tuples, coeff, min_size=1, max_size=12))
    T = MultilinearForm.build(m, dims, coeffs)
    assume(T.coeffs)
    P = diagonal_polynomial(disjointify(T)[0])
    L = lift_polynomial(P, m + draw(st.integers(1, 2)))
    assume(not L.is_multiaffine())
    return T, L


@st.composite
def factored_polys(draw, coeff):
    """x^beta * Q: Q multiaffine of degree 1..3 in 6 variables and x^beta a
    monomial of degree 0..3, so the polynomial may be multiaffine and the
    quotient by the common monomial rainbow, not rainbow, squared or
    constant."""
    d = draw(st.integers(1, 3))
    monos = draw(st.lists(st.frozensets(st.integers(1, 6), min_size=d, max_size=d),
                          min_size=1, max_size=8, unique=True))
    beta = draw(st.dictionaries(st.integers(1, 6), st.integers(1, 2),
                                max_size=3).filter(
                                    lambda b: sum(b.values()) <= 3))
    coeffs = {}
    for vars_ in monos:
        e = dict(beta)
        for v in vars_:
            e[v] = e.get(v, 0) + 1
        coeffs[MultiIndex.from_pairs(e.items())] = draw(coeff)
    L = HomogeneousPolynomial.build(d + sum(beta.values()), 6, coeffs)
    assume(L.coeffs)
    return L


def _outcome(f, *args, **kwargs):
    """(exact, text): f's result as JSON text, or the type and message of
    what it raised."""
    try:
        r = f(*args, **kwargs)
    except Exception as exc:
        return False, f"{type(exc).__name__}: {exc}"
    return r.exact, json.dumps(r.to_json())


def _assert_witness(L, r):
    v = abs(L.evaluate(r.witness[0]))
    if L.is_integer():
        assert isinstance(r.value, int) and v == r.value
    else:
        assert v == pytest.approx(r.value, rel=1e-9)


def _assert_not_below(value, L):
    """value >= the ascent's value on L, exactly where the ascent's floats
    hold L's integers exactly."""
    ascent = _poly_ascent(L).value
    if L.is_integer() and sum(abs(c) for c in L.coeffs.values()) < 2**53:
        assert value >= ascent
    else:
        assert value >= ascent * (1 - 1e-12)


@given(lifts(INTS) | lifts(FLOATS))
def test_lift_is_normed_exactly_through_its_form(case):
    """A lift always has its form's exact norm and a witness that
    re-evaluates; it is never below the ascent.  When no slot of T has a
    single active coordinate the lift's form is T itself, with T's work.
    The value is T's to the bit for integer T and when at most one slot of T
    has two or more active coordinates (the quotient is linear or constant,
    a one-slot form)."""
    T, L = case
    r = poly_lower_bound(L)
    assert r.exact
    want = exact_norm_real(T)
    single = sum(len(a) == 1 for a in T.active_support())
    if not single:
        assert r.work == want.work
    if T.is_integer() or T.m - single <= 1:
        assert r.value == want.value
    else:
        # another form, so another order of summation
        assert r.value == pytest.approx(want.value, rel=1e-12)
    _assert_witness(L, r)
    _assert_not_below(r.value, L)


@given(factored_polys(INTS) | factored_polys(FLOATS))
def test_poly_exact_path_or_the_ascent_to_the_bit(L):
    """On x^beta * Q the result is either exact (the vertex maximum, with a
    re-evaluating witness) or the ascent's, to the bit; it is exact for
    every multiaffine polynomial."""
    exact, text = _outcome(poly_lower_bound, L)
    assert exact or not L.is_multiaffine()
    if not exact:
        assert text == _outcome(_poly_ascent, L)[1]
        return
    r = poly_lower_bound(L)
    brute = max(abs(L.evaluate(x)) for x in itertools.product((-1, 1), repeat=6))
    if L.is_integer():
        assert r.value == brute
    else:
        assert r.value == pytest.approx(brute, rel=1e-9)
    _assert_witness(L, r)
    _assert_not_below(r.value, L)


@given(lifts(INTS) | lifts(FLOATS))
def test_poly_fallbacks_past_the_budget_and_over_complex(case):
    """Past the budget, and for a complex polynomial, the ascent's result to
    the bit: no budget refusal reaches the caller."""
    _, L = case
    assert _outcome(poly_lower_bound, L, budget=0) == _outcome(_poly_ascent, L)
    LC = HomogeneousPolynomial.build(
        L.m, L.n, {a: complex(c, 0.5) for a, c in L.coeffs.items()}, field="complex")
    assert (_outcome(poly_lower_bound, LC, restarts=2)
            == _outcome(_poly_ascent, LC, restarts=2))


FALLBACKS = {
    # Q = 3 x_2 x_4 - x_3 x_5: x_2 and x_4 share a class mod 2
    "not-rainbow": lambda: _poly(4, 5, [([(1, 2), (2, 1), (4, 1)], 3),
                                        ([(1, 2), (3, 1), (5, 1)], -1)]),
    # Q = 1.5 x_2^2 - 2 x_1 x_3
    "squared": lambda: _poly(4, 3, [([(1, 2), (2, 2)], 1.5), ([(1, 3), (3, 1)], -2.0)]),
    # Q = 5, of degree 0
    "constant": lambda: _poly(3, 2, [([(1, 2), (2, 1)], 5)]),
    # slot 2 of the form has one active coordinate, x_2, a factor of every
    # term: Q = 2 x_1 x_3 - x_4 x_6, where x_1 and x_3 share a class mod 2
    "lift-of-a-one-coordinate-slot": lambda: lift_polynomial(diagonal_polynomial(
        disjointify(MultilinearForm.build(3, (2, 1, 2), {(1, 1, 1): 2, (2, 1, 2): -1}))[0]
    ), 5),
}


@pytest.mark.parametrize("name", sorted(FALLBACKS))
def test_poly_fallback_examples_are_the_ascent(name):
    """A squared variable of the quotient leaves the ascent's result to the
    bit; the other examples are the +-1 vertex maximum, with a witness."""
    L = FALLBACKS[name]()
    assert not L.is_multiaffine()
    outcome = _outcome(poly_lower_bound, L, seed=2)
    if name == "squared":
        assert outcome == _outcome(_poly_ascent, L, seed=2)
        assert outcome[0] is False
        return
    r = poly_lower_bound(L, seed=2)
    brute = max(abs(L.evaluate(x)) for x in itertools.product((-1, 1), repeat=L.n))
    assert (r.value, r.exact) == (brute, True)
    _assert_witness(L, r)


def test_poly_beyond_float_range():
    """The exact path holds a 10^400 integer lift in Python ints and refuses
    10^400 next to a float, as for forms; the ascent on squared variables
    turns the float overflow into ValueError."""
    big = 10**400
    T = MultilinearForm.build(2, (2, 2), {(1, 1): big, (2, 2): 1})
    L = lift_polynomial(diagonal_polynomial(disjointify(T)[0]), 3)
    r = poly_lower_bound(L)
    assert (r.value, r.exact) == (big + 1, True)
    mixed = _poly(2, 4, [([(1, 1), (2, 1)], big), ([(3, 1), (4, 1)], 0.5)])
    with pytest.raises(ValueError, match="float range"):
        poly_lower_bound(mixed)
    squared = _poly(2, 2, [([(1, 2)], big), ([(2, 2)], 1)])
    with pytest.raises(ValueError, match="float range"):
        poly_lower_bound(squared)


def test_subnormal_leading_coefficient_keeps_the_ascent():
    """x_1 of degree 3 with a subnormal leading coefficient: the derivative's
    companion matrix would overflow.  The ascent drops that coefficient for
    the critical points, with no overflow warning, and values stay |q(t)| of
    the whole polynomial."""
    L = _poly(3, 2, [([(1, 3)], 2.2e-311), ([(1, 1), (2, 2)], 1.0)])
    r = poly_lower_bound(L)
    assert not r.exact
    assert r.value == pytest.approx(1.0, rel=1e-12)
    assert abs(L.evaluate(r.witness[0])) == pytest.approx(r.value, rel=1e-9)


def test_dense_lift_rises_to_the_exact_norm():
    """A dense (5,5,5) +-1 lift where the ascent stops below the norm, and
    its symmetrization, normed as T: T's vertex space, not 2^15."""
    T = random_sparse(3, (5, 5, 5), 1.0, seed=2)
    P = diagonal_polynomial(disjointify(T)[0])
    L = lift_polynomial(P, 5)
    assert _poly_ascent(L).value == 39
    assert exact_norm_real(T).value == 43
    for Q in (L, P):
        r = poly_lower_bound(Q)
        assert (r.value, r.exact, r.work) == (43, True, 1024)
        assert abs(Q.evaluate(r.witness[0])) == 43


def test_complete_quadratic_is_exact_within_the_default_budget():
    """All 91 products x_i x_j on 14 variables: no two variables share a
    class, so each of the 14 slots has a variable and a "no variable"
    coordinate.  The budget counts P's 13 enumerated variables, not T's 26
    coordinates."""
    n = 14
    pairs = list(itertools.combinations(range(1, n + 1), 2))
    cs = [(-1, 1, 2, -3)[(3 * i + 5 * j) % 4] for i, j in pairs]
    P = _poly(2, n, [([(i, 1), (j, 1)], c) for (i, j), c in zip(pairs, cs)])
    X = np.array(list(itertools.product((-1, 1), repeat=n)))
    I, J = (np.array(a) - 1 for a in zip(*pairs))
    brute = int(np.abs((X[:, I] * X[:, J]) @ np.array(cs)).max())
    r = poly_lower_bound(P)
    assert (r.value, r.exact, r.work) == (brute, True, 2**13)
    assert abs(P.evaluate(r.witness[0])) == brute
    assert poly_lower_bound(P, budget=2**13).exact
    assert not poly_lower_bound(P, budget=2**12).exact


@pytest.mark.parametrize("dist", ["pm1", "gaussian"])
def test_poly_form_path_refuses_a_wrong_witness(monkeypatch, dist):
    import bhforms.norms as normsmod

    real = normsmod.exact_norm_real

    def off_by_one(T, budget):
        r = real(T, budget=budget)
        return dataclasses.replace(r, value=r.value + 1)

    monkeypatch.setattr(normsmod, "exact_norm_real", off_by_one)
    T = random_sparse(2, (3, 3), 1.0, coeff_dist=dist, seed=1)
    L = lift_polynomial(diagonal_polynomial(disjointify(T)[0]), 3)
    with pytest.raises(RuntimeError, match="witness"):
        poly_lower_bound(L)
