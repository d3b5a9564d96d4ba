import io
import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given
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
    littlewood_s2,
    load_form,
    lp_sum,
    poly_lower_bound,
    r_family,
    random_sparse,
    s_family,
)
from bhforms.norms import DEFAULT_BUDGET, _flip_scores, _layout
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
