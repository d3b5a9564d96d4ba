import dataclasses

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from bhforms import (
    HomogeneousPolynomial,
    MultiIndex,
    MultilinearForm,
    ParseError,
    SlotEmbedding,
    bh_exponent,
    diagonal_polynomial,
    disjointify,
    dumps,
    exact_norm_real,
    lift_polynomial,
    littlewood_s2,
    lp_sum,
    poly_lower_bound,
    poly_restricted_sum,
    reconstruct_form,
    s_family,
)
from bhforms.verify import make_corpus


def test_embedding_is_the_canonical_interleaving():
    emb = SlotEmbedding(3)
    assert emb.apply(1, 1) == 1
    assert emb.apply(2, 1) == 2
    assert emb.apply(1, 2) == 4
    # images partition 1..3n by residue
    seen = {emb.apply(i, j) for i in (1, 2, 3) for j in (1, 2, 3, 4)}
    assert seen == set(range(1, 13))
    for v in range(1, 13):
        slot, j = emb.invert(v)
        assert emb.apply(slot, j) == v


def test_disjointify_s2():
    T1, emb = disjointify(littlewood_s2())
    assert emb.m == 2
    # tuple (1,1) lands at (sigma_1(1), sigma_2(1)) = (1,2)
    assert T1.coefficient((1, 2)) == 1
    assert sorted(T1.coeffs.values()) == sorted(littlewood_s2().coeffs.values())
    assert T1.dims == (4, 4)


def test_disjointify_preserves_norm():
    for T in make_corpus(30, 3, 3, seed=404):
        T1, _ = disjointify(T)
        a, b = exact_norm_real(T).value, exact_norm_real(T1).value
        if T.is_integer():
            assert a == b
        else:
            assert a == pytest.approx(b, rel=1e-9)


def test_diagonal_polynomial_preserves_bh_sum():
    for T in make_corpus(30, 3, 3, seed=505):
        T1, _ = disjointify(T)
        P = diagonal_polynomial(T1)
        p = bh_exponent(T.m)
        assert len(P.coeffs) == len(T.coeffs)
        assert lp_sum(P.coeffs.values(), p) == pytest.approx(
            lp_sum(T.coeffs.values(), p), rel=1e-9
        )


def test_diagonal_polynomial_bounded_by_form_norm():
    rng = np.random.default_rng(6)
    for T in make_corpus(15, 3, 3, seed=606):
        T1, _ = disjointify(T)
        P = diagonal_polynomial(T1)
        norm = exact_norm_real(T).value
        for _ in range(20):
            x = rng.uniform(-1, 1, size=T1.dims[0])
            assert abs(P.evaluate(x)) <= norm * (1 + 1e-9)


def test_round_trip_recovers_form():
    for T in make_corpus(30, 3, 3, seed=707):
        T1, emb = disjointify(T)
        P = diagonal_polynomial(T1)
        assert reconstruct_form(P, emb, T.dims) == T


def test_diagonal_polynomial_accumulates_without_disjointification():
    T = MultilinearForm.build(2, (1, 1), {(1, 1): 1})
    P = diagonal_polynomial(T)
    assert P.coeffs == {MultiIndex.from_pairs([(1, 2)]): 1}


def test_poly_norm_chain():
    for T in make_corpus(20, 3, 3, seed=808):
        T1, _ = disjointify(T)
        P = diagonal_polynomial(T1)
        assert poly_lower_bound(P, seed=3).value <= exact_norm_real(T).value + 1e-9


def test_lift_bijection_and_omega():
    rng = np.random.default_rng(9)
    for trial in range(30):
        d = 1 + trial % 2
        M = d + 1
        coeffs = {}
        for _ in range(int(rng.integers(1, 5))):
            vars_ = rng.choice(np.arange(2, 7), size=d, replace=False)
            coeffs[MultiIndex.from_pairs([(int(v), 1) for v in vars_])] = float(
                rng.uniform(-2, 2)
            )
        P = HomogeneousPolynomial.build(d, 6, coeffs)
        m = M + int(rng.integers(0, 3))
        L = lift_polynomial(P, m)
        assert L.m == m
        assert len(L.coeffs) == len(P.coeffs)
        assert sorted(L.coeffs.values()) == sorted(P.coeffs.values())
        assert all(alpha.omega <= M for alpha in L.coeffs)
        # restricted sum of the lift recovers the full sum of the original
        for r in (1.0, 1.5, 2.0):
            assert poly_restricted_sum(L, M, r) == pytest.approx(
                lp_sum(P.coeffs.values(), r), rel=1e-12
            )
        for _ in range(30):
            x = rng.uniform(-1, 1, size=6)
            assert abs(L.evaluate(x)) <= abs(P.evaluate(x)) * (1 + 1e-12) + 1e-15


def test_lift_degree_mismatch():
    P = HomogeneousPolynomial.build(2, 3, {MultiIndex.from_pairs([(2, 2)]): 1})
    with pytest.raises(ValueError):
        lift_polynomial(P, 2)


def test_lift_of_s_family_diagonal():
    T1, _ = disjointify(s_family(3))
    P = diagonal_polynomial(T1)
    L = lift_polynomial(P, 5)
    p = bh_exponent(3)
    assert lp_sum(L.coeffs.values(), p) == pytest.approx(
        lp_sum(P.coeffs.values(), p), rel=1e-12
    )


# --- trusted constructions against the validating builds -----------------------


def _built_disjointify(T):
    emb = SlotEmbedding(T.m)
    coeffs = {tuple(emb.apply(j + 1, i) for j, i in enumerate(t)): c
              for t, c in T.coeffs.items()}
    return MultilinearForm.build(T.m, (T.m * max(T.dims),) * T.m, coeffs, field=T.field)


def _built_diagonal(T1):
    coeffs = {}
    for t, c in T1.coeffs.items():
        alpha = MultiIndex.from_tuple(t)
        coeffs[alpha] = coeffs.get(alpha, 0) + c
    return HomogeneousPolynomial.build(T1.m, max(T1.dims), coeffs, field=T1.field)


def _built_lift(P, m):
    coeffs = {alpha.plus(1, m - P.m): c for alpha, c in P.coeffs.items()}
    return HomogeneousPolynomial.build(m, max(P.n, 1), coeffs, field=P.field)


def _same(a, b):
    """Equal values, the same coefficient order and the same document."""
    return a == b and list(a.coeffs.items()) == list(b.coeffs.items()) and dumps(a) == dumps(b)


COEFFS = (st.integers(-3, 3) | st.floats(-4, 4, allow_nan=False)
          | st.complex_numbers(max_magnitude=4, allow_nan=False, allow_infinity=False)
          | st.sampled_from([2**70, complex(-0.0, 1.0), -0.0]))


@st.composite
def forms(draw):
    """Forms with m <= 3 and dims <= 3, real or complex, whose diagonal (not
    disjointified) collides and may cancel."""
    m = draw(st.integers(1, 3))
    dims = tuple(draw(st.integers(1, 3)) for _ in range(m))
    tuples = st.tuples(*(st.integers(1, d) for d in dims))
    coeffs = draw(st.dictionaries(tuples, COEFFS, max_size=10))
    field = "complex" if any(isinstance(c, complex) for c in coeffs.values()) else "real"
    return MultilinearForm.build(m, dims, coeffs, field=field)


@given(forms(), st.integers(1, 2))
def test_trusted_constructions_match_the_validating_builds(T, boost):
    T1, emb = disjointify(T)
    assert emb == SlotEmbedding(T.m)
    assert _same(T1, _built_disjointify(T))
    P = diagonal_polynomial(T1)
    assert _same(P, _built_diagonal(T1))
    assert _same(diagonal_polynomial(T), _built_diagonal(T))
    assert _same(lift_polynomial(P, P.m + boost), _built_lift(P, P.m + boost))
    assert _same(lift_polynomial(diagonal_polynomial(T), T.m + boost),
                 _built_lift(_built_diagonal(T), T.m + boost))


def test_diagonal_drops_cancelled_and_rejects_overflowing_collisions():
    T = MultilinearForm.build(2, (2, 2), {(1, 2): 1, (2, 1): -1, (1, 1): 2})
    assert diagonal_polynomial(T).coeffs == {MultiIndex.from_pairs([(1, 2)]): 2}
    wide = MultilinearForm.build(2, (2, 2), {(1, 2): 1e308, (2, 1): 1e308})
    with pytest.raises(ParseError, match="non-finite"):
        diagonal_polynomial(wide)


def test_reconstruct_form_refuses_what_no_form_has():
    P = diagonal_polynomial(disjointify(littlewood_s2())[0])
    emb = SlotEmbedding(2)
    assert reconstruct_form(P, emb, (2, 2)) == littlewood_s2()
    with pytest.raises(ValueError, match="out of range"):
        reconstruct_form(P, emb, (2, 1))
    with pytest.raises(ValueError, match="slot dimensions"):
        reconstruct_form(P, emb, (2,))
    # three variables, two of slot 1: a degree mismatch, not an overwrite
    Q = HomogeneousPolynomial.build(3, 4, {MultiIndex.from_pairs([(1, 1), (2, 1), (3, 1)]): 1})
    with pytest.raises(ValueError, match="degree"):
        reconstruct_form(Q, emb, (2, 2))


def test_verify_lift_norm_chain_counts_every_wrong_norm(monkeypatch):
    import bhforms.verify as verifymod

    def lift_norm_chain():
        out = []
        verifymod._construction_checks(out)
        return {o.name: o for o in out}["lift_norm_chain"]

    assert lift_norm_chain().passed
    real = verifymod.poly_lower_bound
    def off_by_one(P, **kwargs):
        r = real(P, **kwargs)
        return dataclasses.replace(r, value=r.value + 1)

    monkeypatch.setattr(verifymod, "poly_lower_bound", off_by_one)
    check = lift_norm_chain()
    assert not check.passed and check.computed == 50
