import itertools
import math
from fractions import Fraction

import numpy as np
import pytest

from bhforms import (
    MultilinearForm,
    Restriction,
    a_family,
    bh_exponent,
    block_sum,
    exact_norm_real,
    interpolation_bound,
    littlewood_s2,
    lp_sum,
    poly_restricted_sum,
    r_family,
    ratio_report,
    restricted_sum,
    s_family,
    theorem_upper_bound,
)
from bhforms.constructions import diagonal_polynomial, disjointify
from bhforms.verify import make_corpus


def test_lp_sum_unimodular():
    assert lp_sum([1, -1, 1, -1], 4 / 3) == pytest.approx(2 ** 1.5, rel=1e-12)
    for m in (2, 3, 4):
        coeffs = [1] * 2 ** (2 * (m - 1))
        expected = 2 ** ((m - 1) * (m + 1) / m)
        assert lp_sum(coeffs, bh_exponent(m)) == pytest.approx(expected, rel=1e-12)


def test_lp_sum_edge_cases():
    assert lp_sum([], 1.5) == 0.0
    assert lp_sum([-7.25], 1.1) == 7.25
    with pytest.raises(ValueError):
        lp_sum([1.0], 0.5)


def test_lp_sum_overflow_safety():
    huge = [1e300, -1e300, 1e299]
    v = lp_sum(huge, 1.0)
    assert math.isfinite(v)
    assert v == pytest.approx(2.1e300, rel=1e-12)
    tiny = [1e-300] * 1000
    assert lp_sum(tiny, 1.0) == pytest.approx(1e-297, rel=1e-9)


def test_lp_monotone_in_p():
    rng = np.random.default_rng(12)
    for _ in range(50):
        vec = rng.uniform(-5, 5, size=int(rng.integers(1, 30)))
        p = float(rng.uniform(1, 3))
        q = p + float(rng.uniform(0, 2))
        assert lp_sum(vec, p) >= lp_sum(vec, q) * (1 - 1e-12)


def test_restricted_sum_cases():
    S4 = s_family(4)
    p = bh_exponent(4)
    full = lp_sum(S4.coeffs.values(), p)
    assert restricted_sum(S4, 4, p) == pytest.approx(full, rel=1e-12)
    # every monomial of the family uses at most three distinct indices
    assert restricted_sum(S4, 3, p) == pytest.approx(full, rel=1e-12)
    diag = MultilinearForm.build(2, (3, 3), {(i, i): i for i in (1, 2, 3)})
    assert restricted_sum(diag, 1, 2) == pytest.approx(lp_sum([1, 2, 3], 2))
    for T in make_corpus(30, 3, 3, seed=31):
        for M in range(1, T.m + 1):
            assert restricted_sum(T, M, 2) <= lp_sum(T.coeffs.values(), 2) * (1 + 1e-12)


def test_block_sum_trivial_partitions():
    S3 = s_family(3)
    p = bh_exponent(3)
    assert block_sum(S3, (1, 1, 1), p) == pytest.approx(
        lp_sum(S3.coeffs.values(), p), rel=1e-12
    )
    diag_values = [
        abs(S3.coefficient((i, i, i))) for i in range(1, 3)
    ]
    assert block_sum(S3, (3,), 2) == pytest.approx(lp_sum(diag_values, 2))


def test_block_sum_derived_by_expansion():
    # partition (2,1): independent oracle evaluates S3 on repeated basis vectors
    S3 = s_family(3)
    values = []
    for i in range(1, 3):
        ei4 = tuple(1 if k == i else 0 for k in range(1, 5))
        for j in range(1, 3):
            ej = tuple(1 if k == j else 0 for k in range(1, 3))
            values.append(S3.evaluate([ei4, ei4[:2], ej]))
    expected = lp_sum(values, 1.5)
    assert block_sum(S3, (2, 1), 1.5) == pytest.approx(expected, rel=1e-12)


def test_block_sum_bad_partition():
    with pytest.raises(ValueError):
        block_sum(s_family(3), (2, 2))


def test_poly_restricted_sum():
    T1, _ = disjointify(s_family(3))
    P = diagonal_polynomial(T1)
    p = bh_exponent(3)
    assert poly_restricted_sum(P, 3, p) == pytest.approx(
        lp_sum(P.coeffs.values(), p), rel=1e-12
    )
    from bhforms import HomogeneousPolynomial, MultiIndex

    mono = HomogeneousPolynomial.build(4, 1, {MultiIndex.from_pairs([(1, 4)]): -2})
    assert poly_restricted_sum(mono, 1, 1.5) == 2


def test_interpolation_theta_one_is_equality():
    vec = [3.0, -1.0, 0.5]
    bound, holds = interpolation_bound(vec, 1.5, 2.0, 1.0)
    assert holds
    assert bound == pytest.approx(lp_sum(vec, 1.5), rel=1e-12)


def test_interpolation_exponent_algebra_exact():
    for m in range(1, 13):
        for M in range(1, m + 1):
            theta = Fraction(M, m)
            lhs = theta * Fraction(M + 1, 2 * M) + (1 - theta) * Fraction(1, 2)
            assert lhs == Fraction(m + 1, 2 * m)


def test_interpolation_always_holds():
    rng = np.random.default_rng(1234)
    for _ in range(300):
        size = int(rng.integers(1, 200))
        vec = 10.0 ** rng.uniform(-8, 8, size=size) * (rng.integers(0, 2, size) * 2 - 1)
        _, holds = interpolation_bound(vec, float(rng.uniform(1, 4)),
                                       float(rng.uniform(1, 4)), float(rng.random()))
        assert holds


def test_theorem_upper_bound_values():
    for M in (1, 2, 3, 5):
        assert theorem_upper_bound(M, M) == pytest.approx(
            1.3 * M ** (0.365 + (M + 1) / 2), rel=1e-12
        )
    # m -> infinity limit is M^((M+1)/2); M=2 gives sqrt(8)
    assert theorem_upper_bound(10**9, 2) == pytest.approx(math.sqrt(8), rel=1e-6)
    assert theorem_upper_bound(10**9, 4) == pytest.approx(4 ** 2.5, rel=1e-6)
    with pytest.raises(ValueError):
        theorem_upper_bound(2, 3)


def test_ratio_reports_for_families():
    for m in (2, 3, 4):
        rep = ratio_report(s_family(m))
        assert rep.norm.exact
        assert rep.ratio == pytest.approx(2 ** ((m - 1) / m), rel=1e-9)
    for m in (2, 4, 6):
        rep = ratio_report(r_family(m))
        assert rep.ratio == pytest.approx(math.sqrt(2), rel=1e-9)
    for m in (3, 5):
        rep = ratio_report(a_family(m))
        assert rep.ratio == pytest.approx(2 ** ((m - 1) / (2 * m)), rel=1e-9)


def test_littlewood_sharpness_witness():
    rep = ratio_report(littlewood_s2(), p=4 / 3)
    assert rep.ratio == pytest.approx(math.sqrt(2), rel=1e-9)


def test_ratio_report_consistency_invariant():
    rep = ratio_report(s_family(3), restriction=Restriction("card", M=3))
    assert rep.ratio * rep.norm.value == pytest.approx(rep.sum, rel=1e-9)
    payload = rep.to_json()
    assert payload["exact_norm"] is True
    assert payload["restriction"] == {"kind": "card", "M": 3}


def test_scaling_invariance_of_ratios():
    for T in make_corpus(20, 3, 3, seed=77):
        base = ratio_report(T).ratio
        scaled = ratio_report(T.scale(-3.5)).ratio
        assert scaled == pytest.approx(base, rel=1e-9)


def test_restricted_ratio_below_theorem_bound():
    for T in make_corpus(40, 3, 3, seed=88):
        for M in range(1, T.m + 1):
            ratio = restricted_sum(T, M, bh_exponent(T.m)) / exact_norm_real(T).value
            assert ratio <= theorem_upper_bound(T.m, M) * (1 + 1e-12)


def test_sums_beyond_float_range_are_value_errors():
    """Ints beyond the float range, and finite floats whose sum is."""
    for values in ([10**400, 0.5], [10**400], [0.5, -(10**400), 3],
                   [1.7e308, 1.7e308], [1.7e308, -1.7e308, 1.0]):
        for p in (1, 4 / 3):
            with pytest.raises(ValueError, match="float range"):
                lp_sum(values, p)
    for coeffs, M in (({(1, 1): 10**400, (2, 2): 0.5}, 1),
                      ({(1, 1): 1.7e308, (2, 1): 1.7e308, (1, 2): 1.0}, 2)):
        T = MultilinearForm.build(2, (2, 2), coeffs)
        with pytest.raises(ValueError, match="float range"):
            restricted_sum(T, M, 2.0)
        with pytest.raises(ValueError, match="float range"):
            ratio_report(T)
    # huge ints whose sum has a float value still work
    assert lp_sum([10**300, 10**300], 1) == 2e300
