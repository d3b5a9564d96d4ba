import io
import json
import math

import numpy as np
import pytest

from bhforms import (
    FieldMismatchError,
    HomogeneousPolynomial,
    MultiIndex,
    MultilinearForm,
    ParseError,
    bh_exponent,
    diagonal_polynomial,
    disjointify,
    distinct_count,
    dumps,
    lift_polynomial,
    littlewood_s2,
    load_form,
    load_poly,
    random_sparse,
    s_family,
    save_form,
)
from bhforms.core import form_from_json, poly_from_json


def test_s2_evaluation_by_hand():
    # x1y1 + x1y2 + x2y1 - x2y2 at x=(1,1), y=(1,-1): 1 - 1 + 1 + 1
    assert littlewood_s2().evaluate([(1, 1), (1, -1)]) == 2


def test_zero_argument_kills_the_form():
    S = s_family(3)
    assert S.evaluate([(0,) * 4, (1, -1), (1, 1)]) == 0


def test_coefficient_lookup():
    S2 = littlewood_s2()
    assert S2.coefficient((2, 2)) == -1
    assert S2.coefficient((1, 1)) == 1
    T = MultilinearForm.build(2, (3, 3), {(1, 2): 5})
    assert T.coefficient((3, 3)) == 0
    with pytest.raises(ValueError):
        T.coefficient((0, 1))
    with pytest.raises(ValueError):
        T.coefficient((4, 1))


def test_distinct_count():
    assert distinct_count((1, 1, 1)) == 1
    assert distinct_count((4, 1, 1, 1)) == 2
    assert distinct_count((1, 2, 3)) == 3


def test_multiindex_omega_and_degree():
    assert MultiIndex.from_pairs([(1, 5)]).omega == 1
    assert MultiIndex.from_pairs([(1, 1), (2, 1), (3, 1)]).omega == 3
    alpha = MultiIndex.from_tuple((2, 2, 7))
    assert alpha.degree == 3
    assert alpha.exponent_of(2) == 2
    assert alpha.exponent_of(7) == 1


def test_constructors_canonicalize_and_validate():
    T = MultilinearForm.build(2, (2, 2), {(1, 1): 1, (2, 2): 0})
    assert (2, 2) not in T.coeffs
    with pytest.raises(ValueError):
        MultilinearForm.build(2, (2, 2), {(1, 3): 1})
    with pytest.raises(ValueError):
        MultilinearForm.build(2, (2,), {})
    with pytest.raises(FieldMismatchError):
        MultilinearForm.build(2, (2, 2), {(1, 1): 1j})
    with pytest.raises(ValueError):
        HomogeneousPolynomial.build(2, 2, {MultiIndex.from_pairs([(1, 1)]): 1})


def test_field_mismatch_on_evaluation():
    with pytest.raises(FieldMismatchError):
        littlewood_s2().evaluate([(1j, 1), (1, 1)])


def test_multilinearity_exact_integer_path():
    rng = np.random.default_rng(42)
    for _ in range(30):
        m = int(rng.integers(1, 4))
        dims = tuple(int(rng.integers(1, 4)) for _ in range(m))
        seed = int(rng.integers(0, 2**32))
        T = random_sparse(m, dims, 1.0, coeff_dist="pm1", seed=seed)
        slot = int(rng.integers(0, m))
        x = [[int(v) for v in rng.integers(-3, 4, size=d)] for d in dims]
        y = [int(v) for v in rng.integers(-3, 4, size=dims[slot])]
        lam = int(rng.integers(-3, 4))
        xs = [list(v) for v in x]
        xs[slot] = [a + b for a, b in zip(x[slot], y)]
        ys = [list(v) for v in x]
        ys[slot] = y
        assert T.evaluate(xs) == T.evaluate(x) + T.evaluate(ys)
        zs = [list(v) for v in x]
        zs[slot] = [lam * a for a in x[slot]]
        assert T.evaluate(zs) == lam * T.evaluate(x)


def test_poly_homogeneity():
    rng = np.random.default_rng(7)
    P = HomogeneousPolynomial.build(
        3,
        3,
        {
            MultiIndex.from_pairs([(1, 2), (2, 1)]): 1.5,
            MultiIndex.from_pairs([(3, 3)]): -0.25,
            MultiIndex.from_pairs([(1, 1), (2, 1), (3, 1)]): 2.0,
        },
    )
    for _ in range(25):
        x = rng.uniform(-1, 1, size=3)
        lam = float(rng.uniform(-2, 2))
        assert P.evaluate(lam * x) == pytest.approx(lam**3 * P.evaluate(x), rel=1e-9)
    assert P.evaluate([0.0, 0.0, 0.0]) == 0


def test_poly_examples():
    P = HomogeneousPolynomial.build(2, 1, {MultiIndex.from_pairs([(1, 2)]): 1})
    assert P.evaluate([3]) == 9
    T1, _ = disjointify(littlewood_s2())
    P = diagonal_polynomial(T1)
    rng = np.random.default_rng(3)
    for _ in range(10):
        x = list(rng.uniform(-1, 1, size=T1.dims[0]))
        assert P.evaluate(x) == pytest.approx(T1.evaluate([x] * T1.m), rel=1e-9)


def test_lift_example():
    P = HomogeneousPolynomial.build(1, 2, {MultiIndex.from_pairs([(2, 1)]): 1})
    L = lift_polynomial(P, 3)
    (alpha, c), = L.coeffs.items()
    assert c == 1
    assert alpha == MultiIndex.from_pairs([(1, 2), (2, 1)])
    assert alpha.omega == 2


def test_save_load_round_trip(tmp_path):
    S = s_family(3)
    path = tmp_path / "s3.json"
    save_form(S, path)
    assert load_form(path) == S
    # canonical serialization is stable
    assert dumps(load_form(path)) == dumps(S)


def test_round_trip_preserves_every_coefficient():
    T = random_sparse(3, (3, 2, 2), 0.7, coeff_dist="gaussian", seed=99)
    back = form_from_json(json.loads(dumps(T)))
    for t in T.coeffs:
        assert back.coefficient(t) == T.coefficient(t)


def test_parse_rejects_duplicates():
    doc = littlewood_s2().to_json()
    doc["coeffs"].append({"idx": [1, 1], "re": 2})
    with pytest.raises(ParseError):
        form_from_json(doc)


def test_parse_rejects_zero_index():
    doc = {"kind": "form", "m": 1, "field": "real", "dims": [2],
           "coeffs": [{"idx": [0], "re": 1}]}
    with pytest.raises(ParseError, match="1-based"):
        form_from_json(doc)


def test_parse_rejects_unknown_fields():
    doc = littlewood_s2().to_json()
    doc["extra"] = True
    with pytest.raises(ParseError, match="unknown fields"):
        form_from_json(doc)
    doc = littlewood_s2().to_json()
    doc["coeffs"][0]["weight"] = 2
    with pytest.raises(ParseError):
        form_from_json(doc)


def test_parse_rejects_imaginary_in_real_document():
    doc = {"kind": "form", "m": 1, "field": "real", "dims": [1],
           "coeffs": [{"idx": [1], "re": 1, "im": 2}]}
    with pytest.raises(ParseError):
        form_from_json(doc)


def test_parse_rejects_wrong_json_types():
    """Integers where integers belong and a list of coefficients: a float,
    string or bool there is refused, not coerced, and no document raises
    anything but ParseError."""
    form = littlewood_s2().to_json()
    poly = diagonal_polynomial(disjointify(littlewood_s2())[0]).to_json()
    cases = [("m", 2.0), ("m", "2"), ("dims", [2.0, 2]), ("dims", ["2", 2]),
             ("dims", [True, 2]), ("dims", None), ("coeffs", {}), ("coeffs", 3)]
    for field, value in cases:
        with pytest.raises(ParseError):
            form_from_json({**form, field: value})
    for field, value in (("n", 4.0), ("n", [4]), ("m", None), ("coeffs", "")):
        with pytest.raises(ParseError):
            poly_from_json({**poly, field: value})
    bad = json.loads(json.dumps(poly))
    for pair in ([True, 1], [1.0, 1], ["1", 1], [None, 1], [1, 1, 1]):
        bad["coeffs"][0]["alpha"][0] = pair
        with pytest.raises(ParseError, match="pairs"):
            poly_from_json(bad)


def test_complex_round_trip(tmp_path):
    T = MultilinearForm.build(
        2, (2, 2), {(1, 1): 1 + 2j, (2, 2): -1j}, field="complex"
    )
    buf = io.StringIO()
    save_form(T, buf)
    back = load_form(io.StringIO(buf.getvalue()))
    assert back == T


def test_poly_document_round_trip(tmp_path):
    P = HomogeneousPolynomial.build(
        2, 3, {MultiIndex.from_pairs([(1, 1), (3, 1)]): 2.5}
    )
    path = tmp_path / "p.json"
    from bhforms import save_poly

    save_poly(P, path)
    assert load_poly(path) == P


def test_bh_exponent_range():
    assert bh_exponent(1) == 1.0
    assert bh_exponent(2) == pytest.approx(4 / 3)
    prev = 0.0
    for m in range(2, 40):
        p = bh_exponent(m)
        assert 4 / 3 <= p < 2
        assert p > prev
        prev = p


@pytest.mark.parametrize("c", [math.nan, math.inf, -math.inf, complex(1, math.nan)])
def test_build_rejects_non_finite_coefficients(c):
    field = "complex" if isinstance(c, complex) else "real"
    with pytest.raises(ParseError, match="non-finite"):
        MultilinearForm.build(1, (2,), {(1,): c}, field=field)
    with pytest.raises(ParseError, match="non-finite"):
        HomogeneousPolynomial.build(
            1, 1, {MultiIndex.from_pairs([(1, 1)]): c}, field=field
        )


@pytest.mark.parametrize("literal", ["NaN", "Infinity", "-Infinity", "1e400"])
def test_parse_rejects_non_finite_numbers(literal):
    text = ('{"kind":"form","m":1,"field":"real","dims":[1],'
            '"coeffs":[{"idx":[1],"re":%s}]}' % literal)
    with pytest.raises(ParseError, match="non-finite"):
        load_form(io.StringIO(text))
