import io
import itertools
from contextlib import redirect_stderr, redirect_stdout

import pytest

from bhforms import (
    BudgetExceededError,
    MultilinearForm,
    a_family,
    distinct_count,
    dumps,
    exact_norm_real,
    ksz_random,
    littlewood_s2,
    lp_sum,
    r_family,
    random_sparse,
    s_family,
)


def expand_displayed_s3():
    """Independent oracle: expand (z1+z2)*S2(x,y) + (z1-z2)*S2(x->x+2, y)
    term by term, straight from the displayed formula."""
    s2 = {(1, 1): 1, (1, 2): 1, (2, 1): 1, (2, 2): -1}
    out = {}
    for (i, j), c in s2.items():
        out[(i, j, 1)] = out.get((i, j, 1), 0) + c
        out[(i, j, 2)] = out.get((i, j, 2), 0) + c
        out[(i + 2, j, 1)] = out.get((i + 2, j, 1), 0) + c
        out[(i + 2, j, 2)] = out.get((i + 2, j, 2), 0) - c
    return out


def expand_displayed_s4():
    s3 = expand_displayed_s3()
    out = {}
    for (i, j, k), c in s3.items():
        out[(i, j, k, 1)] = c
        out[(i, j, k, 2)] = c
        out[(i + 4, j, k, 1)] = c
        out[(i + 4, j, k, 2)] = -c
    return out


def test_littlewood_s2_coefficients():
    S2 = littlewood_s2()
    assert S2.coefficient((2, 2)) == -1
    assert len(S2.coeffs) == 4
    assert S2.dims == (2, 2)
    assert exact_norm_real(S2).value == 2


def test_s3_matches_displayed_expansion():
    S3 = s_family(3)
    assert S3.coeffs == expand_displayed_s3()
    assert S3.coefficient((3, 1, 1)) == 1


def test_s4_matches_displayed_expansion():
    assert s_family(4).coeffs == expand_displayed_s4()


def test_s_family_counts_and_signs():
    for m in range(2, 7):
        S = s_family(m)
        assert len(S.coeffs) == 2 ** (2 * (m - 1))
        assert all(c in (1, -1) for c in S.coeffs.values())
        assert S.dims == (2 ** (m - 1),) + (2,) * (m - 1)
        assert max(distinct_count(t) for t in S.coeffs) <= 3


def test_s_family_norms():
    for m in (2, 3, 4, 5):
        assert exact_norm_real(s_family(m)).value == 2 ** (m - 1)


def test_r_family():
    assert r_family(2) == littlewood_s2()
    for m in (2, 4, 6):
        R = r_family(m)
        assert len(R.coeffs) == 4 ** (m // 2)
        assert exact_norm_real(R).value == 2 ** (m // 2)
        assert max(distinct_count(t) for t in R.coeffs) <= 2
    with pytest.raises(ValueError):
        r_family(3)


def test_a_family():
    for m in (3, 5):
        A = a_family(m)
        assert len(A.coeffs) == 4 ** ((m - 1) // 2)
        assert exact_norm_real(A).value == 2 ** ((m - 1) // 2)
        assert all(t[-1] == 1 for t in A.coeffs)
    with pytest.raises(ValueError):
        a_family(4)


def test_ksz_random_shape():
    T = ksz_random(3, 2, seed=42)
    assert len(T.coeffs) == 8
    assert all(c in (1, -1) for c in T.coeffs.values())
    assert set(T.coeffs) == set(itertools.product((1, 2), repeat=3))


def test_ksz_determinism_byte_identical():
    a = dumps(ksz_random(2, 5, seed=99))
    b = dumps(ksz_random(2, 5, seed=99))
    assert a == b
    assert dumps(ksz_random(2, 5, seed=100)) != a


def test_ksz_budget():
    with pytest.raises(BudgetExceededError):
        ksz_random(4, 10, seed=0, budget=1000)


def test_random_sparse_dense_pm1():
    T = random_sparse(2, (2, 2), 1.0, coeff_dist="pm1", seed=0)
    assert len(T.coeffs) == 4
    assert all(c in (1, -1) for c in T.coeffs.values())


def test_random_sparse_reproducible():
    a = random_sparse(3, (2, 3, 2), 0.6, coeff_dist="gaussian", seed=7)
    b = random_sparse(3, (2, 3, 2), 0.6, coeff_dist="gaussian", seed=7)
    assert a == b


def test_random_sparse_l2_below_norm():
    T = random_sparse(2, (3, 3), 0.8, coeff_dist="uniform", seed=13)
    assert lp_sum(T.coeffs.values(), 2) <= exact_norm_real(T).value * (1 + 1e-9)


def test_random_sparse_validation():
    with pytest.raises(ValueError):
        random_sparse(2, (2, 2), 0.0, seed=1)
    with pytest.raises(ValueError):
        random_sparse(2, (2, 2), 0.5, coeff_dist="cauchy", seed=1)


def test_family_registry():
    from bhforms import generators

    assert list(generators.FAMILIES) == ["s2", "s", "r", "a"]
    assert generators.FAMILIES["s2"](5) == littlewood_s2()
    assert generators.FAMILIES["s"](4) == s_family(4)
    assert generators.FAMILIES["r"](4) == r_family(4)
    assert generators.FAMILIES["a"](5) == a_family(5)


def test_family_registry_sees_rebound_constructors(monkeypatch):
    """The registry calls whatever the module attribute holds when it is
    used, so a wrapper bound there (as a tracer binds one) runs."""
    from bhforms import cli, generators

    calls = []
    real = generators.s_family
    monkeypatch.setattr(generators, "s_family", lambda m: calls.append(m) or real(m))
    assert generators.FAMILIES["s"](3) == real(3)
    assert cli.run(["ratio", "--family", "s", "--m", "4"]) == 0
    assert calls == [3, 4]


def _same_as_build(T):
    """T equals the validating constructor's form of its own fields, with
    the coefficients in the same order."""
    B = MultilinearForm.build(T.m, T.dims, T.coeffs, field=T.field)
    assert T == B and list(T.coeffs.items()) == list(B.coeffs.items())
    assert all(type(d) is int for d in T.dims)


def test_generators_equal_their_validated_build():
    """The generators construct their forms without build; each is exactly
    what build makes of the same fields."""
    from bhforms import generators

    for name, family in generators.FAMILIES.items():
        for m in range(2, 7):
            try:
                T = family(m)
            except ValueError:  # r needs even m, a odd m
                continue
            _same_as_build(T)
    for m, n, seed in ((1, 5, 0), (2, 12, 3), (3, 4, 7), (4, 5, 11)):
        _same_as_build(ksz_random(m, n, seed=seed))
    for dist in ("pm1", "uniform", "gaussian"):
        for seed in range(4):
            _same_as_build(random_sparse(3, (2, 3, 2), 0.6, coeff_dist=dist, seed=seed))


def test_random_sparse_refuses_a_bad_shape():
    for m, dims in ((3, (2, 2)), (0, ()), (2, (2, 0))):
        with pytest.raises(ValueError):
            random_sparse(m, dims, 0.5, seed=1)
    from bhforms.cli import run

    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = run(["gen", "--family", "random", "--m", "3", "--dims", "2,2",
                    "--seed", "1"])
    assert (code, out.getvalue()) == (2, "")
    assert "expected 3 slot dimensions, got 2" in err.getvalue()
