import itertools
import json
import math
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from bhforms import (
    MultilinearForm,
    Restriction,
    SearchConfig,
    block_sum,
    constant_table,
    exact_norm_real,
    ksz_scaling_experiment,
    maximize_ratio,
    r_family,
    random_sparse,
    ratio_report,
    restriction_sum,
    s_family,
    theorem_upper_bound,
)
from bhforms.norms import DEFAULT_BUDGET
from bhforms.search import form_hash

BENCH = Path(__file__).resolve().parent.parent / "bench"


def test_search_recovers_littlewood_witness():
    cfg = SearchConfig(m=2, dims=(2, 2), p=4 / 3, budget=10_000, restarts=4, seed=7)
    best, report = maximize_ratio(cfg)
    assert report.norm.exact
    assert report.ratio >= math.sqrt(2) - 1e-9


def test_search_card_restricted_trilinear():
    cfg = SearchConfig(
        m=3, dims=(4, 2, 2), p=1.5, restriction=Restriction("card", M=3),
        budget=20_000, restarts=6, seed=3,
    )
    _, report = maximize_ratio(cfg)
    assert report.ratio >= 2 ** (2 / 3) - 1e-9


def test_budget_one_returns_initial_ratio():
    cfg = SearchConfig(m=2, dims=(2, 2), budget=1, restarts=1, seed=5)
    best, report = maximize_ratio(cfg)
    # no neighbor was ever evaluated: the report describes the seeded start
    from bhforms.sums import lp_sum
    from bhforms.norms import exact_norm_real

    expected = lp_sum(best.coeffs.values(), 4 / 3) / exact_norm_real(best).value
    assert report.ratio == pytest.approx(expected, rel=1e-12)


def test_budget_below_restarts_rejected():
    with pytest.raises(ValueError):
        SearchConfig(m=2, dims=(2, 2), budget=2, restarts=3)


def test_search_deterministic_hash():
    cfg = SearchConfig(m=2, dims=(2, 2), budget=500, restarts=3, seed=11)
    a, _ = maximize_ratio(cfg)
    b, _ = maximize_ratio(cfg)
    assert form_hash(a) == form_hash(b)


def test_initial_start_never_hurts():
    # ascent from the named family keeps at least the family's ratio
    cfg = SearchConfig(
        m=4, dims=(8, 2, 2, 2), restriction=Restriction("card", M=3),
        budget=70, restarts=1, seed=0,
    )
    _, report = maximize_ratio(cfg, initial=s_family(4))
    assert report.ratio >= 2 ** (3 / 4) - 1e-9


def test_constant_table():
    table = constant_table([2, 3], [2, 3], budget=80, restarts=1, seed=0)
    rows = {(r[0], r[1]): r for r in table.rows}
    assert set(rows) == {(2, 2), (3, 2), (3, 3)}
    assert rows[(3, 3)][2] >= 2 ** (2 / 3) - 1e-9
    for (m, M), row in rows.items():
        assert row[2] <= theorem_upper_bound(m, M) * (1 + 1e-12)
        assert row[3] == pytest.approx(theorem_upper_bound(m, M))
    empty = constant_table([], [2], seed=0)
    assert empty.rows == ()


def test_ksz_scaling_m1_is_linear():
    table = ksz_scaling_experiment(1, (4, 8, 16), samples=5, seed=1)
    for row in table.rows:
        n, _, median_norm, med_scaled, min_scaled = row
        assert median_norm == n  # l1 norm of n unit signs
        assert med_scaled == pytest.approx(1.0)
        assert min_scaled <= med_scaled
    assert table.metadata["slope"] == pytest.approx(1.0, abs=1e-9)


def test_ksz_scaling_reproducible():
    a = ksz_scaling_experiment(2, (4, 8), samples=10, seed=33)
    b = ksz_scaling_experiment(2, (4, 8), samples=10, seed=33)
    assert a.rows == b.rows
    assert a.metadata["slope"] == b.metadata["slope"]
    assert a.metadata["config_hash"] == b.metadata["config_hash"]


def test_ksz_scaling_min_below_median():
    table = ksz_scaling_experiment(2, (4, 8), samples=10, seed=2)
    for row in table.rows:
        assert row[4] <= row[3] + 1e-12


# --- the climb against a naive reference ----------------------------------------


def _naive_climb(cfg, initial=None):
    """The climb written out plainly: every candidate flip is rebuilt as a
    validated form and normed by exact_norm_real."""
    p = cfg.p if cfg.p is not None else cfg.restriction.default_exponent(cfg.m)

    def ratio(T):
        s = restriction_sum(T, cfg.restriction, p)
        norm = exact_norm_real(T, budget=DEFAULT_BUDGET)
        return s / norm.value, norm, s

    positions = list(itertools.product(*(range(1, d + 1) for d in cfg.dims)))
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    evals = 0
    best = (-1.0, None, None, None)
    for r, child in enumerate(children):
        if evals >= cfg.budget:
            break
        if r == 0 and initial is not None:
            form = initial
        else:
            rng = np.random.default_rng(child)
            signs = rng.integers(0, 2, size=len(positions)) * 2 - 1
            form = MultilinearForm.build(
                cfg.m, cfg.dims, {t: int(s) for t, s in zip(positions, signs)}
            )
        cur, norm, s = ratio(form)
        evals += 1
        while evals < cfg.budget:
            move = None
            move_ratio = cur
            for t in form.coeffs:
                if evals >= cfg.budget:
                    break
                flipped = dict(form.coeffs)
                flipped[t] = -flipped[t]
                cand = MultilinearForm.build(cfg.m, cfg.dims, flipped)
                cr, cn, cs = ratio(cand)
                evals += 1
                if cr > move_ratio:
                    move, move_ratio = (cand, cn, cs), cr
            if move is None:
                break
            form, norm, s = move
            cur = move_ratio
        if cur > best[0]:
            best = (cur, form, norm, s)
    return best


FAMILY_START = {(2, 2): r_family(2), (4, 2, 2): s_family(3), (3, 3, 3): None,
                (2, 2, 2, 2): r_family(4)}


@pytest.mark.parametrize("dims", list(FAMILY_START))
@pytest.mark.parametrize("M", [None, 1, 2])
@pytest.mark.parametrize("budget", [1, 2, 7, 45, 300])
def test_climb_matches_naive_reference(dims, M, budget):
    restriction = Restriction("card", M=M) if M else Restriction("full")
    starts = [None]
    if FAMILY_START[dims] is not None:
        starts.append(FAMILY_START[dims])
    for initial in starts:
        for seed in (0, 4):
            cfg = SearchConfig(m=len(dims), dims=dims, restriction=restriction,
                               budget=budget, restarts=min(budget, 3),
                               seed=seed)
            ratio, form, norm, s = _naive_climb(cfg, initial)
            got, report = maximize_ratio(cfg, initial)
            assert form_hash(got) == form_hash(form)
            assert list(got.coeffs) == list(form.coeffs)
            assert (report.ratio, report.norm, report.sum) == (ratio, norm, s)


def test_float_start_reports_the_returned_form_exactly():
    initial = random_sparse(3, (3, 3, 3), 1.0, coeff_dist="gaussian", seed=8)
    cfg = SearchConfig(m=3, dims=(3, 3, 3), restriction=Restriction("card", M=2),
                       budget=400, restarts=2, seed=1)
    best, report = maximize_ratio(cfg, initial)
    assert report.norm == exact_norm_real(best)
    assert report.sum == restriction_sum(best, cfg.restriction, report.p)
    assert report.ratio == report.sum / report.norm.value
    assert report.ratio >= ratio_report(initial, restriction=cfg.restriction).ratio


@pytest.mark.parametrize("dims, budget", [((6, 6, 6, 6), 200), ((20, 20), 3)])
def test_search_memory_stays_bounded(dims, budget):
    """(20, 20) enumerates 2^19 patterns of 20 induced coordinates: holding
    them all would take 80 MB."""
    cfg = SearchConfig(m=len(dims), dims=dims, budget=budget, restarts=1, seed=0)
    tracemalloc.start()
    try:
        maximize_ratio(cfg)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 * 2**20


def test_zero_initial_form_rejected():
    cfg = SearchConfig(m=2, dims=(2, 2), budget=10, restarts=1)
    with pytest.raises(ValueError, match="zero form"):
        maximize_ratio(cfg, initial=MultilinearForm.build(2, (2, 2), {}))


def test_initial_must_match_the_config():
    cfg = SearchConfig(m=2, dims=(2, 2), budget=10, restarts=1)
    with pytest.raises(ValueError, match="dims"):
        maximize_ratio(cfg, initial=s_family(3))
    with pytest.raises(ValueError, match="dims"):
        maximize_ratio(cfg, initial=MultilinearForm.build(2, (2, 3), {(1, 1): 1}))


def test_block_search_reports_the_block_sum():
    restriction = Restriction("block", partition=(2,))
    cfg = SearchConfig(m=2, dims=(2, 2), restriction=restriction, budget=50,
                       restarts=2, seed=0)
    best, report = maximize_ratio(cfg)
    assert report.p == 1.0  # the default exponent of one block
    assert report.sum == block_sum(best, (2,))
    assert report.ratio == ratio_report(best, restriction=restriction).ratio


def test_omega_search_rejected():
    with pytest.raises(ValueError, match="omega"):
        SearchConfig(m=2, dims=(2, 2), restriction=Restriction("omega", M=1))


def test_search_reference_table_replays():
    """Every entry of the benchmark's search reference table, recomputed."""
    sys.path.insert(0, str(BENCH))
    try:
        from workloads import SearchClimb
    finally:
        sys.path.remove(str(BENCH))
    table = json.loads((BENCH / "search_reference.json").read_text())
    seen = 0
    for size in ("tiny", "full"):
        for name, cfg, initial in SearchClimb.configs(size):
            for seed in range(SearchClimb.POOL):
                ref = table[SearchClimb.reference_key(size, name, seed)]
                form, report = maximize_ratio(replace(cfg, seed=seed), initial)
                assert form_hash(form) == ref["form_hash"]
                assert report.ratio == ref["ratio"]
                seen += 1
    assert seen == len(table)
