"""Seeded empirical lower-bound search and the random-form norm scaling
experiment.

The search climbs by single coefficient sign flips.  A flip changes no |c|,
so the restricted sum is computed once per restart, and it keeps the
support and the enumeration layout, so every flip of a sweep is scored in
the one streamed pass over the induced functionals of the current
coefficient tensor that ``exact_norm_real`` makes (``norms._sweep``), with
no rebuild and no re-enumeration per candidate.  Contract: on integer
forms each score is exactly the ``exact_norm_real`` value of the flipped
form, so the climb takes the same moves as one that rebuilds and re-norms
every candidate; on float forms scores agree to rounding, and near-ties
may resolve differently.  Every reported ratio uses ``exact_norm_real`` of
the returned form, so it is a mathematically valid lower bound for the
matching optimal constant; results are deterministic for a fixed seed
(restart seeds come from SeedSequence.spawn).
"""

from __future__ import annotations

import hashlib
import itertools
import json
import math
import time
from dataclasses import dataclass, field

import numpy as np

from .core import REAL, MultilinearForm
from .generators import a_family, ksz_random, r_family, s_family
from .norms import DEFAULT_BUDGET, _layout, _sweep, exact_norm_real
from .sums import (
    FULL,
    RatioReport,
    Restriction,
    restriction_sum,
    theorem_upper_bound,
)


@dataclass(frozen=True)
class SearchConfig:
    m: int
    dims: tuple[int, ...]
    p: float | None = None
    restriction: Restriction = FULL
    budget: int = 10_000
    restarts: int = 4
    seed: int = 0

    def __post_init__(self):
        if self.budget < self.restarts:
            raise ValueError(
                f"budget {self.budget} too small for {self.restarts} restarts"
            )
        if len(self.dims) != self.m:
            raise ValueError(f"expected {self.m} dims, got {len(self.dims)}")
        self.restriction.check(MultilinearForm, self.m)

    def to_json(self) -> dict:
        return {
            "m": self.m,
            "dims": list(self.dims),
            "p": self.p,
            "restriction": self.restriction.to_json(),
            "budget": self.budget,
            "restarts": self.restarts,
            "seed": self.seed,
        }


@dataclass(frozen=True)
class ExperimentTable:
    """Reproducible experiment rows; identical config reproduces identical
    values (the timestamp lives only in metadata)."""

    columns: tuple[str, ...]
    rows: tuple[tuple, ...]
    metadata: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "columns": list(self.columns),
            "rows": [list(r) for r in self.rows],
            "metadata": self.metadata,
        }

    def to_csv(self) -> str:
        lines = [",".join(self.columns)]
        for r in self.rows:
            lines.append(",".join(str(v) for v in r))
        return "\n".join(lines) + "\n"


def config_hash(obj) -> str:
    return hashlib.sha256(
        json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()
    ).hexdigest()[:16]


def form_hash(T: MultilinearForm) -> str:
    from .core import dumps

    return hashlib.sha256(dumps(T).encode()).hexdigest()[:16]


def maximize_ratio(
    cfg: SearchConfig, initial: MultilinearForm | None = None
) -> tuple[MultilinearForm, RatioReport]:
    """Hill climbing over dense +-1 coefficient tensors: steepest single
    coefficient sign flip on the sum/norm ratio, random restarts, ties keep
    the incumbent.  The budget counts ratio evaluations: each restart's start
    and each scored flip.  A sweep scores the flips in coefficient order; the
    move is the first flip with the strictly largest ratio, taken only when
    it beats the incumbent.  The report's norm, witness, ``work`` and ratio
    come from ``exact_norm_real`` of the returned form."""
    if initial is not None and (initial.m, initial.dims) != (cfg.m, cfg.dims):
        raise ValueError(
            f"initial form has m={initial.m}, dims={initial.dims}; "
            f"the search has m={cfg.m}, dims={cfg.dims}"
        )
    p = cfg.p if cfg.p is not None else cfg.restriction.default_exponent(cfg.m)
    positions = list(itertools.product(*(range(1, d + 1) for d in cfg.dims)))
    children = np.random.SeedSequence(cfg.seed).spawn(cfg.restarts)
    evals = 0
    best_form = None
    best_ratio = -1.0
    best_norm = best_sum = None

    for r, child in enumerate(children):
        if evals >= cfg.budget:
            break
        if r == 0 and initial is not None:
            form = initial
        else:
            rng = np.random.default_rng(child)
            signs = rng.integers(0, 2, size=len(positions)) * 2 - 1
            # +-1 integers on valid tuples: nothing for ``build`` to check
            form = MultilinearForm(
                m=cfg.m, dims=cfg.dims, field=REAL,
                coeffs=dict(zip(positions, signs.tolist())),
            )
        s = restriction_sum(form, cfg.restriction, p)
        layout = _layout(form, DEFAULT_BUDGET)
        if layout is None:
            raise ValueError("the zero form has no sign flips to climb")
        evals += 1
        coeffs = dict(form.coeffs)
        keys = list(coeffs)
        while evals < cfg.budget:
            n = min(len(keys), cfg.budget - evals)
            _, value, scores = _sweep(layout, n)
            ratio = s / value
            ratios = s / scores.astype(float)
            evals += n
            i = int(np.argmax(ratios))
            if not ratios[i] > ratio:
                break
            layout.C[tuple(axis[i] for axis in layout.index)] *= -1
            coeffs[keys[i]] = -coeffs[keys[i]]
        form = MultilinearForm(
            m=form.m, dims=form.dims, field=form.field, coeffs=coeffs
        )
        norm = exact_norm_real(form)
        ratio = s / norm.value
        if ratio > best_ratio:
            best_form, best_ratio, best_norm, best_sum = form, ratio, norm, s

    report = RatioReport(
        p=p, sum=best_sum, norm=best_norm, ratio=best_ratio,
        restriction=cfg.restriction,
    )
    return best_form, report


def _family_start(m: int, M: int) -> MultilinearForm | None:
    if M >= 3 and m >= 2:
        return s_family(m)
    if M == 2:
        return r_family(m) if m % 2 == 0 else a_family(m)
    return None


def constant_table(
    ms,
    Ms,
    budget: int = 400,
    restarts: int = 2,
    seed: int = 0,
) -> ExperimentTable:
    """Empirical lower bounds for the card-restricted constants, per (m, M),
    alongside the proved upper bound.  Each cell's restart 0 is seeded with
    the matching named family, so known witnesses are never missed."""
    rows = []
    for m in ms:
        for M in Ms:
            if not 1 <= M <= m:
                continue
            start = _family_start(m, M)
            dims = start.dims if start is not None else (2,) * m
            cfg = SearchConfig(
                m=m,
                dims=dims,
                restriction=Restriction("card", M=M),
                budget=budget,
                restarts=restarts,
                seed=seed,
            )
            _, report = maximize_ratio(cfg, initial=start)
            rows.append((m, M, report.ratio, theorem_upper_bound(m, M)))
    meta = {
        "seed": seed,
        "config_hash": config_hash(
            {"ms": list(ms), "Ms": list(Ms), "budget": budget,
             "restarts": restarts, "seed": seed}
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "note": "empirical lower bounds only; optimality is open",
    }
    return ExperimentTable(
        ("m", "M", "best_ratio_lower_bound", "upper_bound"), tuple(rows), meta
    )


def ksz_scaling_experiment(m: int, ns, samples: int, seed: int) -> ExperimentTable:
    """Draws random +-1 forms at each size n, computes exact norms, and
    reports the median and min of ||T|| / n^((m+1)/2) plus the least-squares
    slope of log2(median ||T||) against log2 n (theory: (m+1)/2)."""
    ns = [int(n) for n in ns]
    if not ns or samples < 1:
        raise ValueError("need at least one size and one sample")
    ss = np.random.SeedSequence(seed)
    children = ss.spawn(len(ns) * samples)
    rows = []
    medians = []
    for a, n in enumerate(ns):
        norms = []
        for b in range(samples):
            child = children[a * samples + b]
            form_seed = int(child.generate_state(1)[0])
            T = ksz_random(m, n, seed=form_seed)
            norms.append(exact_norm_real(T).value)
        scaled = [v / n ** ((m + 1) / 2.0) for v in norms]
        med = float(np.median(norms))
        medians.append(med)
        rows.append(
            (n, samples, med, float(np.median(scaled)), float(np.min(scaled)))
        )
    if len(ns) >= 2:
        slope = float(
            np.polyfit([math.log2(n) for n in ns],
                       [math.log2(v) for v in medians], 1)[0]
        )
    else:
        slope = float("nan")
    meta = {
        "seed": seed,
        "config_hash": config_hash(
            {"m": m, "ns": ns, "samples": samples, "seed": seed}
        ),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        "slope": slope,
        "theory_slope": (m + 1) / 2.0,
    }
    return ExperimentTable(
        ("n", "samples", "median_norm", "median_scaled", "min_scaled"),
        tuple(rows),
        meta,
    )
