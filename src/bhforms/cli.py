"""Command-line surface: generate forms, compute norms, sums, and ratios,
apply the structural constructions, run searches and experiments, and verify
the full suite of reproducible quantities.

Exit codes: 0 success, 1 verification failure, 2 usage error, 3 budget refusal.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import constructions, core, generators, norms, search, sums, verify


def _print_json(obj):
    print(json.dumps(obj, indent=2, sort_keys=False))


def _int_list(value: str) -> list[int]:
    return [int(v) for v in value.split(",")]


def _restriction(args) -> sums.Restriction:
    given = [
        (kind, val)
        for kind, val in (("card", args.card), ("omega", args.omega), ("block", args.block))
        if val is not None
    ]
    if len(given) > 1:
        raise UsageError("at most one of --card/--omega/--block may be given")
    if not given:
        return sums.FULL
    kind, val = given[0]
    if kind == "block":
        return sums.Restriction("block", partition=tuple(_int_list(val)))
    return sums.Restriction(kind, M=val)


class UsageError(Exception):
    pass


def _gen(args) -> int:
    fam = args.family
    needs_seed = fam in ("ksz", "random")
    if needs_seed and args.seed is None:
        raise UsageError(f"--seed is required for family {fam!r}")
    if fam in generators.FAMILIES:
        T = generators.FAMILIES[fam](args.m)
    elif fam == "ksz":
        if args.n is None:
            raise UsageError("--n is required for family 'ksz'")
        T = generators.ksz_random(args.m, args.n, seed=args.seed, budget=args.budget)
    else:
        if args.dims is None:
            raise UsageError("--dims is required for family 'random'")
        T = generators.random_sparse(
            args.m, tuple(_int_list(args.dims)), args.density,
            coeff_dist=args.dist, seed=args.seed,
        )
    core.save_form(T, args.out or sys.stdout)
    return 0


def _norm(args) -> int:
    obj = core.load_any(args.infile)
    if args.method == "ascent" and args.seed is None:
        raise UsageError("--seed is required for --method ascent")
    if isinstance(obj, core.MultilinearForm):
        if args.method == "exact":
            result = norms.exact_norm_real(obj, budget=args.budget)
        elif args.method == "brute":
            value = norms.brute_force_norm_real(obj, budget=args.budget)
            _print_json({"value": value, "exact": True, "method": "brute"})
            return 0
        else:
            result = norms.ascent_lower_bound(
                obj, seed=args.seed, restarts=args.restarts
            )
    elif args.method == "brute":
        raise UsageError("--method brute applies to forms only")
    else:
        seed = args.seed if args.seed is not None else 0
        result = norms.poly_lower_bound(obj, seed, args.restarts, budget=args.budget)
    _print_json(result.to_json())
    return 0


def _sum(args) -> int:
    obj = core.load_any(args.infile)
    restriction = _restriction(args)
    p = restriction.default_exponent(obj.m) if args.p == "bh" else float(args.p)
    value = sums.restriction_sum(obj, restriction, p)
    _print_json({"p": p, "sum": value, "restriction": restriction.to_json()})
    return 0


def _load_or_generate(args):
    if args.infile:
        return core.load_any(args.infile)
    if args.family is None:
        raise UsageError("either --in or --family is required")
    return generators.FAMILIES[args.family](args.m)


def _ratio(args) -> int:
    obj = _load_or_generate(args)
    restriction = _restriction(args)
    p = None if args.p == "bh" else float(args.p)
    report = sums.ratio_report(
        obj,
        p=p,
        restriction=restriction,
        norm_method=args.norm,
        seed=args.seed if args.seed is not None else 0,
        budget=args.budget,
    )
    _print_json(report.to_json())
    return 0


def _construct(args) -> int:
    if args.action == "lift":
        P = constructions.lift_polynomial(core.load_poly(args.infile), args.m)
    else:
        T1, emb = constructions.disjointify(core.load_form(args.infile))
        P = constructions.diagonal_polynomial(T1)
    core.save_poly(P, args.out or sys.stdout)
    if args.action == "symmetrize" and args.emit_embedding:
        with open(args.emit_embedding, "w", encoding="utf-8") as fh:
            json.dump(emb.to_json(), fh)
            fh.write("\n")
    return 0


def _search(args) -> int:
    restriction = (
        sums.Restriction("card", M=args.M) if args.M is not None else sums.FULL
    )
    cfg = search.SearchConfig(
        m=args.m,
        dims=tuple(_int_list(args.dims)),
        p=None if args.p == "bh" else float(args.p),
        restriction=restriction,
        budget=args.budget,
        restarts=args.restarts,
        seed=args.seed,
    )
    best, report = search.maximize_ratio(cfg)
    out = {
        "config": cfg.to_json(),
        "best_form": best.to_json(),
        "best_form_hash": search.form_hash(best),
        "report": report.to_json(),
        "note": "empirical lower bound only; optimal constants are open",
    }
    _print_json(out)
    return 0


def _ksz_scaling(args) -> int:
    table = search.ksz_scaling_experiment(
        args.m, _int_list(args.ns), samples=args.samples, seed=args.seed
    )
    if args.csv:
        sys.stdout.write(table.to_csv())
    else:
        _print_json(table.to_json())
    return 0


def _verify(args) -> int:
    outcomes = verify.run_suite(args.suite)
    if args.csv:
        print("name,expected,computed,tolerance,passed")
        for o in outcomes:
            print(f"{o.name},{o.expected},{o.computed},{o.tolerance},{o.passed}")
    else:
        _print_json(
            {
                "suite": args.suite,
                "checks": [o.to_json() for o in outcomes],
                "passed": sum(o.passed for o in outcomes),
                "failed": sum(not o.passed for o in outcomes),
            }
        )
    return 0 if all(o.passed for o in outcomes) else 1


def _restriction_args(parser):
    parser.add_argument("--card", type=int, metavar="M",
                        help="keep the tuples with at most M distinct "
                        "indices (forms; 1 <= M <= m)")
    parser.add_argument("--omega", type=int, metavar="M",
                        help="keep the monomials in at most M variables "
                        "(polynomials; 1 <= M <= m)")
    parser.add_argument("--block", type=str, metavar="N1,...,NM",
                        help="keep the tuples constant on each block of this "
                        "partition of m (forms)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bhforms",
        description="Construct, evaluate, and certify coefficient-sum "
        "inequalities for multilinear forms and homogeneous polynomials.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    g = sub.add_parser("gen", help="generate a named or random form")
    g.add_argument("--family", required=True,
                   choices=[*generators.FAMILIES, "ksz", "random"])
    g.add_argument("--m", type=int, default=2)
    g.add_argument("--n", type=int)
    g.add_argument("--dims", type=str)
    g.add_argument("--density", type=float, default=1.0)
    g.add_argument("--dist", choices=["pm1", "uniform", "gaussian"], default="pm1")
    g.add_argument("--seed", type=int)
    g.add_argument("--budget", type=int, default=generators.KSZ_BUDGET)
    g.add_argument("--out", type=str)
    g.set_defaults(func=_gen)

    n = sub.add_parser("norm", help="norm of a form or polynomial document")
    n.add_argument("--in", dest="infile", required=True)
    n.add_argument("--method", choices=["exact", "ascent", "brute"], default="exact")
    n.add_argument("--seed", type=int)
    n.add_argument("--restarts", type=int, default=8)
    n.add_argument("--budget", type=int, default=norms.DEFAULT_BUDGET)
    n.set_defaults(func=_norm)

    s = sub.add_parser("sum", help="coefficient l_p sum")
    s.add_argument("--in", dest="infile", required=True)
    s.add_argument("--p", default="bh", help="numeric exponent or 'bh'")
    _restriction_args(s)
    s.set_defaults(func=_sum)

    r = sub.add_parser("ratio", help="sum / norm ratio report")
    r.add_argument("--in", dest="infile")
    r.add_argument("--family", choices=list(generators.FAMILIES))
    r.add_argument("--m", type=int, default=2)
    r.add_argument("--p", default="bh")
    _restriction_args(r)
    r.add_argument("--norm", choices=["exact", "ascent"], default="exact")
    r.add_argument("--seed", type=int)
    r.add_argument("--budget", type=int, default=norms.DEFAULT_BUDGET)
    r.set_defaults(func=_ratio)

    c = sub.add_parser("construct", help="structural transforms")
    c.add_argument("action", choices=["symmetrize", "lift"])
    c.add_argument("--in", dest="infile", required=True)
    c.add_argument("--out", type=str)
    c.add_argument("--emit-embedding", dest="emit_embedding", type=str)
    c.add_argument("--m", type=int, help="target degree for lift")
    c.set_defaults(func=_construct)

    se = sub.add_parser("search", help="hill-climb for ratio lower bounds")
    se.add_argument("--m", type=int, required=True)
    se.add_argument("--dims", type=str, required=True)
    se.add_argument("--M", type=int)
    se.add_argument("--p", default="bh")
    se.add_argument("--budget", type=int, default=10_000)
    se.add_argument("--restarts", type=int, default=4)
    se.add_argument("--seed", type=int, required=True)
    se.set_defaults(func=_search)

    k = sub.add_parser("ksz-scaling", help="random form norm scaling experiment")
    k.add_argument("--m", type=int, required=True)
    k.add_argument("--ns", type=str, required=True)
    k.add_argument("--samples", type=int, default=50)
    k.add_argument("--seed", type=int, required=True)
    k.add_argument("--csv", action="store_true")
    k.set_defaults(func=_ksz_scaling)

    v = sub.add_parser("verify", help="run the verification suite")
    v.add_argument("--suite", default="paper", choices=["paper"])
    v.add_argument("--csv", action="store_true")
    v.add_argument("--threads", type=int, default=1,
                   help="accepted for interface compatibility; all "
                   "computations are deterministic regardless")
    v.add_argument("--deterministic", action="store_true")
    v.set_defaults(func=_verify)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    # built on the first run, not at import; parse_args keeps no state
    # between calls, so one parser serves every run of the process
    return build_parser()


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if exc.code is not None else 2
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except core.BudgetExceededError as exc:
        print(f"budget refusal: {exc}", file=sys.stderr)
        return 3
    except (core.BHError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
