import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

from bhforms import cli
from bhforms.cli import run


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_gen_and_norm_round_trip(tmp_path):
    path = str(tmp_path / "s4.json")
    code, _, _ = invoke(["gen", "--family", "s", "--m", "4", "--out", path])
    assert code == 0
    code, out, _ = invoke(["norm", "--in", path])
    assert code == 0
    result = json.loads(out)
    assert result["value"] == 8
    assert result["exact"] is True


def test_gen_to_stdout_is_json():
    code, out, _ = invoke(["gen", "--family", "s2"])
    assert code == 0
    doc = json.loads(out)
    assert doc["kind"] == "form"
    assert len(doc["coeffs"]) == 4


def test_gen_ksz_deterministic():
    _, a, _ = invoke(["gen", "--family", "ksz", "--m", "2", "--n", "4", "--seed", "42"])
    _, b, _ = invoke(["gen", "--family", "ksz", "--m", "2", "--n", "4", "--seed", "42"])
    assert a == b


def test_gen_random_requires_seed():
    code, _, err = invoke(["gen", "--family", "ksz", "--m", "2", "--n", "4"])
    assert code == 2
    assert "--seed" in err


def test_ratio_family():
    code, out, _ = invoke(["ratio", "--family", "s", "--m", "3", "--p", "bh"])
    assert code == 0
    report = json.loads(out)
    assert report["ratio"] == pytest.approx(2 ** (2 / 3), rel=1e-9)
    assert report["exact_norm"] is True


def test_sum_with_block(tmp_path):
    path = str(tmp_path / "s3.json")
    invoke(["gen", "--family", "s", "--m", "3", "--out", path])
    code, out, _ = invoke(["sum", "--in", path, "--block", "2,1", "--p", "1.5"])
    assert code == 0
    payload = json.loads(out)
    assert payload["restriction"] == {"kind": "block", "partition": [2, 1]}
    assert payload["sum"] == pytest.approx(4 ** (2 / 3), rel=1e-9)
    # card and block select coefficients of forms, omega of polynomials
    code, out, err = invoke(["sum", "--in", path, "--omega", "2"])
    assert (code, out) == (2, "")
    assert "polynomials only" in err


def test_construct_symmetrize_and_lift(tmp_path):
    t_path = str(tmp_path / "t.json")
    p_path = str(tmp_path / "p.json")
    e_path = str(tmp_path / "emb.json")
    invoke(["gen", "--family", "s2", "--out", t_path])
    code, _, _ = invoke(
        ["construct", "symmetrize", "--in", t_path, "--out", p_path,
         "--emit-embedding", e_path]
    )
    assert code == 0
    doc = json.loads(Path(p_path).read_text())
    assert doc["kind"] == "poly"
    assert len(doc["coeffs"]) == 4
    emb = json.loads(Path(e_path).read_text())
    assert emb["m"] == 2
    code, out, _ = invoke(["construct", "lift", "--in", p_path, "--m", "4"])
    assert code == 0
    lifted = json.loads(out)
    assert lifted["m"] == 4


def test_search_cli():
    code, out, _ = invoke(
        ["search", "--m", "2", "--dims", "2,2", "--budget", "2000",
         "--seed", "7", "--restarts", "3"]
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["report"]["ratio"] >= math.sqrt(2) - 1e-9
    assert "empirical" in payload["note"]


def test_ksz_scaling_csv():
    code, out, _ = invoke(
        ["ksz-scaling", "--m", "1", "--ns", "2,4", "--samples", "3",
         "--seed", "1", "--csv"]
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "n,samples,median_norm,median_scaled,min_scaled"
    assert len(lines) == 3


def test_usage_errors_exit_2():
    code, _, _ = invoke(["norm"])  # missing --in
    assert code == 2
    code, _, _ = invoke(["bogus-command"])
    assert code == 2
    code, _, _ = invoke(["norm", "--in", "/nonexistent.json"])
    assert code == 2


def test_unknown_flag_rejected():
    code, _, _ = invoke(["gen", "--family", "s2", "--frobnicate"])
    assert code == 2


def test_budget_refusal_exit_3(tmp_path):
    path = str(tmp_path / "k.json")
    invoke(["gen", "--family", "ksz", "--m", "2", "--n", "6", "--seed", "1",
            "--out", path])
    for command in ("norm", "ratio"):
        for budget in ("8", "0"):
            code, _, err = invoke([command, "--in", path, "--budget", budget])
            assert code == 3
            assert "budget" in err.lower()


def test_malformed_document_exit_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"kind":"form","m":1,"field":"real","dims":[1],'
                    '"coeffs":[{"idx":[0],"re":1}]}')
    code, _, err = invoke(["norm", "--in", str(path)])
    assert code == 2
    assert "1-based" in err


def test_norm_of_huge_integer_coefficients_is_exact(tmp_path):
    from bhforms import MultilinearForm, brute_force_norm_real, save_form

    T = MultilinearForm.build(2, (2, 2), {(1, 1): 2**70, (1, 2): -3, (2, 2): 2**64})
    path = tmp_path / "huge.json"
    save_form(T, path)
    code, out, _ = invoke(["norm", "--in", str(path)])
    assert code == 0
    result = json.loads(out)
    assert result["exact"] is True
    assert result["value"] == brute_force_norm_real(T)


@pytest.mark.parametrize("literal", ["NaN", "Infinity"])
def test_non_finite_coefficient_exit_2(tmp_path, literal):
    path = tmp_path / "nan.json"
    path.write_text('{"kind":"form","m":1,"field":"real","dims":[1],'
                    '"coeffs":[{"idx":[1],"re":%s}]}' % literal)
    code, out, err = invoke(["norm", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert "non-finite" in err


WIDE_FORMS = [
    # an int beyond the float range next to a float
    '{"kind":"form","m":2,"field":"real","dims":[2,2],"coeffs":['
    '{"idx":[1,1],"re":1%s},{"idx":[2,2],"re":0.5}]}' % ("0" * 400),
    # finite floats whose sums and norm are beyond the float range
    '{"kind":"form","m":2,"field":"real","dims":[2,2],"coeffs":['
    '{"idx":[1,1],"re":1.7e308},{"idx":[2,1],"re":1.7e308},'
    '{"idx":[1,2],"re":1.0}]}',
]


def _wide_float_forms(tmp_path):
    paths = []
    for i, text in enumerate(WIDE_FORMS):
        paths.append(tmp_path / f"wide-{i}.json")
        paths[-1].write_text(text)
    return [str(p) for p in paths]


def test_norm_of_float_form_beyond_float_range_exit_2(tmp_path):
    """The exact path and the brute oracle refuse both documents: no
    infinite value reported as exact, no traceback."""
    for path in _wide_float_forms(tmp_path):
        for method in ("exact", "brute"):
            code, out, err = invoke(["norm", "--method", method, "--in", path])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "float range" in err


@pytest.mark.parametrize("command", ["sum", "ratio"])
def test_sum_of_float_form_beyond_float_range_exit_2(tmp_path, command):
    for path in _wide_float_forms(tmp_path):
        for p in ("bh", "1"):
            code, out, err = invoke([command, "--in", path, "--p", p])
            assert code == 2
            assert out == ""
            assert err.startswith("error: ") and "float range" in err


def test_brute_norm_of_polynomial_is_a_usage_error(tmp_path):
    form, sym = str(tmp_path / "s2.json"), str(tmp_path / "p.json")
    invoke(["gen", "--family", "s2", "--out", form])
    invoke(["construct", "symmetrize", "--in", form, "--out", sym])
    code, out, err = invoke(["norm", "--method", "brute", "--in", sym])
    assert (code, out) == (2, "")
    assert "forms only" in err


def test_ascent_on_float_form_beyond_float_range_exit_2(tmp_path):
    for path in _wide_float_forms(tmp_path):
        code, out, err = invoke(["norm", "--method", "ascent", "--seed", "0",
                                 "--in", path])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "float range" in err


def test_poly_ascent_beyond_float_range_exit_2(tmp_path):
    """Squared variables: the ascent's floats meet a 10^400 coefficient, or
    finite coefficients whose sums are beyond the float range."""
    path = tmp_path / "wide-poly.json"
    for coeffs in (
        '{"alpha":[[1,2]],"re":1%s},{"alpha":[[2,2]],"re":1}' % ("0" * 400),
        '{"alpha":[[1,2]],"re":1.7e308},{"alpha":[[1,1],[2,1]],"re":1.7e308},'
        '{"alpha":[[2,2]],"re":1.7e308}',
    ):
        path.write_text('{"kind":"poly","m":2,"n":2,"field":"real","coeffs":[%s]}'
                        % coeffs)
        code, out, err = invoke(["norm", "--in", str(path)])
        assert code == 2
        assert out == ""
        assert err.startswith("error: ") and "float range" in err


def test_poly_with_an_int_beyond_float_range_next_to_a_float_exit_2(tmp_path):
    """A multiaffine float polynomial holding 10^400: refused like a float
    form, with no traceback."""
    path = tmp_path / "wide-multiaffine.json"
    path.write_text('{"kind":"poly","m":2,"n":4,"field":"real","coeffs":['
                    '{"alpha":[[1,1],[2,1]],"re":1%s},'
                    '{"alpha":[[3,1],[4,1]],"re":0.5}]}' % ("0" * 400))
    code, out, err = invoke(["norm", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and "float range" in err


def test_budget_reaches_polynomial_documents(tmp_path):
    """Past --budget a lift gets the seeded ascent, in norm and in ratio;
    within it, the exact norm."""
    form, sym, lift = (str(tmp_path / f"{k}.json") for k in "fpl")
    for argv in (["gen", "--family", "random", "--m", "3", "--dims", "3,3,3",
                  "--density", "0.7", "--seed", "1", "--out", form],
                 ["construct", "symmetrize", "--in", form, "--out", sym],
                 ["construct", "lift", "--in", sym, "--m", "5", "--out", lift]):
        assert invoke(argv)[0] == 0
    code, out, _ = invoke(["norm", "--in", lift])
    exact = json.loads(out)
    assert code == 0 and exact["exact"] is True and exact["work"] > 1
    code, out, _ = invoke(["norm", "--in", lift, "--budget", "1"])
    ascent = json.loads(out)
    assert code == 0 and ascent["exact"] is False
    assert ascent["value"] <= exact["value"]
    code, out, _ = invoke(["ratio", "--in", lift, "--budget", "1"])
    assert code == 0 and json.loads(out)["norm"] == ascent


def _fresh(argv):
    """``invoke`` with a parser built for this call alone."""
    cli._parser.cache_clear()
    try:
        return invoke(argv)
    finally:
        cli._parser.cache_clear()


def test_one_parser_per_process(monkeypatch):
    built = []
    monkeypatch.setattr(cli, "build_parser",
                        lambda real=cli.build_parser: built.append(1) or real())
    cli._parser.cache_clear()
    try:
        invoke(["gen", "--family", "s2"])
        invoke(["gen", "--family", "bogus"])
        invoke(["gen", "--family", "s", "--m", "3"])
    finally:
        cli._parser.cache_clear()
    assert built == [1]


def test_reused_parser_matches_a_fresh_one(tmp_path):
    """Runs that share the parser give the stdout, stderr and exit code of a
    freshly built parser: no option or error leaks into the next run."""
    form = str(tmp_path / "f.json")
    assert _fresh(["gen", "--family", "random", "--m", "2", "--dims", "3,3",
                   "--seed", "4", "--out", form])[0] == 0
    # squared variables and no common factor: only the seeded ascent norms
    # this polynomial, so its output depends on --seed
    poly = str(tmp_path / "q.json")
    terms = [([[1, 2], [2, 1]], 1.0), ([[2, 2], [3, 1]], 2.0),
             ([[1, 1], [3, 2]], -1.0), ([[1, 1], [2, 1], [3, 1]], -0.5)]
    with open(poly, "w", encoding="utf-8") as fh:
        json.dump({"kind": "poly", "m": 3, "n": 3, "field": "real",
                   "coeffs": [{"alpha": a, "re": c} for a, c in terms]}, fh)
    sequence = [
        ["sum", "--in", form, "--card", "2"],
        ["sum", "--in", form],
        ["sum", "--in", form, "--card"],  # usage error: --card needs a value
        ["sum", "--in", form, "--p", "2"],
        ["norm", "--in", poly, "--seed", "5"],
        ["norm", "--in", poly],
    ]
    cli._parser.cache_clear()
    shared = [invoke(argv) for argv in sequence]
    assert [_fresh(argv) for argv in sequence] == shared
    assert json.loads(shared[0][1])["restriction"]["kind"] == "card"
    assert json.loads(shared[1][1])["restriction"] == {"kind": "full"}
    assert shared[2][0] == 2 and "--card" in shared[2][2]
    assert shared[3][0] == 0 and json.loads(shared[3][1])["p"] == 2.0
    # the seed does not carry over: the last run is the seed-0 default
    assert shared[4][1] != shared[5][1]
    assert json.loads(shared[5][1])["exact"] is False
    assert shared[5] == _fresh(["norm", "--in", poly, "--seed", "0"])
