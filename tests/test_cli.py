import io
import json
import math
from contextlib import redirect_stderr, redirect_stdout

import pytest

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
    doc = json.loads(open(p_path).read())
    assert doc["kind"] == "poly"
    assert len(doc["coeffs"]) == 4
    emb = json.loads(open(e_path).read())
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
    code, _, err = invoke(["norm", "--in", path, "--budget", "8"])
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


def test_norm_of_float_form_beyond_float_range_exit_2(tmp_path):
    path = tmp_path / "wide.json"
    path.write_text('{"kind":"form","m":2,"field":"real","dims":[2,2],"coeffs":['
                    '{"idx":[1,1],"re":1%s},{"idx":[2,2],"re":0.5}]}' % ("0" * 400))
    code, out, err = invoke(["norm", "--in", str(path)])
    assert code == 2
    assert out == ""
    assert "float range" in err
