"""Exit codes, JSON output, and golden values for the command line tool."""

import json
import os

import numpy as np
import pytest

from affinv import cli
from affinv.cartan import omega0
from affinv.invariants import affine_fixed_parabolics
from helpers import coboundary_rep, traceless

FIXTURES = os.path.join(os.path.dirname(__file__), os.pardir, "fixtures")


def fixture(name):
    return os.path.join(FIXTURES, name)


def run(capsys, *argv):
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_validate_ok(capsys):
    code, out, err = run(capsys, "validate", fixture("diag_n3.json"))
    assert code == 0
    assert json.loads(out) == {"status": "ok", "n": 3, "k": 1}
    assert err == ""


def test_missing_file_is_io_error(capsys):
    code, out, err = run(capsys, "validate", fixture("no_such_rep.json"))
    assert code == 1
    assert json.loads(err)["error"]


def test_unparseable_file_is_io_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, err = run(capsys, "validate", str(bad))
    assert code == 1


def test_schema_violation_names_the_generator(tmp_path, capsys):
    data = {"n": 2, "k": 1,
            "generators": [{"rho": [2.0, 0.0, 0.0, 1.0], "u": [0.0] * 4}]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "validate", str(path))
    assert code == 2
    message = json.loads(err)["message"]
    assert "generator 0" in message and "unimodular" in message


def test_tolerance_flag_reaches_validation(tmp_path, capsys):
    data = {"n": 2, "k": 1,
            "generators": [{"rho": [1.0 + 5e-7, 0.0, 0.0, 1.0], "u": [0.0] * 4}]}
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    code, _, _ = run(capsys, "validate", str(path))
    assert code == 2
    code, out, _ = run(capsys, "--tolerance", "1e-5", "validate", str(path))
    assert code == 0


def test_invariant_golden_values(capsys):
    code, out, _ = run(capsys, "invariant", fixture("diag_n3.json"), "a")
    assert code == 0
    payload = json.loads(out)
    assert payload["word"] == "a"
    np.testing.assert_allclose(payload["jordan"],
                               [np.log(2.0), 0.0, -np.log(2.0)],
                               rtol=0, atol=1e-15)
    np.testing.assert_allclose(payload["margulis"], [0.25, -0.125, -0.125],
                               rtol=0, atol=1e-15)
    assert payload["signs"] == [1, 1, 1]


def test_invariant_is_deterministic(capsys):
    _, first, _ = run(capsys, "invariant", fixture("schottky_n2.json"), "abAB")
    _, second, _ = run(capsys, "invariant", fixture("schottky_n2.json"), "abAB")
    assert first == second


def test_invariant_unknown_letter(capsys):
    code, _, err = run(capsys, "invariant", fixture("schottky_n2.json"), "c")
    assert code == 2


def test_invariant_degenerate_word(tmp_path, capsys):
    theta = 0.5
    rot = [float(v) for v in
           np.array([[np.cos(theta), -np.sin(theta)],
                     [np.sin(theta), np.cos(theta)]]).flatten()]
    data = {"n": 2, "k": 1, "generators": [{"rho": rot, "u": [0.0] * 4}]}
    path = tmp_path / "rot.json"
    path.write_text(json.dumps(data))
    code, _, err = run(capsys, "invariant", str(path), "a")
    assert code == 3
    payload = json.loads(err)
    assert "modulus" in (payload["error"] + payload["message"]).lower()


def test_crossratio_matches_library(tmp_path, capsys):
    rep = cli.load_rep(fixture("schottky_n2.json"), 1e-9)
    g, y = rep.rho[0], rep.u[0]
    a_plus, a_minus = affine_fixed_parabolics(g, y)
    rng = np.random.default_rng(3)
    probe_frame = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    base = traceless(2, rng)
    moved_frame = g @ probe_frame
    moved_base = g @ base @ np.linalg.inv(g) + y
    spaces = []
    for fr, bs in ((a_plus.flag.frame, a_plus.base),
                   (a_minus.flag.frame, a_minus.base),
                   (moved_frame, moved_base), (probe_frame, base)):
        spaces.append({"frame": [float(v) for v in fr.flatten()],
                       "base": [float(v) for v in bs.flatten()]})
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps({"n": 2, "spaces": spaces}))
    code, out, _ = run(capsys, "crossratio", str(path))
    assert code == 0
    beta = np.array(json.loads(out)["beta"])
    from affinv.invariants import margulis_invariant
    m = margulis_invariant(g, y)
    np.testing.assert_allclose(beta, m - omega0(m), rtol=0, atol=1e-8)


def test_crossratio_rejects_bad_space_count(tmp_path, capsys):
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps({"n": 2, "spaces": []}))
    code, _, err = run(capsys, "crossratio", str(path))
    assert code == 2


def test_spectrum_writes_csv(tmp_path, capsys):
    out_path = tmp_path / "spectrum.csv"
    code, out, _ = run(capsys, "spectrum", fixture("diag_n3.json"),
                       "--max-length", "2", "--out", str(out_path))
    assert code == 0
    assert json.loads(out) == {"samples": 4, "out": str(out_path)}
    lines = out_path.read_text().splitlines()
    assert lines[0] == "word,length,jd_1,jd_2,jd_3,m_1,m_2,m_3,status"
    assert len(lines) == 5
    assert lines[1].startswith("a,1,0.69314718055994529,")


def test_spectrum_stdout_is_deterministic(capsys):
    code, first, _ = run(capsys, "spectrum", fixture("schottky_n2.json"),
                         "--max-length", "3")
    assert code == 0
    code, second, _ = run(capsys, "spectrum", fixture("schottky_n2.json"),
                          "--max-length", "3")
    assert code == 0
    assert first == second


def test_proper_verdicts(capsys):
    code, out, _ = run(capsys, "proper", fixture("coboundary_n2.json"),
                       "--max-length", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "NONPROPER_SIGNATURE"
    code, out, _ = run(capsys, "proper", fixture("schottky_n2.json"),
                       "--max-length", "5")
    assert code == 0
    payload = json.loads(out)
    assert payload["verdict"] == "PROPER_CANDIDATE"
    assert payload["margin"] > 1e-2


def test_non_finite_cocycle_is_a_schema_error(tmp_path, capsys):
    with open(fixture("schottky_n2.json")) as handle:
        rep = json.load(handle)
    rep["generators"][0]["u"][1] = float("inf")
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    for argv in (("invariant", str(path), "a"), ("proper", str(path))):
        code, out, err = run(capsys, *argv)
        assert code == 2
        assert out == ""
        assert json.loads(err)["error"] == "SchemaError"


def test_crossratio_rejects_non_finite_base(tmp_path, capsys):
    spaces = [{"frame": [1.0, 0.0, 0.0, 1.0], "base": [0.0] * 4} for _ in range(4)]
    spaces[2]["base"][0] = float("nan")
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps({"n": 2, "spaces": spaces}))
    code, _, err = run(capsys, "crossratio", str(path))
    assert code == 2
    assert "finite" in json.loads(err)["message"]


@pytest.mark.parametrize("gamma,eta,max_power", [("aa", "b", 128), ("bb", "ab", 256)])
def test_limit_command_at_high_powers(capsys, gamma, eta, max_power):
    # the final products span up to about 370 and 900 decimal orders
    code, out, _ = run(capsys, "limit", fixture("schottky_n2.json"), gamma, eta,
                       "--max-power", str(max_power))
    assert code == 0
    last = json.loads(out)[-1]
    assert last["power"] == max_power
    assert last["gap"] <= 1e-6 * (1 + np.linalg.norm(last["beta_target"]))


def test_limit_command(capsys):
    code, out, _ = run(capsys, "limit", fixture("schottky_n2.json"), "a", "b",
                       "--max-power", "8")
    assert code == 0
    rows = json.loads(out)
    assert [r["power"] for r in rows] == [1, 2, 4, 8]
    gaps = [r["gap"] for r in rows]
    assert all(g2 < g1 for g1, g2 in zip(gaps, gaps[1:]))


def test_deriv_command(capsys):
    code, out, _ = run(capsys, "deriv", fixture("schottky_n2.json"), "a", "0")
    assert code == 0
    payload = json.loads(out)
    # u_0 = log of the first generator: the derivative is exactly its
    # Margulis invariant, the diagonal log
    np.testing.assert_allclose(payload["margulis"],
                               [np.log(3.0), -np.log(3.0)], rtol=0, atol=1e-12)
    assert payload["error"] < 1e-8


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")
def test_non_finite_result_is_a_degeneracy(capsys):
    # a zero step makes the finite difference 0/0
    code, out, err = run(capsys, "deriv", fixture("schottky_n2.json"), "a", "0", "0")
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "NumericalDegeneracy"


def test_deriv_direction_out_of_range(capsys):
    code, _, err = run(capsys, "deriv", fixture("schottky_n2.json"), "a", "5")
    assert code == 2


def test_lw_stdout(capsys):
    code, out, _ = run(capsys, "lw", "3", "2")
    assert code == 0
    assert out.strip() == "2 0 -2"
    code, out, _ = run(capsys, "lw", "3", "3")
    assert out.strip() == "-1 2 -1"


def test_lw_out_of_range(capsys):
    code, _, err = run(capsys, "lw", "3", "4")
    assert code == 2


def test_fuchsian_lift_roundtrip(tmp_path, capsys):
    out_path = tmp_path / "lift3.json"
    code, out, _ = run(capsys, "fuchsian", "3", fixture("schottky_n2.json"),
                       "--out", str(out_path))
    assert code == 0
    assert json.loads(out)["out"] == str(out_path)
    code, out, _ = run(capsys, "validate", str(out_path))
    assert code == 0
    code, out, _ = run(capsys, "invariant", str(out_path), "a")
    payload = json.loads(out)
    np.testing.assert_allclose(payload["jordan"],
                               [2 * np.log(3.0), 0.0, -2 * np.log(3.0)],
                               rtol=0, atol=1e-10)


def test_fuchsian_rejects_wrong_input_dimension(capsys):
    code, _, err = run(capsys, "fuchsian", "3", fixture("diag_n3.json"))
    assert code == 2
