"""Exit codes, JSON output, and golden values for the command line tool."""

import json
import os
import subprocess
import sys

import numpy as np
import pytest

from affinv import cli, spectra
from affinv.cartan import omega0
from affinv.invariants import affine_fixed_parabolics
from helpers import coboundary_rep, ill_conditioned_eigenframe_pair, traceless

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


@pytest.mark.parametrize("value", ["nan", "-1"])
def test_tolerance_must_be_finite_and_positive(capsys, value):
    code, out, err = run(capsys, "--tolerance", value, "validate",
                         fixture("schottky_n2.json"))
    assert code == 2
    assert out == ""
    assert "--tolerance" in json.loads(err)["message"]


def test_module_entry_point_keeps_stderr_empty():
    # running the module from a checkout must not print a runpy warning
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "affinv.cli", "validate",
                           fixture("diag_n3.json")],
                          capture_output=True, text=True, env=env, check=False)
    assert proc.returncode == 0
    assert proc.stderr == ""
    assert json.loads(proc.stdout) == {"status": "ok", "n": 3, "k": 1}


def test_cli_import_leaves_scipy_out():
    # scipy serves only deriv's matrix exponential and doubles the start-up
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c",
                           "import sys, affinv.cli; print('scipy' in sys.modules)"],
                          capture_output=True, text=True, env=env, check=True)
    assert proc.stdout.strip() == "False"


def test_spectrum_skips_ill_conditioned_eigenframes(tmp_path, capsys):
    # the eigenvectors of a are 1e-12 apart: its Margulis solve meets a
    # condition number of 2e12, which used to abort the run with exit 3
    path = tmp_path / "rep.json"
    a, b = ill_conditioned_eigenframe_pair()
    path.write_text(json.dumps({"n": 2, "k": 2, "generators": [
        {"rho": a.ravel().tolist(), "u": [0.1, 0.0, 0.0, -0.1]},
        {"rho": b.ravel().tolist(), "u": [0.2, 0.1, 0.1, -0.2]}]}))
    code, out, err = run(capsys, "spectrum", str(path), "--max-length", "2")
    assert code == 0 and err == ""
    rows = {line.split(",")[0]: line.split(",")[-1] for line in out.splitlines()[1:]}
    assert rows["a"] == rows["A"] == "skipped(singular)"
    assert rows["b"] == rows["B"] == "ok"


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


def crossratio_file(tmp_path, frame0_scale=1.0):
    """A four-space file (n=2) of the fixture's first generator: beta is
    m - omega0(m) for its Margulis invariant m.  Frame 0 is multiplied by
    frame0_scale, which leaves its flag unchanged."""
    rep = cli.load_rep(fixture("schottky_n2.json"), 1e-9)
    g, y = rep.rho[0], rep.u[0]
    a_plus, a_minus = affine_fixed_parabolics(g, y)
    rng = np.random.default_rng(3)
    probe_frame = np.linalg.qr(rng.standard_normal((2, 2)))[0]
    base = traceless(2, rng)
    spaces = []
    for fr, bs in ((a_plus.flag.frame * frame0_scale, a_plus.base),
                   (a_minus.flag.frame, a_minus.base),
                   (g @ probe_frame, g @ base @ np.linalg.inv(g) + y), (probe_frame, base)):
        spaces.append({"frame": [float(v) for v in fr.flatten()],
                       "base": [float(v) for v in bs.flatten()]})
    path = tmp_path / f"spaces-{frame0_scale:g}.json"
    path.write_text(json.dumps({"n": 2, "spaces": spaces}))
    return path


def test_crossratio_matches_library(tmp_path, capsys):
    code, out, _ = run(capsys, "crossratio", str(crossratio_file(tmp_path)))
    assert code == 0
    beta = np.array(json.loads(out)["beta"])
    from affinv.invariants import margulis_invariant
    rep = cli.load_rep(fixture("schottky_n2.json"), 1e-9)
    m = margulis_invariant(rep.rho[0], rep.u[0])
    np.testing.assert_allclose(beta, m - omega0(m), rtol=0, atol=1e-8)


@pytest.mark.parametrize("scale", [1e155, 1e200, 1e-200])
def test_crossratio_of_a_rescaled_frame_is_quiet_and_unchanged(tmp_path, capsys, scale):
    # once overflowed to NotTransverse (exit 3) with RuntimeWarnings on stderr
    code, out, _ = run(capsys, "crossratio", str(crossratio_file(tmp_path)))
    assert code == 0
    beta = np.array(json.loads(out)["beta"])
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "affinv.cli", "crossratio",
                           str(crossratio_file(tmp_path, scale))],
                          capture_output=True, text=True, env=env, check=False)
    assert (proc.returncode, proc.stderr) == (0, "")
    np.testing.assert_allclose(json.loads(proc.stdout)["beta"], beta, rtol=0, atol=1e-12)


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
    # the README line, byte for byte
    code, out, err = run(capsys, "proper", fixture("schottky_n2.json"), "--max-length", "6")
    assert (code, err) == (0, "")
    assert out == ('{"horizon": 6, "functional": [0.7071067811865475, -0.7071067811865475], '
                   '"margin": 1.3322630905235546, "skipped_count": 0, '
                   '"verdict": "PROPER_CANDIDATE"}\n')


def test_proper_on_a_zero_cocycle(tmp_path, capsys):
    with open(fixture("schottky_n2.json")) as handle:
        rep = json.load(handle)
    for generator in rep["generators"]:
        generator["u"] = [0.0] * 4
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(rep))
    code, out, err = run(capsys, "proper", str(path))
    assert (code, err) == (0, "")
    assert out == ('{"horizon": 6, "functional": [0.7071067811865475, -0.7071067811865475], '
                   '"margin": 0.0, "skipped_count": 0, "verdict": "NONPROPER_SIGNATURE"}\n')


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


def test_crossratio_with_a_singular_frame_is_a_numerical_degeneracy(tmp_path, capsys):
    frames = [np.eye(3), np.eye(3)[:, ::-1],
              [[1.0, 2.0, 3.0], [2.0, 4.0, 6.0], [0.0, 1.0, 1.0]], np.eye(3)[:, [0, 2, 1]]]
    spaces = [{"frame": [float(v) for v in np.ravel(fr)], "base": [0.0] * 9} for fr in frames]
    path = tmp_path / "spaces.json"
    path.write_text(json.dumps({"n": 3, "spaces": spaces}))
    code, out, err = run(capsys, "crossratio", str(path))
    assert code == 3
    assert out == ""
    lines = err.splitlines()
    assert len(lines) == 1
    assert json.loads(lines[0])["error"] == "NotTransverse"


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


@pytest.mark.parametrize("step,code,kind", [
    ("nan", 2, "SchemaError"), ("inf", 2, "SchemaError"),
    ("800", 3, "NumericalDegeneracy"), ("1e300", 3, "NumericalDegeneracy")])
def test_deriv_rejects_unusable_steps(capsys, step, code, kind):
    # non-finite steps are refused up front; huge ones overflow exp(t u)
    got, out, err = run(capsys, "deriv", fixture("schottky_n2.json"), "a", "0", step)
    assert got == code
    assert out == ""
    assert json.loads(err)["error"] == kind


@pytest.mark.parametrize("step", ["20", "200", "400"])
def test_deriv_refuses_products_beyond_float64(capsys, step):
    # g exp(t u) is finite but past the float64 condition limit, where its
    # Jordan projection (and the finite difference) would be noise
    code, out, err = run(capsys, "deriv", fixture("schottky_n2.json"), "ab", "1", step)
    assert code == 3
    assert out == ""
    assert json.loads(err)["error"] == "Singular"


@pytest.mark.parametrize("argv,option", [
    (["spectrum", "--max-length", "-3"], "--max-length"),
    (["spectrum", "--max-length", "0"], "--max-length"),
    (["proper", "--max-length", "0"], "--max-length"),
    (["limit", "a", "b", "--max-power", "0"], "--max-power")],
    ids=["spectrum-negative", "spectrum-zero", "proper-zero", "limit-zero"])
def test_sizes_below_one_are_schema_errors(capsys, argv, option):
    code, out, err = run(capsys, argv[0], fixture("schottky_n2.json"), *argv[1:])
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "SchemaError" and option in error["message"]


@pytest.mark.parametrize("argv,option", [
    (["spectrum", fixture("schottky_n2.json"), "--max-length", str(cli.MAX_LENGTH + 1)],
     "--max-length"),
    (["proper", fixture("schottky_n2.json"), "--max-length", str(cli.MAX_LENGTH + 1)],
     "--max-length"),
    (["limit", fixture("schottky_n2.json"), "a", "b", "--max-power", str(cli.MAX_POWER + 1)],
     "--max-power"),
    (["lw", str(cli.MAX_LW_N + 1), "2"], "lw"),
    (["fuchsian", str(cli.MAX_LIFT_N + 1), fixture("schottky_n2.json")], "fuchsian")],
    ids=["spectrum", "proper", "limit", "lw", "fuchsian"])
def test_sizes_above_their_caps_are_refused_before_any_work(capsys, monkeypatch, argv, option):
    def no_work(*args, **kwargs):
        raise AssertionError("work started before validation")

    for module, name in ((cli, "load_rep"), (cli.spectra, "sample_spectrum"),
                         (cli.spectra, "limit_formula_experiment"),
                         (cli.fuchsian, "lw_direction_exact"),
                         (cli.fuchsian, "lift_representation")):
        monkeypatch.setattr(module, name, no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    error = json.loads(err)
    assert error["error"] == "SchemaError" and option in error["message"]


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


@pytest.mark.parametrize("n", ["1", "0", "-2"])
def test_fuchsian_rejects_lift_dimension_below_two(tmp_path, capsys, n):
    out_path = tmp_path / "lift.json"
    code, out, err = run(capsys, "fuchsian", "--out", str(out_path), n,
                         fixture("schottky_n2.json"))
    assert code == 2
    assert out == ""
    assert json.loads(err)["error"] == "OutOfRange"
    assert not out_path.exists()


def test_fuchsian_rejects_wrong_input_dimension(capsys):
    code, _, err = run(capsys, "fuchsian", "3", fixture("diag_n3.json"))
    assert code == 2


def test_fuchsian_lift_is_validated_at_the_tolerance(capsys):
    # the n = 12 lift of schottky_n2 has det 1 + 8e-7 in float64
    code, out, err = run(capsys, "fuchsian", "12", fixture("schottky_n2.json"))
    assert (code, out) == (2, "")
    assert len(err.splitlines()) == 1
    error = json.loads(err)
    assert error["error"] == "SchemaError" and "unimodular" in error["message"]
    code, out, err = run(capsys, "--tolerance", "1e-5", "fuchsian", "12",
                         fixture("schottky_n2.json"))
    assert (code, err) == (0, "")
    assert json.loads(out)["n"] == 12


@pytest.mark.parametrize("n", ["18", "400"])
def test_fuchsian_refuses_a_lift_beyond_float64_before_lifting(capsys, monkeypatch, n):
    # cond(a) = 9 on schottky_n2, and the n-dimensional lift has condition 9^(n-1)
    def no_lift(*args, **kwargs):
        raise AssertionError("sym_rep called")

    monkeypatch.setattr(cli.fuchsian, "sym_rep", no_lift)
    code, out, err = run(capsys, "fuchsian", n, fixture("schottky_n2.json"))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "SchemaError"
    assert "the largest admissible n is 17" in error["message"]


def write_diagonal_rep(path, k):
    path.write_text(json.dumps({"n": 2, "k": k, "generators": [
        {"rho": [2.0 + i, 0.0, 0.0, 1.0 / (2.0 + i)], "u": [0.1, 0.0, 0.0, -0.1]}
        for i in range(k)]}))
    return str(path)


@pytest.mark.parametrize("k, longest", [(1, cli.MAX_LENGTH), (2, cli.MAX_LENGTH), (3, 8), (4, 6)])
def test_max_length_cap_counts_the_generators(tmp_path, capsys, monkeypatch, k, longest):
    def no_sampling(rep, max_length):
        raise spectra.EmptySampleSet("sampling reached")

    monkeypatch.setattr(cli.spectra, "sample_spectrum", no_sampling)
    path = write_diagonal_rep(tmp_path / "rep.json", k)
    for command in ("spectrum", "proper"):
        code, _, err = run(capsys, command, path, "--max-length", str(longest))
        assert (code, json.loads(err)["message"]) == (3, "sampling reached")
        if longest < cli.MAX_LENGTH:
            code, out, err = run(capsys, command, path, "--max-length", str(longest + 1))
            assert (code, out) == (2, "")
            error = json.loads(err)
            assert error["error"] == "SchemaError" and "--max-length" in error["message"]


@pytest.mark.parametrize("key", ["n", "k"])
def test_json_booleans_are_not_counts(tmp_path, capsys, key):
    data = {"n": 2, "k": 1, "generators": [{"rho": [2.0, 0.0, 0.0, 0.5], "u": [0.0] * 4}]}
    data[key] = True
    path = tmp_path / "rep.json"
    path.write_text(json.dumps(data))
    code, out, err = run(capsys, "validate", str(path))
    assert (code, out) == (2, "")
    error = json.loads(err)
    assert error["error"] == "SchemaError" and f"{key} must be an integer" in error["message"]
