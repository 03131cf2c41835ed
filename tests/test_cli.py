"""Command-line interface: configs, subcommands, exit codes, determinism."""

import builtins
import hashlib
import json
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from jsonschema import Draft202012Validator

import slspectra.cli as cli
from slspectra.cli import CONFIG_SCHEMA, main


@pytest.fixture()
def dcr_config(tmp_path):
    p = tmp_path / "dcr.json"
    p.write_text(json.dumps({"preset": "dcr", "D": 1.0, "k0": 0.75}))
    return str(p)


@pytest.fixture()
def dirichlet_config(tmp_path):
    p = tmp_path / "dirichlet.json"
    p.write_text(json.dumps({"preset": "dirichlet"}))
    return str(p)


def test_eigs_dirichlet_preset(dirichlet_config, tmp_path, capsys):
    out = str(tmp_path / "eigs.json")
    assert main(["eigs", dirichlet_config, "--modes", "3", "--out", out]) == 0
    doc = json.loads(open(out).read())
    exact = [-math.pi ** 2, -4 * math.pi ** 2, -9 * math.pi ** 2]
    assert np.allclose(doc["eigenvalues"], exact, rtol=1e-9)
    manifest = json.loads(open(out + ".manifest.json").read())
    assert manifest["config_sha256"]
    assert manifest["version"]


def test_eigs_explicit_config(tmp_path):
    cfg = tmp_path / "robin.json"
    cfg.write_text(json.dumps({
        "interval": [0, 1], "p": "1", "q": "0", "rho": "1",
        "bc_a": [1, -0.5], "bc_b": [1, 0.5],
    }))
    out = str(tmp_path / "out.json")
    assert main(["eigs", str(cfg), "--modes", "2", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["eigenvalues"][0] == pytest.approx(-0.9601888739147829 ** 2, rel=1e-9)


def test_eigs_200_modes_exits_0(tmp_path):
    # the default grid grows with N; at 64 panels the rho-Gram was off by 1.2e-3
    cfg = tmp_path / "nd.json"
    cfg.write_text(json.dumps({
        "interval": [0, 1], "p": "1", "q": "0", "rho": "1",
        "bc_a": [1, 0], "bc_b": [0, 1],
    }))
    out = str(tmp_path / "nd-eigs.json")
    assert main(["eigs", str(cfg), "--modes", "200", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["grid"]["panels"] == 200
    assert doc["residuals"]["orthonormality"] <= 1e-6


def test_eigs_dcr_includes_case_study(dcr_config, tmp_path):
    out = str(tmp_path / "dcr-eigs.json")
    assert main(["eigs", dcr_config, "--modes", "10", "--out", out]) == 0
    doc = json.loads(open(out).read())
    cs = doc["case_study"]
    assert max(cs["residuals"]) <= 1e-10
    assert np.allclose(doc["eigenvalues"], cs["lambda"], rtol=1e-9)


@pytest.mark.parametrize("D", (0.05, 2.0))
def test_eigs_dcr_includes_case_study_at_any_D(D, tmp_path):
    cfg = tmp_path / "dcr.json"
    cfg.write_text(json.dumps({"preset": "dcr", "D": D}))
    out = str(tmp_path / "dcr-eigs.json")
    assert main(["eigs", str(cfg), "--modes", "10", "--out", out]) == 0
    doc = json.loads(open(out).read())
    cs = doc["case_study"]
    assert max(cs["residuals"]) <= 1e-10
    assert np.allclose(doc["eigenvalues"], cs["lambda"], rtol=1e-13, atol=0.0)


def test_malformed_expression_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({
        "interval": [0, 1], "p": "exp(", "q": "0", "rho": "1",
        "bc_a": [0, 1], "bc_b": [0, 1],
    }))
    assert main(["eigs", str(cfg)]) == 1
    assert "offset" in capsys.readouterr().err


def test_schema_rejection_exits_1(tmp_path, capsys):
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "unknown"}))
    assert main(["eigs", str(cfg)]) == 1
    assert main(["eigs", str(tmp_path / "missing.json")]) == 1
    cfg.write_text("{")
    out = tmp_path / "out.json"
    capsys.readouterr()
    assert main(["eigs", str(cfg), "--out", str(out)]) == 1
    std = capsys.readouterr()
    assert std.err.startswith("error: config is not valid JSON: ") and std.err.count("\n") == 1
    assert std.out == "" and not out.exists()


def test_simulate_overflow_exits_1(tmp_path, capsys):
    # lambda_1 = 100 - pi^2, so e^(10 lambda_1) overflows: no Infinity in the output
    cfg = tmp_path / "unstable.json"
    cfg.write_text(json.dumps({
        "interval": [0, 1], "p": "1", "q": "-100", "rho": "1", "bc_a": [0, 1], "bc_b": [0, 1],
    }))
    out = tmp_path / "sim.json"
    assert main(["simulate", str(cfg), "--x0", "z*(1-z)", "--times", "0,10", "--modes", "4",
                 "--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert err == "error: the coefficient of mode 1 at t = 10 is not finite\n", err
    assert not out.exists()


@pytest.mark.parametrize("kappa", [1e10, 1e3])
def test_solver_failure_exits_1_with_one_line(kappa, tmp_path, capsys):
    # Robin f'(0) = -kappa f(0): the solver fails, and main says so in one line
    cfg = tmp_path / "robin.json"
    cfg.write_text(json.dumps({
        "interval": [0, 1], "p": "1", "q": "0", "rho": "1", "bc_a": [1, kappa], "bc_b": [0, 1],
    }))
    out = tmp_path / "eigs.json"
    assert main(["eigs", str(cfg), "--modes", "2", "--out", str(out)]) == 1
    std = capsys.readouterr()
    assert std.err.startswith("error: eigenvalue 1 not finite after recovery: L in [")
    assert std.err.count("\n") == 1 and std.out == "", std
    assert os.listdir(tmp_path) == ["robin.json"]


@pytest.mark.parametrize(
    "doc",
    [{"interval": [0, 1], "p": "1", "q": "0", "rho": "1", "bc_a": [math.nan, 1], "bc_b": [0, 1]},
     {"preset": "dcr", "k0": math.nan},
     {"preset": "dcr", "D": math.inf}],
    ids=["bc-nan", "k0-nan", "D-inf"],
)
def test_non_finite_config_numbers_exit_1(doc, tmp_path, capsys):
    # json reads NaN and Infinity, and the schema's "number" lets both through
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps(doc))
    assert main(["eigs", str(cfg), "--modes", "3"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "finite" in err, err


def test_config_schema_is_valid_and_rejections_name_the_cause(tmp_path, capsys):
    Draft202012Validator.check_schema(CONFIG_SCHEMA)
    cfg = tmp_path / "bad.json"
    cfg.write_text(json.dumps({"preset": "x"}))
    capsys.readouterr()
    assert main(["eigs", str(cfg)]) == 1
    # the message jsonschema.validate gives: best_match over all errors
    assert capsys.readouterr().err == (
        "error: config rejected by schema: "
        "'x' is not one of ['dirichlet', 'neumann', 'dcr']\n"
    )


def test_simulate_time_zero_is_projection(dirichlet_config, tmp_path):
    out = str(tmp_path / "sim0.json")
    assert main([
        "simulate", dirichlet_config, "--x0", "z", "--times", "0",
        "--modes", "20", "--out", out,
    ]) == 0
    doc = json.loads(open(out).read())
    n = np.arange(1.0, 21.0)
    exact = math.sqrt(2.0) * (-1.0) ** (n + 1) / (n * math.pi)
    assert doc["norms_rho"][0] == pytest.approx(float(np.linalg.norm(exact)), rel=1e-9)


def test_simulate_alpha_norms_monotone(dirichlet_config, tmp_path):
    out = str(tmp_path / "sim.json")
    csv = str(tmp_path / "sim.csv")
    assert main([
        "simulate", dirichlet_config, "--x0", "z", "--times", "0,0.05,0.1",
        "--alpha", "0.5", "--modes", "16", "--out", out, "--csv", csv,
    ]) == 0
    doc = json.loads(open(out).read())
    assert np.all(np.diff(doc["norms_alpha"]) < 0.0)
    assert np.all(np.diff(doc["norms_rho"]) < 0.0)
    lines = open(csv).read().strip().splitlines()
    assert len(lines) == 4


def test_simulate_verify_against_oracle(dcr_config, tmp_path):
    out = str(tmp_path / "simv.json")
    assert main([
        "simulate", dcr_config, "--x0", "1", "--times", "0.05,0.1,0.5",
        "--modes", "32", "--verify", "--out", out,
    ]) == 0
    doc = json.loads(open(out).read())
    assert doc["kappa"] == pytest.approx(1.0)
    assert max(doc["oracle"]["l2_discrepancy"]) <= 1e-3


def test_simulate_kappa_flag_overrides_the_preset(dcr_config, tmp_path):
    # an explicit --kappa 0 is a value, not "absent"; absent takes the preset's
    out = str(tmp_path / "sim.json")
    base = ["simulate", dcr_config, "--x0", "1", "--times", "0.1", "--modes", "8",
            "--out", out]
    assert main(base + ["--kappa", "0"]) == 0
    assert json.loads(open(out).read())["kappa"] == 0.0
    assert main(base) == 0
    assert json.loads(open(out).read())["kappa"] == 1.0


def test_simulate_alpha_on_dcr_uses_the_case_study_mu(dcr_config, tmp_path):
    # simulate, observe and verify read the dcr preset in one X_alpha, at mu = 0
    from slspectra import (DCRModel, coefficients_of, fractional_space, grid_function,
                           norm_alpha, solve_spectrum, transformed_problem)

    out = str(tmp_path / "sim.json")
    assert main(["simulate", dcr_config, "--x0", "1", "--times", "0,0.1", "--alpha", "0.5",
                 "--modes", "8", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["mu"] == 0.0
    dec = solve_spectrum(transformed_problem(DCRModel(1.0, 0.75)), N=8)
    x0 = grid_function(dec.grid, lambda z: np.exp(-z / 2.0))  # x0 = 1 as xi
    want = norm_alpha(fractional_space(dec, 0.5, mu=0.0), coefficients_of(x0, dec))
    assert doc["norms_alpha"][0] == pytest.approx(want, rel=1e-12)


def test_simulate_verify_steps_on_between_times(dcr_config, tmp_path, monkeypatch):
    # the oracle continues from the previous time instead of restarting at 0
    spans = []
    crank_nicolson = cli.crank_nicolson

    def recording(op, x0, t, dt):
        spans.append(t)
        return crank_nicolson(op, x0, t, dt)

    monkeypatch.setattr(cli, "crank_nicolson", recording)
    out = str(tmp_path / "simv.json")
    assert main([
        "simulate", dcr_config, "--x0", "1", "--times", "0,0.05,0.1234,0.3",
        "--modes", "32", "--verify", "--out", out,
    ]) == 0
    assert len(spans) == 3
    assert sum(spans) == pytest.approx(0.3, rel=1e-15, abs=0.0)
    assert max(json.loads(open(out).read())["oracle"]["l2_discrepancy"]) <= 1e-3


def test_simulate_verify_indefinite_oracle_exits_1(tmp_path, capsys):
    # A = f'' + 100 f has lambda_max ~ 90, above 2 / dt at dt = 0.1: CN is meaningless
    cfg = tmp_path / "growth.json"
    cfg.write_text(json.dumps({"interval": [0, 1], "p": "1", "q": "-100", "rho": "1",
                               "bc_a": [0, 1], "bc_b": [0, 1]}))
    assert main(["simulate", str(cfg), "--x0", "z*(1-z)", "--times", "0.2", "--modes", "4",
                 "--verify", "--oracle-cells", "32", "--oracle-dt", "0.1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1, err
    assert "tau = 0.1: " in err and "tau * lambda_max(A_h) < 2" in err


def test_simulate_bad_times_exits_1(dirichlet_config, capsys):
    assert main(["simulate", dirichlet_config, "--x0", "1", "--times", "0.2,0.1"]) == 1
    assert main(["simulate", dirichlet_config, "--x0", "1", "--times", "nope"]) == 1
    assert main(["simulate", dirichlet_config, "--x0", "sin(", "--times", "0.1"]) == 1


@pytest.mark.parametrize(
    "argv",
    [["eigs", "--modes", "0"],
     ["simulate", "--x0", "z", "--times", "0.1", "--alpha", "0"],
     ["simulate", "--x0", "z", "--times", "0.1", "--alpha", "5"],
     ["simulate", "--x0", "z", "--times", "0.1", "--modes", "0"],
     ["simulate", "--x0", "z", "--times", "0.1", "--modes", "4", "--verify",
      "--oracle-cells", "3"],
     ["simulate", "--x0", "z", "--times", "0.1", "--modes", "4", "--verify",
      "--oracle-dt", "0"],
     ["simulate", "--x0", "z", "--times", "0.1", "--modes", "4", "--verify",
      "--oracle-dt", "inf"],
     ["simulate", "--x0", "z*(1-z)", "--times", "0.1,nan"],
     ["simulate", "--x0", "z*(1-z)", "--times", "0,inf"],
     ["simulate", "--x0", "z*(1-z)", "--times", "0.1", "--kappa", "nan"],
     ["simulate", "--x0", "1/(z-z)", "--times", "0.1"],
     ["observe", "--tol", "nan"],
     ["observe", "--z0", "0.5"]],
    ids=["eigs-modes-0", "alpha-0", "alpha-5", "modes-0", "oracle-cells-3", "oracle-dt-0",
         "oracle-dt-inf", "times-nan", "times-inf", "kappa-nan", "x0-non-finite", "tol-nan",
         "z0-interior"],
)
def test_bad_option_values_exit_1_with_a_message(argv, dirichlet_config, capsys):
    # a value the library rejects is an input error, reported without a traceback
    assert main([argv[0], dirichlet_config, *argv[1:]]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err, err


@pytest.mark.parametrize(
    "argv",
    [["eigs", "--modes", "2"],
     ["simulate", "--x0", "1", "--times", "0.1", "--modes", "4"],
     ["observe", "--modes", "5"]],
    ids=["eigs", "simulate", "observe"],
)
def test_config_read_once(argv, dcr_config, tmp_path, monkeypatch):
    # the manifest hashes the text that was solved, not a second read of the file
    opened = []
    real_open = builtins.open

    def counting_open(file, *args, **kwargs):
        if isinstance(file, (str, os.PathLike)) and os.fspath(file) == dcr_config:
            opened.append(file)
        return real_open(file, *args, **kwargs)

    monkeypatch.setattr(builtins, "open", counting_open)
    out = str(tmp_path / "out.json")
    assert main([argv[0], dcr_config, *argv[1:], "--out", out]) == 0
    assert len(opened) == 1, opened
    with real_open(out + ".manifest.json") as fh:
        sha = json.load(fh)["config_sha256"]
    with real_open(dcr_config, "rb") as fh:
        assert sha == hashlib.sha256(fh.read()).hexdigest()


def test_observe_verdicts(dcr_config, tmp_path):
    out = str(tmp_path / "obs.json")
    assert main(["observe", dcr_config, "--z0", "0", "--modes", "50", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["verdict"] is True
    assert doc["min"] > 0.0
    assert main(["observe", dcr_config, "--z0", "1", "--modes", "20"]) == 0
    assert main(["observe", dcr_config, "--z0", "0.5"]) == 1


@pytest.mark.parametrize(
    "doc, flags", [({"preset": "dcr"}, ["--z0", "0.5"])], ids=["z0-interior"]
)
def test_observe_outside_the_closed_form_exits_1(doc, flags, tmp_path, capsys):
    cfg = tmp_path / "dcr.json"
    cfg.write_text(json.dumps(doc))
    assert main(["observe", str(cfg), *flags, "--modes", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize(
    "flags, message",
    [(["--z0", "0.5"], "error: z0 must be an end of the interval, 0.0 or 1.0\n"),
     (["--tol", "nan"], "error: tol must be finite and >= 0\n")],
    ids=["z0-interior", "tol-nan"],
)
def test_observe_checks_options_before_solving(flags, message, dirichlet_config, monkeypatch,
                                               capsys):
    def no_solve(*args, **kwargs):
        raise AssertionError("observe solved before checking its options")

    monkeypatch.setattr(cli, "solve_spectrum", no_solve)
    assert main(["observe", dirichlet_config, *flags, "--modes", "400"]) == 1
    assert capsys.readouterr().err == message


def test_observe_z0_defaults_to_the_left_end(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"interval": [2.0, 5.0], "p": "1", "q": "0", "rho": "1",
                               "bc_a": [1.0, 0.0], "bc_b": [1.0, 0.0]}))
    for flags, z0 in (([], 2.0), (["--z0", "5"], 5.0)):
        assert main(["observe", str(cfg), *flags, "--modes", "5"]) == 0
        assert json.loads(capsys.readouterr().out)["z0"] == z0
    # a synthetic file without z0 still reports z0 = 0
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.3]}))
    assert main(["observe", "--synthetic", str(syn)]) == 0
    assert json.loads(capsys.readouterr().out)["z0"] == 0.0


def test_observe_synthetic_explicit_z0_wins(tmp_path, capsys):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.3], "z0": 1.0}))
    for flags, z0 in (([], 1.0), (["--z0", "0"], 0.0)):
        assert main(["observe", "--synthetic", str(syn), *flags]) == 0
        assert json.loads(capsys.readouterr().out)["z0"] == z0


@pytest.mark.parametrize(
    "doc, code",
    [({"preset": "dirichlet"}, 2), ({"preset": "neumann"}, 0), ({"preset": "dcr", "D": 2.0}, 0)],
    ids=["dirichlet", "neumann", "dcr-D-2"],
)
def test_observe_runs_on_any_config(doc, code, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    out = str(tmp_path / "obs.json")
    for z0 in ("0", "1"):
        assert main(["observe", str(cfg), "--z0", z0, "--modes", "20", "--out", out]) == code
        with open(out) as fh:
            report = json.load(fh)
        assert report["verdict"] is (code == 0)
        if code == 2:
            # phi_n vanishes at a Dirichlet end, so every trace is round-off
            assert max(report["values"]) <= 1e-12
            assert 1 <= report["offending_index"] <= 20


@pytest.mark.parametrize(
    "argv",
    [["eigs", "{config}", "--modes", "2", "--out", "{missing}/x.json"],
     ["simulate", "{config}", "--x0", "z*(1-z)", "--times", "0.1", "--modes", "3",
      "--csv", "{missing}/x.csv"],
     ["observe", "{config}", "--modes", "5", "--out", "{missing}/x.json"],
     ["verify", "--suite", "core", "--out", "{missing}/x.json"]],
    ids=["eigs-out", "simulate-csv", "observe-out", "verify-out"],
)
def test_unwritable_output_exits_1_with_no_output(argv, dirichlet_config, tmp_path, capsys):
    missing = str(tmp_path / "missing")
    argv = [a.format(missing=missing, config=dirichlet_config) for a in argv]
    assert main(argv) == 1
    captured = capsys.readouterr()
    assert captured.out == "", captured.out
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err


@pytest.mark.parametrize(
    "argv",
    [["verify", "--suite", "core", "--out", "{target}"],
     ["simulate", "{config}", "--x0", "z*(1-z)", "--times", "0.1", "--modes", "3",
      "--csv", "{target}"]],
    ids=["verify-out", "simulate-csv"],
)
def test_failed_write_leaves_the_old_file_and_no_temporary(argv, dirichlet_config, tmp_path,
                                                          monkeypatch, capsys):
    # the file is written whole under a temporary name, then renamed into place
    target = tmp_path / "old.txt"
    target.write_text("old\n")
    argv = [a.format(config=dirichlet_config, target=target) for a in argv]
    before = sorted(os.listdir(tmp_path))

    def refuse(src, dst):
        raise OSError(f"cannot rename {src} to {dst}")

    monkeypatch.setattr(cli.os, "replace", refuse)
    assert main(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: cannot rename ") and err.count("\n") == 1, err
    assert target.read_text() == "old\n"
    assert sorted(os.listdir(tmp_path)) == before  # no .slspectra-* file is left


def test_simulate_csv_is_the_trajectory(dirichlet_config, tmp_path):
    out, csv_path = tmp_path / "sim.json", tmp_path / "sim.csv"
    assert main(["simulate", dirichlet_config, "--x0", "z*(1-z)", "--times", "0,0.1,0.2",
                 "--modes", "4", "--out", str(out), "--csv", str(csv_path)]) == 0
    doc = json.loads(out.read_text())
    rows = csv_path.read_bytes().decode().split("\r\n")
    assert rows[0] == "t,c_1,c_2,c_3,c_4" and rows[-1] == "" and len(rows) == 5, rows
    for row, t, c in zip(rows[1:], doc["times"], doc["coefficients"]):
        assert [float(v) for v in row.split(",")] == [t, *c]


# one request per subcommand; "{config}" is the dirichlet preset
SUBCOMMANDS = {
    "eigs": ["eigs", "{config}", "--modes", "3"],
    "simulate": ["simulate", "{config}", "--x0", "z*(1-z)", "--times", "0,0.1", "--modes", "4"],
    "observe": ["observe", "{config}", "--modes", "5"],
    "verify": ["verify", "--suite", "core", "--seed", "3"],
}
MANIFEST_KEYS = {"command", "config_sha256", "seed", "tolerances", "version", "wall_time_s"}


@pytest.mark.parametrize("name", list(SUBCOMMANDS))
def test_stdout_is_the_out_file_and_writes_no_manifest(name, dirichlet_config, tmp_path,
                                                       capsys):
    argv = [a.format(config=dirichlet_config) for a in SUBCOMMANDS[name]]
    out = str(tmp_path / "out.json")
    code = main(argv + ["--out", out])
    before = sorted(os.listdir(tmp_path))
    capsys.readouterr()
    assert main(argv) == code
    with open(out) as fh:
        assert capsys.readouterr().out == fh.read()
    assert sorted(os.listdir(tmp_path)) == before


@pytest.mark.parametrize("name", [*SUBCOMMANDS, "observe-synthetic"])
def test_every_manifest_has_the_same_keys(name, dirichlet_config, tmp_path):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.3]}))
    argv = SUBCOMMANDS.get(name, ["observe", "--synthetic", str(syn)])
    argv = [a.format(config=dirichlet_config) for a in argv]
    out = str(tmp_path / "out.json")
    main(argv + ["--out", out])
    with open(out + ".manifest.json") as fh:
        manifest = json.load(fh)
    assert set(manifest) == MANIFEST_KEYS
    assert manifest["command"] == argv + ["--out", out]
    assert manifest["seed"] == (3 if name == "verify" else None)
    has_config = name in ("eigs", "simulate", "observe")
    assert (manifest["config_sha256"] is not None) == has_config


@pytest.mark.parametrize(
    "argv", [["observe", "{config}", "--synthetic", "{syn}", "--z0", "1"], ["observe"]],
    ids=["both", "neither"],
)
def test_observe_needs_a_config_or_synthetic_not_both(argv, dirichlet_config, tmp_path, capsys):
    # given both, one of the two inputs would be silently ignored
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.3]}))
    out = str(tmp_path / "obs.json")
    argv = [a.format(config=dirichlet_config, syn=syn) for a in argv]
    assert main(argv + ["--out", out]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and not os.path.exists(out)
    err = captured.err
    assert err.startswith("error:") and err.count("\n") == 1 and "not both" in err, err


def test_observe_empty_synthetic_path_exits_1(capsys):
    # an empty --synthetic is a path that cannot be read, not an absent option
    assert main(["observe", "--synthetic", ""]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error: bad synthetic"), captured


def test_observe_synthetic_zero_exits_2(tmp_path, capsys):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.0, 0.3], "z0": 0.0}))
    assert main(["observe", "--synthetic", str(syn)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False
    assert doc["offending_index"] == 2


@pytest.mark.parametrize(
    "doc, flags",
    [({"values": [math.nan, 1.0]}, []),
     ({"values": [0.5, 1.0], "z0": math.inf}, []),
     ({"values": [0.5, 1.0], "alpha": math.nan}, []),
     ({"values": [0.5, 1.0]}, ["--tol", "nan"]),
     ({"values": [0.5, 1.0]}, ["--tol", "inf"]),
     ({"values": [0.5, 1.0]}, ["--tol", "-1"]),
     ({"values": [[0.5, 1.0], [0.2, 0.3]]}, []),
     ({"values": 0.5}, []),
     ([0.5, 1.0], [])],
    ids=["values-nan", "z0-inf", "alpha-nan", "tol-nan", "tol-inf", "tol-negative",
         "values-2d", "values-scalar", "not-an-object"],
)
def test_observe_synthetic_bad_input_exits_1(doc, flags, tmp_path, capsys):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps(doc))
    assert main(["observe", "--synthetic", str(syn), *flags]) == 1
    captured = capsys.readouterr()
    assert captured.out == "" and captured.err.startswith("error:"), captured


def test_verify_suites(tmp_path, capsys):
    out = str(tmp_path / "ver.json")
    assert main(["verify", "--suite", "core", "--seed", "7", "--out", out]) == 0
    doc = json.loads(open(out).read())
    assert doc["passed"] is True
    assert all(c["passed"] for c in doc["checks"])
    # "all" lists every registry suite's checks once, in registry order
    assert main(["verify", "--suite", "all", "--seed", "7", "--out", out]) == 0
    listed = [(c["suite"], c["name"]) for c in json.loads(open(out).read())["checks"]]
    assert listed == [(s, name) for s in cli.SUITES for name, _, _ in cli.SUITES[s](7)]
    # argparse rejects unknown suites -> input-error code
    assert main(["verify", "--suite", "bogus"]) == 1
    capsys.readouterr()


def test_verify_and_eigs_load_no_scipy_solvers(dcr_config, tmp_path):
    # scipy.optimize, and scipy.linalg through it, add about 0.3 s to a cold
    # verify or eigs; only the oracle may load scipy.linalg
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    verify, eigs = str(tmp_path / "verify.json"), str(tmp_path / "eigs.json")
    code = ("import sys, slspectra.cli as cli; "
            f"assert cli.main(['verify', '--suite', 'all', '--out', {verify!r}]) == 0; "
            f"assert cli.main(['eigs', {dcr_config!r}, '--out', {eigs!r}]) == 0; "
            "print([m for m in ('scipy.optimize', 'scipy.linalg') if m in sys.modules])")
    res = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert res.returncode == 0, res.stderr
    assert res.stdout.strip() == "[]", res.stdout


def test_determinism_byte_identical(dcr_config, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    assert main(["eigs", dcr_config, "--modes", "5", "--out", a]) == 0
    assert main(["eigs", dcr_config, "--modes", "5", "--out", b]) == 0
    assert open(a, "rb").read() == open(b, "rb").read()


def test_threads_env_is_ignored(dirichlet_config, monkeypatch, capsys):
    # SL_SPECTRA_THREADS is no longer read, so no value of it is an error
    monkeypatch.setenv("SL_SPECTRA_THREADS", "abc")
    assert main(["eigs", dirichlet_config, "--modes", "2"]) == 0
    capsys.readouterr()
