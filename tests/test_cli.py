"""Command-line interface: configs, subcommands, exit codes, determinism."""

import builtins
import hashlib
import json
import math
import os

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
     ["simulate", "--x0", "1/(z-z)", "--times", "0.1"]],
    ids=["eigs-modes-0", "alpha-0", "alpha-5", "modes-0", "oracle-cells-3", "oracle-dt-0",
         "oracle-dt-inf", "times-nan", "times-inf", "kappa-nan", "x0-non-finite"],
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
    "doc, flags",
    [({"preset": "dcr", "D": 2.0}, []), ({"preset": "dcr"}, ["--z0", "0.5"])],
    ids=["D-2", "z0-interior"],
)
def test_observe_outside_the_closed_form_exits_1(doc, flags, tmp_path, capsys):
    cfg = tmp_path / "dcr.json"
    cfg.write_text(json.dumps(doc))
    assert main(["observe", str(cfg), *flags, "--modes", "5"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1 and "Traceback" not in err, err


def test_observe_requires_dcr(dirichlet_config, capsys):
    assert main(["observe", dirichlet_config]) == 1


def test_observe_synthetic_zero_exits_2(tmp_path, capsys):
    syn = tmp_path / "syn.json"
    syn.write_text(json.dumps({"values": [0.5, 0.0, 0.3], "z0": 0.0}))
    assert main(["observe", "--synthetic", str(syn)]) == 2
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] is False
    assert doc["offending_index"] == 2


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
