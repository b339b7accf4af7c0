import json
import logging
import os

import numpy as np
import pytest

from thetalab import cli
from tests.conftest import read_links, rewrite_links


def run(argv):
    return cli.main(argv)


def read_json(path):
    with open(path) as fh:
        return json.load(fh)


@pytest.fixture()
def small_instanton(tmp_path):
    """A 3^4 abelian anti-self-dual field written through the CLI."""
    out = str(tmp_path / "inst.json")
    code = run(["make-instanton", "--fluxes", "12:1,34:-1",
                "--dims", "3,3,3,3", "--out", out])
    assert code == cli.EXIT_OK
    return out


# --- spectrum / identity-check ---------------------------------------------------

def test_spectrum_g2(tmp_path):
    out = str(tmp_path / "spec.json")
    assert run(["spectrum", "g2", "--json", out]) == cli.EXIT_OK
    rep = read_json(out)
    assert np.allclose(rep["eigenvalues"], [-1, 2], atol=1e-10)
    assert rep["multiplicities"] == [14, 7]
    assert abs(rep["lambda_min"] + 1) < 1e-10
    assert rep["elliptic"] is False


def test_spectrum_unknown_model_usage_error():
    assert run(["spectrum", "not_a_model"]) == cli.EXIT_USAGE


def test_identity_check_passes(tmp_path):
    out = str(tmp_path / "idc.json")
    code = run(["identity-check", "spin7", "--count", "50",
                "--tol", "1e-9", "--assert", "--json", out])
    assert code == cli.EXIT_OK
    assert read_json(out)["max_residual"] < 1e-9


def test_no_subcommand_is_usage_error():
    assert run([]) == cli.EXIT_USAGE
    assert run(["bogus-command"]) == cli.EXIT_USAGE


# --- make-instanton / charges ------------------------------------------------------

def test_make_instanton_then_charges(small_instanton, tmp_path):
    out = str(tmp_path / "charges.json")
    assert run(["charges", small_instanton, "--json", out]) == cli.EXIT_OK
    rep = read_json(out)
    assert abs(rep["kappa"] - 2.0) < 1e-6
    assert rep["residual_theta"] < 1e-10


def test_field_file_roundtrip_bit_identical(small_instanton, tmp_path):
    from thetalab import lattice
    back = lattice.load_field(small_instanton)
    second = str(tmp_path / "resaved.json")
    lattice.save_field(back, second, seed=0)
    again = lattice.load_field(second)
    assert back.links.tobytes() == again.links.tobytes()


def test_report_determinism(small_instanton, tmp_path):
    a, b = str(tmp_path / "a.json"), str(tmp_path / "b.json")
    run(["charges", small_instanton, "--json", a])
    run(["charges", small_instanton, "--json", b])
    assert open(a, "rb").read() == open(b, "rb").read()


def test_charges_numerical_error_exit(tmp_path):
    """A flux at the logarithm branch cut surfaces as a numerical error."""
    out = str(tmp_path / "big.json")
    code = run(["make-instanton", "--fluxes", "12:18", "--dims", "6,6,6,6",
                "--out", out])
    if code == cli.EXIT_OK:
        code = run(["charges", out])
    assert code == cli.EXIT_NUMERICAL


# --- twist / holonomy / normalize / reduce / equivalent -----------------------------

def test_twist_pullback_pipeline(small_instanton, tmp_path):
    lifted = str(tmp_path / "lifted.json")
    code = run(["twist", small_instanton, "--y-dims", "3",
                "--picard", "0.7", "--out", lifted])
    assert code == cli.EXIT_OK

    hol = str(tmp_path / "hol.json")
    assert run(["holonomy", lifted, "--generator", "0", "--assert",
                "--json", hol]) == cli.EXIT_OK
    rep = read_json(hol)
    assert rep["stabilizer_residual"] < 1e-8

    red = str(tmp_path / "reduce.json")
    assert run(["reduce", lifted, "--assert", "--json", red]) == cli.EXIT_OK
    assert read_json(red)["passed"] is True

    norm = str(tmp_path / "norm.json")
    normalized = str(tmp_path / "normalized.json")
    assert run(["normalize", lifted, "--out", normalized,
                "--json", norm]) == cli.EXIT_OK

    eq = str(tmp_path / "eq.json")
    assert run(["equivalent", lifted, lifted, "--assert",
                "--json", eq]) == cli.EXIT_OK
    assert read_json(eq)["equivalent"] is True


def test_equivalent_distinguishes_twists(small_instanton, tmp_path):
    plain = str(tmp_path / "plain.json")
    twisted = str(tmp_path / "twisted.json")
    run(["twist", small_instanton, "--y-dims", "3", "--out", plain])
    run(["twist", small_instanton, "--y-dims", "3", "--zr", "1",
         "--out", twisted])
    eq = str(tmp_path / "eq.json")
    code = run(["equivalent", plain, twisted, "--assert", "--json", eq])
    assert code == cli.EXIT_ASSERT
    assert read_json(eq)["equivalent"] is False


# --- flow ----------------------------------------------------------------------------

def test_flow_command_recovers(small_instanton, tmp_path):
    noisy = str(tmp_path / "noisy.json")
    run(["make-instanton", "--fluxes", "12:1,34:-1", "--dims", "3,3,3,3",
         "--noise", "0.02", "--seed", "5", "--out", noisy])
    report = str(tmp_path / "flow.json")
    trace = str(tmp_path / "trace.csv")
    flowed = str(tmp_path / "flowed.json")
    code = run(["flow", noisy, "--tol", "1e-8", "--max-iters", "400",
                "--out", flowed, "--trace", trace, "--assert",
                "--json", report])
    assert code == cli.EXIT_OK
    rep = read_json(report)
    assert rep["verdict"] == "converged"
    assert rep["final_residual"] < 1e-8
    lines = open(trace).read().strip().splitlines()
    assert lines[0] == "iter,residual,step,gradnorm"
    assert len(lines) == rep["iterations"] + 1
    residuals = [float(l.split(",")[1]) for l in lines[1:]]
    assert all(b <= a for a, b in zip(residuals, residuals[1:]))


# --- feasible -------------------------------------------------------------------------

def test_feasible_alpha_negative_assert(tmp_path):
    out = str(tmp_path / "feas.json")
    code = run(["feasible", "--model", "spin7_hk", "--kappa-alpha", "-1",
                "--assert", "--json", out])
    assert code == cli.EXIT_ASSERT
    rep = read_json(out)
    assert rep["kind"] == "Empty" and rep["case"] == "c"


def test_feasible_possible(tmp_path):
    out = str(tmp_path / "feas2.json")
    code = run(["feasible", "--model", "circle_t4", "--kappa-alpha", "0",
                "--kappa-beta", "2", "--assert", "--json", out])
    assert code == cli.EXIT_OK
    assert read_json(out)["kind"] == "Possible"


def test_feasible_reports_its_tolerance(tmp_path):
    out = str(tmp_path / "feas3.json")
    assert run(["feasible", "--model", "circle_t4", "--kappa-alpha=-1e-12",
                "--kappa-beta", "2", "--assert", "--json", out]) == cli.EXIT_OK
    rep = read_json(out)
    assert rep["kind"] == "Possible"
    assert rep["tolerance"] == 1e-9


def test_feasible_rejects_nan_charge(tmp_path, capsys):
    out = str(tmp_path / "feas4.json")
    assert run(["feasible", "--model", "circle_t4", "--kappa-alpha", "nan",
                "--assert", "--json", out]) == cli.EXIT_USAGE
    assert "finite" in capsys.readouterr().err


# --- flow options and field validation ------------------------------------------------

def test_flow_rejects_unknown_manifest_keys(small_instanton, tmp_path, capsys):
    for key in ("bogus", "grad_mode"):
        manifest = str(tmp_path / f"{key}.json")
        with open(manifest, "w") as fh:
            json.dump({"flow": {key: 1}}, fh)
        assert run(["flow", small_instanton, "--config", manifest]) \
            == cli.EXIT_USAGE
        assert repr(key) in capsys.readouterr().err


def test_manifest_rejects_unknown_top_level_keys(tmp_path, capsys):
    manifest = str(tmp_path / "manifest.json")
    with open(manifest, "w") as fh:
        json.dump({"dims": [3, 3, 3, 3], "fluxes": "12:1,34:-1",
                   "twist": {"kind": "CyclicZr", "ks": [1]}, "bogus": 1,
                   "outputs": {"field": str(tmp_path / "inst.json")}}, fh)
    assert run(["make-instanton", "--config", manifest]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert "'bogus'" in err and "'twist'" in err
    assert not (tmp_path / "inst.json").exists()


def test_flow_has_no_grad_flag(small_instanton):
    assert run(["flow", small_instanton, "--grad", "fd"]) == cli.EXIT_USAGE


def _corrupt_link(path, value):
    """Set the real part of one entry of one link."""
    links = read_links(path)
    links.real[1, 0, 0, 0, 0, 0, 0] = value
    rewrite_links(path, links)


def test_charges_rejects_non_finite_links(small_instanton, tmp_path):
    _corrupt_link(small_instanton, float("nan"))
    out = str(tmp_path / "ch.json")
    assert run(["charges", small_instanton, "--json", out]) == cli.EXIT_USAGE


def test_flow_rejects_non_unitary_links(small_instanton, tmp_path):
    _corrupt_link(small_instanton, 5.0)
    out = str(tmp_path / "flow.json")
    assert run(["flow", small_instanton, "--json", out]) == cli.EXIT_USAGE


def test_flow_diagnostics_go_to_logging(tmp_path, caplog, capsys):
    noisy = str(tmp_path / "noisy.json")
    run(["make-instanton", "--fluxes", "12:1,34:-1", "--dims", "3,3,3,3",
         "--noise", "0.01", "--seed", "5", "--out", noisy])
    capsys.readouterr()
    caplog.set_level(logging.DEBUG, logger="thetalab.flow")
    assert run(["flow", noisy, "--tol", "1e-6"]) == cli.EXIT_OK
    rep = json.loads(capsys.readouterr().out)
    assert rep["verdict"] == "converged"
    assert any(rec.name == "thetalab.flow" and "refine" in rec.getMessage()
               for rec in caplog.records)


def test_malformed_field_file_is_usage_error(malformed_field_file, capsys):
    path, fragment = malformed_field_file
    assert run(["charges", path]) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert path in err and fragment in err


@pytest.mark.parametrize("manifest, argv", [
    ({"dims": 3}, []),
    ({"seed": "abc"}, ["--dims", "3,3,3,3", "--noise", "0.01"]),
    ({"lengths": "a"}, ["--dims", "3,3,3,3"]),
    ({"flow": []}, ["--dims", "3,3,3,3"]),
])
def test_manifest_rejects_wrong_value_types(manifest, argv, tmp_path, capsys):
    path = str(tmp_path / "manifest.json")
    with open(path, "w") as fh:
        json.dump(manifest, fh)
    out = tmp_path / "inst.npz"
    assert run(["make-instanton", "--config", path, "--out", str(out)]
               + argv) == cli.EXIT_USAGE
    (key,) = manifest
    assert f"manifest key {key!r}" in capsys.readouterr().err
    assert not out.exists()


def test_readme_chain_same_reports_for_npz_and_json_paths(tmp_path):
    """Field files land at the path given, whatever its suffix."""
    reports = {}
    for ext in ("npz", "json"):
        d = tmp_path / ext
        d.mkdir()
        inst, lifted = str(d / f"inst.{ext}"), str(d / f"lifted.{ext}")
        steps = {
            "make": ["make-instanton", "--fluxes", "12:1,34:-1",
                     "--dims", "3,3,3,3", "--out", inst],
            "twist": ["twist", inst, "--y-dims", "2", "--picard", "0.7",
                      "--out", lifted],
            "reduce": ["reduce", lifted, "--assert"],
            "charges": ["charges", lifted],
        }
        for step, argv in steps.items():
            rep = str(d / f"{step}.report")
            assert run(argv + ["--json", rep]) == cli.EXIT_OK, step
            reports[ext, step] = read_json(rep)
            reports[ext, step].pop("written", None)
        assert sorted(os.listdir(d)) == sorted(
            [f"inst.{ext}", f"lifted.{ext}"] + [f"{s}.report" for s in steps])
    for step in ("make", "twist", "reduce", "charges"):
        assert reports["npz", step] == reports["json", step], step
