"""Tests of the benchmark's oracles: they agree with the program on correct
outputs and reject deliberately wrong ones.

    python3 -m pytest perfbench
"""

import json
import shutil
from pathlib import Path

import numpy as np
import pytest

from thetalab import lattice, reduction

import layers
import oracles
import workloads

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent
                        / "BENCHMARK.json").read_text())


def small_pullback(twist, y_dims=(2,), x_dims=(3, 3, 3, 3)):
    return workloads._pullback("circle_t4", y_dims, x_dims, twist)


def edit_json(path, key, change):
    with open(path) as fh:
        obj = json.load(fh)
    obj[key] = change(obj[key])
    with open(path, "w") as fh:
        json.dump(obj, fh)


@pytest.mark.parametrize("noise", [0.0, 0.05, 0.3])
def test_recomputed_residual_matches_theta_residual(noise):
    base = small_pullback(reduction.FlatTwist("PicardU1", angles=(0.7,)))
    links = oracles.perturb_links(base.links, noise, seed=7)
    field = workloads._with_links(base, links)
    expected = lattice.theta_residual(field)
    got = oracles.circle_t4_residual(links, field.geometry.lengths)
    assert abs(got - expected) <= 1e-12 * max(expected, 1e-12)


def test_exp_su2_is_special_unitary():
    a = oracles.random_su2(np.random.default_rng(0), (50,))
    g = oracles.exp_su2(0.9 * a)
    eye = np.eye(2)
    assert np.max(np.abs(g @ np.conjugate(np.swapaxes(g, -1, -2)) - eye)) \
        < 1e-14
    assert np.max(np.abs(np.linalg.det(g) - 1.0)) < 1e-14


def test_fibre_gauge_keeps_residual_and_base_slice():
    base = small_pullback(reduction.FlatTwist("PicardU1", angles=(0.7,)))
    noisy = oracles.perturb_links(base.links, 0.05, seed=3)
    gauged = oracles.fibre_gauge(noisy, 1, seed=4)
    lengths = base.geometry.lengths
    r0 = oracles.circle_t4_residual(noisy, lengths)
    assert abs(oracles.circle_t4_residual(gauged, lengths) - r0) < 1e-12 * r0
    # X links on the y = 0 slice see g = 1 at both ends
    assert np.array_equal(gauged[1:, 0], noisy[1:, 0])


def test_mixed_sectors_vanish_on_pullback_only():
    base = small_pullback(reduction.FlatTwist("PicardU1", angles=(0.7,)))
    f20, f11 = oracles.max_mixed_sectors(base.links, base.geometry.lengths, 1)
    assert f20 < 1e-12 and f11 < 1e-12
    noisy = oracles.perturb_links(base.links, 0.05, seed=1)
    assert oracles.max_mixed_sectors(noisy, base.geometry.lengths, 1)[1] \
        > 1e-3


# --------------------------------------- the checks reject wrong outputs

@pytest.fixture()
def session(tmp_path, monkeypatch):
    monkeypatch.setattr(workloads.CliSession, "MODELS",
                        (("circle_t4", (2,), (3, 3, 3, 3)),
                         ("g2_t3xhk", (2, 2, 2), (2, 2, 2, 2))))
    wl = workloads.CliSession(str(tmp_path), seed=5)
    wl.setup()
    ok = wl.run_round()
    assert all(ok)
    return wl, ok


def test_session_passes_on_program_output(session):
    wl, ok = session
    assert wl.check_round(ok) == []
    assert wl.final_check() == []


@pytest.mark.parametrize("report, key, change", [
    ("equivalent_twists.json", "equivalent", lambda v: not v),
    ("equivalent_normalized.json", "equivalent", lambda v: not v),
    ("charges_u1.json", "kappa", lambda v: v + 1e-3),
    ("charges_x.json", "ym_action", lambda v: v * (1 + 1e-5)),
    ("charges_u1.json", "kappa_beta_slicewise",
     lambda v: [v[0] - 1e-3] + v[1:]),
    ("reduce.json", "max_F11", lambda v: 1e-9),
    ("feasible.json", "kind", lambda v: "Empty"),
    ("holonomy.json", "holonomy_at_origin",
     lambda v: [[v[0][0], v[0][1]], [v[1][0], [v[1][1][0], -v[1][1][1]]]]),
])
def test_session_rejects_wrong_report(session, report, key, change):
    wl, ok = session
    edit_json(wl.path(f"g2_t3xhk/{report}"), key, change)
    assert wl.check_round(ok)


def test_session_rejects_field_with_mixed_curvature(session):
    wl, _ = session
    path = wl.path("circle_t4/u1.json")
    field = lattice.load_field(path)
    noisy = oracles.perturb_links(field.links, 1e-6, seed=1)
    lattice.save_field(workloads._with_links(field, noisy), path)
    assert any("recomputed max F" in e for e in wl.final_check())


@pytest.fixture()
def flow_outputs(tmp_path):
    wl = workloads.FlowRecovery(str(tmp_path), seed=2)
    wl.Y_DIMS, wl.X_DIMS = (2,), (2, 2, 2, 2)
    wl.setup()
    return wl


def write_flow_report(wl, residual, kappa=2.0):
    with open(wl.path("flow.json"), "w") as fh:
        json.dump({"verdict": "converged", "final_residual": residual,
                   "kappa_after": kappa}, fh)


def test_flow_check_rejects_residual_above_tolerance(flow_outputs):
    wl = flow_outputs
    write_flow_report(wl, 5e-9)
    assert wl.check_round([True]) == []
    write_flow_report(wl, 2e-8)
    assert wl.check_round([True])
    write_flow_report(wl, 5e-9, kappa=2.001)
    assert wl.check_round([True])


def test_flow_final_check_recomputes_residual(flow_outputs):
    wl = flow_outputs
    # an unconverged field passed off as the solution, with a false report
    shutil.copy(wl.path("noisy.json"), wl.path("recovered.json"))
    write_flow_report(wl, 5e-9)
    errors = wl.final_check()
    assert any("recomputed residual" in e for e in errors)


def test_fd_check_rejects_gradient_gap(tmp_path):
    wl = workloads.FdGradient(str(tmp_path), seed=1)
    wl.setup()
    wl.g_an = np.ones((3, 2, 2))
    wl.g_fd = wl.g_an * (1 + 1e-6)
    assert wl.check_round([True]) == []
    wl.g_fd = wl.g_an * (1 + 1e-4)
    assert wl.check_round([True])


# ------------------------------------------- BENCHMARK.json stays in step

def test_benchmark_json_lists_every_layer_metric():
    listed = [(m["name"], m["unit"]) for m in BENCHMARK["per_layer"]]
    assert listed == [(name, unit) for name, unit, _ in layers.METRICS]


def test_benchmark_json_names_the_workloads():
    # fd_gradient runs by hand only; see README.md
    assert [w["name"] for w in BENCHMARK["workloads"]] \
        == [name for name in workloads.WORKLOADS if name != "fd_gradient"]


def test_check_that_raises_counts_as_failure():
    import run

    def check(ok):
        raise KeyError("final_residual")

    assert run.checked(check, [True])
