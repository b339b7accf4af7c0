"""The three benchmark workloads.

Each workload builds its inputs from the seed in ``setup``, runs one round
of operations in ``run_round`` (the only timed code), checks the reports a
round wrote in ``check_round``, and recomputes the expensive oracles once in
``final_check``.  Every round repeats the same operations on the same
inputs, so counts per round are fixed for a fixed seed.

Lattice sizes are chosen so that one round takes a few seconds on a
2-core machine; see README.md for the reasons and reference timings.
"""

from __future__ import annotations

import json
import math
import os

import numpy as np

from thetalab import calibration, cli, flow, lattice, reduction, spectral

import oracles

ASD_FLUXES = "12:1,34:-1"
ASD_FLUX_MATRIX = [[0, 1, 0, 0], [-1, 0, 0, 0], [0, 0, 0, -1], [0, 0, 1, 0]]
U1_ANGLE = 0.7
NOISE = 0.05
FLOW_TOL = 1e-8


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _read_json(path: str) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _pullback(model: str, y_dims: tuple, x_dims: tuple,
              twist) -> "lattice.GaugeField":
    """Pullback of the T^4 ASD instanton, built through the library API."""
    x_geom = lattice.LatticeGeometry(x_dims, (1.0,) * 4,
                                     calibration.four_manifold_model())
    field_x = lattice.constant_curvature_abelian(x_geom, ASD_FLUX_MATRIX)
    geom = lattice.LatticeGeometry(y_dims + x_dims,
                                   (1.0,) * (len(y_dims) + 4),
                                   calibration.catalog(model))
    return reduction.pullback_connection(field_x, geom, twist)


def _with_links(fieldv, links):
    return lattice.GaugeField(fieldv.geometry, links, fieldv.twist)


class Workload:
    ops_per_round = 1

    def __init__(self, workdir: str, seed: int):
        self.workdir = workdir
        self.seed = seed

    def path(self, name: str) -> str:
        return os.path.join(self.workdir, name)

    def setup(self) -> None:
        raise NotImplementedError

    def run_round(self) -> list:
        """Run the timed operations; return one ok flag per operation."""
        raise NotImplementedError

    def check_round(self, ok: list) -> list:
        return []

    def final_check(self) -> list:
        return []


class FlowRecovery(Workload):
    """`thetalab flow` on a noisy U(1)-twisted S^1 x T^4 pullback."""

    Y_DIMS, X_DIMS = (3,), (3, 3, 3, 3)

    def setup(self):
        base = _pullback("circle_t4", self.Y_DIMS, self.X_DIMS,
                         reduction.FlatTwist("PicardU1", angles=(U1_ANGLE,)))
        noisy = oracles.perturb_links(base.links, NOISE, self.seed)
        lattice.save_field(_with_links(base, noisy), self.path("noisy.json"))
        spectral.decompose(calibration.catalog("circle_t4"))

    def run_round(self):
        code = cli.main(["flow", self.path("noisy.json"),
                         "--tol", repr(FLOW_TOL), "--max-iters", "2000",
                         "--out", self.path("recovered.json"),
                         "--json", self.path("flow.json"), "--assert"])
        return [code == cli.EXIT_OK]

    def check_round(self, ok):
        if not ok[0]:
            return []
        rep = _read_json(self.path("flow.json"))
        errors = oracles.check_equal("flow verdict", rep["verdict"],
                                     "converged")
        errors += oracles.check_below("flow final_residual",
                                      rep["final_residual"], FLOW_TOL)
        errors += oracles.check_close("flow kappa_after", rep["kappa_after"],
                                      2.0, 1e-6)
        return errors

    def final_check(self):
        out = lattice.load_field(self.path("recovered.json"))
        residual = oracles.circle_t4_residual(out.links, out.geometry.lengths)
        reported = _read_json(self.path("flow.json"))["final_residual"]
        errors = oracles.check_below("recomputed residual", residual,
                                     FLOW_TOL)
        errors += oracles.check_close("recomputed vs reported residual",
                                      residual, reported, 1e-6,
                                      relative=True)
        unitarity = float(np.max(np.abs(
            out.links @ np.conjugate(np.swapaxes(out.links, -1, -2))
            - np.eye(2))))
        errors += oracles.check_below("link unitarity deviation",
                                      unitarity, 1e-12)
        return errors


class CliSession(Workload):
    """The README verification session through `cli.main`, on two models."""

    # (model, Y dims, X dims); the X factor carries the T^4 ASD instanton
    MODELS = (("circle_t4", (4,), (5, 5, 5, 5)),
              ("g2_t3xhk", (2, 2, 2), (3, 3, 3, 3)))
    STEPS = ("make", "charges_x", "twist_u1", "twist_zr", "reduce",
             "holonomy", "normalize", "equivalent_normalized",
             "equivalent_twists", "feasible", "charges_u1")
    ops_per_round = len(STEPS) * len(MODELS)

    def setup(self):
        for model, y_dims, x_dims in self.MODELS:
            os.makedirs(self.path(model), exist_ok=True)
            angles = (U1_ANGLE,) * len(y_dims)
            lifted = _pullback(model, y_dims, x_dims,
                               reduction.FlatTwist("PicardU1", angles=angles))
            gauged = oracles.fibre_gauge(lifted.links, len(y_dims), self.seed)
            lattice.save_field(_with_links(lifted, gauged),
                               self.path(f"{model}/gauged.json"))
            spectral.decompose(calibration.catalog(model))
            spectral.decompose(calibration.catalog(model).x_model())
        spectral.decompose(calibration.four_manifold_model())

    def _argvs(self, model, y_dims, x_dims):
        """Command lines of one model's session, in STEPS order.  Each
        writes its JSON report to <model>/<step>.json."""
        def p(name):
            return self.path(f"{model}/{name}")

        n_y = len(y_dims)
        twist = ["twist", p("inst.json"), "--y-dims", _csv(y_dims),
                 "--model", model]
        argvs = (
            ["make-instanton", "--fluxes", ASD_FLUXES, "--dims", _csv(x_dims),
             "--out", p("inst.json")],
            ["charges", p("inst.json")],
            twist + ["--picard", _csv((U1_ANGLE,) * n_y),
                     "--out", p("u1.json")],
            twist + ["--zr", _csv((1,) + (0,) * (n_y - 1)),
                     "--out", p("zr.json")],
            ["reduce", p("u1.json"), "--assert"],
            ["holonomy", p("u1.json"), "--generator", "0", "--assert"],
            ["normalize", p("gauged.json"), "--out", p("normalized.json")],
            ["equivalent", p("gauged.json"), p("normalized.json"), "--assert"],
            ["equivalent", p("u1.json"), p("zr.json")],
            ["feasible", "--field", p("u1.json"), "--assert"],
            ["charges", p("u1.json")],
        )
        return [argv + ["--json", p(f"{step}.json")]
                for step, argv in zip(self.STEPS, argvs)]

    def run_round(self):
        return [cli.main(argv) == cli.EXIT_OK
                for model in self.MODELS for argv in self._argvs(*model)]

    def check_round(self, ok):
        errors = []
        n = len(self.STEPS)
        for i, (model, y_dims, _) in enumerate(self.MODELS):
            done = dict(zip(self.STEPS, ok[n * i: n * (i + 1)]))

            def rep(step):
                return _read_json(self.path(f"{model}/{step}.json"))

            if done["charges_x"]:
                errors += oracles.check_charge_report(
                    f"{model} X-factor", rep("charges_x"), 0)
            if done["reduce"]:
                red = rep("reduce")
                errors += oracles.check_equal(f"{model} reduce passed",
                                              red["passed"], True)
                errors += oracles.check_below(f"{model} max F20",
                                              red["max_F20"], 1e-12)
                errors += oracles.check_below(f"{model} max F11",
                                              red["max_F11"], 1e-12)
            if done["holonomy"]:
                errors += oracles.check_matrix(
                    f"{model} U(1) holonomy at the origin",
                    oracles.holonomy_from_report(rep("holonomy")),
                    oracles.u1_holonomy(U1_ANGLE), 1e-12)
            if done["equivalent_normalized"]:
                errors += oracles.check_equal(
                    f"{model} field vs its normalized copy equivalent",
                    rep("equivalent_normalized")["equivalent"], True)
            if done["equivalent_twists"]:
                errors += oracles.check_equal(
                    f"{model} U(1) vs Z_r pullbacks equivalent",
                    rep("equivalent_twists")["equivalent"], False)
            if done["feasible"]:
                errors += oracles.check_equal(
                    f"{model} feasibility", rep("feasible")["kind"],
                    "Possible")
            if done["charges_u1"]:
                errors += oracles.check_charge_report(
                    f"{model} pullback", rep("charges_u1"),
                    math.prod(y_dims))
        return errors

    def final_check(self):
        errors = []
        for model, y_dims, _ in self.MODELS:
            u1_path = self.path(f"{model}/u1.json")
            field = lattice.load_field(u1_path)
            f20, f11 = oracles.max_mixed_sectors(
                field.links, field.geometry.lengths, len(y_dims))
            errors += oracles.check_below(f"{model} recomputed max F20",
                                          f20, 1e-12)
            errors += oracles.check_below(f"{model} recomputed max F11",
                                          f11, 1e-12)
            copy_path = self.path(f"{model}/u1_resaved.json")
            lattice.save_field(field, copy_path)
            again = lattice.load_field(copy_path)
            errors += oracles.check_equal(
                f"{model} save/load round trip bit-identical",
                again.links.tobytes() == field.links.tobytes(), True)
        return errors


class FdGradient(Workload):
    """Central-difference residual gradient against the analytic one."""

    Y_DIMS, X_DIMS = (2,), (2, 2, 2, 2)
    H_FD = 1e-5

    def setup(self):
        base = _pullback("circle_t4", self.Y_DIMS, self.X_DIMS,
                         reduction.FlatTwist.trivial(1))
        self.field = _with_links(
            base, oracles.perturb_links(base.links, NOISE, self.seed))
        lattice.theta_residual(self.field)       # fills the spectral cache

    def run_round(self):
        self.g_fd = flow.residual_gradient(self.field,
                                           mode="finite_difference",
                                           h_fd=self.H_FD)
        self.g_an = flow.residual_gradient(self.field, mode="analytic")
        return [True]

    def check_round(self, ok):
        if not ok[0]:
            return []
        return oracles.check_below("analytic vs FD gradient relative gap",
                                   oracles.relative_gap(self.g_an, self.g_fd),
                                   1e-5)

    def final_check(self):
        links, lengths = self.field.links, self.field.geometry.lengths
        residual = oracles.circle_t4_residual(links, lengths)
        errors = oracles.check_close(
            "theta_residual vs recomputed residual",
            lattice.theta_residual(self.field), residual, 1e-10,
            relative=True)
        # directional derivative of the benchmark's own residual along a
        # random su(2) direction xi: dR = sum <grad, xi> = -4 Re tr(grad xi)
        xi = oracles.random_su2(np.random.default_rng(self.seed + 1),
                                links.shape[:-2])
        h = 1e-4
        plus = oracles.circle_t4_residual(
            oracles.exp_su2(h * xi) @ links, lengths)
        minus = oracles.circle_t4_residual(
            oracles.exp_su2(-h * xi) @ links, lengths)
        slope = -4.0 * float(np.real(np.sum(self.g_an
                                            * np.swapaxes(xi, -1, -2))))
        errors += oracles.check_close(
            "analytic gradient vs recomputed directional derivative",
            slope, (plus - minus) / (2 * h), 1e-5, relative=True)
        return errors


WORKLOADS = {"flow_recovery": FlowRecovery,
             "cli_session": CliSession,
             "fd_gradient": FdGradient}
