"""Command-line entry point.

Subcommands wire the library modules into batch-friendly pipelines:
spectra and energy identities of calibration models, instanton
construction, charge reports, twisted pullbacks, gauge normalization,
holonomy probes, reduction verification, equivalence tests, gradient
flow, and feasibility verdicts.  All reports are deterministic JSON
(sorted keys, no timestamps); every command that consumes randomness
records its seed in the output.

Exit codes: 0 success, 1 assertion failure (with --assert), 2 usage
error, 3 numerical error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from dataclasses import dataclass, field as dfield
from typing import Optional

import numpy as np

from . import calibration, lattice, reduction, spectral, transport, flow
from .liegroup import LogBranchError

EXIT_OK = 0
EXIT_ASSERT = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

_NUMERICAL_ERRORS = (
    LogBranchError,
    spectral.ClusteringAmbiguityError,
    calibration.DegenerateThetaError,
    reduction.NonStabilizingTwistError,
    np.linalg.LinAlgError,
)


def _emit(obj: dict, path: Optional[str]) -> None:
    text = json.dumps(obj, indent=2, sort_keys=True)
    if path:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _parse_fluxes(text: str, n: int) -> list:
    """'12:1,34:-1' -> antisymmetric n x n integer matrix (1-based axes)."""
    mat = [[0] * n for _ in range(n)]
    if text:
        for chunk in text.split(","):
            axes, _, val = chunk.partition(":")
            if len(axes) != 2 or not val:
                raise ValueError(f"bad flux entry {chunk!r}; expected 'MN:k'")
            mu, nu, k = int(axes[0]) - 1, int(axes[1]) - 1, int(val)
            if not (0 <= mu < n and 0 <= nu < n) or mu == nu:
                raise ValueError(f"flux axes out of range in {chunk!r}")
            mat[mu][nu] += k
            mat[nu][mu] -= k
    return mat


def _parse_ints(text: str) -> tuple:
    return tuple(int(tok) for tok in text.split(",") if tok)


def _parse_floats(text: str) -> tuple:
    return tuple(float(tok) for tok in text.split(",") if tok)


@dataclass
class ExperimentManifest:
    """Reproducible experiment description loadable from a JSON file."""
    model: Optional[str] = None
    dims: Optional[tuple] = None
    lengths: Optional[tuple] = None
    fluxes: Optional[str] = None
    twist: Optional[dict] = None
    flow: dict = dfield(default_factory=dict)
    seed: int = 0
    outputs: dict = dfield(default_factory=dict)

    @staticmethod
    def load(path: str) -> "ExperimentManifest":
        with open(path) as fh:
            raw = json.load(fh)
        man = ExperimentManifest()
        for key in ("model", "fluxes", "twist", "flow", "seed", "outputs"):
            if key in raw:
                setattr(man, key, raw[key])
        if "dims" in raw:
            man.dims = tuple(raw["dims"])
        if "lengths" in raw:
            man.lengths = tuple(raw["lengths"])
        if man.model is not None:
            calibration.catalog(man.model)   # fail fast on bad labels
        return man


def _manifest(args) -> ExperimentManifest:
    if getattr(args, "config", None):
        return ExperimentManifest.load(args.config)
    return ExperimentManifest()


def _load_twist_arg(args, n_gens: int) -> reduction.FlatTwist:
    if getattr(args, "zr", None):
        return reduction.FlatTwist("CyclicZr", ks=_parse_ints(args.zr))
    if getattr(args, "picard", None):
        return reduction.FlatTwist("PicardU1", angles=_parse_floats(args.picard))
    return reduction.FlatTwist.trivial(n_gens)


# ----------------------------------------------------------------- commands

def _cmd_spectrum(args) -> int:
    model = calibration.catalog(args.model)
    dec = spectral.decompose(model)
    ell = spectral.ellipticity_check(model)
    out = {
        "model": model.label,
        "n": model.n,
        "eigenvalues": [float(v) for v in dec.eigenvalues],
        "multiplicities": [int(m) for m in dec.multiplicities],
        "lambda_min": float(dec.lambda_min),
        "elliptic": bool(ell.elliptic),
        "ellipticity": str(ell),
    }
    _emit(out, args.json)
    return EXIT_OK


def _cmd_identity_check(args) -> int:
    model = calibration.catalog(args.model)
    rng = np.random.default_rng(args.seed)
    basis = spectral.decompose(model).basis
    worst = 0.0
    for _ in range(args.count):
        vec = rng.standard_normal(len(basis))
        omega = spectral.vector_to_form(vec, model.n, basis)
        worst = max(worst, spectral.energy_identity_residual(omega, model))
    out = {"model": model.label, "samples": args.count, "seed": args.seed,
           "max_residual": worst, "tolerance": args.tol,
           "pass": bool(worst < args.tol)}
    _emit(out, args.json)
    if args.assert_ and worst >= args.tol:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_make_instanton(args) -> int:
    man = _manifest(args)
    dims = _parse_ints(args.dims) if args.dims else man.dims
    if dims is None:
        raise ValueError("--dims is required (or provide a config file)")
    label = args.model or man.model or "four_manifold"
    model = calibration.catalog(label)
    lengths = (_parse_floats(args.lengths) if args.lengths
               else (man.lengths or tuple(1.0 for _ in dims)))
    geom = lattice.LatticeGeometry(tuple(dims), tuple(lengths), model)
    fluxes = _parse_fluxes(args.fluxes or man.fluxes or "", model.n)
    fieldv = lattice.constant_curvature_abelian(geom, fluxes)
    seed = args.seed if args.seed is not None else man.seed
    if args.noise:
        fieldv = flow.perturb(fieldv, args.noise, seed)
    out_path = args.out or man.outputs.get("field")
    if not out_path:
        raise ValueError("--out is required (or outputs.field in the config)")
    lattice.save_field(fieldv, out_path, seed=seed)
    _emit({"written": out_path, "model": model.label, "dims": list(dims),
           "fluxes": fluxes, "seed": seed, "noise": args.noise}, args.json)
    return EXIT_OK


def _cmd_charges(args) -> int:
    fieldv = lattice.load_field(args.field)
    report = lattice.charges(fieldv)
    _emit(report.to_json(), args.json)
    return EXIT_OK


def _cmd_twist(args) -> int:
    field_x = lattice.load_field(args.field)
    if args.y_dims:
        y_dims = _parse_ints(args.y_dims)
        label = args.model or "circle_t4"
        model = calibration.catalog(label)
        dims = tuple(y_dims) + field_x.geometry.dims
        y_lengths = (_parse_floats(args.y_lengths) if args.y_lengths
                     else tuple(1.0 for _ in y_dims))
        lengths = tuple(y_lengths) + field_x.geometry.lengths
        geom = lattice.LatticeGeometry(dims, lengths, model)
        twist = _load_twist_arg(args, len(y_dims))
        out_field = reduction.pullback_connection(field_x, geom, twist)
    else:
        dy = field_x.geometry.dim_y
        twist = _load_twist_arg(args, dy)
        out_field = reduction.twist_map(field_x, twist)
    lattice.save_field(out_field, args.out)
    _emit({"written": args.out, "twist_kind": twist.kind,
           "central": bool(twist.is_central(out_field.rank))}, args.json)
    return EXIT_OK


def _cmd_normalize(args) -> int:
    fieldv = lattice.load_field(args.field)
    normalized, transform = transport.gauge_normalize(fieldv)
    if args.out:
        lattice.save_field(normalized, args.out)
    dev = float(np.abs(transform - np.eye(fieldv.rank)).max())
    _emit({"written": args.out, "max_transform_deviation_from_identity": dev},
          args.json)
    return EXIT_OK


def _cmd_holonomy(args) -> int:
    fieldv = lattice.load_field(args.field)
    hol = transport.horizontal_holonomy(fieldv, args.generator)
    origin = hol[(0,) * (hol.ndim - 2)]
    field_x = transport.restriction(fieldv)
    resid = transport.stabilizer_residual(hol, field_x)
    out = {
        "generator": args.generator,
        "holonomy_at_origin": [[[z.real, z.imag] for z in row]
                               for row in origin],
        "stabilizer_residual": resid,
    }
    _emit(out, args.json)
    if args.assert_ and resid >= args.tol:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_reduce(args) -> int:
    fieldv = lattice.load_field(args.field)
    report = reduction.verify_reduction(
        fieldv, tol_sector=args.tol, tol_beta=args.tol,
        tol_holonomy=max(args.tol, 1e-8), tol_alpha=max(args.tol, 1e-8))
    _emit(report.to_json(), args.json)
    if args.assert_ and not report.passed:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_equivalent(args) -> int:
    field_a = lattice.load_field(args.field_a)
    field_b = lattice.load_field(args.field_b)
    verdict = transport.fibre_based_equivalent(field_a, field_b, tol=args.tol)
    out = {"equivalent": bool(verdict.equivalent),
           "witness": verdict.witness,
           "deviation": verdict.deviation}
    _emit(out, args.json)
    if args.assert_ and not verdict.equivalent:
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_flow(args) -> int:
    man = _manifest(args)
    fieldv = lattice.load_field(args.field)
    flow_kwargs = dict(man.flow)
    if args.tol is not None:
        flow_kwargs["tol_residual"] = args.tol
    if args.max_iters is not None:
        flow_kwargs["max_iters"] = args.max_iters
    if args.grad is not None:
        flow_kwargs["grad_mode"] = {"fd": "finite_difference",
                                    "analytic": "analytic"}[args.grad]
    cfg = flow.FlowConfig(**flow_kwargs)
    before = lattice.charges(fieldv)
    result, trace = flow.minimize(fieldv, cfg)
    after = lattice.charges(result)
    if args.out:
        lattice.save_field(result, args.out)
    if args.trace:
        with open(args.trace, "w") as fh:
            fh.write("iter,residual,step,gradnorm\n")
            for row in trace.rows():
                fh.write("%d,%.17g,%.17g,%.17g\n" % row)
    out = {
        "verdict": trace.verdict,
        "iterations": len(trace.residuals),
        "final_residual": trace.residuals[-1] if trace.residuals
        else flow.residual_value(result),
        "kappa_before": before.kappa,
        "kappa_after": after.kappa,
        "charge_drift": abs(after.kappa - before.kappa),
        "written": args.out,
    }
    _emit(out, args.json)
    if args.assert_ and trace.verdict != "converged":
        return EXIT_ASSERT
    return EXIT_OK


def _cmd_feasible(args) -> int:
    if args.field:
        fieldv = lattice.load_field(args.field)
        verdict = reduction.field_feasibility(fieldv)
    else:
        model = calibration.catalog(args.model)
        degree = args.degree
        if args.fluxes and degree is None and model.label.startswith("kahler"):
            dim_x = model.split[1] if model.split else model.n
            fl = _parse_fluxes(args.fluxes, dim_x)
            degree = reduction.kahler_degree(fl)
        verdict = reduction.feasibility(
            model, kappa_alpha=args.kappa_alpha, kappa_beta=args.kappa_beta,
            vol_y=args.vol_y, degree=degree if degree is not None else 0.0)
    out = {"verdict": str(verdict), "kind": verdict.kind,
           "case": verdict.case, "warning": verdict.warning}
    _emit(out, args.json)
    if args.assert_ and verdict.kind == "Empty":
        return EXIT_ASSERT
    return EXIT_OK


# ------------------------------------------------------------------- parser

def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="thetalab",
        description="Numerical laboratory for calibrated lattice instantons.")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, assertable=True):
        p.add_argument("--json", metavar="PATH", default=None,
                       help="write the JSON report here instead of stdout")
        if assertable:
            p.add_argument("--assert", dest="assert_", action="store_true",
                           help="exit 1 when the verdict fails")

    p = sub.add_parser("spectrum", help="eigen-decomposition of a model")
    p.add_argument("model")
    add_common(p, assertable=False)
    p.set_defaults(func=_cmd_spectrum)

    p = sub.add_parser("identity-check",
                       help="energy identity residual over random 2-forms")
    p.add_argument("model")
    p.add_argument("--count", type=int, default=1000)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-9)
    add_common(p)
    p.set_defaults(func=_cmd_identity_check)

    p = sub.add_parser("make-instanton",
                       help="constant-curvature abelian field on a torus")
    p.add_argument("--model", default=None)
    p.add_argument("--dims", default=None, help="comma-separated site counts")
    p.add_argument("--lengths", default=None)
    p.add_argument("--fluxes", default="", help="e.g. 12:1,34:-1")
    p.add_argument("--noise", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--config", default=None, help="experiment manifest JSON")
    p.add_argument("--out", default=None)
    add_common(p, assertable=False)
    p.set_defaults(func=_cmd_make_instanton)

    p = sub.add_parser("charges", help="Chern-Weil charge report")
    p.add_argument("field")
    add_common(p, assertable=False)
    p.set_defaults(func=_cmd_charges)

    p = sub.add_parser("twist", help="twisted pullback of a base field")
    p.add_argument("field")
    p.add_argument("--zr", default=None, help="cyclic twist exponents k,k,...")
    p.add_argument("--picard", default=None, help="U(1) angles per generator")
    p.add_argument("--y-dims", default=None,
                   help="fibre torus site counts; omit to retwist in place")
    p.add_argument("--y-lengths", default=None)
    p.add_argument("--model", default=None)
    p.add_argument("--out", required=True)
    add_common(p, assertable=False)
    p.set_defaults(func=_cmd_twist)

    p = sub.add_parser("normalize", help="fibre-based gauge normalization")
    p.add_argument("field")
    p.add_argument("--out", default=None)
    add_common(p, assertable=False)
    p.set_defaults(func=_cmd_normalize)

    p = sub.add_parser("holonomy", help="horizontal holonomy probe")
    p.add_argument("field")
    p.add_argument("--generator", type=int, default=0)
    p.add_argument("--tol", type=float, default=1e-8)
    add_common(p)
    p.set_defaults(func=_cmd_holonomy)

    p = sub.add_parser("reduce", help="verify dimension-reduction structure")
    p.add_argument("field")
    p.add_argument("--tol", type=float, default=1e-10)
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("equivalent", help="fibre-based equivalence test")
    p.add_argument("field_a")
    p.add_argument("field_b")
    p.add_argument("--tol", type=float, default=1e-8)
    add_common(p)
    p.set_defaults(func=_cmd_equivalent)

    p = sub.add_parser("flow", help="residual-minimizing flow")
    p.add_argument("field")
    p.add_argument("--tol", type=float, default=None)
    p.add_argument("--max-iters", type=int, default=None)
    p.add_argument("--grad", choices=("fd", "analytic"), default=None)
    p.add_argument("--config", default=None, help="experiment manifest JSON")
    p.add_argument("--out", default=None)
    p.add_argument("--trace", default=None, help="CSV trace path")
    add_common(p)
    p.set_defaults(func=_cmd_flow)

    p = sub.add_parser("feasible", help="moduli feasibility verdict")
    p.add_argument("--model", default=None)
    p.add_argument("--field", default=None)
    p.add_argument("--kappa-alpha", type=float, default=0.0)
    p.add_argument("--kappa-beta", type=float, default=0.0)
    p.add_argument("--vol-y", type=float, default=1.0)
    p.add_argument("--degree", type=float, default=None)
    p.add_argument("--fluxes", default=None)
    add_common(p)
    p.set_defaults(func=_cmd_feasible)

    return parser


def _apply_thread_cap() -> None:
    cap = os.environ.get("CALIB_THREADS")
    if not cap:
        return
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                "MKL_NUM_THREADS", "NUMEXPR_NUM_THREADS"):
        os.environ.setdefault(var, cap)


def main(argv=None) -> int:
    _apply_thread_cap()
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.func(args)
    except _NUMERICAL_ERRORS as exc:
        print(f"numerical error: {exc}", file=sys.stderr)
        return EXIT_NUMERICAL
    except (ValueError, KeyError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":   # pragma: no cover
    sys.exit(main())
