"""Per-layer metrics: which thetalab calls are traced and how spans add up.

Every metric is a value per round (the total over the traced rounds divided
by their number): a self time in seconds, a call count, or a size.
"""

from __future__ import annotations

import os
from collections import defaultdict

import numpy as np

from tracer import Tracer

CLI_COMMANDS = ("make_instanton", "charges", "twist", "reduce", "holonomy",
                "normalize", "equivalent", "feasible", "flow")

# (module, function) pairs traced under the label "<layer>.<function>"
FUNCTIONS = (
    ("flow", ("minimize", "residual_gradient", "residual_value")),
    ("lattice", ("theta_residual", "field_strength", "charges",
                 "save_field", "load_field")),
    ("liegroup", ("log", "exp", "unitarize")),
    ("spectral", ("decompose",)),
    ("transport", ("horizontal_holonomy", "gauge_normalize",
                   "fibre_based_equivalent")),
    ("reduction", ("pullback_connection", "verify_reduction",
                   "field_feasibility")),
)

# (metric, unit, how it is computed): "calls:<label>" counts spans,
# "self:<label>" sums their self time, anything else is derived below.
METRICS = (
    ("flow.cg_matvecs", "count", "calls:flow.matvec"),
    ("flow.matvec_s", "s", "self:flow.matvec"),
    ("flow.matvec_mb_computed", "MB", "matvec_mb"),
    ("flow.gn_outer_steps", "count", "calls:flow.gn_build"),
    ("flow.gn_build_s", "s", "self:flow.gn_build"),
    ("flow.descent_steps", "count", "descent_steps"),
    ("flow.residual_gradient_calls", "count", "calls:flow.residual_gradient"),
    ("flow.residual_gradient_s", "s", "self:flow.residual_gradient"),
    ("flow.residual_evals", "count", "calls:flow.residual_value"),
    ("flow.line_search_backtracks", "count", "backtracks"),
    ("lattice.theta_residual_calls", "count", "calls:lattice.theta_residual"),
    ("lattice.theta_residual_s", "s", "self:lattice.theta_residual"),
    ("lattice.field_strength_s", "s", "self:lattice.field_strength"),
    ("lattice.charges_s", "s", "self:lattice.charges"),
    ("lattice.save_field_s", "s", "self:lattice.save_field"),
    ("lattice.load_field_s", "s", "self:lattice.load_field"),
    ("lattice.field_file_bytes", "B", "file_bytes"),
    ("liegroup.log_s", "s", "self:liegroup.log"),
    ("liegroup.exp_s", "s", "self:liegroup.exp"),
    ("liegroup.unitarize_s", "s", "self:liegroup.unitarize"),
    ("spectral.decompose_calls", "count", "calls:spectral.decompose"),
    ("spectral.decompose_s", "s", "self:spectral.decompose"),
    ("transport.horizontal_holonomy_s", "s",
     "self:transport.horizontal_holonomy"),
    ("transport.gauge_normalize_s", "s", "self:transport.gauge_normalize"),
    ("transport.fibre_based_equivalent_s", "s",
     "self:transport.fibre_based_equivalent"),
    ("reduction.pullback_connection_s", "s",
     "self:reduction.pullback_connection"),
    ("reduction.verify_reduction_s", "s", "self:reduction.verify_reduction"),
    ("reduction.field_feasibility_s", "s",
     "self:reduction.field_feasibility"),
) + tuple((f"cli.{cmd}_s", "s", f"self:cli.{cmd}") for cmd in CLI_COMMANDS) \
  + (("trace.round_s", "s", "traced_round_s"),
     ("trace.overhead_pct", "%", "overhead_pct"))


def _arrays(obj):
    if isinstance(obj, np.ndarray):
        yield obj
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            yield from _arrays(item)


class LayerProbe:
    """Installs the spans and turns them into per-round layer metrics."""

    def __init__(self):
        self.tracer = Tracer()
        self.extra = defaultdict(float)

    def install(self) -> None:
        t = self.tracer
        t.wrap_method("thetalab.flow", "_GaussNewtonOperator", "__init__",
                      "flow.gn_build")
        t.wrap_method("thetalab.flow", "_GaussNewtonOperator", "matvec",
                      "flow.matvec", hook=self._matvec_bytes)
        for layer, names in FUNCTIONS:
            for name in names:
                hook = {"minimize": self._flow_trace,
                        "save_field": self._file_bytes}.get(name)
                t.wrap_function(f"thetalab.{layer}", name, f"{layer}.{name}",
                                hook=hook)
        for cmd in CLI_COMMANDS:
            t.wrap_function("thetalab.cli", f"_cmd_{cmd}", f"cli.{cmd}")

    def _matvec_bytes(self, args, kwargs, result):
        """Computed bytes a matvec streams: its input and output vectors
        plus the cached single-precision operator arrays, read once by each
        of its two passes (forward and adjoint)."""
        op, xi = args[0], args[1]
        cached = sum(a.nbytes for a in _arrays(getattr(op, "fast", ())))
        self.extra["matvec_bytes"] += 2 * cached + xi.nbytes + result.nbytes

    def _flow_trace(self, args, kwargs, result):
        trace = result[1]
        self.extra["trace_rows"] += len(trace.residuals)
        self.extra["accepted_steps"] += sum(1 for s in trace.steps if s > 0)

    def _file_bytes(self, args, kwargs, result):
        path = kwargs.get("path", args[1] if len(args) > 1 else None)
        self.extra["file_bytes"] += os.path.getsize(path)

    def metrics(self, rounds: int, traced_round_s: float,
                untraced_round_s: float) -> dict:
        """Every metric of METRICS, per round unless its unit says not."""
        calls, self_s = self.tracer.counts(), self.tracer.self_times()
        extra, matvecs = self.extra, calls["flow.matvec"]
        derived = {
            "matvec_mb": extra["matvec_bytes"] / matvecs / 1e6
            if matvecs else 0.0,
            "descent_steps": (extra["trace_rows"]
                              - calls["flow.gn_build"]) / rounds,
            "backtracks": (calls["flow.residual_value"]
                           - calls["flow.minimize"]
                           - extra["accepted_steps"]) / rounds,
            "file_bytes": extra["file_bytes"] / rounds,
            "traced_round_s": traced_round_s,
            "overhead_pct": 100.0 * (traced_round_s - untraced_round_s)
            / untraced_round_s,
        }
        out = {}
        for name, unit, source in METRICS:
            kind, _, label = source.partition(":")
            if kind == "calls":
                value = calls[label] / rounds
            elif kind == "self":
                value = self_s[label] / rounds
            else:
                value = derived[source]
            out[name] = {"value": value, "unit": unit}
        return out
