"""Per-layer spans for a traced sweep, recorded from outside the package.

Each hook wraps a public function at the name its caller looks up (for
example `fourierhybrid.experiments.fourier_samples`, not the definition in
`sampling`), so no file under src/ changes. A hook whose target no longer
exists is reported as absent instead of failing the run; the cost it used
to cover then shows in its caller's self time or in `trace.untraced_s`.

A span's self time is its wall time minus the wall time of the spans it
called. Spans are kept in memory and summed; nothing is written while the
sweep runs.
"""

from __future__ import annotations

import functools
import importlib
import os
import time

import numpy as np

# Probe failures that mean "the hooked function changed shape", not a bug.
_PROBE_ERRORS = (AttributeError, IndexError, KeyError, TypeError, ValueError)


class Tracer:
    def __init__(self):
        self.total: dict[str, float] = {}
        self.self_time: dict[str, float] = {}
        self.calls: dict[str, int] = {}
        self.counts: dict[str, float] = {}
        self.hooked: set[str] = set()
        self.broken_probes: set[str] = set()
        self.absent: list[str] = []
        self._child_time = [0.0]

    def wrap(self, span, fn, probe):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            self._child_time.append(0.0)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = time.perf_counter() - start
                child = self._child_time.pop()
                self._child_time[-1] += elapsed
                self.total[span] = self.total.get(span, 0.0) + elapsed
                self.self_time[span] = self.self_time.get(span, 0.0) + elapsed - child
                self.calls[span] = self.calls.get(span, 0) + 1
            if probe is not None and span not in self.broken_probes:
                try:
                    probe(self, args, kwargs, result)
                except _PROBE_ERRORS:
                    self.broken_probes.add(span)
                    self.absent.append(f"{span} counters")
            return result

        return traced

    def add(self, name, value):
        self.counts[name] = self.counts.get(name, 0) + value

    def max(self, name, value):
        self.counts[name] = max(self.counts.get(name, value), value)


def _frequencies(t, args, kwargs, samples):
    t.add("sampling.frequencies", int(np.size(samples.values)))


def _omega_health(t, args, kwargs, op):
    t.add("frame.omega_entries", int(op.omega.size))
    t.max("frame.cond_max", float(op.s[0] / op.s[-1]))
    t.add("frame.rank_deficit", int(op.omega.shape[1] - op.effective_rank))


def _rhs_columns(t, args, kwargs, result):
    eta = args[1] if len(args) > 1 else kwargs["eta"]
    t.add("frame.pinv_apply_rhs", 1 if np.ndim(eta) == 1 else int(np.shape(eta)[1]))


def _eval_points(t, args, kwargs, result):
    recon = args[0] if args else kwargs["recon"]
    points = int(np.size(result[0]))
    t.add("frame.eval_points", points)
    # complex (points x 2m+1) filtered-sample matrix, from array sizes
    t.add("frame.weight_bytes_computed", points * int(np.size(recon.samples.values)) * 16)


def _p_max(t, args, kwargs, result):
    p = np.asarray(args[0] if args else kwargs["p"])
    if p.size:
        t.max("filters.p_max", int(p.max()))


def _fit(t, args, kwargs, fit):
    t.add("chebfit.fit_nodes", int(np.size(args[0] if args else kwargs["xs"])))
    t.max("chebfit.residual_max", float(fit.residual_norm))


def _extrapolated(t, args, kwargs, hyb):
    t.add("hybrid.extrapolated_points", int(np.count_nonzero(hyb.extrapolated)))


# (module:attribute looked up by the caller, span name, probe, counters)
HOOKS = (
    ("experiments:fourier_samples", "sampling.fourier_samples", _frequencies,
     ("sampling.frequencies",)),
    ("experiments:assemble_omega", "frame.assemble_omega", _omega_health,
     ("frame.omega_entries", "frame.cond_max", "frame.rank_deficit")),
    ("frame:FrameOperator.pinv_apply", "frame.pinv_apply", _rhs_columns,
     ("frame.pinv_apply_rhs",)),
    ("hybrid:filter_reconstruct", "frame.filter_reconstruct", _eval_points,
     ("frame.eval_points", "frame.weight_bytes_computed")),
    ("frame:sigma_weight_matrix", "filters.sigma_weight_matrix", _p_max,
     ("filters.p_max",)),
    ("frame:adaptive_params", "filters.adaptive_params", None, ()),
    ("hybrid:chebyshev_fit", "chebfit.chebyshev_fit", _fit,
     ("chebfit.fit_nodes", "chebfit.residual_max")),
    ("hybrid:evaluate_fit", "chebfit.evaluate_fit", None, ()),
    ("experiments:hybrid_reconstruct", "hybrid.hybrid_reconstruct", _extrapolated,
     ("hybrid.extrapolated_points",)),
    ("experiments:ground_truth_error", "oracles.ground_truth_error", None, ()),
    ("experiments:write_line_svg", "experiments.write_line_svg", None, ()),
)

# write_line_svg runs after a record's wall_time stops, so it lies inside
# experiments.io_s; every other span lies inside some record's wall_time.
_IO_SPANS = ("experiments.write_line_svg",)

PER_LAYER = (
    ("sampling.fourier_samples_s", "s"),
    ("sampling.frequencies", "count"),
    ("frame.assemble_omega_s", "s"),
    ("frame.omega_entries", "count"),
    ("frame.cond_max", "ratio"),
    ("frame.rank_deficit", "count"),
    ("frame.pinv_apply_s", "s"),
    ("frame.pinv_apply_rhs", "count"),
    ("frame.filter_reconstruct_s", "s"),
    ("frame.filter_reconstruct_self_s", "s"),
    ("frame.eval_points", "count"),
    ("frame.weight_bytes_computed", "bytes"),
    ("filters.sigma_weight_matrix_s", "s"),
    ("filters.p_max", "count"),
    ("filters.adaptive_params_s", "s"),
    ("filters.adaptive_params_calls", "count"),
    ("chebfit.chebyshev_fit_s", "s"),
    ("chebfit.evaluate_fit_s", "s"),
    ("chebfit.fit_nodes", "count"),
    ("chebfit.residual_max", "rms"),
    ("hybrid.hybrid_reconstruct_s", "s"),
    ("hybrid.hybrid_reconstruct_self_s", "s"),
    ("hybrid.extrapolated_points", "count"),
    ("oracles.ground_truth_error_s", "s"),
    ("experiments.io_s", "s"),
    ("experiments.write_line_svg_s", "s"),
    ("experiments.bytes_written", "bytes"),
    ("experiments.files_written", "count"),
    ("trace.overhead_s", "s"),
    ("trace.untraced_s", "s"),
)


def install() -> Tracer:
    """Wrap every hook target that exists; record the others as absent."""
    tracer = Tracer()
    for target, span, probe, _ in HOOKS:
        module_name, _, path = target.partition(":")
        *owners, attr = path.split(".")
        try:
            owner = importlib.import_module(f"fourierhybrid.{module_name}")
            for name in owners:
                owner = getattr(owner, name)
            fn = getattr(owner, attr)
        except (ImportError, AttributeError):
            fn = None
        if not callable(fn):
            tracer.absent.append(target)
            continue
        tracer.hooked.add(span)
        setattr(owner, attr, tracer.wrap(span, fn, probe))
    return tracer


def layer_values(tracer: Tracer, sweep_s: float, io_s: float, files: list[str]) -> dict:
    """Per-layer metric values of one traced sweep; None marks an absent one.

    trace.overhead_s needs an untraced sweep and is filled in by the caller.
    """
    values: dict[str, float | None] = {}
    for _, span, _, counters in HOOKS:
        present = span in tracer.hooked
        values[f"{span}_s"] = tracer.total.get(span, 0.0) if present else None
        values[f"{span}_self_s"] = tracer.self_time.get(span, 0.0) if present else None
        counted = present and span not in tracer.broken_probes
        for name in counters:
            values[name] = tracer.counts.get(name, 0) if counted else None
    values["filters.adaptive_params_calls"] = (
        tracer.calls.get("filters.adaptive_params", 0)
        if "filters.adaptive_params" in tracer.hooked else None
    )
    covered = io_s + sum(
        t for span, t in tracer.self_time.items() if span not in _IO_SPANS
    )
    values["experiments.io_s"] = io_s
    values["experiments.bytes_written"] = sum(os.path.getsize(f) for f in files)
    values["experiments.files_written"] = len(files)
    values["trace.untraced_s"] = sweep_s - covered
    names = {name for name, _ in PER_LAYER}
    return {name: value for name, value in values.items() if name in names}

