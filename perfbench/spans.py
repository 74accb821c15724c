"""Tracing from outside the program: wrappers on cnlight's binding sites.

cnlight's modules import each other's functions by name (``from .dynamics
import integrate``), so each module holds its own reference.  A wrapper on
``dynamics.integrate`` alone would miss the calls made through
``protocol.integrate``; :data:`BINDINGS` therefore lists every module
attribute through which the workloads reach another layer, and
:class:`Tracer` replaces each of them while a traced op runs.

Spans are kept in memory and written with the run's record
(:meth:`Tracer.span_table`).  Their start and end are raw wall-clock
readings.  The per-layer times are host-normalised instead: each op's span
durations are scaled by the host speed measured during that op, the same
factor that normalises its op time (hostclock.py).  The hottest calls (the
envelope and the right-hand side, about 10^5 per search op) are only
counted and timed in aggregate; recording one span object each would
dominate the run.
"""

from __future__ import annotations

import functools
import importlib
import time
from collections import defaultdict
from typing import Dict, List, Tuple

# (module, attribute, layer); the span name is "<layer>.<attribute>"
BINDINGS: Tuple[Tuple[str, str, str], ...] = (
    ("cnlight.protocol", "run_protocol", "protocol"),
    ("cnlight.protocol", "first_passage", "protocol"),
    ("cnlight.protocol", "find_tof_for_cat", "protocol"),
    ("cnlight.protocol", "subsequent_passage", "protocol"),
    ("cnlight.cli", "run_protocol", "protocol"),
    ("cnlight.cli", "find_tof_for_cat", "protocol"),
    ("cnlight.cli", "subsequent_passage", "protocol"),
    ("cnlight.cli", "run_command", "cli"),
    ("cnlight.protocol", "integrate", "dynamics"),
    ("cnlight.cli", "integrate", "dynamics"),
    ("cnlight.protocol", "ground_product_state", "dynamics"),
    ("cnlight.cli", "ground_product_state", "dynamics"),
    ("cnlight.cli", "make_superposition", "dynamics"),
    ("cnlight.dynamics", "integrate_ode", "dynamics"),
    ("cnlight.dynamics", "interaction_matrix", "dynamics"),
    ("cnlight.dynamics", "bump", "dynamics"),
    ("cnlight.protocol", "reduce_field", "observables"),
    ("cnlight.cli", "reduce_field", "observables"),
    ("cnlight.protocol", "detect_cyclic_symmetry", "observables"),
    ("cnlight.cli", "detect_cyclic_symmetry", "observables"),
    ("cnlight.protocol", "photon_probabilities", "observables"),
    ("cnlight.cli", "photon_probabilities", "observables"),
    ("cnlight.protocol", "linear_entropy", "observables"),
    ("cnlight.cli", "linear_entropy", "observables"),
    ("cnlight.cli", "husimi", "observables"),
    ("cnlight.observables", "husimi_values", "observables"),
    ("cnlight.protocol", "build_sector_basis", "hilbert"),
    ("cnlight.dynamics", "build_sector_basis", "hilbert"),
    ("cnlight.cli", "build_sector_basis", "hilbert"),
    ("cnlight.protocol", "switching_time", "analytic_core"),
    ("cnlight.cli", "step_spectrum", "analytic_core"),
    ("cnlight.cli", "dressed_states", "analytic_core"),
    ("cnlight.cli", "dressed_linear_entropy", "analytic_core"),
    ("cnlight.cli", "propagator", "analytic_core"),
)

_SEARCHES = ("protocol.first_passage", "protocol.find_tof_for_cat")
# counted and timed in aggregate, no span record
_AGGREGATE = ("dynamics.bump",)


class _Frame:
    __slots__ = ("id", "name", "start", "children")

    def __init__(self, span_id: int, name: str, start: float):
        self.id = span_id
        self.name = name
        self.start = start
        self.children = 0.0


class Tracer:
    """Installs the wrappers for one traced op at a time and keeps the spans."""

    def __init__(self) -> None:
        self.spans: List[tuple] = []      # (op, id, parent, name, start, end)
        self.calls: Dict[str, int] = defaultdict(int)
        # host-normalised seconds over all ops; self time is by layer
        self.total_s: Dict[str, float] = defaultdict(float)
        self.self_s: Dict[str, float] = defaultdict(float)
        # wall seconds of the op being traced
        self._op_total: Dict[str, float] = defaultdict(float)
        self._op_self: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, float] = defaultdict(float)
        self.norm_drift_max = 0.0
        self.missing_bindings: List[str] = []
        self._stack: List[_Frame] = []
        self._installed: list = []
        self._next_id = 0
        self.op = -1

    # -- installation --------------------------------------------------

    def install(self, op: int) -> None:
        self.op = op
        self._op_total = defaultdict(float)
        self._op_self = defaultdict(float)
        for mod_name, attr, layer in BINDINGS:
            mod = importlib.import_module(mod_name)
            orig = getattr(mod, attr, None)
            if orig is None:
                if f"{mod_name}.{attr}" not in self.missing_bindings:
                    self.missing_bindings.append(f"{mod_name}.{attr}")
                continue
            self._installed.append((mod, attr, orig))
            setattr(mod, attr, self._wrap(f"{layer}.{attr}", orig))

    def uninstall(self, speed: float) -> None:
        """Restore the bindings; ``speed`` is the host speed during the op."""
        while self._installed:
            mod, attr, orig = self._installed.pop()
            setattr(mod, attr, orig)
        for name, dur in self._op_total.items():
            self.total_s[name] += dur * speed
        for layer, dur in self._op_self.items():
            self.self_s[layer] += dur * speed

    def _wrap(self, name: str, fn):
        if name in _AGGREGATE:
            return self._aggregate(name, fn)
        if name == "dynamics.integrate_ode":
            return self._span(name, self._counting_rhs(fn), self._ode_stats)
        if name == "dynamics.integrate":
            return self._span(name, fn, self._trajectory_stats)
        if name == "observables.husimi_values":
            return self._span(name, self._counting_points(fn))
        return self._span(name, fn)

    # -- wrappers -------------------------------------------------------

    def _span(self, name: str, fn, on_result=None):
        stack, calls, total, self_s = self._stack, self.calls, self._op_total, self._op_self
        layer = name.split(".", 1)[0]

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1].id if stack else None
            if name == "dynamics.integrate" and any(f.name in _SEARCHES for f in stack):
                self.counts["search_integrations"] += 1
            frame = _Frame(self._next_id, name, time.perf_counter())
            self._next_id += 1
            stack.append(frame)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                dur = end - frame.start
                calls[name] += 1
                total[name] += dur
                self_s[layer] += dur - frame.children
                if stack:
                    stack[-1].children += dur
                self.spans.append(
                    (self.op, frame.id, parent, name, frame.start, end)
                )
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def _aggregate(self, name: str, fn):
        stack, calls, total, self_s = self._stack, self.calls, self._op_total, self._op_self
        layer = name.split(".", 1)[0]
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = clock() - t0
                calls[name] += 1
                total[name] += dur
                self_s[layer] += dur
                if stack:
                    stack[-1].children += dur

        return wrapper

    def _counting_rhs(self, integrate_ode):
        calls = self.calls

        @functools.wraps(integrate_ode)
        def wrapper(f, *args, **kwargs):
            def counted(t, y):
                calls["dynamics.rhs"] += 1
                return f(t, y)
            return integrate_ode(counted, *args, **kwargs)

        return wrapper

    def _counting_points(self, husimi_values):
        counts = self.counts

        @functools.wraps(husimi_values)
        def wrapper(rho, rho_r, phi):
            result = husimi_values(rho, rho_r, phi)
            counts["husimi_points"] += result.size
            return result

        return wrapper

    def _ode_stats(self, result) -> None:
        _, stats = result
        self.counts["steps_accepted"] += stats.steps
        self.counts["steps_rejected"] += stats.rejected

    def _trajectory_stats(self, traj) -> None:
        self.norm_drift_max = max(self.norm_drift_max, traj.stats.max_norm_drift)

    # -- results ----------------------------------------------------------

    def fired(self, name: str) -> bool:
        return self.calls.get(name, 0) > 0

    def span_table(self) -> dict:
        """The spans as rows, times in microseconds from the first span."""
        t0 = self.spans[0][4] if self.spans else 0.0
        return {
            "fields": ["op", "id", "parent", "name", "start_us", "end_us"],
            "rows": [
                [op, i, parent, name, round((start - t0) * 1e6), round((end - t0) * 1e6)]
                for op, i, parent, name, start, end in self.spans
            ],
        }

    def per_layer(self, n_ops: int, bytes_written: float) -> Dict[str, float]:
        """Per-op layer metrics over the traced ops (``n_ops`` of them)."""
        n = max(n_ops, 1)
        calls, total, counts = self.calls, self.total_s, self.counts
        accepted, rejected = counts["steps_accepted"], counts["steps_rejected"]
        searches = calls["protocol.first_passage"] + calls["protocol.find_tof_for_cat"]
        cli_self = self.self_s["cli"]
        return {
            "dynamics.rhs_calls": calls["dynamics.rhs"] / n,
            "dynamics.steps_accepted": accepted / n,
            "dynamics.steps_rejected": rejected / n,
            "dynamics.step_accept_ratio": (
                accepted / (accepted + rejected) if accepted + rejected else 0.0
            ),
            "dynamics.integrate_calls": calls["dynamics.integrate"] / n,
            "dynamics.integrate_ode_s": total["dynamics.integrate_ode"] / n,
            "dynamics.envelope_calls": calls["dynamics.bump"] / n,
            "dynamics.envelope_s": total["dynamics.bump"] / n,
            "dynamics.interaction_matrix_s": total["dynamics.interaction_matrix"] / n,
            "dynamics.norm_drift_max": self.norm_drift_max,
            "protocol.searches": searches / n,
            "protocol.integrations_per_search": (
                counts["search_integrations"] / searches if searches else 0.0
            ),
            "protocol.find_tof_for_cat_s": total["protocol.find_tof_for_cat"] / n,
            "protocol.first_passage_s": total["protocol.first_passage"] / n,
            "protocol.subsequent_passage_s": total["protocol.subsequent_passage"] / n,
            "protocol.self_s": self.self_s["protocol"] / n,
            "observables.reduce_field_calls": calls["observables.reduce_field"] / n,
            "observables.reduce_field_s": total["observables.reduce_field"] / n,
            "observables.husimi_points": counts["husimi_points"] / n,
            "observables.husimi_values_s": total["observables.husimi_values"] / n,
            "observables.husimi_s": total["observables.husimi"] / n,
            "observables.detect_cyclic_symmetry_s": (
                total["observables.detect_cyclic_symmetry"] / n
            ),
            "hilbert.build_sector_basis_calls": calls["hilbert.build_sector_basis"] / n,
            "hilbert.build_sector_basis_s": total["hilbert.build_sector_basis"] / n,
            "analytic_core.calls": sum(
                c for k, c in calls.items() if k.startswith("analytic_core.")
            ) / n,
            "cli.self_s": cli_self / n,
            "cli.bytes_written": bytes_written / n,
        }
