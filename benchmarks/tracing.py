"""Spans and counters recorded around the calls into meltfront's modules.

Nothing under ``src/`` is edited: :func:`instrument` swaps the module
attributes that callers look up at call time (``cli.solve_stefan``,
``grid.write_field_csv``, the ``HeatTrajectory`` bindings, the verify check
runners, ...) for wrappers, and :func:`restore` puts the originals back.

A span is ``(id, name, layer, start, end, parent)`` in ``perf_counter``
seconds.  Spans live in memory and are written out by the caller when the run
ends.  Counters record work sizes taken from the wrapped call's arguments or
result (steps, cells, bytes, taps).  They read no clock, so untraced runs
keep them on the solver entry points to get the cell-step counts.
"""

from __future__ import annotations

import functools
import os
import time
from contextlib import contextmanager

import numpy as np

LAYERS = ("cli", "stefan1d", "stefan3d", "heat", "grid", "mollifier", "verify")


class Recorder:
    """Span stack plus work counters for one operation."""

    def __init__(self, spans: bool):
        self.spans_on = spans
        self.spans: list[list] = []
        self.counts: dict[str, float] = {}
        self._stack: list[int] = []

    def count(self, key: str, n: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + n

    @contextmanager
    def span(self, name: str, layer: str):
        if not self.spans_on:
            yield
            return
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        record = [sid, name, layer, time.perf_counter(), None, parent]
        self.spans.append(record)
        self._stack.append(sid)
        try:
            yield
        finally:
            record[4] = time.perf_counter()
            self._stack.pop()


# ---------------------------------------------------------------------------
# work counters, computed from a wrapped call's arguments and result
# ---------------------------------------------------------------------------

def _stefan1d_counts(rec, args, kwargs, result):
    steps = int(result.report["steps"])
    rec.count("stefan1d.steps", steps)
    rec.count("stefan1d.cell_steps", steps * result.trajectory.grid.total_cells)


def _stefan3d_counts(rec, args, kwargs, result):
    steps = int(result.report["steps"])
    rec.count("stefan3d.steps", steps)
    rec.count("stefan3d.cell_steps", steps * result.spec.grid.total_cells)
    rec.count("stefan3d.thin_cell_steps", int(result.report["thin_cell_steps"]))


def _dirichlet_counts(rec, args, kwargs, result):
    steps = len(result) - 1
    rec.count("heat.dirichlet_steps", steps)
    rec.count("heat.dirichlet_cell_steps", steps * result.grid.total_cells)


def _front_rows(rec, args, kwargs, result):
    rec.count("stefan1d.front_rows", len(args[0].times))


def _csv_written(rec, args, kwargs, result):
    rec.count("grid.csv_write_files", 1)
    rec.count("grid.csv_write_bytes", os.path.getsize(args[1]))


def _csv_read(rec, args, kwargs, result):
    rec.count("grid.csv_read_bytes", os.path.getsize(args[0]))


def _levels_loaded(rec, args, kwargs, result):
    rec.count("verify.levels", len(result[0]))


def _kernel_pairs(rec, args, kwargs, result):
    rec.count("heat.kernel_pairs", args[0].grid.total_cells * result.grid.total_cells)


def _tap_cell_updates(rec, args, kwargs, result):
    field, kernel = args[0], args[1]
    offsets, _ = kernel.taps(field.grid.spacing)
    counts = np.asarray(field.grid.counts)
    overlap = np.clip(counts[None, :] - np.abs(offsets), 0, None)
    rec.count("mollifier.mollify_calls", 1)
    rec.count("mollifier.tap_cell_updates", int(np.prod(overlap, axis=1).sum()))


# ---------------------------------------------------------------------------
# patching
# ---------------------------------------------------------------------------

def _wrap(rec, fn, name, layer, counter):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        with rec.span(name, layer):
            result = fn(*args, **kwargs)
        if counter is not None:
            counter(rec, args, kwargs, result)
        return result
    return wrapper


def _traced_trajectory(rec, cls):
    """Subclass whose construction (the per-snapshot validation) is a span."""

    class TracedHeatTrajectory(cls):
        def __init__(self, snapshots, dt):
            snaps = tuple(snapshots)
            with rec.span("heat.trajectory_build", "heat"):
                super().__init__(snaps, dt)
            rec.count("heat.trajectory_snapshots", len(snaps))

    return TracedHeatTrajectory


def instrument(rec: Recorder, full: bool) -> list[tuple]:
    """Install wrappers; returns the patch list :func:`restore` undoes.

    With ``full`` false only the solver entry points are wrapped, for their
    step and cell counts.  With ``full`` true every boundary below is.
    """
    from meltfront import cli, grid, heat, mollifier, stefan1d, verify

    patches: list[tuple] = []

    def patch(owner, key, name, layer, counter=None):
        original = owner[key] if isinstance(owner, dict) else getattr(owner, key)
        wrapped = _wrap(rec, original, name, layer, counter)
        if isinstance(owner, dict):
            owner[key] = wrapped
        else:
            setattr(owner, key, wrapped)
        patches.append((owner, key, original))

    patch(cli, "solve_stefan", "stefan1d.solve", "stefan1d", _stefan1d_counts)
    patch(cli, "solve3d", "stefan3d.solve", "stefan3d", _stefan3d_counts)
    for mod in (cli, heat):
        patch(mod, "solve_dirichlet", "heat.solve_dirichlet", "heat", _dirichlet_counts)
    if not full:
        return patches

    patch(cli, "write_front_csv", "stefan1d.write_front", "stefan1d", _front_rows)
    for mod in (cli, heat):
        patch(mod, "write_trajectory", "heat.write_trajectory", "heat")
    patch(cli, "conservation_residual", "heat.conservation_residual", "heat")
    patch(heat, "heat_kernel_field", "heat.kernel_field", "heat", _kernel_pairs)
    for mod in (cli, grid):
        patch(mod, "write_field_csv", "grid.csv_write", "grid", _csv_written)
        patch(mod, "read_field_csv", "grid.csv_read", "grid", _csv_read)
    patch(cli, "_load_rundir", "verify.load", "verify", _levels_loaded)
    for check in list(cli._CHECK_RUNNERS):
        patch(cli._CHECK_RUNNERS, check, f"verify.check.{check}", "verify")
    for mod in (cli, mollifier):
        patch(mod, "mollify", "mollifier.mollify", "mollifier", _tap_cell_updates)
    patch(cli, "build_kernel", "mollifier.build_kernel", "mollifier")
    patch(cli, "smoothness_report", "mollifier.smoothness_report", "mollifier")

    # the class is bound by name in every module that builds trajectories
    traced = _traced_trajectory(rec, heat.HeatTrajectory)
    for mod in (cli, heat, stefan1d, verify):
        patches.append((mod, "HeatTrajectory", mod.HeatTrajectory))
        mod.HeatTrajectory = traced
    return patches


def restore(patches: list[tuple]) -> None:
    for owner, key, original in reversed(patches):
        if isinstance(owner, dict):
            owner[key] = original
        else:
            setattr(owner, key, original)


# ---------------------------------------------------------------------------
# per-layer metrics of one traced operation
# ---------------------------------------------------------------------------

def _per_step(total_s: float, steps: float, scale: float) -> float:
    return scale * total_s / steps if steps else 0.0


def layer_metrics(spans: list[list], counts: dict[str, float]) -> dict[str, float]:
    """Per-layer figures for one operation's spans and counters.

    ``*_s`` figures are inclusive span sums; ``<layer>.self_s`` is each
    layer's span time minus the part covered by its direct child spans.
    Layers an operation never enters report 0.
    """
    inclusive: dict[str, float] = {}
    self_time = dict.fromkeys(LAYERS, 0.0)
    child_time: dict[int, float] = {}
    for sid, name, layer, start, end, parent in spans:
        dur = end - start
        inclusive[name] = inclusive.get(name, 0.0) + dur
        if parent is not None:
            child_time[parent] = child_time.get(parent, 0.0) + dur
    for sid, name, layer, start, end, parent in spans:
        if layer in self_time:
            self_time[layer] += (end - start) - child_time.get(sid, 0.0)

    def s(name):
        return inclusive.get(name, 0.0)

    def c(key):
        return counts.get(key, 0)

    m = {
        "stefan1d.solve_s": s("stefan1d.solve"),
        "stefan1d.steps": c("stefan1d.steps"),
        "stefan1d.us_per_step": _per_step(s("stefan1d.solve"), c("stefan1d.steps"), 1e6),
        "stefan1d.write_front_s": s("stefan1d.write_front"),
        "stefan1d.front_rows": c("stefan1d.front_rows"),
        "heat.solve_dirichlet_s": s("heat.solve_dirichlet"),
        "heat.dirichlet_steps": c("heat.dirichlet_steps"),
        "heat.us_per_dirichlet_step": _per_step(
            s("heat.solve_dirichlet"), c("heat.dirichlet_steps"), 1e6),
        "heat.trajectory_build_s": s("heat.trajectory_build"),
        "heat.trajectory_snapshots": c("heat.trajectory_snapshots"),
        "heat.conservation_residual_s": s("heat.conservation_residual"),
        "heat.write_trajectory_s": s("heat.write_trajectory"),
        "heat.kernel_field_s": s("heat.kernel_field"),
        "heat.kernel_pairs": c("heat.kernel_pairs"),
        "grid.csv_write_s": s("grid.csv_write"),
        "grid.csv_write_bytes": c("grid.csv_write_bytes"),
        "grid.csv_write_files": c("grid.csv_write_files"),
        "grid.csv_read_s": s("grid.csv_read"),
        "grid.csv_read_bytes": c("grid.csv_read_bytes"),
        "stefan3d.solve_s": s("stefan3d.solve"),
        "stefan3d.steps": c("stefan3d.steps"),
        "stefan3d.ns_per_cell_step": _per_step(
            s("stefan3d.solve"), c("stefan3d.cell_steps"), 1e9),
        "stefan3d.thin_cell_steps": c("stefan3d.thin_cell_steps"),
        "verify.load_s": s("verify.load"),
        "verify.levels": c("verify.levels"),
        "mollifier.mollify_s": s("mollifier.mollify"),
        "mollifier.mollify_calls": c("mollifier.mollify_calls"),
        "mollifier.tap_cell_updates": c("mollifier.tap_cell_updates"),
    }
    for check in ("caloric", "max_principle", "continuity", "positivity_spread",
                  "barrier"):
        m[f"verify.check_s.{check}"] = s(f"verify.check.{check}")
    for layer in LAYERS:
        m[f"{layer}.self_s"] = self_time[layer]
    return m
