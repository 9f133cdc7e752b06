"""Command line front end for melting runs and their verification.

Subcommands
-----------
``solve1d``
    Integrate a 1D melting run from a JSON config into a run directory:
    ``front.csv``, mapped snapshot CSVs with a manifest, and ``report.json``.
``solve3d``
    Integrate a 3D box run; writes per-snapshot front-height CSVs, the final
    temperature cube, a manifest, and ``report.json``.
``mollify``
    Smooth a field CSV at scale epsilon and report measured difference
    quotients against the kernel bounds.
``verify``
    Re-examine a run directory: caloric residual, maximum principle,
    small-time continuity, positivity spread, and the barrier residual.
``benchmark``
    Fit convergence orders on a resolution ladder (front error in space,
    explicit stepping in time, conservation-residual decay).
``compare``
    Diff two run directories value by value after a manifest compatibility
    check.

Exit codes are stable: 0 all checks pass, 2 usage or config error, 3
numerical failure or a failed check, 4 unreadable or unwritable path.  A
solver abort still leaves partial outputs in the run directory next to a
``FAILED.json`` marker.

Every diagnostic that compares a number with a tolerance takes its ``pass``
from its printed ``measured`` and ``tolerance`` under one named rule of
``_RULES``, so a reported tolerance is always the applied one.

Reports follow ``REPORT_SCHEMA`` and are validated against it before they
are written.  Everything except the ``created_utc`` provenance field is a
pure function of (config, seed), so repeated runs produce byte-identical
CSVs; :func:`compare_runs` ignores the timestamp when diffing reports.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Mapping

import numpy as np
from jsonschema import Draft202012Validator
from jsonschema.exceptions import best_match
from scipy.linalg import expm

from . import __version__
from .grid import Grid, TemperatureField, discrete_laplacian, positivity_set, \
    read_field_csv, write_field_csv
from .heat import HeatTrajectory, OperatorCoefficients, conservation_residual, \
    eval_time, solve_dirichlet, write_trajectory
from .mollifier import admissible_mask, bump_profile, build_kernel, mollify, smoothness_report
from .stefan1d import StefanSpec1D, similarity_oracle, solve_stefan, write_front_csv
from .stefan3d import StefanSpec3D, front_field, solve3d
from .verify import BarrierParams, barrier_field, barrier_residual_constant, \
    delta_of_t, heat_residual_field, initial_continuity_metric, max_principle_audit

__all__ = [
    "ExperimentConfig",
    "RunReport",
    "UsageError",
    "REPORT_SCHEMA",
    "CONFIG_SCHEMAS",
    "run",
    "run_verify",
    "run_mollify",
    "compare_runs",
    "main",
]


class UsageError(Exception):
    """Bad flags, malformed config, or incompatible inputs (exit code 2)."""


# ---------------------------------------------------------------------------
# schemas
# ---------------------------------------------------------------------------

REPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "$id": "meltfront/report.schema.json",
    "type": "object",
    "required": ["mode", "status", "diagnostics", "provenance", "files"],
    "properties": {
        "mode": {"type": "string"},
        "status": {"enum": ["pass", "fail"]},
        "diagnostics": {
            "type": "object",
            "additionalProperties": {
                "type": "object",
                "required": ["measured", "tolerance", "pass"],
                "properties": {
                    "measured": {"type": ["number", "null"]},
                    "tolerance": {"type": ["number", "null"]},
                    "pass": {"type": "boolean"},
                    "notes": {"type": "string"},
                },
                "additionalProperties": False,
            },
        },
        "provenance": {
            "type": "object",
            "required": ["config_sha256", "code_version", "created_utc", "seed"],
            "properties": {
                "config_sha256": {"type": "string", "pattern": "^[0-9a-f]{64}$"},
                "code_version": {"type": "string"},
                "created_utc": {"type": "string"},
                "seed": {"type": ["integer", "null"]},
            },
            "additionalProperties": False,
        },
        "files": {"type": "array", "items": {"type": "string"}},
        "data": {"type": "object"},
    },
    "additionalProperties": False,
}

_TIMEFUNC_SCHEMA = {
    "oneOf": [
        {"type": "number"},
        {
            "type": "object",
            "required": ["kind", "value"],
            "properties": {
                "kind": {"enum": ["constant", "ramp"]},
                "value": {"type": "number"},
                "rate": {"type": "number"},
            },
            "additionalProperties": False,
        },
    ]
}

_PROFILE_SCHEMA = {
    "oneOf": [
        {"type": "null"},
        {
            "type": "object",
            "required": ["kind"],
            "properties": {"kind": {"enum": ["zero", "similarity"]}},
            "additionalProperties": False,
        },
    ]
}

CONFIG_SCHEMAS: dict[str, dict] = {
    "solve1d": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["mode", "k1", "duration"],
        "properties": {
            "mode": {"const": "solve1d"},
            "k1": {"type": "number", "exclusiveMinimum": 0},
            "b": {"type": "number", "exclusiveMinimum": 0},
            "duration": {"type": "number", "exclusiveMinimum": 0},
            "t0": {"type": "number", "minimum": 0},
            "boundary": _TIMEFUNC_SCHEMA,
            "initial": _PROFILE_SCHEMA,
            "k2": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "length": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "far_boundary": _TIMEFUNC_SCHEMA,
            "initial_solid": {
                "oneOf": [
                    {"type": "null"},
                    {
                        "type": "object",
                        "required": ["kind"],
                        "properties": {"kind": {"enum": ["zero", "linear"]}},
                        "additionalProperties": False,
                    },
                ]
            },
            "nx": {"type": "integer", "minimum": 4},
            "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "snapshot_every": {"type": ["integer", "null"], "minimum": 1},
            "seed": {"type": ["integer", "null"]},
        },
        "additionalProperties": False,
    },
    "solve3d": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["mode", "k1", "duration", "grid"],
        "properties": {
            "mode": {"const": "solve3d"},
            "k1": {"type": "number", "exclusiveMinimum": 0},
            "duration": {"type": "number", "exclusiveMinimum": 0},
            "t0": {"type": "number", "minimum": 0},
            "grid": {
                "type": "object",
                "required": ["origin", "extent", "counts"],
                "properties": {
                    "origin": {"type": "array", "items": {"type": "number"},
                               "minItems": 3, "maxItems": 3},
                    "extent": {"type": "array",
                               "items": {"type": "number", "exclusiveMinimum": 0},
                               "minItems": 3, "maxItems": 3},
                    "counts": {"type": "array",
                               "items": {"type": "integer", "minimum": 4},
                               "minItems": 3, "maxItems": 3},
                },
                "additionalProperties": False,
            },
            "bottom": _TIMEFUNC_SCHEMA,
            "front": {
                "oneOf": [
                    {"type": "number"},
                    {
                        "type": "object",
                        "required": ["kind", "height"],
                        "properties": {
                            "kind": {"enum": ["flat", "bump"]},
                            "height": {"type": "number"},
                            "amplitude": {"type": "number"},
                            "width": {"type": "number", "exclusiveMinimum": 0},
                        },
                        "additionalProperties": False,
                    },
                ]
            },
            "initial": _PROFILE_SCHEMA,
            "dt": {"type": ["number", "null"], "exclusiveMinimum": 0},
            "snapshot_every": {"type": ["integer", "null"], "minimum": 1},
            "seed": {"type": ["integer", "null"]},
        },
        "additionalProperties": False,
    },
    "benchmark": {
        "$schema": "https://json-schema.org/draft/2020-12/schema",
        "type": "object",
        "required": ["mode"],
        "properties": {
            "mode": {"const": "benchmark"},
            "ladder": {"type": "array", "items": {"type": "integer", "minimum": 8},
                       "minItems": 2},
            "stefan": {"type": "number", "exclusiveMinimum": 0},
            "t0": {"type": "number", "exclusiveMinimum": 0},
            "duration": {"type": "number", "exclusiveMinimum": 0},
            "time_nx": {"type": "integer", "minimum": 8},
            "time_refinements": {"type": "integer", "minimum": 2},
            "seed": {"type": ["integer", "null"]},
        },
        "additionalProperties": False,
    },
}


# ---------------------------------------------------------------------------
# config and report containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ExperimentConfig:
    """Validated experiment description; ``payload`` is the raw JSON object."""

    mode: str
    payload: Mapping
    seed: int | None = None

    @classmethod
    def from_dict(cls, raw: Mapping) -> "ExperimentConfig":
        if not isinstance(raw, Mapping):
            raise UsageError("config must be a JSON object")
        mode = raw.get("mode")
        if mode not in CONFIG_SCHEMAS:
            raise UsageError(
                f"config error at $.mode: expected one of {sorted(CONFIG_SCHEMAS)}, "
                f"got {mode!r}"
            )
        validator = Draft202012Validator(CONFIG_SCHEMAS[mode])
        err = best_match(validator.iter_errors(raw))
        if err is not None:
            raise UsageError(f"config error at {err.json_path}: {err.message}")
        seed = raw.get("seed")
        return cls(mode=mode, payload=dict(raw), seed=seed)

    @classmethod
    def from_file(cls, path: str | Path) -> "ExperimentConfig":
        text = Path(path).read_text()
        try:
            raw = json.loads(text)
        except json.JSONDecodeError as exc:
            raise UsageError(f"{path}: invalid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def with_seed(self, seed: int | None) -> "ExperimentConfig":
        if seed is None:
            return self
        payload = dict(self.payload)
        payload["seed"] = seed
        return ExperimentConfig(self.mode, payload, seed)

    def canonical(self) -> str:
        return json.dumps(self.payload, sort_keys=True, separators=(",", ":"))

    def sha256(self) -> str:
        return hashlib.sha256(self.canonical().encode()).hexdigest()


@dataclass
class RunReport:
    """Diagnostics, provenance, and file inventory of one command invocation."""

    mode: str
    diagnostics: dict[str, dict]
    provenance: dict
    files: list[str]
    data: dict = dataclass_field(default_factory=dict)

    @property
    def status(self) -> str:
        ok = all(entry["pass"] for entry in self.diagnostics.values())
        return "pass" if ok else "fail"

    def to_dict(self) -> dict:
        return {
            "mode": self.mode,
            "status": self.status,
            "diagnostics": self.diagnostics,
            "provenance": self.provenance,
            "files": sorted(self.files),
            "data": self.data,
        }

    def validate(self) -> None:
        """Check the serialized form against ``REPORT_SCHEMA``."""
        err = best_match(Draft202012Validator(REPORT_SCHEMA).iter_errors(self.to_dict()))
        if err is not None:
            raise ValueError(f"report failed self-validation at {err.json_path}: "
                             f"{err.message}")

    def write(self, path: str | Path) -> None:
        self.validate()
        Path(path).write_text(json.dumps(self.to_dict(), sort_keys=True, indent=2) + "\n")


def _check(measured, tolerance, passed, notes: str | None = None) -> dict:
    entry = {
        "measured": None if measured is None else float(measured),
        "tolerance": None if tolerance is None else float(tolerance),
        "pass": bool(passed),
    }
    if notes is not None:
        entry["notes"] = notes
    return entry


# the closed set of pass rules, each a test of measured m against tolerance tol
_RULES: dict[str, Callable[[float, float], bool]] = {
    "at_most": lambda m, tol: m <= tol,
    "at_least": lambda m, tol: m >= tol,
    "at_least_minus": lambda m, tol: m >= -tol,
    "at_most_rounding": lambda m, tol: m <= tol * (1 + 1e-12),
    "abs_at_most": lambda m, tol: abs(m) <= tol,
}


def _rule(rule: str, measured, tolerance, notes: str | None = None) -> dict:
    """Diagnostic whose ``pass`` is ``_RULES[rule]`` of the values it prints."""
    passed = _RULES[rule](float(measured), float(tolerance))
    return _check(measured, tolerance, passed, notes)


def _provenance(sha256: str, seed: int | None) -> dict:
    return {
        "config_sha256": sha256,
        "code_version": __version__,
        "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        "seed": seed,
    }


def _time_func(node) -> float | Callable[[float], float]:
    """Turn a config time-function node into a constant or a callable."""
    if isinstance(node, (int, float)):
        return float(node)
    if node["kind"] == "constant":
        return float(node["value"])
    value, rate = float(node["value"]), float(node.get("rate", 0.0))
    return lambda t: value + rate * t


def _constant_value(node, where: str) -> float:
    value = _time_func(node)
    if callable(value):
        raise UsageError(f"config error at {where}: similarity data needs a constant value")
    return value


def _similarity_start(payload: Mapping, key: str):
    """Constant heating ``f0`` from ``payload[key]`` and the closed form at
    Stefan number ``k1 f0`` for a run started on the similarity profile."""
    if float(payload.get("t0", 0.0)) <= 0:
        raise UsageError("config error at $.t0: similarity start needs t0 > 0")
    f0 = _constant_value(payload.get(key, 1.0), f"$.{key}")
    if f0 <= 0:
        raise UsageError(f"config error at $.{key}: similarity start needs f > 0")
    return f0, similarity_oracle(float(payload["k1"]) * f0)


# ---------------------------------------------------------------------------
# solve1d
# ---------------------------------------------------------------------------

def _hold_sign(fn: float | Callable[[float], float], key: str, sign: int,
               t0: float, t1: float) -> None:
    """Refuse edge data ``fn`` at ``$.key`` unless ``sign * fn(t) >= 0`` on
    ``[t0, t1]``; a config time function is affine, so its ends decide."""
    for t in (t0, t1):
        g = eval_time(fn, t)
        if sign * g < 0:
            rule = "nonnegative" if sign > 0 else "nonpositive"
            raise UsageError(f"config error at $.{key}: must stay {rule} over the run, "
                             f"got {g:g} at t={t:g}")


def _build_spec1d(payload: Mapping):
    """Translate a solve1d payload into a solver spec.

    Returns the spec plus the similarity oracle when the initial profile is
    the closed-form one (used for an extra front-error diagnostic).
    """
    t0 = float(payload.get("t0", 0.0))
    boundary = _time_func(payload.get("boundary", 1.0))
    initial_node = payload.get("initial")
    kind = initial_node["kind"] if isinstance(initial_node, Mapping) else "zero"

    sim = None
    initial = None
    b = payload.get("b")
    if kind == "similarity":
        f0, sim = _similarity_start(payload, "boundary")
        b_sim = float(sim.front(t0))
        if b is None:
            b = b_sim
        elif abs(float(b) - b_sim) > 1e-9 * b_sim:
            raise UsageError(
                f"config error at $.b: similarity front at t0 is {b_sim!r}, got {b!r}"
            )
        initial = lambda x: f0 * sim.temperature(x, t0)
    elif b is None:
        raise UsageError("config error at $.b: required unless initial is similarity")

    initial_solid = None
    solid_node = payload.get("initial_solid")
    if isinstance(solid_node, Mapping) and solid_node["kind"] == "linear":
        length = payload.get("length")
        if length is None:
            raise UsageError("config error at $.length: required for a linear solid ramp")
        g0 = _constant_value(payload.get("far_boundary", 0.0), "$.far_boundary")
        b_val, length = float(b), float(length)
        initial_solid = lambda x: g0 * (x - b_val) / (length - b_val)

    t1 = t0 + float(payload["duration"])
    _hold_sign(boundary, "boundary", 1, t0, t1)
    far_boundary = _time_func(payload.get("far_boundary", 0.0))
    if payload.get("k2") is not None:  # one-phase runs never read the far edge
        _hold_sign(far_boundary, "far_boundary", -1, t0, t1)

    try:
        spec = StefanSpec1D(
            k1=float(payload["k1"]),
            b=float(b),
            duration=float(payload["duration"]),
            boundary=boundary,
            initial=initial,
            k2=payload.get("k2"),
            length=payload.get("length"),
            far_boundary=far_boundary,
            initial_solid=initial_solid,
            nx=int(payload.get("nx", 200)),
            dt=payload.get("dt"),
            t0=t0,
            snapshot_every=payload.get("snapshot_every"),
        )
    except ValueError as exc:
        raise UsageError(f"config error: {exc}") from exc
    return spec, sim


def _run_solve1d(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    spec, sim = _build_spec1d(config.payload)
    result = solve_stefan(spec)
    rep = result.report

    files = ["config.json", "report.json", "front.csv"]
    write_front_csv(result.front, outdir / "front.csv")
    write_trajectory(
        result.trajectory, outdir, prefix="u",
        stability_limit_used=rep["stability_limit_initial"],
        diagnostics={"mode": "solve1d", "seed": config.seed,
                     "fronts": [float(s) for s in result.snapshot_fronts]},
    )
    files.append("manifest.json")
    files.extend(f"u_{k:06d}.csv" for k in range(len(result.trajectory)))
    if result.solid_trajectory is not None:
        for k, snap in enumerate(result.solid_trajectory.snapshots):
            name = f"w_{k:06d}.csv"
            write_field_csv(snap, outdir / name)
            files.append(name)

    bounds = f"bounds [{rep['bound_low']:.6g}, {rep['bound_high']:.6g}]"
    diagnostics = {
        "max_principle": _rule("at_most", rep["max_principle_violations"], 0, bounds),
        "interior_heating": _rule(
            "at_least_minus", rep["ut_min"], rep["ut_tol"],
            f"steps with u_t below -tol: {rep['ut_violation_steps']}"),
        "stability": _rule("at_most_rounding", rep["dt"], rep["stability_limit_initial"],
                           "explicit step against the initial mapped-grid limit"),
    }
    # both one-phase rules: a cold solid can refreeze the front and pull it
    # off the closed form
    if not spec.two_phase:
        diagnostics["front_monotone"] = _rule(
            "at_least_minus", rep["front_min_increment"], 1e-12,
            "smallest per-step front increment; melting must not retreat")
        if sim is not None:
            s_ref = float(sim.front(float(result.front.times[-1])))
            err = abs(float(result.front.positions[-1]) - s_ref) / s_ref
            diagnostics["similarity_front_error"] = _rule(
                "at_most", err, 1e-2, "relative front error against the closed form")

    data = {k: rep[k] for k in ("front_initial", "front_final", "steps", "warmup_steps")}
    data["dt"] = float(rep["dt"])  # a config may give an integer step
    return diagnostics, files, data


# ---------------------------------------------------------------------------
# solve3d
# ---------------------------------------------------------------------------

def _build_spec3d(payload: Mapping):
    g = payload["grid"]
    try:
        grid = Grid(origin=tuple(g["origin"]), extent=tuple(g["extent"]),
                    counts=tuple(g["counts"]))
    except ValueError as exc:
        raise UsageError(f"config error at $.grid: {exc}") from exc

    node = payload.get("front", 0.5)
    if isinstance(node, (int, float)):
        initial_front = float(node)
    elif node["kind"] == "flat":
        initial_front = float(node["height"])
    else:
        height = float(node["height"])
        amplitude = float(node.get("amplitude", 0.0))
        width = float(node.get("width", 1.0))
        cx = grid.origin[0] + 0.5 * grid.extent[0]
        cy = grid.origin[1] + 0.5 * grid.extent[1]
        # bump_profile peaks at e^-1; rescale so the crest height is exact
        def initial_front(x, y, _h=height, _a=amplitude, _w=width):
            r = np.sqrt((x - cx) ** 2 + (y - cy) ** 2) / _w
            return _h + _a * math.e * bump_profile(r)

    initial = None
    t0 = float(payload.get("t0", 0.0))
    node = payload.get("initial")
    if isinstance(node, Mapping) and node["kind"] == "similarity":
        f0, sim = _similarity_start(payload, "bottom")
        z0 = grid.origin[2]
        initial = lambda pts: f0 * sim.temperature(pts[:, 2] - z0, t0)

    try:
        spec = StefanSpec3D(
            grid=grid,
            k1=float(payload["k1"]),
            duration=float(payload["duration"]),
            bottom=_time_func(payload.get("bottom", 1.0)),
            initial_front=initial_front,
            initial=initial,
            dt=payload.get("dt"),
            t0=t0,
            snapshot_every=payload.get("snapshot_every"),
        )
    except ValueError as exc:
        raise UsageError(f"config error: {exc}") from exc
    return spec


def _run_solve3d(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    spec = _build_spec3d(config.payload)
    result = solve3d(spec)
    rep = result.report

    files = ["config.json", "report.json", "manifest.json", "u_final.csv"]
    names = []
    for k, domain in enumerate(result.snapshots):
        name = f"front_{k:06d}.csv"
        write_field_csv(front_field(domain), outdir / name)
        names.append(name)
    files.extend(names)
    final = result.snapshots[-1]
    write_field_csv(TemperatureField(final.grid, final.time, final.values),
                    outdir / "u_final.csv")
    manifest = {
        "dt": float(rep["dt"]),
        "times": [float(t) for t in result.times],
        "snapshots": names,
        "final_field": "u_final.csv",
        "stability_limit": float(rep["stability_limit"]),
        "diagnostics": {"mode": "solve3d", "seed": config.seed},
    }
    (outdir / "manifest.json").write_text(
        json.dumps(manifest, sort_keys=True, indent=2) + "\n")

    scale = max(1.0, abs(eval_time(spec.bottom, spec.t0)))
    diagnostics = {
        "speed_consistency": _rule(
            "at_most", rep["consistency_max"], 1e-10,
            "gap per step between the graph update and V_n along the normal"),
        "front_monotone": _rule("at_least_minus", rep["front_min_increment"], 1e-12,
                                "smallest per-step height increment over all columns"),
        "liquid_sign": _rule("at_least_minus", rep["u_min"], 1e-12 * scale,
                             "minimum liquid temperature over the run"),
        "removed_fraction": _rule(
            "at_most", rep["removed_fraction_max"], 0.2,
            "largest single-step fraction of liquid cells lost to re-masking"),
        "stability": _rule("at_most_rounding", rep["dt"], rep["stability_limit"]),
    }
    data = {k: rep[k] for k in ("steps", "front_min", "front_max", "lipschitz_final",
                                "lipschitz_max", "thin_cell_steps")}
    data["dt"] = float(rep["dt"])  # a config may give an integer step
    return diagnostics, files, data


# ---------------------------------------------------------------------------
# benchmark
# ---------------------------------------------------------------------------

def _fit_order(h: np.ndarray, err: np.ndarray) -> float:
    """Least-squares slope of log(err) against log(h)."""
    return float(np.polyfit(np.log(h), np.log(err), 1)[0])

def _space_errors(ladder, stefan, t0, duration) -> list[float]:
    """Front error against the closed form with dt tied to h^2."""
    sim = similarity_oracle(stefan)
    b = float(sim.front(t0))
    errs = []
    for nx in ladder:
        h = 1.0 / nx
        spec = StefanSpec1D(
            k1=stefan, b=b, duration=duration, boundary=1.0,
            initial=lambda x: sim.temperature(x, t0),
            nx=nx, dt=0.3 * (b * h) ** 2, t0=t0, snapshot_every=10**9,
        )
        result = solve_stefan(spec)
        t_end = float(result.front.times[-1])
        errs.append(abs(float(result.front.positions[-1]) - float(sim.front(t_end))))
    return errs

def _sine_start(nx: int) -> TemperatureField:
    """``sin(pi x)`` at the centers of ``nx`` cells on ``[0, 1]``, zeroed on
    the two boundary cells."""
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(nx,))
    u0 = np.sin(math.pi * grid.axis_centers(0))
    u0[0] = u0[-1] = 0.0
    return TemperatureField(grid, 0.0, u0)

def _time_order(nx: int, refinements: int):
    """Error of explicit stepping against the exact semi-discrete decay.

    The sine start vanishes on the boundary cells, so the march is forward
    Euler on the interior system exactly and the measured error is purely
    temporal.
    """
    initial = _sine_start(nx)
    h = initial.grid.spacing[0]
    u0 = initial.values

    n_int = nx - 2
    a_mat = (np.diag(np.full(n_int - 1, 1.0), -1)
             + np.diag(np.full(n_int, -2.0))
             + np.diag(np.full(n_int - 1, 1.0), 1)) / h**2
    dt0 = 0.2 * h**2
    duration = 200 * dt0

    coeffs = OperatorCoefficients.laplacian()
    dts, errs = [], []
    for k in range(refinements):
        dt = dt0 / 2**k
        traj = solve_dirichlet(coeffs, initial, 0.0, duration, dt)
        ref = expm(a_mat * traj.times[-1]) @ u0[1:-1]
        errs.append(float(np.max(np.abs(traj.snapshots[-1].values[1:-1] - ref))))
        dts.append(dt)
    return _fit_order(np.array(dts), np.array(errs)), dts, errs

def _residual_ratios(ladder):
    """Conservation residual decay on a sine run with dt tied to h^2."""
    coeffs = OperatorCoefficients.laplacian()
    values = []
    for nx in ladder:
        start = _sine_start(nx)
        dt = start.grid.spacing[0] ** 2 / 5.0
        traj = solve_dirichlet(coeffs, start, 0.0, 0.025, dt)
        values.append(abs(conservation_residual(traj)))
    ratios = [values[k] / values[k + 1] for k in range(len(values) - 1)]
    return values, ratios


def _run_benchmark(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    payload = config.payload
    ladder = list(payload.get("ladder", [32, 64, 128]))
    stefan = float(payload.get("stefan", 1.0))
    t0 = float(payload.get("t0", 0.25))
    duration = float(payload.get("duration", 0.25))
    time_nx = int(payload.get("time_nx", 48))
    refinements = int(payload.get("time_refinements", 3))

    space_errs = _space_errors(ladder, stefan, t0, duration)
    hs = np.array([1.0 / nx for nx in ladder])
    space_order = _fit_order(hs, np.array(space_errs))
    time_order, dts, time_errs = _time_order(time_nx, refinements)
    res_values, res_ratios = _residual_ratios(ladder)

    diagnostics = {
        "space_order": _rule("at_least", space_order, 1.8,
                             "fitted front-error order in h with dt = O(h^2)"),
        "time_order": _rule("at_least", time_order, 0.9,
                            "fitted error order in dt against the semi-discrete decay"),
        "residual_ratio_min": _rule(
            "at_least", min(res_ratios), 3.5,
            "conservation residual shrink per grid halving (4 expected)"),
    }
    data = {
        "space": {"ladder": ladder, "front_error": [float(e) for e in space_errs]},
        "time": {"dt": [float(d) for d in dts], "error": [float(e) for e in time_errs]},
        "residual": {"ladder": ladder, "value": [float(v) for v in res_values],
                     "ratios": [float(r) for r in res_ratios]},
    }
    return diagnostics, ["config.json", "report.json"], data


# ---------------------------------------------------------------------------
# dispatch
# ---------------------------------------------------------------------------

# each runner writes its mode's data files and returns (diagnostics, files, data)
_RUNNERS = {
    "solve1d": _run_solve1d,
    "solve3d": _run_solve3d,
    "benchmark": _run_benchmark,
}


def run(config: ExperimentConfig, outdir: str | Path) -> RunReport:
    """Execute one experiment into ``outdir`` and return its report.

    Writes ``config.json``, the mode's data files, and ``report.json``.
    Everything but the report timestamp is deterministic in (config, seed).
    """
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    (outdir / "config.json").write_text(
        json.dumps(config.payload, sort_keys=True, indent=2) + "\n")
    diagnostics, files, data = _RUNNERS[config.mode](config, outdir)
    report = RunReport(config.mode, diagnostics,
                       _provenance(config.sha256(), config.seed), files, data)
    report.write(outdir / "report.json")
    return report


# ---------------------------------------------------------------------------
# mollify
# ---------------------------------------------------------------------------

def run_mollify(input_path: str | Path, epsilon: float, order: int,
                out: str | Path, field_out: str | Path | None = None) -> RunReport:
    """Mollify a stored field and report difference quotients against bounds."""
    try:
        f = read_field_csv(input_path)
        kernel = build_kernel(epsilon, f.grid.dim)
        report = smoothness_report(f, kernel, order)
    except ValueError as exc:
        raise UsageError(str(exc)) from exc

    offsets, weights = kernel.taps(f.grid.spacing)
    mass_err = abs(float(np.sum(weights)) - 1.0)
    diagnostics = {
        "unit_mass": _rule("at_most", mass_err, 1e-8, "renormalized tap sum against 1"),
        "admissible_cells": _check(
            int(np.count_nonzero(admissible_mask(f.grid, kernel.epsilon))), None, True,
            "cells at least epsilon from the boundary"),
    }
    for m in range(1, order + 1):
        entry = report[m]
        diagnostics[f"derivative_order_{m}"] = _rule(
            "at_most_rounding", entry["measured"], entry["bound"],
            f"kernel constant {entry['kernel_constant']:.6g}")

    files = [Path(out).name]
    if field_out is not None:
        write_field_csv(mollify(f, kernel), field_out)
        files.append(Path(field_out).name)

    payload = {"mode": "mollify", "input": str(input_path),
               "epsilon": float(epsilon), "order": int(order)}
    config = ExperimentConfig("mollify", payload, None)
    rep = RunReport("mollify", diagnostics, _provenance(config.sha256(), None), files,
                    {"epsilon": float(epsilon), "order": int(order)})
    rep.write(out)
    return rep


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

def _read_manifest(rundir: Path) -> dict:
    """``manifest.json`` as an object with a finite positive ``dt``, an object
    ``diagnostics`` and a list of string ``snapshots`` (each when present),
    else a usage error."""
    try:
        manifest = json.loads((rundir / "manifest.json").read_text())
        dt = float(manifest["dt"])
    except (ValueError, KeyError, TypeError) as exc:
        raise UsageError(f"{rundir}: unreadable manifest.json: {exc!r}") from exc
    if not (math.isfinite(dt) and dt > 0):
        raise UsageError(f"{rundir}: manifest.json dt must be finite and positive, got {dt!r}")
    if not isinstance(manifest.get("diagnostics", {}), dict):
        raise UsageError(f"{rundir}: manifest.json diagnostics must be an object")
    names = manifest.get("snapshots", [])
    if not isinstance(names, list) or not all(isinstance(n, str) for n in names):
        raise UsageError(f"{rundir}: manifest.json snapshots must be a list of file names")
    return manifest


def _load_rundir(rundir: Path) -> tuple[HeatTrajectory, dict]:
    manifest = _read_manifest(rundir)
    mode = manifest.get("diagnostics", {}).get("mode")
    if mode == "solve3d":
        raise UsageError(f"{rundir}: a {mode} run directory stores front heights, "
                         "not a heat trajectory; verify audits heat-trajectory "
                         "directories")
    names = manifest.get("snapshots", [])
    if not names:
        raise UsageError(f"{rundir}: manifest lists no snapshots")
    try:
        snaps = [read_field_csv(rundir / name) for name in names]
        return HeatTrajectory(snaps, float(manifest["dt"])), manifest
    except ValueError as exc:
        raise UsageError(f"{rundir}: {exc}") from exc


def _caloric_tolerance(traj: HeatTrajectory) -> float:
    h2 = max(traj.grid.spacing) ** 2
    scale = max(1.0, float(np.max(np.abs(traj.values_matrix()))))
    return 10.0 * (h2 + traj.dt) * scale


def _check_caloric(traj: HeatTrajectory) -> dict:
    residuals = heat_residual_field(traj)
    measured = max(float(np.max(np.abs(r.values[r.valid_mask()]))) for r in residuals)
    return _rule("at_most", measured, _caloric_tolerance(traj),
                 "sup interior |Lu - u_t| over all recorded steps")


def _check_max_principle(traj: HeatTrajectory) -> dict:
    audit = max_principle_audit(traj)
    measured = float(audit["max_value"] - audit["parabolic_max"])
    scale = max(1.0, float(np.max(np.abs(traj.values_matrix()))))
    return _rule("at_most", measured, 1e-12 * scale,
                 f"interior max excess; attained on the parabolic boundary: "
                 f"{bool(audit['attained_on_boundary'])}")


def _check_continuity(traj: HeatTrajectory) -> dict:
    heating = discrete_laplacian(traj.snapshots[0])
    times, metric = initial_continuity_metric(traj, heating)
    measured = float(metric[0])
    return _rule("at_most", measured, _caloric_tolerance(traj),
                 f"heating mismatch at the first recorded step; "
                 f"peak over the run {float(np.max(metric)):.6g}")


def _check_positivity_spread(traj: HeatTrajectory) -> dict:
    reference = positivity_set(traj.snapshots[0])
    if not reference.any():
        return _check(None, None, True, "initial positivity set empty; check vacuous")
    deltas = delta_of_t(traj, reference)
    diameter = math.sqrt(sum(e * e for e in traj.grid.extent))
    ok = bool(np.all(np.isfinite(deltas)) and np.all(deltas >= 0)
              and np.all(deltas <= diameter + 1e-12))
    return _check(float(np.max(deltas)), diameter, ok,
                  "largest spread of the positivity set from its start")


def _check_barrier(traj: HeatTrajectory) -> dict:
    grid = traj.grid
    center = tuple(o + 0.5 * e for o, e in zip(grid.origin, grid.extent))
    params = BarrierParams(center=center, time=float(traj.times[-1]),
                           dimension=grid.dim)
    residuals = heat_residual_field(barrier_field(traj, params))
    vals = np.concatenate([r.values[r.valid_mask()] for r in residuals])
    measured = float(np.mean(vals))
    const = barrier_residual_constant(grid.dim)
    return _rule("abs_at_most", measured - const, _caloric_tolerance(traj) + 1e-12,
                 f"mean interior barrier residual against {const!r}")


_CHECK_RUNNERS = {
    "caloric": _check_caloric,
    "max_principle": _check_max_principle,
    "continuity": _check_continuity,
    "positivity_spread": _check_positivity_spread,
    "barrier": _check_barrier,
}
VERIFY_CHECKS = tuple(_CHECK_RUNNERS)


def run_verify(rundir: str | Path, checks: str = "all",
               out: str | Path | None = None) -> RunReport:
    """Run audit checks over a stored trajectory directory."""
    rundir = Path(rundir)
    if checks.strip() == "all":
        names = list(VERIFY_CHECKS)
    else:
        names = [c.strip() for c in checks.split(",") if c.strip()]
        unknown = [c for c in names if c not in _CHECK_RUNNERS]
        if unknown:
            raise UsageError(f"unknown checks {unknown}; "
                             f"available: {', '.join(VERIFY_CHECKS)}")
        if not names:
            raise UsageError(f"no checks given; available: {', '.join(VERIFY_CHECKS)}")
    traj, manifest = _load_rundir(rundir)

    diagnostics = {name: _CHECK_RUNNERS[name](traj) for name in names}
    manifest_bytes = (rundir / "manifest.json").read_bytes()
    provenance = _provenance(hashlib.sha256(manifest_bytes).hexdigest(),
                             manifest.get("diagnostics", {}).get("seed"))
    files = [] if out is None else [Path(out).name]
    rep = RunReport("verify", diagnostics, provenance, files,
                    {"rundir": str(rundir), "levels": len(traj)})
    if out is None:
        rep.validate()
        print(json.dumps(rep.to_dict(), sort_keys=True, indent=2))
    else:
        rep.write(out)
    return rep


# ---------------------------------------------------------------------------
# compare
# ---------------------------------------------------------------------------

def _split_csv(path: Path) -> tuple[list[str], np.ndarray]:
    """Separate a CSV into header lines and a flat float array."""
    headers, rows = [], []
    for line in path.read_text().splitlines():
        if not line.strip():
            continue
        try:
            rows.extend(float(tok) for tok in line.split(","))
        except ValueError:
            headers.append(line)
    return headers, np.array(rows)


def _read_report(rundir: Path) -> dict:
    """``report.json`` without its ``created_utc`` timestamp, else a usage error."""
    try:
        report = json.loads((rundir / "report.json").read_text())
        report.get("provenance", {}).pop("created_utc", None)
    except (ValueError, AttributeError, TypeError) as exc:
        raise UsageError(f"{rundir}: unreadable report.json: {exc!r}") from exc
    return report


def _manifest_compatible(ma: dict, mb: dict) -> str | None:
    """Reason the two manifests cannot be compared, or None."""
    if set(ma.get("snapshots", [])) != set(mb.get("snapshots", [])):
        return "snapshot lists differ"
    if not math.isclose(float(ma["dt"]), float(mb["dt"]), rel_tol=1e-12):
        return f"dt differs: {ma['dt']} vs {mb['dt']}"
    ta, tb = ma.get("times", []), mb.get("times", [])
    if len(ta) != len(tb) or not np.allclose(ta, tb, rtol=1e-12, atol=1e-12):
        return "snapshot times differ"
    return None


def compare_runs(dir_a: str | Path, dir_b: str | Path,
                 tolerance: float = 0.0) -> RunReport:
    """Diff the CSV payloads of two run directories.

    Raises :class:`UsageError` when the manifests or the file sets are
    incompatible; reports fail (not raise) when values differ beyond the
    tolerance.  ``report.json`` files are compared with the ``created_utc``
    provenance field removed.
    """
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    ma, mb = _read_manifest(dir_a), _read_manifest(dir_b)
    reason = _manifest_compatible(ma, mb)
    if reason is not None:
        raise UsageError(f"manifest mismatch: {reason}")

    names_a = {p.name for p in dir_a.glob("*.csv")}
    names_b = {p.name for p in dir_b.glob("*.csv")}
    if names_a != names_b:
        raise UsageError(f"csv file sets differ: {sorted(names_a ^ names_b)}")

    per_file = {}
    max_abs = 0.0
    max_rel = 0.0
    for name in sorted(names_a):
        pa, pb = dir_a / name, dir_b / name
        if pa.read_bytes() == pb.read_bytes():
            per_file[name] = {"max_abs": 0.0, "max_rel": 0.0, "identical": True}
            continue
        ha, va = _split_csv(pa)
        hb, vb = _split_csv(pb)
        if ha != hb:
            raise UsageError(f"{name}: header lines differ")
        if va.shape != vb.shape:
            raise UsageError(f"{name}: value counts differ ({va.size} vs {vb.size})")
        diff = np.abs(va - vb)
        denom = np.maximum(np.maximum(np.abs(va), np.abs(vb)), 1e-300)
        fa = float(diff.max()) if diff.size else 0.0
        fr = float((diff / denom).max()) if diff.size else 0.0
        per_file[name] = {"max_abs": fa, "max_rel": fr, "identical": False}
        max_abs = max(max_abs, fa)
        max_rel = max(max_rel, fr)

    reports_match = None
    if (dir_a / "report.json").exists() and (dir_b / "report.json").exists():
        reports_match = _read_report(dir_a) == _read_report(dir_b)

    diagnostics = {
        "csv_max_abs": _rule("at_most", max_abs, tolerance),
        "csv_max_rel": _rule("at_most", max_rel, tolerance,
                             "relative to the larger magnitude per value"),
    }
    if reports_match is not None:
        diagnostics["reports_match"] = _check(
            1.0 if reports_match else 0.0, None, reports_match,
            "report.json equality with timestamps removed")

    digest = hashlib.sha256(
        (dir_a / "manifest.json").read_bytes() + (dir_b / "manifest.json").read_bytes()
    ).hexdigest()
    return RunReport("compare", diagnostics, _provenance(digest, None), sorted(names_a),
                     {"a": str(dir_a), "b": str(dir_b), "per_file": per_file})


# ---------------------------------------------------------------------------
# command wrappers
# ---------------------------------------------------------------------------

def _cmd_solve(args) -> int:
    config = ExperimentConfig.from_file(args.config).with_seed(args.seed)
    if config.mode != args.mode:
        raise UsageError(f"config mode is {config.mode!r}, expected {args.mode!r}")
    outdir = Path(args.out)
    try:
        report = run(config, outdir)
    except (ValueError, RuntimeError) as exc:
        marker = {
            "error": str(exc),
            "mode": config.mode,
            "created_utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
        }
        outdir.mkdir(parents=True, exist_ok=True)
        (outdir / "FAILED.json").write_text(
            json.dumps(marker, sort_keys=True, indent=2) + "\n")
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    print(f"{config.mode}: {report.status} ({outdir / 'report.json'})")
    return 0 if report.status == "pass" else 3


def _cmd_mollify(args) -> int:
    report = run_mollify(args.input, args.epsilon, args.order, args.out,
                         args.field_out)
    print(f"mollify: {report.status} ({args.out})")
    return 0 if report.status == "pass" else 3


def _cmd_verify(args) -> int:
    report = run_verify(args.run, args.checks, args.out)
    if args.out is not None:
        print(f"verify: {report.status} ({args.out})")
    return 0 if report.status == "pass" else 3


def _cmd_compare(args) -> int:
    report = compare_runs(args.run_a, args.run_b, args.tolerance)
    if args.out is not None:
        report.write(args.out)
    else:
        report.validate()
        print(json.dumps(report.to_dict(), sort_keys=True, indent=2))
    return 0 if report.status == "pass" else 3


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="meltfront",
        description="Melting-front solvers, smoothing, and run verification.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name in _RUNNERS:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True, help="experiment JSON")
        p.add_argument("--out", required=True, help="run directory")
        p.add_argument("--seed", type=int, default=None,
                       help="recorded in the manifest; overrides the config")
        p.set_defaults(func=_cmd_solve, mode=name)

    p = sub.add_parser("mollify")
    p.add_argument("--input", required=True, help="field CSV")
    p.add_argument("--epsilon", type=float, required=True)
    p.add_argument("--order", type=int, default=3,
                   help="highest difference-quotient order to bound")
    p.add_argument("--out", required=True, help="report JSON path")
    p.add_argument("--field-out", default=None, help="optional mollified CSV")
    p.set_defaults(func=_cmd_mollify)

    p = sub.add_parser("verify")
    p.add_argument("--run", required=True, help="run directory to audit")
    p.add_argument("--checks", default="all",
                   help=f"comma list from: {', '.join(VERIFY_CHECKS)}")
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("compare")
    p.add_argument("run_a")
    p.add_argument("run_b")
    p.add_argument("--tolerance", type=float, default=0.0)
    p.add_argument("--out", default=None, help="report JSON path (default stdout)")
    p.set_defaults(func=_cmd_compare)
    return parser


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except UsageError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 3
    except OSError as exc:
        print(f"io error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
