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
    Fit convergence orders on a resolution ladder whose rungs double (front
    error in space, explicit stepping in time, conservation-residual decay);
    the space rungs and time-study marches run on every usable CPU when
    their step counts pay for a fork.
``compare``
    Diff two run directories value by value after a manifest compatibility
    check.

Exit codes are stable: 0 all checks pass, 2 usage or config error, 3
numerical failure or a failed check, 4 unreadable or unwritable path.  A
solver abort still leaves partial outputs in the run directory next to a
``FAILED.json`` marker.

The run-directory format and ``compare`` live in :mod:`meltfront.rundir`,
the ``verify`` checks in :mod:`meltfront.verify`.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
from dataclasses import dataclass
from functools import partial
from pathlib import Path
from typing import Callable, Mapping

import numpy as np

from .grid import Grid, TemperatureField, _file_weight, _shared_map, field_job, field_name, \
    read_field_csv, read_field_csvs, write_field_csv, write_field_csvs
from .heat import HeatTrajectory, OperatorCoefficients, conservation_residual, \
    eval_time, signed_value, solve_dirichlet, step_count, write_trajectory
from .mollifier import admissible_mask, bump_profile, build_kernel, mollify, smoothness_report
from .rundir import REPORT_SCHEMA, RunReport, UsageError, _check, _provenance, _read_manifest, \
    _rule, compare_runs, write_failure, write_json, write_manifest
from .stefan1d import StefanRangeError, StefanSpec1D, similarity_oracle, solve_stefan, \
    time_steps, write_front_csv
from .stefan3d import StefanSpec3D, front_field, solve3d, time_steps as time_steps_3d
from .verify import VERIFY_CHECKS, _CHECK_RUNNERS

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


# ---------------------------------------------------------------------------
# config schemas
# ---------------------------------------------------------------------------

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
            # the two caps bound the time study's level matrices: the finest
            # march holds at most 1601 x 1024 values (13 MB), and 801 x 1024
            # (6.6 MB) at the default three refinements
            "time_nx": {"type": "integer", "minimum": 8, "maximum": 1024},
            "time_refinements": {"type": "integer", "minimum": 2, "maximum": 4},
            "seed": {"type": ["integer", "null"]},
        },
        "additionalProperties": False,
    },
}


# ---------------------------------------------------------------------------
# config container
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
        # imported on use: keeps jsonschema out of start-up
        from jsonschema import Draft202012Validator
        from jsonschema.exceptions import best_match

        validator = Draft202012Validator(CONFIG_SCHEMAS[mode])
        err = best_match(validator.iter_errors(raw))
        if err is not None:
            raise UsageError(f"config error at {err.json_path}: {err.message}")
        where = _non_finite_path(raw)
        if where is not None:
            raise UsageError(f"config error at {where}: must be a finite number")
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


def _non_finite_path(node, path: str = "$") -> str | None:
    """The ``$.path`` of the first number in a JSON ``node`` that is no finite
    float, or None.  ``json`` reads the ``NaN`` and ``Infinity`` literals and
    overflows such as ``1e400`` as such floats, and the schema's number type
    admits them, as it admits integers past the float range."""
    if isinstance(node, (int, float)):
        return None if abs(node) <= sys.float_info.max else path
    if isinstance(node, Mapping):
        children = ((f"{path}.{key}", value) for key, value in node.items())
    elif isinstance(node, list):
        children = ((f"{path}[{i}]", value) for i, value in enumerate(node))
    else:
        return None
    return next(filter(None, (_non_finite_path(v, p) for p, v in children)), None)


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
    return f0, _similarity(float(payload["k1"]) * f0, "$.k1")


def _similarity(stefan: float, where: str):
    """The closed form at Stefan number ``stefan``; one whose root the
    bisection bracket does not hold is refused at ``where``."""
    try:
        return similarity_oracle(stefan)
    except StefanRangeError as exc:
        raise UsageError(f"config error at {where}: {exc}") from exc


def _solve_1d(spec: StefanSpec1D):
    """``solve_stefan(spec)``; a run too long to allocate is refused at
    ``$.duration``, naming its step count."""
    try:
        return solve_stefan(spec)
    except MemoryError as exc:
        raise UsageError(f"config error at $.duration: {exc}") from None


def _hold_signs(edges: list[tuple], t: float) -> None:
    """Refuse each edge ``(fn, key, sign)`` at ``$.key`` unless ``sign * fn(t) >= 0``;
    a config time function is affine, so the run's first and last step decide."""
    for fn, key, sign in edges:
        try:
            signed_value(fn, t, sign, f"$.{key}:")
        except ValueError as exc:
            raise UsageError(f"config error at {exc} at t={t:g}") from exc


# ---------------------------------------------------------------------------
# solve1d
# ---------------------------------------------------------------------------

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

    far_boundary = _time_func(payload.get("far_boundary", 0.0))
    edges = [(boundary, "boundary", 1)]
    if payload.get("k2") is not None:  # one-phase runs never read the far edge
        edges.append((far_boundary, "far_boundary", -1))
    _hold_signs(edges, t0)

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
    _, dt, n_steps = time_steps(spec)
    _hold_signs(edges, t0 + n_steps * dt)  # the last step solve_stefan takes
    return spec, sim


# similarity_front_error's C: error t / (h^2 + dt), with t the final time,
# reads 0.0034-0.060 on one-phase runs with k1 and heating in [0.1, 8] and nx
# in [25, 200], the same at t0 0.0025, 0.25 and 25, and at most 0.19 at Stefan
# number 64, nx 25, run to 100 t0; a 1% error in the front law's k1 reads 0.29
# or more in that range at nx 50 and above, but 0.03 at nx 25 with
# k1 = heating = 8
_FRONT_ERROR_C = 0.25


def _run_solve1d(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    spec, sim = _build_spec1d(config.payload)
    result = _solve_1d(spec)
    rep = result.report

    # front.csv and the w_* snapshots join the u_* snapshots' write job, whose
    # heaviest file (front.csv, on a run of many steps) stays in this process;
    # the partial binds this module's write_front_csv, so a wrapper installed
    # here (benchmarks/tracing.py) sees the write
    solid = [] if result.solid_trajectory is None else result.solid_trajectory.snapshots
    solid_names = [field_name("w", k) for k in range(len(solid))]
    write_trajectory(
        result.trajectory, outdir,
        stability_limit_used=rep["stability_limit_initial"],
        diagnostics={"mode": "solve1d", "seed": config.seed,
                     "fronts": [float(s) for s in result.snapshot_fronts]},
        also=[(partial(write_front_csv, result.front, outdir / "front.csv"),
               _file_weight(3 * len(result.front.times))),
              *(field_job(f, outdir / n) for f, n in zip(solid, solid_names))],
    )
    files = ["config.json", "report.json", "front.csv", "manifest.json"]
    files.extend(field_name("u", k) for k in range(len(result.trajectory)))
    files.extend(solid_names)

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
            t_final = float(result.front.times[-1])
            s_ref = float(sim.front(t_final))
            err = abs(float(result.front.positions[-1]) - s_ref) / s_ref
            h = rep["front_final"] / spec.nx
            diagnostics["similarity_front_error"] = _rule(
                "at_most", err, _FRONT_ERROR_C * (h * h + rep["dt"]) / t_final,
                "relative front error against the closed form, at most C (h^2 + dt) / t "
                "with h the final mapped spacing and t the final time")

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

    bottom = _time_func(payload.get("bottom", 1.0))
    edges = [(bottom, "bottom", 1)]
    _hold_signs(edges, t0)
    try:
        spec = StefanSpec3D(
            grid=grid,
            k1=float(payload["k1"]),
            duration=float(payload["duration"]),
            bottom=bottom,
            initial_front=initial_front,
            initial=initial,
            dt=payload.get("dt"),
            t0=t0,
            snapshot_every=payload.get("snapshot_every"),
        )
    except ValueError as exc:
        raise UsageError(f"config error: {exc}") from exc
    _, dt, n_steps = time_steps_3d(spec)
    _hold_signs(edges, t0 + n_steps * dt)  # where the last step of solve3d ends
    return spec


def _run_solve3d(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    spec = _build_spec3d(config.payload)
    result = solve3d(spec)
    rep = result.report

    files = ["config.json", "report.json", "manifest.json", "u_final.csv"]
    names = [field_name("front", k) for k in range(len(result.fronts))]
    files.extend(names)
    final = result.final
    # one job: on a large box u_final.csv stays here while a child writes the fronts
    write_field_csvs([field_job(front_field(f, t), outdir / n)
                      for f, t, n in zip(result.fronts, result.times, names)]
                     + [field_job(TemperatureField(final.grid, final.time, final.values),
                                  outdir / "u_final.csv")])
    write_manifest(outdir, float(rep["dt"]), result.times, names,
                   float(rep["stability_limit"]), {"mode": "solve3d", "seed": config.seed},
                   final_field="u_final.csv")

    scale = max(1.0, abs(eval_time(spec.bottom, spec.t0)))
    diagnostics = {
        "liquid_sign": _rule("at_least_minus", rep["u_min"], 1e-12 * scale,
                             "minimum liquid temperature over the run"),
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

def _space_study(ladder, sim, t0, duration) -> list[StefanSpec1D]:
    """One spec per rung, started on the closed form at ``t0``, dt tied to h^2."""
    b = float(sim.front(t0))
    return [StefanSpec1D(k1=sim.stefan_number, b=b, duration=duration, boundary=1.0,
                         initial=lambda x: sim.temperature(x, t0), nx=nx,
                         dt=0.3 * (b * (1.0 / nx)) ** 2, t0=t0, snapshot_every=10**9)
            for nx in ladder]

def _front_error(spec: StefanSpec1D, sim) -> float:
    """A rung's front error against the closed form at its last step."""
    result = _solve_1d(spec)
    t_end = float(result.front.times[-1])
    return abs(float(result.front.positions[-1]) - float(sim.front(t_end)))

def _sine_start(nx: int) -> TemperatureField:
    """The slowest mode of the interior second difference on ``nx`` cells of
    ``[0, 1]``: ``sin(pi j / (nx - 1))`` at cell ``j``, 0 on both boundary cells."""
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(nx,))
    u0 = np.sin(math.pi * np.arange(nx) / (nx - 1))
    u0[0] = u0[-1] = 0.0
    return TemperatureField(grid, 0.0, u0)

def _time_study(nx: int, refinements: int):
    """Step sizes and ``(error job, step count)`` pairs of the time study:
    explicit stepping against the exact semi-discrete decay at ``dt0 / 2^k``.

    The sine start vanishes on the boundary cells, so the march is forward
    Euler on the interior system exactly; the start is a mode of that system,
    decaying as ``exp(rate t)``, so the measured error is purely temporal.
    """
    initial = _sine_start(nx)
    h = initial.grid.spacing[0]
    rate = -(2.0 / h * math.sin(math.pi / (2 * (nx - 1)))) ** 2
    dt0 = 0.2 * h**2
    duration = 200 * dt0
    dts = [dt0 / 2**k for k in range(refinements)]
    return dts, [(partial(_decay_error, initial, rate, duration, dt), step_count(duration, dt))
                 for dt in dts]

def _decay_error(initial: TemperatureField, rate: float, duration: float,
                 dt: float) -> float:
    """Largest interior error of the march at ``dt`` against the mode's exact
    decay ``exp(rate t) u0``."""
    traj = solve_dirichlet(OperatorCoefficients.laplacian(), initial, 0.0, duration, dt)
    ref = math.exp(rate * traj.times[-1]) * initial.values[1:-1]
    return float(np.max(np.abs(traj.values_matrix()[-1, 1:-1] - ref)))

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

# The space and time studies share processes (grid._shared_map) when each
# process gets at least _SHARE_MIN_STEPS of their solves' steps.  Two-process
# speed-ups of the shared solves alone, by total steps (a 2-vCPU VM, Python
# 3.11, numpy 2.4, one BLAS thread): 629: 0.68-0.74; 1155: 1.06-1.09;
# 1710: 1.09-1.20; 2510: 1.24-1.29; 4175: 0.93-1.38 (noisy); 20267: 1.17-1.38.
# Only two processes were measured.
_SHARE_MIN_STEPS = 2**10


def _run_benchmark(config: ExperimentConfig, outdir: Path) -> tuple[dict, list[str], dict]:
    """Fit the three orders.  The space rungs and the time study's marches are
    independent jobs, weighted by their step counts and shared between
    processes as ``grid._shared_map`` decides; the residual study runs in this
    process.  The report does not depend on the sharing."""
    payload = config.payload
    ladder = list(payload.get("ladder", [32, 64, 128]))
    # residual_ratio_min expects a shrink of 4 per grid halving
    if any(fine != 2 * coarse for coarse, fine in zip(ladder, ladder[1:])):
        raise UsageError(f"config error at $.ladder: each rung must double the one "
                         f"before it, got {ladder}")
    sim = _similarity(float(payload.get("stefan", 1.0)), "$.stefan")
    t0 = float(payload.get("t0", 0.25))
    duration = float(payload.get("duration", 0.25))
    time_nx = int(payload.get("time_nx", 48))
    refinements = int(payload.get("time_refinements", 3))

    specs = _space_study(ladder, sim, t0, duration)
    dts, time_jobs = _time_study(time_nx, refinements)
    errors = _shared_map([(partial(_front_error, spec, sim), time_steps(spec)[2])
                          for spec in specs] + time_jobs, _SHARE_MIN_STEPS)
    space_errs, time_errs = errors[:len(specs)], errors[len(specs):]
    space_order = _fit_order(np.array([1.0 / nx for nx in ladder]), np.array(space_errs))
    time_order = _fit_order(np.array(dts), np.array(time_errs))
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
    write_json(outdir / "config.json", config.payload)
    diagnostics, files, data = _RUNNERS[config.mode](config, outdir)
    report = RunReport(config.mode, diagnostics,
                       _provenance(config.sha256(), config.seed), files, data)
    report.emit(outdir / "report.json")
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
    rep.emit(out)
    return rep


# ---------------------------------------------------------------------------
# verify
# ---------------------------------------------------------------------------

# run_verify looks _load_rundir, HeatTrajectory and the shared _CHECK_RUNNERS
# entries up here, where benchmarks/tracing.py wraps them
def _load_rundir(rundir: Path) -> tuple[HeatTrajectory, dict]:
    """The stored trajectory and the manifest of a heat-trajectory directory.

    The levels are read by ``read_field_csvs``, on every usable CPU when they
    are large enough (``grid._shared_map``); the loaded bits do not depend on
    that.  A level that cannot be read as a field exits 2 naming its file, a
    missing one exits 4.
    """
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
        snaps = read_field_csvs([rundir / name for name in names])
        return HeatTrajectory(snaps, float(manifest["dt"])), manifest
    except ValueError as exc:
        raise UsageError(f"{rundir}: {exc}") from exc


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

    diagnostics = {}
    for name in names:
        try:
            diagnostics[name] = _CHECK_RUNNERS[name](traj)
        except ValueError as exc:  # the stored run does not fit the check
            raise UsageError(f"{rundir}: check {name} cannot audit a run of "
                             f"{len(traj)} level(s): {exc}") from exc
    manifest_bytes = (rundir / "manifest.json").read_bytes()
    provenance = _provenance(hashlib.sha256(manifest_bytes).hexdigest(),
                             manifest.get("diagnostics", {}).get("seed"))
    files = [] if out is None else [Path(out).name]
    rep = RunReport("verify", diagnostics, provenance, files,
                    {"rundir": str(rundir), "levels": len(traj)})
    rep.emit(out)
    return rep


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
        write_failure(outdir, config.mode, exc)
        raise
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
    report.emit(args.out)
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
