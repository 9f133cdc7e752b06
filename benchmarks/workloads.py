"""The four benchmark workloads: seeded inputs, one timed operation, gates.

Each workload draws its varying physical inputs from a narrow range with a
seeded ``random.Random``, builds the program's inputs in ``prepare`` (this is
set-up, not timed), and in ``operate`` times the calls into meltfront: the
CLI entry point ``cli.main`` and, in ``audit_2d`` only, the library calls of
the stored-run audit flow.  After the clock stops it checks the outputs
against closed forms or oracles computed here, independently of the
program's own diagnostics.

Operations run with the current directory set to their own fresh directory
and pass relative paths, so reports that echo a path stay byte-identical
from one operation to the next.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import random
import time
from pathlib import Path

import numpy as np
from scipy.optimize import brentq

from meltfront import cli, heat
from meltfront.grid import Grid, TemperatureField
from meltfront.heat import OperatorCoefficients

FRONT_TOL = 1e-2  # relative front error gate, as in the acceptance test


def similarity_lambda(stefan: float) -> float:
    """Root of ``lam e^(lam^2) erf(lam) = St / sqrt(pi)``, solved here."""
    return brentq(lambda lam: lam * math.exp(lam * lam) * math.erf(lam)
                  - stefan / math.sqrt(math.pi), 1e-9, 5.0, xtol=1e-15, rtol=1e-15)


def draw(ranges: dict[str, tuple[float, float]], name: str, seed: int) -> dict:
    rng = random.Random(f"{name}/{seed}")
    return {key: rng.uniform(lo, hi) for key, (lo, hi) in ranges.items()}


def run_cli(rec, argv: list[str]) -> int:
    with rec.span("cli.main", "cli"), contextlib.redirect_stdout(io.StringIO()):
        return cli.main(argv)


def write_config(path: Path, payload: dict) -> str:
    path.write_text(json.dumps(payload, sort_keys=True))
    return str(path.resolve())


def report_status(path: Path) -> str:
    try:
        return json.loads(path.read_text())["status"]
    except (OSError, ValueError, KeyError):
        return "missing"


def gate(value, limit, ok) -> dict:
    return {"value": value, "limit": limit, "pass": bool(ok)}


def exit_gates(prefix: str, rc: int, report: Path) -> dict:
    status = report_status(report)
    return {f"{prefix}exit_code": gate(rc, 0, rc == 0),
            f"{prefix}status": gate(status, "pass", status == "pass")}


def last_csv_row(path: Path) -> list[float]:
    with open(path, "rb") as fh:
        fh.seek(0, 2)
        fh.seek(max(0, fh.tell() - 4096))
        tail = fh.read().decode().strip().splitlines()[-1]
    return [float(tok) for tok in tail.split(",")]


def digest(opdir: Path, extra: bytes = b"") -> str:
    """sha256 of every file an operation left, timestamps removed from reports."""
    h = hashlib.sha256()
    for path in sorted(p for p in opdir.rglob("*") if p.is_file()):
        data = path.read_bytes()
        if path.suffix == ".json":
            obj = json.loads(data)
            if isinstance(obj, dict):
                obj.get("provenance", {}).pop("created_utc", None)
                obj.pop("created_utc", None)
            data = json.dumps(obj, sort_keys=True).encode()
        rel = path.relative_to(opdir).as_posix().encode()
        h.update(rel + b"\0" + len(data).to_bytes(8, "little") + data)
    h.update(extra)
    return h.hexdigest()


class Workload:
    name = ""
    ranges: dict[str, tuple[float, float]] = {}
    # How far this workload's time moves when the reference kernel's time
    # moves, as a log-log slope (see calibrate.py).  Each value is the slope
    # of run medians fitted on three sets of ten seeds (101-130), rounded.
    elasticity = 1.0

    def prepare(self, params: dict, workdir: Path) -> dict:
        raise NotImplementedError

    def operate(self, ctx: dict, rec) -> tuple[float, dict, dict, bytes]:
        """Run one operation in the current directory.

        Returns wall seconds, gates, accuracy figures, and bytes beyond the
        directory's files that the determinism digest must cover.
        """
        raise NotImplementedError


class Similarity1D(Workload):
    name = "similarity_1d"
    elasticity = 0.9  # fitted 0.94 +- 0.10: Python-loop bound, like the kernel
    ranges = {"k1": (0.95, 1.05)}
    duration = 0.1  # the acceptance run's nx and t0, 2/15 of its duration

    def prepare(self, params, workdir):
        payload = {"mode": "solve1d", "k1": params["k1"], "duration": self.duration,
                   "t0": 0.25, "initial": {"kind": "similarity"}, "nx": 200}
        return {"config": write_config(workdir / "similarity_1d.json", payload),
                "lam": similarity_lambda(params["k1"])}

    def operate(self, ctx, rec):
        start = time.perf_counter()
        rc = run_cli(rec, ["solve1d", "--config", ctx["config"], "--out", "run"])
        wall = time.perf_counter() - start
        gates = exit_gates("", rc, Path("run/report.json"))
        t_end, s_end, _ = last_csv_row(Path("run/front.csv"))
        exact = 2.0 * ctx["lam"] * math.sqrt(t_end)
        err = abs(s_end - exact) / exact
        gates["front_rel_err"] = gate(err, FRONT_TOL, err <= FRONT_TOL)
        return wall, gates, {"front_rel_err": err}, b""


class OrdersLadder(Workload):
    name = "orders_ladder"
    elasticity = 1.0  # fitted 1.04 +- 0.08: Python-loop bound, like the kernel
    ranges = {"stefan": (0.9, 1.1)}
    t0, duration = 0.25, 0.1  # the benchmark command's t0; 0.4 of its duration
    ladder = [16, 32, 64, 128]  # the default ladder [32, 64, 128] and one coarser rung

    def prepare(self, params, workdir):
        payload = {"mode": "benchmark", "ladder": self.ladder, "duration": self.duration,
                   "stefan": params["stefan"]}
        return {"config": write_config(workdir / "orders_ladder.json", payload),
                "lam": similarity_lambda(params["stefan"])}

    def operate(self, ctx, rec):
        start = time.perf_counter()
        rc = run_cli(rec, ["benchmark", "--config", ctx["config"], "--out", "run"])
        wall = time.perf_counter() - start
        gates = exit_gates("", rc, Path("run/report.json"))
        report = json.loads(Path("run/report.json").read_text())
        # the report's finest-rung error is absolute; the front there is
        # 2 lam sqrt(t) at t = t0 + duration (the last step overshoots by < 1e-6)
        exact = 2.0 * ctx["lam"] * math.sqrt(self.t0 + self.duration)
        err = report["data"]["space"]["front_error"][-1] / exact
        gates["front_rel_err"] = gate(err, FRONT_TOL, err <= FRONT_TOL)
        return wall, gates, {"front_rel_err": err}, b""


class Bump3D(Workload):
    name = "bump_3d"
    elasticity = 0.6  # fitted 0.59 +- 0.04: whole-array numpy slows less than the kernel
    ranges = {"height": (0.48, 0.72), "amplitude": (0.064, 0.096),
              "width": (0.24, 0.36)}
    counts = (32, 32, 64)
    steps = 200

    def prepare(self, params, workdir):
        dx, dy, dz = (1.0 / c for c in self.counts)
        dt = 0.8 / (2.0 / dx**2 + 2.0 / dy**2 + 4.0 / dz**2)  # solve3d's default step
        payload = {
            "mode": "solve3d", "k1": 1.0, "t0": 0.25,
            "duration": (self.steps - 0.5) * dt,
            "grid": {"origin": [0.0, 0.0, 0.0], "extent": [1.0, 1.0, 1.0],
                     "counts": list(self.counts)},
            "front": {"kind": "bump", "height": params["height"],
                      "amplitude": params["amplitude"], "width": params["width"]},
            "initial": {"kind": "similarity"},
        }
        return {"config": write_config(workdir / "bump_3d.json", payload)}

    def operate(self, ctx, rec):
        start = time.perf_counter()
        rc = run_cli(rec, ["solve3d", "--config", ctx["config"], "--out", "run"])
        wall = time.perf_counter() - start
        gates = exit_gates("", rc, Path("run/report.json"))
        report = json.loads(Path("run/report.json").read_text())
        steps = report["data"]["steps"]
        gates["steps"] = gate(steps, self.steps, steps == self.steps)
        return wall, gates, {}, b""


class Audit2D(Workload):
    name = "audit_2d"
    elasticity = 0.8  # fitted 0.81 +- 0.05
    bumps = 3
    ranges = {f"{key}{i}": span for i in range(bumps) for key, span in (
        ("cx", (-1.0, 1.0)), ("cy", (-1.0, 1.0)),
        ("amplitude", (0.9, 1.1)), ("radius", (0.9, 1.1)))}
    counts = (64, 64)
    steps = 100
    epsilon = 0.5

    def prepare(self, params, workdir):
        grid = Grid(origin=(-4.0, -4.0), extent=(8.0, 8.0), counts=self.counts)
        pts = grid.cell_centers()
        phi = np.zeros(grid.total_cells)
        for i in range(self.bumps):
            r2 = ((pts[:, 0] - params[f"cx{i}"]) ** 2
                  + (pts[:, 1] - params[f"cy{i}"]) ** 2) / params[f"radius{i}"] ** 2
            inside = r2 < 1.0
            phi[inside] += params[f"amplitude{i}"] * np.exp(1.0 - 1.0 / (1.0 - r2[inside]))
        h = grid.spacing[0]
        dt = 0.4 * h * h / 4.0  # 0.4 of the 2D explicit limit h^2 / 4
        return {"initial": TemperatureField(grid, 0.0, phi), "dt": dt, "h": h}

    def operate(self, ctx, rec):
        phi, dt = ctx["initial"], ctx["dt"]
        last = f"run/u_{self.steps:06d}.csv"
        start = time.perf_counter()
        traj = heat.solve_dirichlet(OperatorCoefficients.laplacian(), phi, 0.0,
                                    (self.steps - 0.5) * dt, dt)
        heat.write_trajectory(traj, "run", stability_limit_used=dt / 0.4)
        rc_verify = run_cli(rec, ["verify", "--run", "run", "--checks", "all",
                                  "--out", "verify.json"])
        rc_mollify = run_cli(rec, ["mollify", "--input", last, "--epsilon",
                                   str(self.epsilon), "--out", "mollify.json"])
        oracle = heat.heat_kernel_field(traj.snapshots[0],
                                        traj.times[-1] - traj.times[0])
        wall = time.perf_counter() - start

        final = traj.snapshots[-1]
        gap = float(np.max(np.abs(final.values - oracle.values)[final.valid_mask()]))
        gates = {**exit_gates("verify_", rc_verify, Path("verify.json")),
                 **exit_gates("mollify_", rc_mollify, Path("mollify.json"))}
        levels = len(traj)
        gates["levels"] = gate(levels, self.steps + 1, levels == self.steps + 1)
        # the bound test_heat_kernel_oracle applies to the same comparison
        tol = 5.0 * (ctx["h"] ** 2 + dt) * float(np.max(np.abs(phi.values)))
        gates["oracle_gap"] = gate(gap, tol, gap <= tol)
        return wall, gates, {"oracle_gap": gap}, oracle.values.tobytes()


WORKLOADS = {w.name: w for w in (Similarity1D(), OrdersLadder(), Bump3D(), Audit2D())}
