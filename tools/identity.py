"""Identity gate: what meltfront writes at a base and at a head source tree.

    python tools/identity.py BASE_SRC HEAD_SRC WORKDIR

BASE_SRC and HEAD_SRC are the ``src`` directories of two checkouts, and
WORKDIR, absent or empty, receives every output.  Both sides run the
configs, Dirichlet marches, verify calls, caloric replacements and mollify
calls below, each side with its own ``src`` alone on PYTHONPATH.  Head also
runs the jobs it shares between processes once pinned to CPU 0 and once
unpinned, and the climb at two numpy SIMD levels.  Two outputs match when:

- run directories hold the same file names, pass head's ``meltfront compare
  --tolerance 0`` (the CSVs and report.json), and every other file matches
  byte for byte;
- JSON reports match by sorted serialization without ``created_utc``;
- any other pair of files matches byte for byte.

Every pair runs, even after another differs; a pair may read what an
earlier one wrote.  A run that exits nonzero fails its pair; verify's exit
code is part of the compared text instead.  The script prints one markdown
block per pair and exits 1 naming each pair that differs.

``march NAME OUT`` and ``replace RUN`` are the sub-commands it runs under a
side's PYTHONPATH; only they import meltfront.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

BUMP = {"kind": "bump", "height": 0.6, "amplitude": 0.08, "width": 0.3}
CUBE = {"origin": [0, 0, 0], "extent": [1, 1, 1], "counts": [16, 16, 32]}
SOLVE3D = {"mode": "solve3d", "k1": 1, "t0": 0.25, "grid": CUBE, "front": BUMP,
           "initial": {"kind": "similarity"}}
CONFIGS = {
    "similarity": {"mode": "solve1d", "k1": 1, "t0": 0.25, "initial": {"kind": "similarity"},
                   "duration": 0.1, "nx": 200},
    "refreeze": {"mode": "solve1d", "k1": 1, "k2": 0.5, "length": 2, "b": 0.5,
                 "far_boundary": -0.5, "initial_solid": {"kind": "linear"},
                 "duration": 0.1, "nx": 100},
    # 1,800 steps from a zero start under ramped edges: the warm-up's substeps
    # and a callable edge on both phases; the far edge rises, so the
    # max-principle bound holds the initial -0.5
    "ramp": {"mode": "solve1d", "k1": 1, "k2": 0.5, "length": 2, "b": 0.5,
             "boundary": {"kind": "ramp", "value": 1, "rate": 2},
             "far_boundary": {"kind": "ramp", "value": -0.5, "rate": 0.5},
             "initial": {"kind": "zero"}, "duration": 0.05, "nx": 60},
    "bump": {**SOLVE3D, "duration": 0.002},
    # 128 steps: the highest liquid layer climbs from 22 to 25, so solve3d's
    # active block grows mid-run, which the 13-step bump never does
    "climb": {**SOLVE3D, "duration": 0.02, "bottom": 4},
    # 101 steps with a snapshot every 2: the last snapshot is off the cadence
    "offcadence": {**SOLVE3D, "duration": 0.0157},
    # 76 steps on a section neither square nor a power of two, over an extent
    # unequal per axis: a swapped x/y slice or spacing shows here
    "oblong": {**SOLVE3D, "duration": 0.01,
               "grid": {"origin": [0, 0, 0], "extent": [0.9, 1.5, 1.1], "counts": [12, 20, 40]}},
    # a benchmark run directory holds no manifest; compare diffs its report
    "ladder": {"mode": "benchmark", "ladder": [16, 32]},
    # above the step count at which the benchmark mode shares its solves
    "ladder3": {"mode": "benchmark", "ladder": [16, 32, 64]},
    # u_final.csv above the size at which solve3d shares its CSV writes
    "bump64": {**SOLVE3D, "duration": 0.0005, "grid": {**CUBE, "counts": [32, 32, 64]}},
}

# configs that both sides run
BASE_HEAD = ("similarity", "refreeze", "ramp", "bump", "climb", "offcadence", "oblong", "ladder")
# Dirichlet marches that both sides write: no CLI mode stores one
MARCHES = ("sine", "wall2d", "cube3d", "audit64")
# head's CLI arguments for jobs it shares between processes on more than one
# CPU; {out} is the side's output, the value of --out
ONE_CPU_ALL = {
    "audit64": ("verify", "--run", "{work}/march/head/audit64", "--checks", "all",
                "--out", "{out}.json"),
    "ladder3": ("benchmark", "--config", "{work}/configs/ladder3.json", "--out", "{out}"),
    "bump64": ("solve3d", "--config", "{work}/configs/bump64.json", "--out", "{out}"),
}
# head's run directories that both sides verify, and whether both also take
# caloric replacements of it; the similarity run fails its checks (exit 3) on
# both sides.  A report embeds the run directory it read, so both read head's
VERIFIED = {"march/head/sine": True, "march/head/wall2d": True,
            "march/head/cube3d": True, "runs/head/similarity": False}
# head's snapshot that both sides mollify, with its epsilon; one input path,
# since the report's config_sha256 hashes it
MOLLIFIED = {"similarity": ("u_000100.csv", 0.05), "bump": ("u_final.csv", 0.3)}
# head's CLI arguments for the climb, run at numpy's default SIMD level and
# with AVX-512 off
SIMD = ("solve3d", "--config", "{work}/configs/climb.json", "--out", "{out}")


def python(src, *args, prefix=(), env=None, check=True):
    """``python args`` with ``src`` alone on PYTHONPATH; raises unless it
    exits 0 or ``check`` is false."""
    args = [str(a) for a in args]
    proc = subprocess.run([*prefix, sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, **(env or {}), "PYTHONPATH": str(src)})
    if check and proc.returncode:
        raise RuntimeError(f"{' '.join(args)} exited {proc.returncode}\n{proc.stderr}")
    return proc


def cli(src, *args, **kwargs):
    return python(src, "-m", "meltfront.cli", *args, **kwargs)


def same_dirs(head, a, b):
    """Whether run directories ``a`` and ``b`` hold the same files: head's
    ``compare --tolerance 0`` on the CSVs and report.json, the rest byte for
    byte.  Returns it with what was found."""
    names = sorted(p.name for p in a.iterdir())
    one_side = set(names) ^ {p.name for p in b.iterdir()}
    if one_side:
        return False, f"files on one side only: {sorted(one_side)}"
    proc = cli(head, "compare", "--tolerance", "0", a, b, check=False)
    bytes_differ = [n for n in names if not n.endswith(".csv") and n != "report.json"
                    and (a / n).read_bytes() != (b / n).read_bytes()]
    text = f"compare exit {proc.returncode}; other files differing: {bytes_differ}"
    same = proc.returncode == 0 and not bytes_differ
    return same, text if same else f"{text}\n{proc.stdout}{proc.stderr}"


def report(path):
    """The JSON report at ``path``, serialized sorted, without created_utc."""
    r = json.loads(Path(path).read_text())
    r["provenance"].pop("created_utc")
    return json.dumps(r, sort_keys=True)


def same_reports(a, b):
    same = report(a) == report(b)
    return same, f"reports {'match' if same else 'differ'} apart from created_utc"


def write_configs(work):
    """Writes each config to WORK/configs/NAME.json; returns that folder."""
    configs = work / "configs"
    configs.mkdir(parents=True)
    for name, config in CONFIGS.items():
        (configs / f"{name}.json").write_text(json.dumps(config))
    return configs


def gate(base, head, work):
    """Runs every pair in order; returns ``(title, same)`` per pair."""
    results = []
    sides = {"base": base, "head": head}

    def pair(title, check, *args):
        try:
            same, text = check(*args)
        except Exception as exc:  # a failed run, or an output it did not write
            same, text = False, f"{type(exc).__name__}: {exc}"
        print(f"### {title}: {'same' if same else 'DIFFERS'}\n```\n{text.rstrip()}\n```",
              flush=True)
        results.append((title, same))

    def base_and_head(kind, name, *args):
        """``python args OUT`` on each side, OUT its directory for the pair."""
        outs = [work / kind / side / name for side in sides]
        for src, out in zip(sides.values(), outs):
            python(src, *args, out)
        return same_dirs(head, *outs)

    def head_twice(kind, name, args, first, second):
        """Head's CLI ``args`` under two ``(label, prefix, env)`` settings."""
        outs = []
        for label, prefix, env in (first, second):
            (work / kind / label).mkdir(parents=True, exist_ok=True)
            argv = [a.format(work=work, out=work / kind / label / name) for a in args]
            cli(head, *argv, prefix=prefix, env=env)
            outs.append(Path(argv[argv.index("--out") + 1]))
        return same_dirs(head, *outs) if outs[0].is_dir() else same_reports(*outs)

    def verified(run, replaced):
        texts = []
        for side, src in sides.items():
            out = work / "verify" / side
            out.mkdir(parents=True, exist_ok=True)
            rc = cli(src, "verify", "--run", work / run, "--checks", "all",
                     "--out", out / f"{Path(run).name}.json", check=False).returncode
            replacement = python(src, __file__, "replace", work / run).stdout if replaced else ""
            texts.append(f"verify exit {rc}\n{replacement}")
        return texts[0] == texts[1], f"base:\n{texts[0]}head:\n{texts[1]}"

    def mollified(name, snapshot, epsilon):
        for side, src in sides.items():
            out = work / "mollify" / side
            out.mkdir(parents=True, exist_ok=True)
            cli(src, "mollify", "--input", work / "runs" / "head" / name / snapshot,
                "--epsilon", epsilon, "--out", out / f"{name}.json",
                "--field-out", out / f"{name}.csv")
        a, b = (work / "mollify" / side / f"{name}.csv" for side in sides)
        same = a.read_bytes() == b.read_bytes()
        return same, f"mollified fields {'match' if same else 'differ'} byte for byte"

    configs = write_configs(work)
    for name in BASE_HEAD:
        pair(f"{name}, base and head", base_and_head, "runs", name, "-m", "meltfront.cli",
             CONFIGS[name]["mode"], "--config", configs / f"{name}.json", "--out")
    for name in MARCHES:
        pair(f"march {name}, base and head", base_and_head, "march", name,
             __file__, "march", name)
    for name, args in ONE_CPU_ALL.items():
        pair(f"{name} {args[0]}, one CPU and all", head_twice, "cpus", name, args,
             ("pinned", ("taskset", "-c", "0"), None), ("all", (), None))
    for run, replaced in VERIFIED.items():
        name = Path(run).name
        pair(f"{name} verify{' and caloric replacement' * replaced}, base and head",
             verified, run, replaced)
        pair(f"{name} verify report, base and head", same_reports,
             *(work / "verify" / side / f"{name}.json" for side in sides))
    from numpy._core._multiarray_umath import __cpu_features__
    if __cpu_features__.get("AVX512F"):
        pair("climb at two SIMD levels", head_twice, "simd", "climb", SIMD,
             ("default", (), None),
             ("reduced", (), {"NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"}))
    else:
        print("### climb at two SIMD levels: skipped, this CPU has no AVX512F to switch off")
        results.append(("climb at two SIMD levels", True))
    for name, (snapshot, epsilon) in MOLLIFIED.items():
        pair(f"{name} mollified field, base and head", mollified, name, snapshot, epsilon)
        pair(f"{name} mollify report, base and head", same_reports,
             *(work / "mollify" / side / f"{name}.json" for side in sides))
    return results


def march(name, out):
    """Writes the Dirichlet march ``name`` to ``out``: the sine decay of
    demos/audit_run.py, a 2D march under a callable boundary, a 3D march, and
    an audit-sized one whose 101 levels of 4096 values are above the size at
    which write_fields and verify's level load share their files between
    processes."""
    import numpy as np

    from meltfront import (Grid, OperatorCoefficients, TemperatureField, solve_dirichlet,
                           stability_limit, write_trajectory)

    boundary = 0.0
    if name == "sine":
        grid = Grid(origin=(0.0,), extent=(1.0,), counts=(41,))
        u0 = np.sin(np.pi * grid.cell_centers()[:, 0])
        u0[0] = u0[-1] = 0.0
        fraction, steps = 0.4, 200
    elif name == "wall2d":
        grid = Grid(origin=(-1.0, -1.2), extent=(2.0, 2.4), counts=(16, 16))
        u0 = np.exp(-4.0 * (grid.cell_centers() ** 2).sum(axis=1))
        fraction, steps = 0.45, 100
        boundary = lambda p, t: 0.1 * np.sin(3.0 * p[:, 0] + p[:, 1] + 7.0 * t)  # noqa: E731
    elif name == "cube3d":
        grid = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(8, 8, 8))
        x, y, z = grid.cell_centers().T
        u0 = np.sin(2.0 * np.pi * x) * np.sin(np.pi * y) * np.sin(np.pi * z) + 0.1
        fraction, steps = 0.45, 40
    else:  # audit64
        grid = Grid(origin=(-4.0, -4.0), extent=(8.0, 8.0), counts=(64, 64))
        u0 = np.exp(-(grid.cell_centers() ** 2).sum(axis=1))
        fraction, steps = 0.4, 99.5
    lap = OperatorCoefficients.laplacian()
    dt = fraction * stability_limit(lap, grid)
    traj = solve_dirichlet(lap, TemperatureField(grid, 0.0, u0), boundary, steps * dt, dt)
    write_trajectory(traj, out, stability_limit_used=dt / fraction)


def replace(run):
    """Prints hashes of the conservation residual, a caloric replacement and,
    for the sine, a radial average of the march stored at ``run``."""
    import hashlib

    from meltfront import (HeatTrajectory, ParabolicCylinder, caloric_replacement,
                           conservation_residual, radial_average, read_field_csv)

    # per march: the replacement's cylinder radius, and the smallest radius of
    # the radial average; neither wall2d's 0.21 time units nor cube3d's 40
    # steps hold a radial average whose smallest ball has an interior
    radius, smallest = {"sine": (0.1, 0.06), "wall2d": (0.4, None),
                        "cube3d": (0.21, None)}[Path(run).name]
    run = Path(run)
    manifest = json.loads((run / "manifest.json").read_text())
    traj = HeatTrajectory([read_field_csv(run / n) for n in manifest["snapshots"]],
                          manifest["dt"])
    g = traj.grid
    centre = tuple(o + e / 2 for o, e in zip(g.origin, g.extent))
    t_top = float(traj.times[-1])
    print(f"{run.name} conservation_residual {conservation_residual(traj).hex()}")
    z = caloric_replacement(traj, ParabolicCylinder(centre, t_top, radius))
    levels = z.times.tobytes() + z.values_matrix().tobytes()
    print(f"{run.name} caloric_replacement {len(z)} levels sha256 "
          f"{hashlib.sha256(levels).hexdigest()}")
    if smallest is not None:
        print(f"{run.name} radial_average {radial_average(traj, centre, t_top, smallest).hex()}")


def main(base, head, work):
    base, head, work = (Path(p).resolve() for p in (base, head, work))
    if work.exists() and any(work.iterdir()):
        sys.exit(f"{work} is not empty")
    results = gate(base, head, work)
    differ = [title for title, same in results if not same]
    if differ:
        print(f"\n{len(differ)} of {len(results)} pairs differ: {'; '.join(differ)}")
        return 1
    print(f"\n{len(results)} pairs, all the same")
    return 0


if __name__ == "__main__":
    command = sys.argv[1:2]
    if command == ["march"] and len(sys.argv) == 4:
        march(*sys.argv[2:])
    elif command == ["replace"] and len(sys.argv) == 3:
        replace(sys.argv[2])
    elif len(sys.argv) == 4:
        sys.exit(main(*sys.argv[1:]))
    else:
        sys.exit("usage: python tools/identity.py BASE_SRC HEAD_SRC WORKDIR")
