"""meltfront benchmark: time CLI-level workloads and check their outputs.

    python3 benchmarks/run.py --workload similarity_1d --seed 1 --seconds 10 --trace 0

Run from the root of a checkout (``BENCHMARK.json`` lists the workloads and
metrics).  Closed loop, one client: four set-up-only ``worker.py`` processes
sample the set-up time, then one more worker sets up and runs operations one
after another until ``--seconds`` would be exceeded, and at least twice so
the determinism digest can be compared.

Times are reported in reference seconds: each operation's measured seconds
scaled by the reference kernel's time read around that operation, which
takes out most of the host's drift in speed (see ``calibrate.py``).  The
measured seconds are printed too, and kept in the record.

``--trace 0`` prints the end-to-end metrics, medians over the operations.
``--trace 1`` alternates untraced and traced operations and prints the
per-layer metrics of the traced ones, plus the traced-minus-untraced wall
time as ``trace.overhead_s``.  Every operation is gated (exit codes,
``pass`` status, accuracy against an oracle, repeatable digest); the last
stdout line is the JSON result, and a detailed record with the environment
and the drawn parameters goes to ``.bench_out/``.
"""

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from importlib import metadata
from pathlib import Path

from calibrate import REF_S

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUP_SAMPLES = 5    # set-up is measured in this many processes
START_LIMIT_S = 140  # operations get at most this much, so a run ends within 180 s
RUN_LIMIT_S = 175
TIME_UNITS = ("s", "us", "ns")  # per-layer figures reported in reference time
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
# one BLAS/OpenMP thread, and a fixed string-hash seed so dict layouts do not
# vary from one worker process to the next
PINNED_ENV = dict.fromkeys(THREAD_VARS, "1") | {"PYTHONHASHSEED": "0"}


def fail(message: str) -> None:
    print(f"benchmark error: {message}", file=sys.stderr)
    sys.exit(2)


def spawn(args, workdir: Path, index: int, seconds: float, deadline: float) -> dict:
    """Run one worker process; returns its result, or an ``error`` entry."""
    out = workdir / f"result-{index}.json"
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--work", str(workdir / f"w{index}"),
           "--out", str(out), "--seconds", repr(seconds)]
    cmd += ["--trace"] * bool(args.trace)
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT,
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        return {"error": "timed out"}
    if proc.returncode != 0 or not out.exists():
        return {"error": proc.stderr.strip()[-2000:] or f"exit {proc.returncode}"}
    return json.loads(out.read_text())


def op_failures(ops: list[dict]) -> list[str]:
    """Why each operation failed ('' if it passed); digests must all agree."""
    reference = next((op["digest"] for op in ops if "digest" in op), None)
    reasons = []
    for op in ops:
        if "error" in op:
            reasons.append(op["error"].splitlines()[-1] if op["error"] else "error")
            continue
        broken = [name for name, g in op["gates"].items() if not g["pass"]]
        if op["digest"] != reference:
            broken.append("digest")
        reasons.append(",".join(broken))
    return reasons


def environment(workdir: Path) -> dict:
    import numpy
    import scipy

    def blas(config):
        return config.get("Build Dependencies", {}).get("blas", {}).get("version")

    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    fs, best = "unknown", ""
    try:
        with open("/proc/self/mounts") as fh:
            for line in fh:
                _, mount, kind = line.split()[:3]
                if str(workdir).startswith(mount) and len(mount) > len(best):
                    fs, best = kind, mount
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "openblas_numpy": blas(numpy.show_config(mode="dicts")),
        "openblas_scipy": blas(scipy.show_config(mode="dicts")),
        "pinned_env": {var: os.environ[var] for var in PINNED_ENV},
        "run_dir_fs": fs,
        "page_cache": "never dropped: I/O figures are cached-write figures",
    }


def speed(calib_s: float, elasticity: float) -> float:
    """Factor that turns measured seconds into reference seconds."""
    return (REF_S / calib_s) ** elasticity


def setup_sample(worker: dict) -> tuple[float, float]:
    """A worker's set-up time, measured and in reference seconds."""
    factor = speed(worker["setup_calib_s"], worker["elasticity"])
    return worker["setup_s"], worker["setup_s"] * factor


def median(values):
    return statistics.median(values) if values else float("nan")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "meltfront" / "__init__.py").is_file():
        fail(f"no meltfront sources under {ROOT / 'src'}; run from a full checkout")
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    if args.workload not in {w["name"] for w in spec["workloads"]}:
        fail(f"unknown workload {args.workload!r}")
    os.environ.update(PINNED_ENV)

    outdir = ROOT / ".bench_out"
    workdir = outdir / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    t_start = time.monotonic()
    deadline = t_start + RUN_LIMIT_S
    try:
        # set-up samples first, as (raw seconds, reference seconds); the
        # worker that runs the operations gives the last one
        setups = []
        for k in range(SETUP_SAMPLES - 1):
            probe = spawn(args, workdir, k, 0.0, deadline)
            if "error" in probe:
                fail(f"set-up failed: {probe['error']}")
            setups.append(setup_sample(probe))
        budget = min(args.seconds, START_LIMIT_S) - (time.monotonic() - t_start)
        worker = spawn(args, workdir, SETUP_SAMPLES, max(budget, 0.1), deadline)
        if "error" in worker:
            fail(f"the worker failed: {worker['error']}")
        setups.append(setup_sample(worker))
        ops = worker["ops"]
        env = environment(workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    reasons = op_failures(ops)
    failed = sum(1 for r in reasons if r)
    done = [op for op in ops if "error" not in op]
    if not done:
        fail(f"no operation completed: {reasons}")
    plain = [op for op in done if not op["traced"]]
    traced = [op for op in done if op["traced"]]
    for op in done:
        op["speed"] = speed(op["calib_s"], worker["elasticity"])
        op["ref_wall_s"] = op["wall_s"] * op["speed"]

    if args.trace:
        names = [m["name"] for m in spec["per_layer"]]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: median([op["layers"][name] * (op["speed"] if units[name] in TIME_UNITS
                                                      else 1.0) for op in traced])
                  for name in names if name != "trace.overhead_s"}
        values["trace.overhead_s"] = (median([op["ref_wall_s"] for op in traced])
                                      - median([op["ref_wall_s"] for op in plain]))
    else:
        names = [m["name"] for m in spec["end_to_end"]]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        values = {
            "wall_s": median([op["ref_wall_s"] for op in plain]),
            "cell_steps_per_s": median([op["cell_steps"] / op["ref_wall_s"] for op in plain]),
            "setup_s": median([ref for _, ref in setups]),
            "peak_rss_mb": worker["peak_rss_mb"],
        }
    metrics = {name: {"value": values[name], "unit": units[name]} for name in names}

    # the same operations in measured (wall-clock) seconds, for the record
    measured = {"wall_s": median([op["wall_s"] for op in plain]),
                "setup_s": median([raw for raw, _ in setups]),
                "calib_s": median([op["calib_s"] for op in done]),
                "speed": median([op["speed"] for op in done])}
    accuracy = {key: median([op["accuracy"][key] for op in done])
                for key in done[0]["accuracy"]}
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "params": worker["params"],
        "ranges": worker["ranges"],
        "environment": env, "attempted": len(ops), "failed": failed,
        "failure_ratio": failed / len(ops), "accuracy": accuracy,
        "setup_samples_s": [raw for raw, _ in setups],
        "setup_samples_ref_s": [ref for _, ref in setups],
        "measured": measured, "metrics": metrics,
        "ops": [{k: v for k, v in op.items() if k != "spans"} | {"failure": r}
                for op, r in zip(ops, reasons)],
    }
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    (outdir / f"{stem}.json").write_text(json.dumps(record, indent=1))
    if args.trace:
        spans = [{"op": i, "spans": op["spans"]} for i, op in enumerate(ops) if "spans" in op]
        (outdir / f"{stem}-spans.json").write_text(json.dumps(spans))

    params = " ".join(f"{k}={v:.6g} in [{lo:g}, {hi:g}]" for (k, v), (lo, hi)
                      in zip(worker["params"].items(), worker["ranges"].values()))
    print(f"{args.workload} seed={args.seed}: {params}")
    print(f"operations {len(ops)} ({len(traced)} traced), failed {failed}, "
          f"failure_ratio {failed / len(ops):g}"
          + "".join(f", {r}" for r in reasons if r))
    print("accuracy " + (" ".join(f"{k}={v:.6g}" for k, v in accuracy.items())
                         or "(no closed form; gated on exit code, status and steps)"))
    print(f"measured seconds: wall {measured['wall_s']:.6g}, set-up {measured['setup_s']:.6g},"
          f" reference kernel {measured['calib_s']:.6g} (reference seconds = measured"
          f" x {measured['speed']:.4g})")
    print(f"environment {json.dumps(env, sort_keys=True)}")
    print(f"record {outdir / stem}.json")
    print(json.dumps({"correct": failed == 0, "attempted": len(ops), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
