"""One benchmark process: set up a workload, then run its operations.

Set-up time runs from the moment ``run.py`` started the process (passed as
``--t-spawn``, a ``time.monotonic`` reading, which is system-wide on Linux)
to the end of set-up: interpreter start, imports, and building the inputs.
With ``--seconds 0`` the process stops there (a set-up sample).  Otherwise it
runs operations one after another, each in its own directory, until the next
one would end after ``--seconds`` (and at least two).  The reference kernel
of ``calibrate.py`` runs between operations; each operation gets the mean of
the readings on either side of it as ``calib_s``.  The result is written as
JSON to ``--out``.  ``run.py`` pins the environment this process inherits
(one BLAS thread, a fixed string-hash seed).

    python3 benchmarks/worker.py --workload NAME --seed N --work DIR \
        --out FILE --t-spawn T [--seconds S] [--trace]
"""

import argparse
import json
import os
import resource
import shutil
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import calibrate  # noqa: E402  (these imports are part of set-up)
import meltfront  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, digest, draw  # noqa: E402

CALIB_PASSES = 2  # reference-kernel passes between two operations
MIN_OPS = 2       # the digest check needs a repeat


def run_op(workload, ctx, work: Path, index: int, traced: bool) -> dict:
    """One timed operation in its own directory; an exception is a failed op."""
    opdir = work / f"op-{index}"
    opdir.mkdir()
    rec = tracing.Recorder(spans=traced)
    patches = tracing.instrument(rec, full=traced)
    os.chdir(opdir)
    try:
        with rec.span("op", "bench"):
            wall, gates, accuracy, extra = workload.operate(ctx, rec)
    except Exception:  # reported as a failed operation, the run goes on
        return {"error": traceback.format_exc(limit=-3), "traced": traced}
    finally:
        tracing.restore(patches)
        os.chdir(ROOT)
    op = {
        "traced": traced,
        "wall_s": wall,
        "cell_steps": sum(rec.counts.get(key, 0) for key in (
            "stefan1d.cell_steps", "stefan3d.cell_steps", "heat.dirichlet_cell_steps")),
        "gates": gates,
        "accuracy": accuracy,
        "digest": digest(opdir, extra),
        "counts": rec.counts,
    }
    if traced:
        op["spans"] = rec.spans
        op["layers"] = tracing.layer_metrics(rec.spans, rec.counts)
    shutil.rmtree(opdir)
    return op


def reference_s() -> float:
    return sum(calibrate.kernel() for _ in range(CALIB_PASSES)) / CALIB_PASSES


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--out", required=True, type=Path)
    parser.add_argument("--t-spawn", type=float, required=True)
    parser.add_argument("--seconds", type=float, default=0.0,
                        help="run operations for this long (0: set-up only)")
    parser.add_argument("--trace", action="store_true",
                        help="record layer spans on every second operation")
    args = parser.parse_args()

    if Path(meltfront.__file__).resolve().parent != ROOT / "src" / "meltfront":
        sys.exit(f"imported meltfront from {meltfront.__file__}, not this checkout")
    workload = WORKLOADS[args.workload]
    params = draw(workload.ranges, workload.name, args.seed)
    args.work.mkdir(parents=True, exist_ok=True)
    ctx = workload.prepare(params, args.work)
    result = {"setup_s": time.monotonic() - args.t_spawn, "params": params,
              "ranges": workload.ranges, "elasticity": workload.elasticity}
    calibrate.kernel()  # first-call costs stay out of the readings
    before = result["setup_calib_s"] = reference_s()

    ops: list[dict] = []
    last = 0.0  # the budget counts from the spawn, so it covers set-up too
    while args.seconds > 0 and (len(ops) < MIN_OPS
                                or time.monotonic() - args.t_spawn + last <= args.seconds):
        t0 = time.monotonic()
        op = run_op(workload, ctx, args.work, len(ops), args.trace and len(ops) % 2 == 1)
        after = reference_s()
        op["calib_s"] = (before + after) / 2.0
        ops.append(op)
        before, last = after, time.monotonic() - t0
    result["ops"] = ops
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    args.out.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
