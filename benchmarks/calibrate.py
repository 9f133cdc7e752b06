"""A fixed reference kernel that reads how fast the machine runs right now.

The machine these figures come from is a small VM on a shared host, and its
speed drifts by up to 1.5x for minutes at a time, which moves every measured
time although the work stays the same. So the worker times :func:`kernel`
between operations, and ``run.py`` reports times in reference seconds:
measured seconds times ``(REF_S / kernel seconds) ** elasticity``.  A
workload's ``elasticity`` (in ``workloads.py``) is how far its time moves
when the kernel's does: the kernel slows down more than whole-array numpy
work when the host is busy, so scaling by the full ratio would over-correct
such a workload.

The kernel uses only Python and numpy, never meltfront, so no change to the
program can move it. It mixes the three kinds of work the workloads do:
small-array numpy calls in a Python loop (the 1D stepper, the Dirichlet
steps), whole-array numpy on 64k cells (the 3D stepper, the heat kernel),
and float-to-text formatting (the CSV writers).
"""

import time

import numpy as np

# The median time of kernel() over about 150 operations on the 2-vCPU Xeon
# VM the baseline in README.md was measured on.  It only sets the scale of
# the reported times: never change it, or every figure moves.
REF_S = 0.050

_SMALL = np.linspace(0.0, 1.0, 201)
_LARGE = np.linspace(-1.0, 1.0, 65536)


def kernel() -> float:
    """Seconds taken by one pass of the fixed reference work."""
    start = time.perf_counter()
    small, rev, acc, total = _SMALL, _SMALL[::-1].copy(), {}, 0.0
    for i in range(4000):
        step = small * 0.5 + rev
        total += float(step[3]) + float(step.sum())
        acc[i & 255] = total
    large = _LARGE
    for _ in range(20):
        large = np.where(large > 0.0, np.exp(-large * large), 0.5 * large) + 1e-3
    text = ",".join(f"{v:.17g}" for v in _LARGE[:20000].tolist())
    if not (np.isfinite(total) and text):
        raise RuntimeError("reference kernel produced no result")
    return time.perf_counter() - start

