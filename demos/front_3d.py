"""Relaxation of a bumped melting front in a box.

The interface starts as a Gaussian bump on a flat graph z = rho(x, y) and
flattens as it advances; the Lipschitz constant of the height field decays
monotonically while the liquid temperature stays nonnegative.
"""

import numpy as np

from meltfront import Grid, StefanSpec3D, front_field, solve3d, write_field_csv

grid = Grid(origin=(0.0, 0.0, 0.0), extent=(1.0, 1.0, 1.0), counts=(8, 8, 32))


def bump(x, y):
    return 0.3 + 0.08 * np.exp(-((x - 0.5) ** 2 + (y - 0.5) ** 2) / 0.05)


def initial(points):
    heights = bump(points[:, 0], points[:, 1])
    return np.maximum(heights - points[:, 2], 0.0)


spec = StefanSpec3D(
    grid=grid,
    k1=1.5,
    duration=8e-3,
    dt=2e-4,
    initial_front=bump,
    bottom=1.0,
    initial=initial,
    snapshot_every=10,
)
result = solve3d(spec)

print(f"{'t':>8} {'min rho':>10} {'max rho':>10} {'Lipschitz':>10}")
for t, front in zip(result.times, result.fronts):
    h = front.heights
    lip = front.lipschitz_constant
    print(f"{t:8.4f} {h.min():10.6f} {h.max():10.6f} {lip:10.6f}")

rep = result.report
print("minimum liquid temperature:", rep["u_min"])
print("largest Lipschitz constant:", rep["lipschitz_max"])

write_field_csv(front_field(result.final.front, result.final.time), "front_3d_final.csv")
print("final heights written to front_3d_final.csv")
