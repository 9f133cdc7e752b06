"""Uniform cell-centered grids and scalar fields on them.

Conventions used throughout the package:

* A grid covers the axis-aligned box ``[origin, origin + extent]`` in 1, 2,
  or 3 dimensions.  Each axis is split into ``counts[j]`` cells of width
  ``spacing[j] = extent[j] / counts[j]``; samples live at cell centers
  ``origin[j] + (i + 1/2) * spacing[j]``.
* Field values are stored flat in row-major (C) order, so the last axis
  varies fastest.
* Stencil operations are defined on interior cells only.  The outermost
  layer of cells carries boundary data; operations that cannot produce a
  value there return a field whose ``valid`` mask excludes those cells.
  The central second difference has two forms, equal bit for bit on the
  interior.  The sliced form, ``second_differences`` over ``interior_index``
  (the interior block, shifted and behind batch axes), serves one-off calls:
  ``discrete_laplacian``, the conservation residual of ``heat``, and the
  residual of ``verify``, one block of a trajectory's level pairs at a
  time.  The cut-once span form, ``span_stencil``, cuts the flat interior
  span of every row of an array once and serves the marches that step row
  after row: the Laplacian of ``heat`` (``solve_dirichlet`` and
  ``caloric_replacement``) and the edge-padded block of ``stefan3d``,
  whose pad ``refresh_edge_padding`` rebuilds.  The mapped step in
  ``stefan1d`` keeps its own hand-sliced difference: ``second_differences``
  divides by ``h^2`` first, and that would move the bits of every 1D run.

Serialization: every CSV is one header line, then rows of ``%.17g`` values
(17 significant digits round-trip doubles), through ``write_csv_rows`` and
``read_csv_rows``.  Field CSVs carry ``# grid dim=<d> counts=<...>
spacing=<...> time=<t>`` and one value per row, row-major; ``front.csv``
carries ``t,s,sdot`` and three values per row.  Both directions cost about
0.5 us per value in one thread, so the many-file jobs, ``write_field_csvs``
(every trajectory, snapshot and front write through ``write_fields``, and a
solve3d run's ``u_final.csv`` together with its fronts) and
``read_field_csvs`` (the level load of ``verify``), run on every usable CPU
when their files are large enough to pay for a fork.

Independent jobs share processes through ``_shared_map``: it deals weighted
items between this process and forked children, the heaviest first, each to
the least-loaded process, and equal weights round-robin.  Besides the CSV
jobs, whose weight is a file's value count, the benchmark mode of ``cli``
deals its solves by step count.  Each file's bytes, each loaded field's bits
and each solve's result are the same on any number of CPUs.
"""

from __future__ import annotations

import math
import os
import pickle
import threading
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

import numpy as np

__all__ = [
    "Grid",
    "TemperatureField",
    "ParabolicCylinder",
    "discrete_laplacian",
    "neighborhood_radius",
    "write_csv_rows",
    "read_csv_rows",
    "write_field_csv",
    "read_field_csv",
    "read_field_csvs",
    "field_name",
    "write_fields",
    "write_field_csvs",
    "format_float",
]

#: Decimal formatting used for every number the package serializes.
#: 17 significant digits round-trip IEEE doubles exactly.
FLOAT_FMT = "%.17g"


def format_float(x: float) -> str:
    """Render one float with 17 significant digits."""
    return FLOAT_FMT % float(x)


@dataclass(frozen=True)
class Grid:
    """Uniform cell-centered grid on an axis-aligned box.

    Parameters
    ----------
    origin : tuple of float
        Lower corner of the box, one entry per axis.
    extent : tuple of float
        Box edge lengths, strictly positive.
    counts : tuple of int
        Number of cells per axis; at least 4 so an interior exists.

    Notes
    -----
    ``spacing[j] = extent[j] / counts[j]`` and cell centers sit at
    ``origin[j] + (i + 0.5) * spacing[j]``.
    """

    origin: tuple[float, ...]
    extent: tuple[float, ...]
    counts: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "origin", tuple(float(v) for v in self.origin))
        object.__setattr__(self, "extent", tuple(float(v) for v in self.extent))
        object.__setattr__(self, "counts", tuple(int(v) for v in self.counts))
        if not 1 <= len(self.counts) <= 3:
            raise ValueError(f"grid dimension must be 1, 2, or 3, got {len(self.counts)}")
        if len(self.origin) != len(self.counts) or len(self.extent) != len(self.counts):
            raise ValueError("origin, extent, and counts must have matching lengths")
        if not all(map(math.isfinite, self.origin)):
            raise ValueError(f"origin must be finite, got {self.origin}")
        if not all(0 < e < math.inf for e in self.extent):
            raise ValueError(f"extent must be positive and finite, got {self.extent}")
        if any(c < 4 for c in self.counts):
            raise ValueError(f"need at least 4 cells per axis, got {self.counts}")

    @property
    def dim(self) -> int:
        return len(self.counts)

    @property
    def spacing(self) -> tuple[float, ...]:
        return tuple(e / c for e, c in zip(self.extent, self.counts))

    @property
    def shape(self) -> tuple[int, ...]:
        return self.counts

    @property
    def total_cells(self) -> int:
        return math.prod(self.counts)

    def axis_centers(self, axis: int) -> np.ndarray:
        """Cell-center coordinates along one axis."""
        h = self.spacing[axis]
        return self.origin[axis] + (np.arange(self.counts[axis]) + 0.5) * h

    def cell_centers(self) -> np.ndarray:
        """All cell centers, shape ``(total_cells, dim)``, row-major order."""
        axes = [self.axis_centers(j) for j in range(self.dim)]
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=-1)

    def interior_mask(self) -> np.ndarray:
        """Boolean flat mask of cells with a full stencil neighborhood."""
        m = np.zeros(self.counts, dtype=bool)
        m[interior_index(self.dim)] = True
        return m.ravel()

    def boundary_mask(self) -> np.ndarray:
        return ~self.interior_mask()

    def boundary_distance(self) -> np.ndarray:
        """Distance from each cell center to the boundary of the box (flat)."""
        pts = self.cell_centers()
        lo = np.asarray(self.origin)
        hi = lo + np.asarray(self.extent)
        return np.minimum(pts - lo, hi - pts).min(axis=1)

    def grids_match(self, other: "Grid") -> bool:
        if self == other:
            return True
        return (
            self.counts == other.counts
            and np.allclose(self.origin, other.origin)
            and np.allclose(self.extent, other.extent)
        )


@dataclass(frozen=True)
class TemperatureField:
    """Scalar samples on a :class:`Grid` at one instant.

    ``values`` is flat, row-major, and finite on every valid cell.  ``valid``
    is ``None`` when all cells hold usable values; stencil outputs set it to
    their interior mask.  Arrays are frozen after construction.
    """

    grid: Grid
    time: float
    values: np.ndarray
    valid: np.ndarray | None = None

    def __post_init__(self):
        vals = np.ascontiguousarray(np.asarray(self.values, dtype=float).ravel())
        if vals.size != self.grid.total_cells:
            raise ValueError(
                f"field has {vals.size} values for a grid of {self.grid.total_cells} cells"
            )
        valid = self.valid
        if valid is not None:
            valid = np.asarray(valid, dtype=bool).ravel()
            if valid.size != vals.size:
                raise ValueError("valid mask size does not match values")
            valid.setflags(write=False)
        check = vals if valid is None else vals[valid]
        if check.size and not np.all(np.isfinite(check)):
            raise ValueError("field contains non-finite values on valid cells")
        vals.setflags(write=False)
        object.__setattr__(self, "values", vals)
        object.__setattr__(self, "valid", valid)
        object.__setattr__(self, "time", float(self.time))

    def reshaped(self) -> np.ndarray:
        """Read-only view shaped like the grid."""
        return self.values.reshape(self.grid.shape)

    def valid_mask(self) -> np.ndarray:
        if self.valid is None:
            return np.ones(self.grid.total_cells, dtype=bool)
        return self.valid


@dataclass(frozen=True)
class ParabolicCylinder:
    """Backward space-time cylinder ``B(center, radius) x (t_top - radius^2, t_top]``."""

    center: tuple[float, ...]
    t_top: float
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", tuple(float(v) for v in self.center))
        object.__setattr__(self, "t_top", float(self.t_top))
        object.__setattr__(self, "radius", float(self.radius))
        if self.radius <= 0:
            raise ValueError(f"cylinder radius must be positive, got {self.radius}")

    @property
    def t_bottom(self) -> float:
        return self.t_top - self.radius**2


# ---------------------------------------------------------------------------
# stencil and set operations
# ---------------------------------------------------------------------------

def interior_index(dim: int, shift: Mapping[int, int] | None = None,
                   lead: int = 0) -> tuple[slice, ...]:
    """Index of the interior block shifted by ``shift[j]`` (-1, 0 or +1) cells
    along axis ``j``, behind ``lead`` whole batch axes."""
    shift = shift or {}
    return (slice(None),) * lead + tuple(
        slice(1 + shift.get(j, 0), (shift.get(j, 0) - 1) or None) for j in range(dim)
    )


def second_differences(u: np.ndarray, spacing: Sequence[float],
                       lead: int = 0) -> Iterator[np.ndarray]:
    """Yield ``(u[+e_j] - 2 u[0] + u[-e_j]) / h_j^2`` on the interior, axis by axis.

    ``u`` is shaped like the grid behind ``lead`` batch axes; each yielded
    term has the interior shape behind the same batch axes.
    """
    dim = len(spacing)
    center = u[interior_index(dim, lead=lead)]
    for j, h in enumerate(spacing):
        up = u[interior_index(dim, {j: 1}, lead)]
        dn = u[interior_index(dim, {j: -1}, lead)]
        yield (up - 2.0 * center + dn) / h**2


def interior_span(shape: Sequence[int]) -> slice:
    """Flat slice of a C-ordered array of ``shape`` from its first interior
    cell to its last one."""
    strides = _flat_strides(shape)
    return slice(sum(strides), sum(s * (n - 2) for s, n in zip(strides, shape)) + 1)


def _flat_strides(shape: Sequence[int]) -> list[int]:
    """Flat offset of one step along each axis of a C-ordered array."""
    return [math.prod(shape[j + 1:]) for j in range(len(shape))]


def span_stencil(rows: np.ndarray, spacing: Sequence[float]):
    """:func:`second_differences` on the flat interior span of each row of a
    C-contiguous ``(R, *shape)`` array, with every view cut once.

    Returns ``(span, centre, terms)``: ``interior_span(shape)``, the rows on
    it, and ``terms(k, out)``, which writes row ``k``'s term for axis ``j``
    into ``out[j]`` (span-long, clear of row ``k``) and returns ``out``.  The
    sliced form's operations run in its order, so interior cells equal it bit
    for bit; span positions off the interior (edge cells) hold values to ignore.
    """
    if not rows.flags.c_contiguous:
        raise ValueError("flat spans need a C-contiguous array of rows")
    shape = rows.shape[1:]
    span = interior_span(shape)
    flat = rows.reshape(len(rows), -1)
    centre = flat[:, span]
    shifted = [(flat[:, span.start + s:span.stop + s], flat[:, span.start - s:span.stop - s],
                h**2) for s, h in zip(_flat_strides(shape), spacing)]

    def terms(k: int, out: Sequence[np.ndarray]) -> Sequence[np.ndarray]:
        twice = out[-1]
        # 2 u[0], shared by every axis, waits in the last term until its own turn
        np.multiply(centre[k], 2.0, out=twice)
        for term, (up, dn, h2) in zip(out, shifted):
            np.subtract(up[k], twice, out=term)
            np.add(term, dn[k], out=term)
            np.divide(term, h2, out=term)
        return out

    return span, centre, terms


def refresh_edge_padding(u: np.ndarray) -> None:
    """Rewrite the outermost cells of each axis from their inner neighbors, in
    place: the array ``np.pad(interior, 1, mode="edge")`` would build."""
    for ax in range(u.ndim):
        before = (slice(None),) * ax
        u[before + (0,)] = u[before + (1,)]
        u[before + (-1,)] = u[before + (-2,)]


def discrete_laplacian(f: TemperatureField) -> TemperatureField:
    """Second-order Laplacian stencil, valid on interior cells.

    Interior cells receive ``sum_j (f[i+e_j] - 2 f[i] + f[i-e_j]) / h_j^2``;
    boundary cells are flagged invalid and hold 0.

    Raises
    ------
    ValueError
        If the input contains non-finite values.
    """
    if not np.all(np.isfinite(f.values)):
        raise ValueError("discrete_laplacian requires finite input values")
    g = f.grid
    out = np.zeros(g.shape)
    out[interior_index(g.dim)] = sum(second_differences(f.reshaped(), g.spacing))
    return TemperatureField(g, f.time, out.ravel(), g.interior_mask())


def neighborhood_radius(grid: Grid, cells_a: np.ndarray, cells_b: np.ndarray) -> float:
    """Smallest radius ``delta`` with ``A`` inside the delta-neighborhood of ``B``.

    Computed over cell centers: ``max_{a in A} min_{b in B} |a - b|``.
    Returns 0 for empty ``A``; raises for empty ``B`` when ``A`` is not empty.
    """
    a = np.asarray(cells_a, dtype=bool).ravel()
    b = np.asarray(cells_b, dtype=bool).ravel()
    if a.size != grid.total_cells or b.size != grid.total_cells:
        raise ValueError("cell masks must match the grid size")
    if not a.any():
        return 0.0
    if not b.any():
        raise ValueError("reference set B is empty but A is not")
    return radius_to(grid, b)(a)


def radius_to(grid: Grid, cells_b: np.ndarray) -> Callable[[np.ndarray], float]:
    """``cells_a -> neighborhood_radius(grid, cells_a, cells_b)`` for a fixed,
    non-empty ``B``: every cell center is queried against one KD-tree over
    ``B`` once, and each call takes the maximum over ``A`` of those distances."""
    from scipy.spatial import cKDTree  # imported on use: keeps scipy out of start-up

    pts = grid.cell_centers()
    dist_to_b, _ = cKDTree(pts[cells_b]).query(pts)

    def radius(cells_a: np.ndarray) -> float:
        if not cells_a.any():
            return 0.0
        return float(np.max(dist_to_b[cells_a]))

    return radius


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def _header_line(field: TemperatureField) -> str:
    g = field.grid
    counts = ",".join(str(c) for c in g.counts)
    spacing = ",".join(format_float(s) for s in g.spacing)
    return f"# grid dim={g.dim} counts={counts} spacing={spacing} time={format_float(field.time)}"


_CHUNK_ROWS = 4096


def write_csv_rows(path: str | Path, header: str, rows: np.ndarray) -> None:
    """Write ``header``, then the rows of a 2D array as ``FLOAT_FMT`` values,
    each chunk of rows through one template (a chunk bounds the text's memory)."""
    row_fmt = ",".join([FLOAT_FMT] * rows.shape[1]) + "\n"
    with open(path, "w") as f:
        f.write(header + "\n")
        for i in range(0, len(rows), _CHUNK_ROWS):
            chunk = rows[i:i + _CHUNK_ROWS]
            f.write((row_fmt * len(chunk)) % tuple(chunk.ravel().tolist()))


def read_csv_rows(path: str | Path) -> tuple[str, np.ndarray]:
    """The first line of a CSV and its body's values, flat in file order;
    every ``ValueError`` names ``path``."""
    try:
        header, _, body = Path(path).read_text().partition("\n")
    except UnicodeDecodeError as exc:
        raise ValueError(f"{path}: not UTF-8 text: {exc}") from exc
    try:
        return header, np.array(body.replace(",", " ").split(), dtype=float)
    except ValueError as exc:
        raise ValueError(f"{path}: non-numeric value in the body: {exc}") from exc


def write_field_csv(field: TemperatureField, path: str | Path) -> None:
    write_csv_rows(path, _header_line(field), field.values[:, None])


def field_name(prefix: str, k: int) -> str:
    """File name of the ``k``-th stored field of ``prefix``: ``<prefix>_<k:06d>.csv``."""
    return f"{prefix}_{k:06d}.csv"


# A CSV job of many files is shared between processes only where that pays:
# each file must hold at least _SHARE_MIN_FILE_VALUES values, and each process
# at least _SHARE_MIN_VALUES of the job's values, since a fork plus its wait
# costs about 5 ms and formatting or parsing a value about 0.5 us.  Speed-ups
# of two processes over one, write | read, by files x values per file (a
# 2-vCPU VM, Python 3.11, numpy 2.4): 202 x 201: 0.85 | -; 202 x 1024: 0.97 | 0.89;
# 51 x 1024: 0.87 | -; 51 x 2048: 1.39 | 1.10; 12 x 4096: 1.70 | 1.48;
# 101 x 4096: 1.90 | 1.88.  Only two processes were measured.
_SHARE_MIN_FILE_VALUES = 2**11
_SHARE_MIN_VALUES = 2**14


def _file_weight(values_per_file: int) -> int:
    """A field file's weight in :func:`_shared_map`: its value count, or 0 (a
    job that never pays for a fork) under ``_SHARE_MIN_FILE_VALUES`` values."""
    return values_per_file if values_per_file >= _SHARE_MIN_FILE_VALUES else 0


def _share_count(items: int, weight: int, min_share: int) -> int:
    """Processes a job of ``items`` items of total ``weight`` runs on: 1 (this
    one) unless the platform can fork, no other thread is alive, more than one
    CPU is usable and each process gets at least ``min_share`` of the weight."""
    if (not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity"))
            or threading.active_count() > 1):
        return 1
    return max(1, min(len(os.sched_getaffinity(0)), items, weight // min_share))


def _deal(weights: Sequence[int], workers: int) -> list[list[int]]:
    """Item indices of each process's share, each in item order.  The heaviest
    item goes first, each to the least-loaded process, the lowest-numbered
    among equals (this process is 0), so equal weights deal round-robin."""
    loads = [0] * workers
    shares: list[list[int]] = [[] for _ in range(workers)]
    for k in sorted(range(len(weights)), key=lambda k: -weights[k]):
        w = loads.index(min(loads))
        shares[w].append(k)
        loads[w] += weights[k]
    return [sorted(share) for share in shares]


def _run_share(job: Callable, share: Sequence) -> tuple[list, Exception | None]:
    """``job`` over ``share`` in order up to the first failure: returns the
    results and ``None``, or the results so far and the exception."""
    results = []
    try:
        for item in share:
            results.append(job(item))
    except Exception as exc:
        return results, exc
    return results, None


def _serve_share(job, share, read_fd: int, write_fd: int):
    """Body of a forked child: run its share and pickle ``(results, error)``
    into the pipe.  It leaves only through ``os._exit``."""
    status = 1
    try:
        os.close(read_fd)
        results, error = _run_share(job, share)
        if error is not None:
            try:  # the parent must be able to rebuild it
                pickle.loads(pickle.dumps(error))
            except Exception:
                error = RuntimeError(f"{type(error).__name__}: {error}")
        with os.fdopen(write_fd, "wb") as out:
            pickle.dump((results, error), out, protocol=pickle.HIGHEST_PROTOCOL)
        status = 0
    finally:
        os._exit(status)


def _receive_share(pipe) -> tuple[list, Exception | None] | None:
    """A child's ``(results, error)``; ``None`` if it ended before writing them."""
    with pipe:
        try:
            return pickle.load(pipe)
        except (EOFError, pickle.UnpicklingError):
            return None


def _shared_map(job: Callable, items: Sequence, weights: int | Sequence[int],
                min_share: int = _SHARE_MIN_VALUES) -> list:
    """``[job(item) for item in items]``, dealt between this process and one
    forked child per further usable CPU.

    ``weights`` gives each item's cost, or one number for every item; the
    deal (:func:`_deal`) keeps the heaviest item in this process and deals
    equal weights round-robin.  The in-process path is taken from facts of
    the run, never from an option: one usable CPU, no ``os.fork`` or
    ``os.sched_getaffinity``, another Python thread alive, or a job whose
    total weight gives no process ``min_share``.  Results come back in item
    order, and whatever ``job`` writes or returns cannot depend on the path.
    A failure raises the exception of the first failing item, as the
    in-process loop would; a child's comes back pickled, with its type and
    message.  Every child is reaped before this returns or raises.
    """
    if not isinstance(weights, Sequence):
        weights = [weights] * len(items)
    workers = _share_count(len(items), sum(weights), min_share)
    if workers == 1:
        return [job(item) for item in items]
    shares = _deal(weights, workers)
    pids, pipes = [], []
    try:
        for share in shares[1:]:
            read_fd, write_fd = os.pipe()
            try:
                pid = os.fork()
            except BaseException:
                os.close(read_fd)
                os.close(write_fd)
                raise
            if pid == 0:
                _serve_share(job, [items[k] for k in share], read_fd, write_fd)
            os.close(write_fd)
            pids.append(pid)
            pipes.append(os.fdopen(read_fd, "rb"))
        runs = [_run_share(job, [items[k] for k in shares[0]])]
        runs += [_receive_share(pipe) for pipe in pipes]
    finally:
        for pipe in pipes:  # a child still writing gets EPIPE and exits
            pipe.close()
        statuses = [os.waitpid(pid, 0)[1] for pid in pids]
    if any(statuses) or None in runs:
        raise ChildProcessError(f"a worker process ended with wait status "
                                f"{max(statuses)} before it returned its results")
    failed = [(share[len(results)], error)
              for share, (results, error) in zip(shares, runs) if error is not None]
    if failed:
        raise min(failed, key=lambda f: f[0])[1]
    out = [None] * len(items)
    for share, (results, _) in zip(shares, runs):
        for k, result in zip(share, results):
            out[k] = result
    return out


def _write_field_job(item: tuple[TemperatureField, Path]) -> None:
    # looks write_field_csv up per call, so a wrapper installed on this module
    # (benchmarks/tracing.py) sees every file this process writes
    write_field_csv(*item)


def write_field_csvs(jobs: Iterable[tuple[TemperatureField, str | Path]]) -> None:
    """:func:`write_field_csv` of each ``(field, path)`` pair.

    The files are shared between processes as :func:`_shared_map` decides,
    each weighted by :func:`_file_weight` of its value count: equal files
    deal round-robin, and the heaviest file stays in this process.  The
    bytes of each file do not depend on that.
    """
    jobs = list(jobs)
    _shared_map(_write_field_job, jobs, [_file_weight(f.values.size) for f, _ in jobs])


def write_fields(fields: Iterable[TemperatureField], outdir: str | Path,
                 prefix: str) -> list[str]:
    """Write the fields to :func:`field_name` files in ``outdir`` through
    :func:`write_field_csvs`; returns the names."""
    fields = list(fields)
    names = [field_name(prefix, k) for k in range(len(fields))]
    write_field_csvs(zip(fields, (Path(outdir) / n for n in names)))
    return names


def _parse_header(path: str | Path, header: str) -> tuple[Grid, float]:
    """The grid (at origin 0) and the time of a field CSV's header line."""
    if not header.startswith("# grid "):
        raise ValueError(f"{path}: missing grid header line")
    tokens = dict(
        item.split("=", 1) for item in header[len("# grid "):].split() if "=" in item
    )
    try:
        dim = int(tokens["dim"])
        counts = tuple(int(c) for c in tokens["counts"].split(","))
        spacing = tuple(float(s) for s in tokens["spacing"].split(","))
        time = float(tokens["time"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"{path}: malformed grid header: {header!r}") from exc
    if len(counts) != dim or len(spacing) != dim:
        raise ValueError(f"{path}: header dim does not match counts/spacing")
    extent = tuple(c * s for c, s in zip(counts, spacing))
    try:
        return Grid(origin=(0.0,) * dim, extent=extent, counts=counts), time
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def _field_from_rows(path: str | Path, header: str, values: np.ndarray) -> TemperatureField:
    grid, time = _parse_header(path, header)
    try:
        return TemperatureField(grid, time, values)
    except ValueError as exc:
        raise ValueError(f"{path}: {exc}") from exc


def read_field_csv(path: str | Path) -> TemperatureField:
    """Parse the grid CSV format; every ``ValueError`` names ``path``.

    The header does not carry the box origin, so the grid is reconstructed
    with origin 0 on every axis.
    """
    return _field_from_rows(path, *read_csv_rows(path))


def _declared_cells(path: str | Path) -> int:
    """Cells the header of a field CSV declares; 0 if it cannot be read."""
    try:
        with open(path) as f:
            return _parse_header(path, f.readline().rstrip("\n"))[0].total_cells
    except (OSError, ValueError):
        return 0


def read_field_csvs(paths: Sequence[str | Path]) -> list[TemperatureField]:
    """:func:`read_field_csv` of each path, in order, with the same errors.

    The files are shared between processes as :func:`_shared_map` decides,
    sized by the first file's header.  A process sharing the job returns each
    file's header and values; this process builds and validates every field.
    """
    paths = list(paths)
    rows = _shared_map(read_csv_rows, paths,
                       _file_weight(_declared_cells(paths[0]) if paths else 0))
    return [_field_from_rows(p, header, values) for p, (header, values) in zip(paths, rows)]
