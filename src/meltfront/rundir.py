"""The run-directory format: this module writes and reads every JSON file a
run leaves on disk (``config.json``, ``report.json``, ``manifest.json``,
``FAILED.json``) in one layout, and compares two run directories.

Every diagnostic that compares a number with a tolerance takes its ``pass``
from its printed ``measured`` and ``tolerance`` under one named rule of
``_RULES``, so a reported tolerance is always the applied one.

Reports follow ``REPORT_SCHEMA`` and are validated against it before they
are written.  Everything except the ``created_utc`` provenance field is a
pure function of (config, seed), so repeated runs produce byte-identical
CSVs; :func:`compare_runs` ignores the timestamp when diffing reports.
"""

from __future__ import annotations

import hashlib
import json
import math
import sys
from dataclasses import dataclass, field as dataclass_field
from datetime import datetime, timezone
from pathlib import Path
from typing import Callable, Sequence

import numpy as np

from . import __version__
from .grid import read_csv_rows


class UsageError(Exception):
    """Bad flags, malformed config, or incompatible inputs (exit code 2)."""


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


def write_json(path: str | Path | None, obj) -> None:
    """Write ``obj`` in the run-directory JSON layout to ``path``, or to stdout."""
    text = json.dumps(obj, sort_keys=True, indent=2) + "\n"
    if path is None:
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _utc_now() -> str:
    return datetime.now(timezone.utc).isoformat(timespec="seconds")


def write_manifest(outdir: str | Path, dt: float, times: Sequence[float],
                   snapshots: list[str], stability_limit: float | None,
                   diagnostics: dict, final_field: str | None = None) -> Path:
    """Write ``manifest.json`` into ``outdir``; returns its path."""
    manifest = {"dt": dt, "times": [float(t) for t in times], "snapshots": snapshots,
                "stability_limit": stability_limit, "diagnostics": diagnostics}
    if final_field is not None:
        manifest["final_field"] = final_field
    path = Path(outdir) / "manifest.json"
    write_json(path, manifest)
    return path


def write_failure(outdir: Path, mode: str, error: Exception) -> None:
    """Leave the ``FAILED.json`` marker of an aborted run in ``outdir``."""
    outdir.mkdir(parents=True, exist_ok=True)
    write_json(outdir / "FAILED.json",
               {"error": str(error), "mode": mode, "created_utc": _utc_now()})


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
        # imported on use: keeps jsonschema out of start-up
        from jsonschema import Draft202012Validator
        from jsonschema.exceptions import best_match

        err = best_match(Draft202012Validator(REPORT_SCHEMA).iter_errors(self.to_dict()))
        if err is not None:
            raise ValueError(f"report failed self-validation at {err.json_path}: "
                             f"{err.message}")

    def emit(self, out: str | Path | None) -> None:
        """Validate, then write the report to ``out``, or to stdout when None."""
        self.validate()
        write_json(out, self.to_dict())


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
        "created_utc": _utc_now(),
        "seed": seed,
    }


def _read_report(rundir: Path) -> dict:
    """``report.json`` without its ``created_utc`` timestamp, else a usage error."""
    try:
        report = json.loads((rundir / "report.json").read_text())
        report.get("provenance", {}).pop("created_utc", None)
    except (ValueError, AttributeError, TypeError) as exc:
        raise UsageError(f"{rundir}: unreadable report.json: {exc!r}") from exc
    return report


def _report_only(rundir: Path) -> bool:
    """Whether ``rundir`` holds a report and no manifest, as a benchmark run does."""
    return not (rundir / "manifest.json").exists() and (rundir / "report.json").exists()


def _read_manifest(rundir: Path) -> dict:
    """``manifest.json`` as an object with a finite positive ``dt``, an object
    ``diagnostics`` and a list of string ``snapshots`` (each when present),
    else a usage error, which names the mode of a report-only directory."""
    if _report_only(rundir):
        raise UsageError(f"{rundir}: a {_read_report(rundir).get('mode')} run directory "
                         "holds no manifest.json, only its config and report")
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

    Raises :class:`UsageError` for a negative or NaN tolerance, and when the
    manifests, the file sets or a CSV's header, value count or body cannot be
    compared; reports fail (not raise) when values differ beyond the
    tolerance.  ``report.json`` files are compared with the ``created_utc``
    provenance field removed; two report-only (benchmark) directories are
    compared by their reports alone.
    """
    if not tolerance >= 0.0:  # NaN too: no difference would pass it
        raise UsageError(f"tolerance must be a nonnegative number, got {tolerance}")
    dir_a, dir_b = Path(dir_a), Path(dir_b)
    manifested = not (_report_only(dir_a) and _report_only(dir_b))
    if manifested:  # a report-only side is read last, so a missing path is an io error
        ma, mb = (_read_manifest(d) for d in sorted((dir_a, dir_b), key=_report_only))
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
        try:
            (ha, va), (hb, vb) = read_csv_rows(pa), read_csv_rows(pb)
        except ValueError as exc:
            raise UsageError(str(exc)) from exc
        if ha != hb:
            raise UsageError(f"{name}: header lines differ")
        if va.shape != vb.shape:
            raise UsageError(f"{name}: value counts differ ({va.size} vs {vb.size})")
        # normwise: a column through zero must not turn rounding into 100%
        fa = float(np.abs(va - vb).max(initial=0.0))
        scale = max(np.abs(va).max(initial=0.0), np.abs(vb).max(initial=0.0))
        fr = fa / float(scale) if scale > 0 else 0.0
        per_file[name] = {"max_abs": fa, "max_rel": fr, "identical": False}
        max_abs = max(max_abs, fa)
        max_rel = max(max_rel, fr)

    reports_match = None
    if (dir_a / "report.json").exists() and (dir_b / "report.json").exists():
        reports_match = _read_report(dir_a) == _read_report(dir_b)

    diagnostics = {
        "csv_max_abs": _rule("at_most", max_abs, tolerance),
        "csv_max_rel": _rule("at_most", max_rel, tolerance,
                             "relative to the largest magnitude in the file"),
    }
    if reports_match is not None:
        diagnostics["reports_match"] = _check(
            1.0 if reports_match else 0.0, None, reports_match,
            "report.json equality with timestamps removed")

    anchor = "manifest.json" if manifested else "config.json"
    digest = hashlib.sha256(
        (dir_a / anchor).read_bytes() + (dir_b / anchor).read_bytes()).hexdigest()
    return RunReport("compare", diagnostics, _provenance(digest, None), sorted(names_a),
                     {"a": str(dir_a), "b": str(dir_b), "per_file": per_file})
