"""Command-line surface: configs, reports, exit codes, run comparison.

Exit codes: 0 pass, 2 usage/config problems, 3 numerical failures or failed
checks, 4 I/O problems.
"""

import importlib.util
import json
import os
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

import meltfront
import meltfront.grid as grid_module
from meltfront import (
    Grid,
    HeatTrajectory,
    OperatorCoefficients,
    TemperatureField,
    solve_dirichlet,
    write_trajectory,
)
from meltfront.cli import (
    CONFIG_SCHEMAS,
    ExperimentConfig,
    RunReport,
    UsageError,
    _rule,
    compare_runs,
    main,
)
from meltfront.grid import write_field_csv
from meltfront.rundir import _RULES


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


SIM_1D = {"mode": "solve1d", "k1": 1.0, "duration": 0.02, "t0": 0.25,
          "initial": {"kind": "similarity"}, "nx": 24}

FLAT_3D = {"mode": "solve3d", "k1": 1.0, "duration": 0.02,
           "grid": {"origin": [0, 0, 0], "extent": [1, 1, 1],
                    "counts": [4, 4, 8]},
           "front": 0.5, "bottom": 1.0}


def heat_rundir(tmp_path, name="heat"):
    """FTCS sine run stored in the trajectory-directory layout."""
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(21,))
    u0 = np.sin(np.pi * grid.cell_centers()[:, 0])
    traj = solve_dirichlet(OperatorCoefficients.laplacian(),
                           TemperatureField(grid, 0.0, u0), 0.0,
                           duration=8e-3, dt=1e-3)
    outdir = tmp_path / name
    write_trajectory(traj, outdir, stability_limit_used=1.25e-3,
                     diagnostics={"seed": 11})
    return outdir


# ---------------------------------------------------------------------------
# config and report objects
# ---------------------------------------------------------------------------

def test_config_mode_dispatch():
    with pytest.raises(UsageError, match=r"\$\.mode"):
        ExperimentConfig.from_dict({"mode": "warp", "k1": 1.0})
    with pytest.raises(UsageError, match=r"\$\.mode"):
        ExperimentConfig.from_dict({"k1": 1.0})
    with pytest.raises(UsageError, match="JSON object"):
        ExperimentConfig.from_dict([1, 2])


def test_config_schema_paths():
    bad = dict(SIM_1D, nx=2)
    with pytest.raises(UsageError, match=r"\$\.nx"):
        ExperimentConfig.from_dict(bad)
    with pytest.raises(UsageError, match=r"\$\.grid"):
        ExperimentConfig.from_dict(
            {"mode": "solve3d", "k1": 1.0, "duration": 1.0,
             "grid": {"origin": [0, 0, 0], "extent": [1, 1, 1],
                      "counts": [4, 4]}})
    with pytest.raises(UsageError, match="ladder"):
        ExperimentConfig.from_dict({"mode": "benchmark", "ladder": [16]})
    with pytest.raises(UsageError):
        ExperimentConfig.from_dict(dict(SIM_1D, typo_field=1))


def test_config_file_errors(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(UsageError, match="invalid JSON"):
        ExperimentConfig.from_file(path)


def test_canonical_hash_is_key_order_independent():
    a = ExperimentConfig.from_dict({"mode": "benchmark", "ladder": [16, 32],
                                    "stefan": 1.0})
    b = ExperimentConfig.from_dict({"stefan": 1.0, "ladder": [16, 32],
                                    "mode": "benchmark"})
    assert a.canonical() == b.canonical()
    assert a.sha256() == b.sha256()
    assert a.with_seed(None) is a
    seeded = a.with_seed(9)
    assert seeded.seed == 9
    assert seeded.payload["seed"] == 9
    assert seeded.sha256() != a.sha256()


def test_report_schema_self_validation():
    prov = {"config_sha256": "0" * 64, "code_version": "0.0.0",
            "created_utc": "2026-01-01T00:00:00+00:00", "seed": None}
    good = RunReport("solve1d",
                     {"front": {"measured": 1.0, "tolerance": 2.0, "pass": True}},
                     prov, ["report.json"])
    assert good.status == "pass"
    good.validate()
    bad = RunReport("solve1d",
                    {"front": {"measured": 1.0, "tolerance": 1.0,
                               "pass": True}},
                    dict(prov, config_sha256="not-a-hash"), [])
    with pytest.raises(ValueError, match="self-validation"):
        bad.validate()
    failing = RunReport("solve1d",
                        {"front": {"measured": 9.0, "tolerance": 2.0,
                                   "pass": False}}, prov, [])
    assert failing.status == "fail"


@pytest.mark.parametrize("rule, edge, past", [
    ("at_most", 0.3, np.inf),
    ("at_least", 0.3, -np.inf),
    ("at_least_minus", -0.3, -np.inf),
    ("at_most_rounding", 0.3 * (1 + 1e-12), np.inf),
    ("abs_at_most", 0.3, np.inf),
    ("abs_at_most", -0.3, -np.inf),
])
def test_rule_edges(rule, edge, past):
    """Each pass rule holds on its edge and fails one float step beyond it,
    and the entry prints the tolerance the rule applied."""
    assert set(_RULES) == {"at_most", "at_least", "at_least_minus",
                           "at_most_rounding", "abs_at_most"}
    on = _rule(rule, edge, 0.3)
    assert on == {"measured": edge, "tolerance": 0.3, "pass": True}
    beyond = _rule(rule, np.nextafter(edge, past), 0.3, "note")
    assert beyond["pass"] is False
    assert beyond["tolerance"] == 0.3
    assert beyond["notes"] == "note"


def test_config_schemas_are_valid_json_schema():
    from jsonschema import Draft202012Validator
    for schema in CONFIG_SCHEMAS.values():
        Draft202012Validator.check_schema(schema)


# ---------------------------------------------------------------------------
# solve commands
# ---------------------------------------------------------------------------

def test_solve1d_similarity_run(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["solve1d", "--config", write_config(tmp_path, SIM_1D),
               "--out", str(out)])
    assert rc == 0
    assert "pass" in capsys.readouterr().out
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["mode"] == "solve1d"
    diag = report["diagnostics"]
    assert diag["similarity_front_error"]["measured"] <= 1e-2
    assert {"front_monotone", "max_principle", "interior_heating",
            "stability"} <= set(diag)
    for name in report["files"]:
        assert (out / name).exists(), name
    stored = json.loads((out / "config.json").read_text())
    assert stored == SIM_1D


# (t0, duration) of SIM_1D under x -> a x, t -> a^2 t for a = 0.1, 1 and 10:
# the same run, so the front error's reading must not move with the scale
TIME_SCALES = [pytest.param(0.25 * a2, a2, id=f"t0={0.25 * a2:g}") for a2 in (0.01, 1.0, 100.0)]


@pytest.mark.parametrize("t0, a2", TIME_SCALES)
def test_similarity_front_error_passes_a_correct_run_at_any_time_scale(tmp_path, t0, a2):
    """The front error's tolerance, C (h^2 + dt) / t, is free of units: the
    rescaled SIM_1D run passes with the ratio it reads at t0 0.25."""
    cfg = dict(SIM_1D, t0=t0, duration=0.02 * a2)
    out = tmp_path / "run"
    assert main(["solve1d", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    diag = json.loads((out / "report.json").read_text())["diagnostics"]
    front = diag["similarity_front_error"]
    assert front["pass"]
    assert front["measured"] / front["tolerance"] == pytest.approx(0.0143, rel=1e-2)


@pytest.mark.parametrize("t0, a2", TIME_SCALES)
def test_similarity_front_error_sees_a_one_percent_error_in_the_front_law(tmp_path,
                                                                        monkeypatch, t0, a2):
    """The front error's tolerance follows the run's resolution, C (h^2 + dt) / t,
    so a front law that moves the front at 1.01 k1 fails the closed form at
    every time scale."""
    laws = meltfront.stefan1d._laws

    def fast_laws(phases, fields):
        (k, sigma, anchor, tail), *rest = laws(phases, fields)
        return [(1.01 * k, sigma, anchor, tail), *rest]

    monkeypatch.setattr(meltfront.stefan1d, "_laws", fast_laws)
    out = tmp_path / "run"
    cfg = dict(SIM_1D, t0=t0, duration=0.1 * a2, nx=50)
    assert main(["solve1d", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 3
    report = json.loads((out / "report.json").read_text())
    assert [name for name, d in report["diagnostics"].items() if not d["pass"]] == \
        ["similarity_front_error"]


def test_solve1d_mode_mismatch(tmp_path, capsys):
    rc = main(["solve3d", "--config", write_config(tmp_path, SIM_1D),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "expected 'solve3d'" in capsys.readouterr().err


def test_solve1d_schema_error_exit(tmp_path, capsys):
    rc = main(["solve1d", "--config",
               write_config(tmp_path, dict(SIM_1D, nx=2)),
               "--out", str(tmp_path / "x")])
    assert rc == 2
    assert "$.nx" in capsys.readouterr().err


def test_missing_config_is_io_error(tmp_path, capsys):
    rc = main(["solve1d", "--config", str(tmp_path / "absent.json"),
               "--out", str(tmp_path / "x")])
    assert rc == 4
    assert "io error" in capsys.readouterr().err


def test_unstable_dt_leaves_failure_marker(tmp_path, capsys):
    cfg = dict(SIM_1D, dt=1e-3)  # far above the mapped-grid limit
    out = tmp_path / "run"
    rc = main(["solve1d", "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 3
    assert "numerical failure" in capsys.readouterr().err
    marker = json.loads((out / "FAILED.json").read_text())
    assert set(marker) == {"error", "mode", "created_utc"}
    assert marker["mode"] == "solve1d"
    assert "stability" in marker["error"]
    assert (out / "config.json").exists()
    assert not (out / "report.json").exists()


def test_overflowing_edge_leaves_failure_marker(tmp_path, capsys):
    """A heating ramp that overflows makes the first step's state non-finite;
    the run stops there with exit 3 and a marker naming the step, and writes
    no NaN fronts and no report (NaN comparisons are false, so its
    max-principle check would pass)."""
    cfg = {"mode": "solve1d", "k1": 1, "b": 0.5, "t0": 1,
           "boundary": {"kind": "ramp", "value": 1, "rate": 1e308},
           "duration": 1, "nx": 8, "snapshot_every": 1000000}
    out = tmp_path / "run"
    with np.errstate(all="ignore"):
        rc = main(["solve1d", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 3
    assert "numerical failure: solve_stefan step 1 (t=1.00156)" in capsys.readouterr().err
    marker = json.loads((out / "FAILED.json").read_text())
    assert marker["error"] == "solve_stefan step 1 (t=1.00156) holds non-finite values"
    assert not (out / "report.json").exists()


@pytest.mark.parametrize("cfg, key", [
    (dict(SIM_1D, boundary=0.0), "boundary"),
    (dict(FLAT_3D, t0=0.25, initial={"kind": "similarity"}, bottom=0.0), "bottom"),
])
def test_similarity_start_rejects_zero_heating(tmp_path, capsys, cfg, key):
    """Both modes refuse a similarity start without heating as a config error."""
    out = tmp_path / "run"
    rc = main([cfg["mode"], "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 2
    assert f"config error at $.{key}: similarity start needs f > 0" in \
        capsys.readouterr().err
    assert not (out / "FAILED.json").exists()


TWO_PHASE_1D = {"mode": "solve1d", "k1": 1, "k2": 1, "length": 1, "b": 0.5,
                "duration": 0.001, "nx": 20}


@pytest.mark.parametrize("cfg, key", [
    (dict(TWO_PHASE_1D, far_boundary=0.5), "far_boundary"),
    (dict(TWO_PHASE_1D, far_boundary={"kind": "ramp", "value": -0.1, "rate": 200}),
     "far_boundary"),
    ({"mode": "solve1d", "k1": 1, "b": 0.5, "boundary": -0.5, "duration": 0.001, "nx": 20},
     "boundary"),
    (dict(FLAT_3D, bottom=-0.5), "bottom"),
    (dict(FLAT_3D, bottom={"kind": "ramp", "value": 1, "rate": -1000}, duration=0.01),
     "bottom"),
], ids=["positive_far_boundary", "far_boundary_turns_positive", "negative_heating",
        "negative_bottom", "bottom_turns_negative"])
def test_wrong_signed_edge_is_config_error(tmp_path, capsys, cfg, key):
    """Edge data that breaks its sign rule at either end of the run is a
    config error, refused before the solver starts."""
    out = tmp_path / "run"
    rc = main([cfg["mode"], "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 2
    assert f"config error at $.{key}: must stay" in capsys.readouterr().err
    assert not (out / "FAILED.json").exists()


def test_two_phase_similarity_start_skips_one_phase_front_check(tmp_path):
    """The closed form is one-phase; a run that also conducts heat into a
    cold solid moves its front off it, so that check is not made."""
    cfg = dict(SIM_1D, k2=0.5, length=2.0, far_boundary=-0.5,
               initial_solid={"kind": "linear"}, duration=0.2, nx=100)
    out = tmp_path / "run"
    rc = main(["solve1d", "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    diag = json.loads((out / "report.json").read_text())["diagnostics"]
    assert "similarity_front_error" not in diag
    assert all(entry["pass"] for entry in diag.values())


def test_two_phase_run_skips_one_phase_monotone_check(tmp_path):
    """A cold solid refreezes the front while the liquid is cold; that
    retreat is physical, so the one-phase monotonicity check is not made."""
    cfg = {"mode": "solve1d", "k1": 1, "k2": 0.5, "length": 2, "b": 0.5,
           "far_boundary": -0.5, "initial_solid": {"kind": "linear"},
           "duration": 0.1, "nx": 100}
    out = tmp_path / "run"
    rc = main(["solve1d", "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    diag = json.loads((out / "report.json").read_text())["diagnostics"]
    assert "front_monotone" not in diag
    assert all(entry["pass"] for entry in diag.values())


BENCH = {"mode": "benchmark", "ladder": [16, 32]}


@pytest.mark.parametrize("cfg, key, literal, path", [
    (SIM_1D, "duration", "Infinity", "$.duration"),
    (SIM_1D, "duration", "1e400", "$.duration"),
    (SIM_1D, "duration", "1" + "0" * 400, "$.duration"),
    (SIM_1D, "t0", "NaN", "$.t0"),
    (TWO_PHASE_1D, "dt", "NaN", "$.dt"),
    (TWO_PHASE_1D, "b", "NaN", "$.b"),
    (TWO_PHASE_1D, "k1", "NaN", "$.k1"),
    (TWO_PHASE_1D, "k2", "NaN", "$.k2"),
    (TWO_PHASE_1D, "length", "NaN", "$.length"),
    (FLAT_3D, "t0", "NaN", "$.t0"),
    (FLAT_3D, "bottom", "NaN", "$.bottom"),
    (FLAT_3D, "bottom", '{"kind": "ramp", "value": 1, "rate": -Infinity}', "$.bottom.rate"),
    (FLAT_3D, "grid", '{"origin": [0, -1e999, 0], "extent": [1, 1, 1], "counts": [4, 4, 8]}',
     "$.grid.origin[1]"),
    (BENCH, "duration", "NaN", "$.duration"),
], ids=["1d_duration_inf", "1d_duration_1e400", "1d_duration_int_1e400", "1d_t0_nan",
        "1d_dt_nan", "1d_b_nan", "1d_k1_nan", "1d_k2_nan", "1d_length_nan", "3d_t0_nan",
        "3d_bottom_nan", "3d_bottom_rate_-inf", "3d_grid_origin_-inf", "benchmark_duration_nan"])
def test_non_finite_config_number_is_config_error(tmp_path, capsys, cfg, key, literal, path):
    """A NaN or an infinity anywhere in a config, from a literal or an
    overflow, is refused before anything runs, at its path."""
    config = tmp_path / "config.json"
    config.write_text(json.dumps(dict(cfg, **{key: "@"})).replace('"@"', literal))
    out = tmp_path / "run"
    assert main([cfg["mode"], "--config", str(config), "--out", str(out)]) == 2
    assert f"config error at {path}: must be a finite number" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("cfg, path, stefan", [
    (dict(BENCH, stefan=1e300), "$.stefan", "1e+300"),
    (dict(BENCH, stefan=1e-300), "$.stefan", "1e-300"),
    (dict(SIM_1D, k1=1e300), "$.k1", "1e+300"),
    (dict(FLAT_3D, t0=0.25, initial={"kind": "similarity"}, k1=1e-300), "$.k1", "1e-300"),
], ids=["benchmark_1e300", "benchmark_1e-300", "solve1d_1e300", "solve3d_1e-300"])
def test_stefan_number_outside_the_bracket_is_config_error(tmp_path, capsys, cfg, path,
                                                            stefan):
    """The closed form's bisection bracket [1e-8, 10] holds the root only for
    Stefan numbers in [2e-16, 4.76e44]; a similarity start's is k1 f0."""
    out = tmp_path / "run"
    assert main([cfg["mode"], "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"error: config error at {path}: Stefan number {stefan} is outside "
        "[2e-16, 4.76456e+44], the range whose similarity constant lies in the "
        "bisection bracket [1e-8, 10]\n")
    assert not (out / "FAILED.json").exists()


@pytest.mark.parametrize("duration, steps", [(1e12, "8.87785e+15"), (1e300, "8.87785e+303")],
                         ids=["1e12", "1e300"])
def test_benchmark_run_too_long_to_allocate_is_config_error(tmp_path, monkeypatch, capsys,
                                                            duration, steps):
    """numpy refuses these monitor sizes (189 PiB and past its dimension
    limit) before touching memory.  The first rung's message is raised, the
    same whether it ran in this process or, on two CPUs, in the child."""
    cfg = write_config(tmp_path, {"mode": "benchmark", "ladder": [32, 64],
                                  "duration": duration})
    errors = []
    for cpus in (1, 2):
        forks = fork_counter(monkeypatch, cpus)
        out = tmp_path / f"run{cpus}"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 2
        errors.append(capsys.readouterr().err)
        assert not (out / "FAILED.json").exists()
        assert forks[0] == cpus - 1
        assert_no_children()
    assert errors[0] == errors[1]
    assert errors[0].startswith(f"error: config error at $.duration: a run of {steps} "
                                "steps does not fit in memory: ")


@pytest.mark.parametrize("duration, steps", [(1e12, "2.60593e+17"), (1e300, "2.60593e+305")],
                         ids=["1e12", "1e300"])
def test_solve1d_run_too_long_to_allocate_is_config_error(tmp_path, capsys, duration, steps):
    out = tmp_path / "run"
    cfg = dict(SIM_1D, duration=duration, nx=200)
    assert main(["solve1d", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err.startswith(
        f"error: config error at $.duration: a run of {steps} steps does not fit in memory: ")
    assert not (out / "FAILED.json").exists()


def test_solve3d_run_and_seed(tmp_path):
    out = tmp_path / "run3"
    rc = main(["solve3d", "--config", write_config(tmp_path, FLAT_3D),
               "--out", str(out), "--seed", "7"])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    assert report["status"] == "pass"
    assert report["provenance"]["seed"] == 7
    assert json.loads((out / "config.json").read_text())["seed"] == 7
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["diagnostics"]["seed"] == 7
    assert (out / "u_final.csv").exists()
    assert set(report["diagnostics"]) == {"liquid_sign", "stability"}


def test_solve3d_passes_on_a_rescaled_box(tmp_path):
    """A similarity bump with lengths x1e10 and times x1e20 is the unit-box
    run rescaled; no diagnostic may fail it on rounding that grows with the
    units (a front step's rounding is about 5e-10 here, above an absolute
    1e-10)."""
    cfg = {"mode": "solve3d", "k1": 1, "t0": 2.5e19, "duration": 3.7e17, "bottom": 1,
           "grid": {"origin": [0, 0, 0], "extent": [1e10, 1e10, 1e10],
                    "counts": [8, 8, 32]},
           "front": {"kind": "bump", "height": 6e9, "amplitude": 8e8, "width": 3e9},
           "initial": {"kind": "similarity"}}
    out = tmp_path / "run"
    assert main(["solve3d", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["data"]["steps"] == 21
    assert set(report["diagnostics"]) == {"liquid_sign", "stability"}


@pytest.mark.parametrize("front, reason", [
    (0.05, "initial front must leave at least 3 liquid layers"),
    (1.5, "front heights must lie inside the vertical extent"),
])
def test_unusable_initial_front_is_config_error(tmp_path, capsys, front, reason):
    cfg = {**FLAT_3D, "grid": {**FLAT_3D["grid"], "counts": [8, 8, 32]}, "front": front}
    out = tmp_path / "run"
    assert main(["solve3d", "--config", write_config(tmp_path, cfg),
                 "--out", str(out)]) == 2
    assert reason in capsys.readouterr().err
    assert not (out / "FAILED.json").exists()


def test_benchmark_run(tmp_path):
    cfg = {"mode": "benchmark", "ladder": [16, 32], "time_refinements": 2,
           "duration": 0.1, "time_nx": 32}
    out = tmp_path / "bench"
    rc = main(["benchmark", "--config", write_config(tmp_path, cfg),
               "--out", str(out)])
    assert rc == 0
    report = json.loads((out / "report.json").read_text())
    diag = report["diagnostics"]
    assert diag["space_order"]["measured"] >= 1.8
    assert diag["time_order"]["measured"] >= 0.9
    assert diag["residual_ratio_min"]["measured"] >= 3.5
    data = report["data"]
    assert data["space"]["ladder"] == [16, 32]
    assert len(data["time"]["error"]) == 2
    assert sorted(report["files"]) == ["config.json", "report.json"]


@pytest.mark.parametrize("ladder", [[32, 32], [24, 32], [16, 32, 128], [32, 16]],
                         ids=["repeated", "ratio_4_3", "skips_a_rung", "descending"])
def test_benchmark_refuses_a_ladder_that_does_not_double(tmp_path, capsys, monkeypatch,
                                                         ladder):
    """residual_ratio_min reads a shrink of 4 per grid halving, and two equal
    rungs leave no slope to fit, so a ladder whose rungs do not each double
    the one before is a config error, refused before any solve."""
    def no_solve(*args, **kwargs):
        raise AssertionError("solved a ladder that does not double")

    monkeypatch.setattr(meltfront.cli, "solve_stefan", no_solve)
    monkeypatch.setattr(meltfront.cli, "solve_dirichlet", no_solve)
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", write_config(tmp_path, dict(BENCH, ladder=ladder)),
                 "--out", str(out)]) == 2
    assert "config error at $.ladder: each rung must double" in capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "FAILED.json").exists()


def test_benchmark_refuses_a_time_grid_too_large_for_its_dense_reference(tmp_path, capsys,
                                                                         monkeypatch):
    """The time study's marches keep every level: the finest holds 801 levels
    of ``time_nx`` values at the default three refinements and 1601 at the
    most, 13 MB at 1024 cells, so ``time_nx`` above 1024 is a config error,
    refused before anything is allocated or solved."""
    def no_study(*args, **kwargs):
        raise AssertionError("built the study of a refused config")

    for name in ("_time_study", "solve_stefan", "solve_dirichlet"):
        monkeypatch.setattr(meltfront.cli, name, no_study)
    ExperimentConfig.from_dict(dict(BENCH, time_nx=1024))
    out = tmp_path / "bench"
    assert main(["benchmark", "--config", write_config(tmp_path, dict(BENCH, time_nx=60000)),
                 "--out", str(out)]) == 2
    assert "config error at $.time_nx: 60000 is greater than the maximum of 1024" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()
    assert not (out / "FAILED.json").exists()


def test_benchmark_refuses_more_time_refinements_than_its_cap(tmp_path, capsys):
    """Each refinement doubles the finest time-study march, so more than four
    is a config error: twelve at 1024 cells would keep a 3.4 GB level matrix."""
    ExperimentConfig.from_dict(dict(BENCH, time_nx=1024, time_refinements=4))
    out = tmp_path / "bench"
    cfg = dict(BENCH, time_nx=1024, time_refinements=12)
    assert main(["benchmark", "--config", write_config(tmp_path, cfg), "--out", str(out)]) == 2
    assert "config error at $.time_refinements: 12 is greater than the maximum of 4" in \
        capsys.readouterr().err
    assert not (out / "report.json").exists()


# ---------------------------------------------------------------------------
# mollify command
# ---------------------------------------------------------------------------

def smooth_field_csv(tmp_path, nx=64):
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(nx,))
    x = grid.cell_centers()[:, 0]
    field = TemperatureField(grid, 0.0, np.sin(2 * np.pi * x) + 1.5)
    path = tmp_path / "field.csv"
    write_field_csv(field, path)
    return str(path)


def test_mollify_command(tmp_path):
    out = tmp_path / "mrep.json"
    smoothed = tmp_path / "smooth.csv"
    rc = main(["mollify", "--input", smooth_field_csv(tmp_path),
               "--epsilon", "0.125", "--order", "2",
               "--out", str(out), "--field-out", str(smoothed)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["mode"] == "mollify"
    assert report["status"] == "pass"
    diag = report["diagnostics"]
    assert diag["unit_mass"]["measured"] <= 1e-8
    assert "derivative_order_1" in diag and "derivative_order_2" in diag
    assert smoothed.exists()


def test_mollify_command_mollifies_once(tmp_path, monkeypatch):
    import meltfront.cli
    import meltfront.mollifier

    calls = []
    original = meltfront.mollifier.mollify

    def counting(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(meltfront.mollifier, "mollify", counting)
    monkeypatch.setattr(meltfront.cli, "mollify", counting)
    rc = main(["mollify", "--input", smooth_field_csv(tmp_path),
               "--epsilon", "0.125", "--out", str(tmp_path / "m.json")])
    assert rc == 0
    assert len(calls) == 1


def test_mollify_rejects_coarse_grid(tmp_path, capsys):
    rc = main(["mollify", "--input", smooth_field_csv(tmp_path, nx=8),
               "--epsilon", "0.125", "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "too coarse" in capsys.readouterr().err


@pytest.mark.parametrize("epsilon", ["inf", "nan"])
def test_mollify_rejects_non_finite_epsilon(tmp_path, capsys, epsilon):
    rc = main(["mollify", "--input", smooth_field_csv(tmp_path),
               "--epsilon", epsilon, "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert "epsilon must be finite" in capsys.readouterr().err


def test_mollify_missing_input(tmp_path):
    rc = main(["mollify", "--input", str(tmp_path / "absent.csv"),
               "--epsilon", "0.1", "--out", str(tmp_path / "m.json")])
    assert rc == 4


def test_mollify_malformed_input(tmp_path, capsys):
    bad = tmp_path / "bad.csv"
    bad.write_text("no header here\n1.0\n")
    rc = main(["mollify", "--input", str(bad), "--epsilon", "0.1",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2


# ---------------------------------------------------------------------------
# verify command
# ---------------------------------------------------------------------------

def test_verify_clean_heat_run(tmp_path):
    rundir = heat_rundir(tmp_path)
    out = tmp_path / "verify.json"
    rc = main(["verify", "--run", str(rundir), "--out", str(out)])
    assert rc == 0
    report = json.loads(out.read_text())
    assert report["status"] == "pass"
    assert set(report["diagnostics"]) == {
        "caloric", "max_principle", "continuity", "positivity_spread",
        "barrier"}
    assert report["provenance"]["seed"] == 11
    assert report["data"]["levels"] == 9


def test_verify_stdout_and_subset(tmp_path, capsys):
    rundir = heat_rundir(tmp_path)
    rc = main(["verify", "--run", str(rundir),
               "--checks", "caloric, max_principle"])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert set(printed["diagnostics"]) == {"caloric", "max_principle"}


def test_verify_unknown_check(tmp_path, capsys):
    rundir = heat_rundir(tmp_path)
    rc = main(["verify", "--run", str(rundir), "--checks", "entropy"])
    assert rc == 2
    assert "unknown checks" in capsys.readouterr().err


def test_verify_refuses_empty_check_list(tmp_path, capsys):
    rundir = heat_rundir(tmp_path)
    rc = main(["verify", "--run", str(rundir), "--checks", ","])
    assert rc == 2
    assert "no checks given" in capsys.readouterr().err


def test_verify_missing_rundir(tmp_path):
    rc = main(["verify", "--run", str(tmp_path / "absent")])
    assert rc == 4


def test_verify_flags_mapped_melting_run(tmp_path):
    """Front-fixed snapshots are not caloric in mapped coordinates."""
    out = tmp_path / "run"
    assert main(["solve1d", "--config", write_config(tmp_path, SIM_1D),
                 "--out", str(out)]) == 0
    rc = main(["verify", "--run", str(out), "--out",
               str(tmp_path / "v.json")])
    assert rc == 3
    report = json.loads((tmp_path / "v.json").read_text())
    assert report["status"] == "fail"
    assert not report["diagnostics"]["caloric"]["pass"]
    assert report["diagnostics"]["max_principle"]["pass"]


@pytest.mark.parametrize("excess, rc", [(1.1e-15, 0), (1e-6, 3)])
def test_verify_max_principle_applies_its_tolerance(tmp_path, excess, rc):
    """An interior maximum above the boundary one fails only beyond 1e-12."""
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    u0 = np.where(grid.boundary_mask(), 1.0, 0.5)
    u1 = u0.copy()
    u1[4] = 1.0 + excess
    traj = HeatTrajectory([TemperatureField(grid, 0.0, u0),
                           TemperatureField(grid, 1e-3, u1)], 1e-3)
    write_trajectory(traj, tmp_path / "run")
    out = tmp_path / "v.json"
    assert main(["verify", "--run", str(tmp_path / "run"), "--checks",
                 "max_principle", "--out", str(out)]) == rc
    check = json.loads(out.read_text())["diagnostics"]["max_principle"]
    assert check["measured"] == pytest.approx(excess, rel=0.01)
    assert check["tolerance"] == pytest.approx(1e-12)
    assert check["pass"] is (rc == 0)
    assert check["notes"].endswith(str(rc == 0))


def levels_rundir(tmp_path, times):
    """A stored run of the same field at each of ``times``, 1e-3 apart."""
    grid = Grid(origin=(0.0,), extent=(1.0,), counts=(8,))
    u = np.sin(np.pi * grid.cell_centers()[:, 0])
    traj = HeatTrajectory([TemperatureField(grid, t, u) for t in times], 1e-3)
    write_trajectory(traj, tmp_path / "run")
    return tmp_path / "run"


@pytest.mark.parametrize("times, checks, failing, reason", [
    ((0.5,), "all", "caloric", "at least 2 time levels"),
    ((0.5,), "caloric", "caloric", "at least 2 time levels"),
    ((0.5,), "barrier", "barrier", "at least 2 time levels"),
    ((0.5, 0.501), "continuity", "continuity", "at least 3 time levels"),
    ((-2e-3, -1e-3, 0.0), "barrier", "barrier", "vertex time must be positive"),
])
def test_verify_refuses_a_run_its_check_cannot_audit(tmp_path, capsys, times, checks,
                                                    failing, reason):
    rundir = levels_rundir(tmp_path, times)
    assert main(["verify", "--run", str(rundir), "--checks", checks]) == 2
    err = capsys.readouterr().err
    assert f"check {failing} cannot audit a run of {len(times)} level(s)" in err
    assert reason in err


def test_verify_audits_a_one_level_run_where_it_can(tmp_path):
    rundir = levels_rundir(tmp_path, (0.5,))
    out = tmp_path / "v.json"
    assert main(["verify", "--run", str(rundir), "--checks",
                 "max_principle,positivity_spread", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["data"]["levels"] == 1


def test_verify_refuses_solve3d_rundir(tmp_path, capsys):
    out = tmp_path / "run3"
    assert main(["solve3d", "--config", write_config(tmp_path, FLAT_3D),
                 "--out", str(out)]) == 0
    capsys.readouterr()
    assert main(["verify", "--run", str(out), "--checks", "all"]) == 2
    err = capsys.readouterr().err
    assert "solve3d run directory" in err
    assert "verify audits heat-trajectory directories" in err


def _drop_manifest_dt(rundir):
    manifest = json.loads((rundir / "manifest.json").read_text())
    del manifest["dt"]
    (rundir / "manifest.json").write_text(json.dumps(manifest))


def _garble_manifest(rundir):
    (rundir / "manifest.json").write_text("{not json")


def _strip_grid_header(rundir):
    name = json.loads((rundir / "manifest.json").read_text())["snapshots"][0]
    lines = (rundir / name).read_text().splitlines(keepends=True)
    (rundir / name).write_text("".join(lines[1:]))


@pytest.mark.parametrize("command, damage", [
    ("verify", _drop_manifest_dt),
    ("verify", _garble_manifest),
    ("verify", _strip_grid_header),
    ("compare", _drop_manifest_dt),
])
def test_unreadable_rundir_is_usage_error(tmp_path, capsys, command, damage):
    """Run directories that cannot be interpreted exit 2, not 1 or 3."""
    rundir = heat_rundir(tmp_path)
    other = heat_rundir(tmp_path, "other")
    damage(rundir)
    argv = (["verify", "--run", str(rundir)] if command == "verify"
            else ["compare", str(other), str(rundir)])
    assert main(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("field, value", [
    ("diagnostics", [1]),
    ("diagnostics", "x"),
    ("snapshots", 5),
    ("snapshots", [3]),
])
def test_malformed_manifest_field_is_usage_error(tmp_path, capsys, field, value):
    """A manifest whose diagnostics is not an object, or whose snapshots is
    not a list of names, exits 2 rather than crashing."""
    rundir = heat_rundir(tmp_path)
    manifest = json.loads((rundir / "manifest.json").read_text())
    manifest[field] = value
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--run", str(rundir)]) == 2
    assert f"{field} must be" in capsys.readouterr().err


@pytest.mark.parametrize("times", [
    [None, 0.1], ["x", 0.1], [True, 0.1], [float("nan"), 0.1], [10**400, 0.1],
    {"0": 0.0}, 0.5,
], ids=["null", "string", "bool", "nan", "huge_int", "object", "number"])
def test_malformed_manifest_times_is_usage_error(tmp_path, capsys, times):
    """compare refuses a manifest whose times is not a list of finite
    numbers with exit 2 naming its directory, rather than crashing or
    comparing a bool as 1."""
    rundir = heat_rundir(tmp_path)
    other = heat_rundir(tmp_path, "other")
    manifest = json.loads((rundir / "manifest.json").read_text())
    if isinstance(times, list):
        times = times + manifest["times"][len(times):]
    manifest["times"] = times
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["compare", str(other), str(rundir)]) == 2
    assert capsys.readouterr().err == (
        f"error: {rundir}: manifest.json times must be a list of finite numbers\n")


@pytest.mark.parametrize("dt", [-1.0, 2e-3, float("nan"), 10**400],
                         ids=["negative", "twice_the_spacing", "nan", "huge_int"])
def test_unusable_manifest_dt_is_usage_error(tmp_path, dt):
    """A manifest dt that is not a finite positive step, or that disagrees
    with the snapshot times, exits 2 rather than as a numerical failure."""
    rundir = heat_rundir(tmp_path)
    manifest = json.loads((rundir / "manifest.json").read_text())
    manifest["dt"] = dt
    (rundir / "manifest.json").write_text(json.dumps(manifest))
    assert main(["verify", "--run", str(rundir)]) == 2


def test_mollify_names_a_non_finite_input(tmp_path, capsys):
    path = Path(smooth_field_csv(tmp_path))
    lines = path.read_text().splitlines(keepends=True)
    lines[5] = "nan\n"
    path.write_text("".join(lines))
    rc = main(["mollify", "--input", str(path), "--epsilon", "0.125",
               "--out", str(tmp_path / "m.json")])
    assert rc == 2
    assert capsys.readouterr().err == (
        f"error: {path}: field contains non-finite values on valid cells\n")


# ---------------------------------------------------------------------------
# level files shared between forked processes
# ---------------------------------------------------------------------------

def audit_rundir(tmp_path, name="audit"):
    """12-level 64x64 march: its 4096-value levels are above the sharing size
    rule, so verify's load and write_trajectory share them when they can."""
    grid = Grid(origin=(-4.0, -4.0), extent=(8.0, 8.0), counts=(64, 64))
    u0 = np.exp(-(grid.cell_centers() ** 2).sum(axis=1))
    dt = 0.4 * grid.spacing[0] ** 2 / 4.0
    traj = solve_dirichlet(OperatorCoefficients.laplacian(),
                           TemperatureField(grid, 0.0, u0), 0.0, 10.5 * dt, dt)
    outdir = tmp_path / name
    write_trajectory(traj, outdir, stability_limit_used=dt / 0.4, diagnostics={"seed": 3})
    return outdir


def fork_counter(monkeypatch, cpus):
    """Shows this process ``cpus`` usable CPUs; returns its fork count so far."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    made = [0]
    fork = os.fork

    def counted():
        made[0] += 1
        return fork()

    monkeypatch.setattr(os, "fork", counted)
    return made


def assert_no_children():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_shared_run_directory_and_load_are_identical(tmp_path, monkeypatch):
    from meltfront.cli import _load_rundir

    forks = fork_counter(monkeypatch, 1)
    single = audit_rundir(tmp_path, "single")
    traj_single, _ = _load_rundir(single)
    assert forks[0] == 0

    forks = fork_counter(monkeypatch, 2)
    shared = audit_rundir(tmp_path, "shared")
    traj_shared, _ = _load_rundir(shared)
    assert forks[0] == 2
    assert_no_children()
    assert sorted(p.name for p in shared.iterdir()) == sorted(p.name for p in single.iterdir())
    for path in single.iterdir():
        assert (shared / path.name).read_bytes() == path.read_bytes(), path.name
    levels = traj_shared.values_matrix()
    assert levels.tobytes() == traj_single.values_matrix().tobytes()
    assert traj_shared.times.tobytes() == traj_single.times.tobytes()
    assert not levels.flags.writeable
    assert not traj_shared.snapshots[-1].values.flags.writeable


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "shared"])
def test_verify_names_a_truncated_level(tmp_path, monkeypatch, capsys, cpus):
    """Level 7 sits on the child's share when two processes load the run."""
    rundir = audit_rundir(tmp_path, "run")
    level = rundir / "u_000007.csv"
    level.write_text("".join(level.read_text().splitlines(keepends=True)[:-3]))
    forks = fork_counter(monkeypatch, cpus)
    capsys.readouterr()
    assert main(["verify", "--run", str(rundir), "--checks", "all"]) == 2
    assert capsys.readouterr().err == (
        f"error: {rundir}: {level}: field has 4093 values for a grid of 4096 cells\n")
    assert forks[0] == cpus - 1
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "shared"])
def test_verify_names_a_garbled_level(tmp_path, monkeypatch, capsys, cpus):
    """A level that is not UTF-8 text exits 2 naming its file, as a truncated
    one does; level 7 sits on the child's share on two CPUs."""
    rundir = audit_rundir(tmp_path, "run")
    level = rundir / "u_000007.csv"
    level.write_bytes(b"\xff" + level.read_bytes()[1:])
    forks = fork_counter(monkeypatch, cpus)
    capsys.readouterr()
    assert main(["verify", "--run", str(rundir), "--checks", "all"]) == 2
    assert capsys.readouterr().err == (
        f"error: {rundir}: {level}: not UTF-8 text: 'utf-8' codec can't decode "
        "byte 0xff in position 0: invalid start byte\n")
    assert forks[0] == cpus - 1
    assert_no_children()


@pytest.mark.parametrize("cpus", [1, 2], ids=["in_process", "shared"])
def test_verify_missing_level_is_io_error(tmp_path, monkeypatch, capsys, cpus):
    rundir = audit_rundir(tmp_path, "run")
    (rundir / "u_000007.csv").unlink()
    forks = fork_counter(monkeypatch, cpus)
    capsys.readouterr()
    assert main(["verify", "--run", str(rundir), "--checks", "all"]) == 4
    assert capsys.readouterr().err == (
        f"io error: [Errno 2] No such file or directory: '{rundir}/u_000007.csv'\n")
    assert forks[0] == cpus - 1
    assert_no_children()


# 11 steps on a 32^3 box: u_final.csv's 2^15 values outweigh its 12 front files
# of 1024 values, and together they are above the sharing size rule on two CPUs
SHARED_3D = {"mode": "solve3d", "k1": 1, "t0": 0.25, "duration": 0.001,
             "grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "counts": [32, 32, 32]},
             "front": {"kind": "bump", "height": 0.6, "amplitude": 0.08, "width": 0.3},
             "initial": {"kind": "similarity"}}


def test_shared_solve3d_run_directory_is_identical(tmp_path, monkeypatch):
    """u_final.csv and the front files are one job: on two CPUs this process
    writes u_final.csv and one child writes the fronts; the run directory is
    the one a single CPU writes, byte for byte but for created_utc."""
    cfg = write_config(tmp_path, SHARED_3D)
    write = grid_module.write_field_csv
    runs = []
    for cpus, here in ((1, 13), (2, 1)):
        forks = fork_counter(monkeypatch, cpus)
        written = []
        monkeypatch.setattr(grid_module, "write_field_csv",
                            lambda field, path: written.append(path.name) or write(field, path))
        out = tmp_path / f"run{cpus}"
        assert main(["solve3d", "--config", cfg, "--out", str(out)]) == 0
        assert forks[0] == cpus - 1
        assert_no_children()
        assert len(written) == here and "u_final.csv" in written
        runs.append(out)
    single, shared = runs
    assert sorted(p.name for p in shared.iterdir()) == sorted(p.name for p in single.iterdir())
    assert len(list(single.glob("front_*.csv"))) == 12
    for path in single.iterdir():
        if path.name != "report.json":
            assert (shared / path.name).read_bytes() == path.read_bytes(), path.name
    assert (json.dumps(report_without_timestamp(shared), sort_keys=True)
            == json.dumps(report_without_timestamp(single), sort_keys=True))


def identity_gate():
    """tools/identity.py, the identity gate, loaded as a module."""
    path = Path(__file__).resolve().parent.parent / "tools" / "identity.py"
    spec = importlib.util.spec_from_file_location("identity", path)
    gate = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(gate)
    return gate


@pytest.mark.parametrize("name", ["similarity", "refreeze"])
def test_shared_solve1d_run_directory_is_identical(tmp_path, monkeypatch, name):
    """front.csv and the snapshots (w_* too on the two-phase refreeze) are one
    job: on two CPUs this process writes front.csv and a few snapshots, one
    child the rest; the run directory is the one a single CPU writes, byte
    for byte but for created_utc."""
    cfg = write_config(tmp_path, identity_gate().CONFIGS[name])
    write_front, write_field = meltfront.cli.write_front_csv, grid_module.write_field_csv
    runs = []
    for cpus in (1, 2):
        forks = fork_counter(monkeypatch, cpus)
        written = []
        monkeypatch.setattr(meltfront.cli, "write_front_csv",
                            lambda front, path: written.append(path.name) or write_front(front, path))
        for module in (meltfront.cli, grid_module):
            monkeypatch.setattr(module, "write_field_csv",
                                lambda field, path: written.append(path.name) or write_field(field, path))
        out = tmp_path / f"run{cpus}"
        assert main(["solve1d", "--config", cfg, "--out", str(out)]) == 0
        assert forks[0] == cpus - 1
        assert_no_children()
        csvs = sorted(p.name for p in out.glob("*.csv"))
        assert "front.csv" in written and any(n.startswith("u_") for n in written)
        if cpus == 1:
            assert sorted(written) == csvs
        else:
            assert len(written) < len(csvs) / 2
        runs.append(out)
    single, shared = runs
    assert sorted(p.name for p in shared.iterdir()) == sorted(p.name for p in single.iterdir())
    assert bool(list(single.glob("w_*.csv"))) == (name == "refreeze")
    for path in single.iterdir():
        if path.name != "report.json":
            assert (shared / path.name).read_bytes() == path.read_bytes(), path.name
    assert (json.dumps(report_without_timestamp(shared), sort_keys=True)
            == json.dumps(report_without_timestamp(single), sort_keys=True))


# ---------------------------------------------------------------------------
# benchmark solves shared between forked processes
# ---------------------------------------------------------------------------

# 222 + 888 space steps and 200 + 400 time steps: below cli._SHARE_MIN_STEPS
# per process on two CPUs; the nx-64 rung's 3550 steps lift the ladder above it
LIGHT_LADDER = {"mode": "benchmark", "ladder": [16, 32], "time_refinements": 2,
                "duration": 0.1, "time_nx": 32}
SHARED_LADDER = dict(LIGHT_LADDER, ladder=[16, 32, 64])


def report_without_timestamp(rundir):
    report = json.loads((rundir / "report.json").read_text())
    report["provenance"].pop("created_utc")
    return report


def rungs_solved_here(monkeypatch):
    """The ``nx`` of every rung whose solve runs in this process."""
    solved = []
    solve = meltfront.cli.solve_stefan

    def recorded(spec):
        solved.append(spec.nx)
        return solve(spec)

    monkeypatch.setattr(meltfront.cli, "solve_stefan", recorded)
    return solved


def test_shared_benchmark_report_is_identical(tmp_path, monkeypatch):
    """On two CPUs this process keeps the heaviest job, the nx-64 rung; the
    child runs the coarser rungs and the time study."""
    cfg = write_config(tmp_path, SHARED_LADDER)
    reports = []
    for cpus, here in ((1, [16, 32, 64]), (2, [64])):
        forks = fork_counter(monkeypatch, cpus)
        solved = rungs_solved_here(monkeypatch)
        out = tmp_path / f"run{cpus}"
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 0
        assert forks[0] == cpus - 1 and solved == here
        assert_no_children()
        reports.append(report_without_timestamp(out))
    assert reports[0] == reports[1]


def test_shared_benchmark_failure_matches_in_process(tmp_path, monkeypatch, capsys):
    """The nx-16 rung fails; on two CPUs it runs in the child, and its error
    comes back with the in-process exit code, message and FAILED.json."""
    solve = meltfront.cli.solve_stefan

    def failing(spec):
        if spec.nx == 16:
            raise ValueError("rung 16 diverged")
        return solve(spec)

    monkeypatch.setattr(meltfront.cli, "solve_stefan", failing)
    cfg = write_config(tmp_path, SHARED_LADDER)
    for cpus in (1, 2):
        forks = fork_counter(monkeypatch, cpus)
        out = tmp_path / f"run{cpus}"
        capsys.readouterr()
        assert main(["benchmark", "--config", cfg, "--out", str(out)]) == 3
        assert capsys.readouterr().err == "numerical failure: rung 16 diverged\n"
        assert json.loads((out / "FAILED.json").read_text())["error"] == "rung 16 diverged"
        assert not (out / "report.json").exists()
        assert forks[0] == cpus - 1
        assert_no_children()


def _one_cpu(monkeypatch):
    fork_counter(monkeypatch, 1)
    return SHARED_LADDER


def _light_ladder(monkeypatch):
    fork_counter(monkeypatch, 2)
    return LIGHT_LADDER


@pytest.mark.parametrize("setup", [_one_cpu, _light_ladder], ids=["one_cpu", "light_ladder"])
def test_benchmark_that_cannot_share_never_forks(tmp_path, monkeypatch, setup):
    cfg = setup(monkeypatch)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    assert main(["benchmark", "--config", write_config(tmp_path, cfg),
                 "--out", str(tmp_path / "run")]) == 0


def test_benchmark_stays_in_process_beside_a_live_thread(tmp_path, monkeypatch):
    fork_counter(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("forked"))
    release = threading.Event()
    thread = threading.Thread(target=release.wait)
    thread.start()
    try:
        assert main(["benchmark", "--config", write_config(tmp_path, SHARED_LADDER),
                     "--out", str(tmp_path / "run")]) == 0
    finally:
        release.set()
        thread.join()


# a fresh interpreter with the BLAS thread settings its platform defaults to,
# shown two CPUs: the time study's marches run in the forked child
SHARED_BLAS_RUN = """
import os, sys
from meltfront.cli import main
forks, fork = [], os.fork
os.fork = lambda: forks.append(1) or fork()
os.sched_getaffinity = lambda pid: {0, 1}
rc = main(["benchmark", "--config", sys.argv[1], "--out", sys.argv[2]])
try:
    os.waitpid(-1, os.WNOHANG)
    print(rc, len(forks), "a child is left")
except ChildProcessError:
    print(rc, len(forks), "reaped")
"""


def test_shared_benchmark_with_default_blas_threads(tmp_path, monkeypatch):
    cfg = write_config(tmp_path, SHARED_LADDER)
    fork_counter(monkeypatch, 1)
    assert main(["benchmark", "--config", cfg, "--out", str(tmp_path / "single")]) == 0
    done = run_python(["-c", SHARED_BLAS_RUN, cfg, str(tmp_path / "shared")],
                      unset=("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"))
    assert done.stdout.split()[-3:] == ["0", "1", "reaped"]
    assert (report_without_timestamp(tmp_path / "shared")
            == report_without_timestamp(tmp_path / "single"))


# ---------------------------------------------------------------------------
# compare command
# ---------------------------------------------------------------------------

def two_identical_runs(tmp_path):
    cfg = write_config(tmp_path, SIM_1D)
    a, b = tmp_path / "a", tmp_path / "b"
    assert main(["solve1d", "--config", cfg, "--out", str(a)]) == 0
    assert main(["solve1d", "--config", cfg, "--out", str(b)]) == 0
    return a, b


def test_compare_identical_runs(tmp_path, capsys):
    a, b = two_identical_runs(tmp_path)
    capsys.readouterr()  # drop the solve progress lines
    rc = main(["compare", str(a), str(b)])
    assert rc == 0
    printed = json.loads(capsys.readouterr().out)
    assert printed["status"] == "pass"
    assert printed["diagnostics"]["csv_max_abs"]["measured"] == 0.0
    assert printed["diagnostics"]["reports_match"]["pass"]
    assert all(entry["identical"]
               for entry in printed["data"]["per_file"].values())


def test_compare_detects_tampering(tmp_path):
    a, b = two_identical_runs(tmp_path)
    front = (b / "front.csv").read_text().splitlines()
    cols = front[1].split(",")
    cols[1] = repr(float(cols[1]) + 1e-6)
    front[1] = ",".join(cols)
    (b / "front.csv").write_text("\n".join(front) + "\n")

    assert main(["compare", str(a), str(b)]) == 3
    report = compare_runs(a, b)
    assert report.status == "fail"
    assert report.diagnostics["csv_max_abs"]["measured"] == pytest.approx(
        1e-6, rel=1e-6)
    assert not report.data["per_file"]["front.csv"]["identical"]
    # a loose tolerance rescues the comparison
    assert main(["compare", str(a), str(b), "--tolerance", "1e-3"]) == 0


def test_compare_relative_difference_is_normwise(tmp_path, capsys):
    """A value that moves off zero by 1e-300 is a change of 1e-300 relative
    to the file's largest magnitude, not a 100% change of that one value."""
    a, b = two_identical_runs(tmp_path)
    lines = (b / "u_000001.csv").read_text().splitlines()
    front = max(i for i, line in enumerate(lines) if line == "0")
    lines[front] = "1e-300"
    (b / "u_000001.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(a), str(b), "--tolerance", "1e-14"]) == 0
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["csv_max_rel"]["measured"] == 1e-300
    assert diag["csv_max_abs"]["measured"] == 1e-300
    assert diag["reports_match"]["pass"]
    assert main(["compare", str(a), str(b)]) == 3


def test_compare_at_tolerance_zero_asks_for_identical_bytes(tmp_path, capsys):
    """A CSV holding ``-0`` where the other holds ``0`` has equal values and
    unequal bytes: tolerance 0 fails it, any positive tolerance passes it."""
    a, b = two_identical_runs(tmp_path)
    lines = (b / "u_000001.csv").read_text().splitlines()
    lines[lines.index("0")] = "-0"
    (b / "u_000001.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", "--tolerance", "0", str(a), str(b)]) == 3
    diag = json.loads(capsys.readouterr().out)["diagnostics"]
    assert diag["csv_max_abs"]["measured"] == 0.0 and diag["csv_max_abs"]["pass"]
    assert diag["csv_files_differing"] == {
        "measured": 1.0, "tolerance": 0.0, "pass": False, "notes": "CSV files whose bytes differ"}
    assert diag["reports_match"]["pass"]
    assert main(["compare", "--tolerance", "1e-300", str(a), str(b)]) == 0
    assert "csv_files_differing" not in json.loads(capsys.readouterr().out)["diagnostics"]


@pytest.mark.parametrize("edit", [
    lambda report: report["diagnostics"]["max_principle"].update(measured=-0.0),
    lambda report: report["data"].update(steps=float(report["data"]["steps"])),
], ids=["negative_zero", "int_as_float"])
def test_compare_reports_by_serialization(tmp_path, capsys, edit):
    """``0.0`` against ``-0.0``, and ``1`` against ``1.0``, are equal in Python
    and differ in ``report.json``: ``reports_match`` fails them."""
    a, b = two_identical_runs(tmp_path)
    before = json.loads((b / "report.json").read_text())
    report = json.loads((b / "report.json").read_text())
    edit(report)
    assert report == before
    (b / "report.json").write_text(json.dumps(report, sort_keys=True, indent=2) + "\n")
    capsys.readouterr()
    assert main(["compare", "--tolerance", "0", str(a), str(b)]) == 3
    assert not json.loads(capsys.readouterr().out)["diagnostics"]["reports_match"]["pass"]


def test_compare_non_numeric_body_is_usage_error(tmp_path, capsys):
    a, b = two_identical_runs(tmp_path)
    lines = (b / "u_000002.csv").read_text().splitlines()
    lines[3] = "oops"
    (b / "u_000002.csv").write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    assert str(b / "u_000002.csv") in capsys.readouterr().err


def test_compare_manifest_mismatch(tmp_path, capsys):
    a, b = two_identical_runs(tmp_path)
    manifest = json.loads((b / "manifest.json").read_text())
    manifest["dt"] *= 2.0
    (b / "manifest.json").write_text(json.dumps(manifest))
    rc = main(["compare", str(a), str(b)])
    assert rc == 2
    assert "manifest mismatch" in capsys.readouterr().err


def test_compare_file_set_mismatch(tmp_path, capsys):
    a, b = two_identical_runs(tmp_path)
    (b / "front.csv").unlink()
    rc = main(["compare", str(a), str(b)])
    assert rc == 2
    assert "file sets differ" in capsys.readouterr().err


def test_compare_unparsable_report_is_usage_error(tmp_path, capsys):
    a, b = two_identical_runs(tmp_path)
    (a / "report.json").write_text('{"x":')
    capsys.readouterr()
    assert main(["compare", str(a), str(b)]) == 2
    assert "unreadable report.json" in capsys.readouterr().err


@pytest.mark.parametrize("tolerance", ["-1", "nan"])
def test_compare_refuses_a_tolerance_nothing_passes(tmp_path, capsys, tolerance):
    rundir = str(heat_rundir(tmp_path))
    assert main(["compare", rundir, rundir, "--tolerance", tolerance]) == 2
    assert "tolerance must be a nonnegative number" in capsys.readouterr().err


def test_compare_missing_dir(tmp_path):
    a, _ = two_identical_runs(tmp_path)
    assert main(["compare", str(a), str(tmp_path / "absent")]) == 4


def test_edge_turning_in_the_last_step_is_config_error(tmp_path, capsys):
    """The sign check covers the time the last step reaches: 4 steps of 3e-4
    end at 1.2e-3, past the 1e-3 duration, where this ramp is positive."""
    cfg = dict(TWO_PHASE_1D, dt=3e-4,
               far_boundary={"kind": "ramp", "value": -0.1, "rate": 90.90909})
    out = tmp_path / "run"
    rc = main(["solve1d", "--config", write_config(tmp_path, cfg), "--out", str(out)])
    assert rc == 2
    assert "config error at $.far_boundary: must stay nonpositive" in \
        capsys.readouterr().err
    assert not (out / "FAILED.json").exists()


BENCH = {"mode": "benchmark", "ladder": [16, 32], "time_refinements": 2,
         "duration": 0.1, "time_nx": 32}


@pytest.fixture(scope="module")
def bench_runs(tmp_path_factory):
    """Two benchmark run directories of one config, which hold no manifest."""
    root = tmp_path_factory.mktemp("bench")
    cfg = write_config(root, BENCH)
    for name in ("a", "b"):
        assert main(["benchmark", "--config", cfg, "--out", str(root / name)]) == 0
    return root / "a", root / "b"


def test_compare_benchmark_runs_by_report(bench_runs, tmp_path, capsys):
    a, b = bench_runs
    capsys.readouterr()
    assert main(["compare", "--tolerance", "0", str(a), str(b)]) == 0
    assert json.loads(capsys.readouterr().out)["diagnostics"]["reports_match"]["pass"]

    changed = tmp_path / "changed"
    changed.mkdir()
    for name in ("config.json", "report.json"):
        (changed / name).write_bytes((b / name).read_bytes())
    report = json.loads((changed / "report.json").read_text())
    report["data"]["space"]["front_error"][0] *= 1.5
    (changed / "report.json").write_text(json.dumps(report))
    assert main(["compare", str(a), str(changed)]) == 3


def test_compare_benchmark_against_solve1d_is_usage_error(bench_runs, tmp_path, capsys):
    a, _ = bench_runs
    run1d = tmp_path / "run1d"
    assert main(["solve1d", "--config", write_config(tmp_path, SIM_1D),
                 "--out", str(run1d)]) == 0
    capsys.readouterr()
    for pair in ((a, run1d), (run1d, a)):
        assert main(["compare", str(pair[0]), str(pair[1])]) == 2
        assert "benchmark run directory holds no manifest.json" in capsys.readouterr().err
    for pair in ((a, tmp_path / "absent"), (tmp_path / "absent", a)):
        assert main(["compare", str(pair[0]), str(pair[1])]) == 4


def test_verify_refuses_benchmark_rundir(bench_runs, capsys):
    a, _ = bench_runs
    capsys.readouterr()
    assert main(["verify", "--run", str(a)]) == 2
    assert "a benchmark run directory holds no manifest.json" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# fresh interpreters: start-up imports and SIMD levels
# ---------------------------------------------------------------------------

def run_python(args, unset=(), **env):
    """Run this interpreter on ``args`` with the package's source on the path,
    the variables ``env`` set and those named in ``unset`` removed."""
    src = str(Path(meltfront.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    kept = {k: v for k, v in os.environ.items() if k not in unset}
    done = subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**kept, "PYTHONPATH": path, **env})
    assert done.returncode == 0, done.stderr
    return done


def test_cli_import_leaves_scipy_unloaded():
    """scipy and jsonschema are imported where they are used, so the CLI
    starts without either."""
    code = ("import sys, meltfront.cli; print(' '.join(m for m in "
            "('scipy.spatial', 'scipy.linalg', 'jsonschema') if m in sys.modules))")
    assert run_python(["-c", code]).stdout.strip() == ""


# the package needs numpy alone: each command runs with scipy unimportable
NO_SCIPY = "import sys; sys.modules['scipy'] = None; from meltfront.cli import main; " \
           "sys.exit(main(sys.argv[1:]))"


@pytest.mark.parametrize("command", ["solve1d", "solve3d", "benchmark", "verify", "mollify"])
def test_commands_run_without_scipy(tmp_path, command):
    configs = {"solve1d": SIM_1D,
               "solve3d": dict(FLAT_3D, t0=0.25, initial={"kind": "similarity"}),
               "benchmark": {"mode": "benchmark", "ladder": [16, 32]}}
    out = str(tmp_path / "out")
    if command in configs:
        args = [command, "--config", write_config(tmp_path, configs[command]), "--out", out]
    elif command == "verify":  # a stored Dirichlet march, so positivity_spread runs
        args = ["verify", "--run", str(heat_rundir(tmp_path)), "--checks", "all",
                "--out", out]
    else:
        args = ["mollify", "--input", smooth_field_csv(tmp_path), "--epsilon", "0.125",
                "--out", out]
    run_python(["-c", NO_SCIPY, *args])


def cpu_has_avx512f():
    try:
        from numpy._core._multiarray_umath import __cpu_features__
    except ImportError:  # numpy < 2
        from numpy.core._multiarray_umath import __cpu_features__
    return bool(__cpu_features__.get("AVX512F"))


# 32 steps: enough for a one-ulp change in the front fits to reach the fronts
SIMD_3D = {"mode": "solve3d", "k1": 1.0, "t0": 0.25, "duration": 0.02, "bottom": 4,
           "grid": {"origin": [0, 0, 0], "extent": [1, 1, 1], "counts": [8, 8, 16]},
           "front": {"kind": "bump", "height": 0.6, "amplitude": 0.08, "width": 0.3},
           "initial": {"kind": "similarity"}}


@pytest.mark.skipif(not cpu_has_avx512f(), reason="no AVX512F, so no SIMD level to switch off")
def test_outputs_do_not_depend_on_simd_level(tmp_path):
    """numpy picks float64 kernels by CPU feature, and some of them (``power``
    with a positive base, ``exp``) round differently per level; no kernel
    whose bits depend on the level may feed a run's output."""
    for mode, payload in (("solve1d", SIM_1D), ("solve3d", SIMD_3D)):
        cfg = write_config(tmp_path, payload, f"{mode}.json")
        runs = []
        for level, env in (("default", {}), ("reduced", {
                "NPY_DISABLE_CPU_FEATURES": "AVX512_SPR AVX512_ICL X86_V4"})):
            runs.append(str(tmp_path / level / mode))
            run_python(["-m", "meltfront.cli", mode, "--config", cfg, "--out", runs[-1]],
                       **env)
        assert main(["compare", "--tolerance", "0", *runs]) == 0, mode
