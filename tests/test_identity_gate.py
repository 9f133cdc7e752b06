"""tools/identity.py, the identity gate between a base and a head ``src``.

The gate itself runs both sides in subprocesses for about half a minute;
here its table must hold configs the CLI accepts, its comparators must fail
the differences they exist to catch, and its one-CPU/all-CPU pairs must
share work on two CPUs, or each would compare one process against one.
"""

import importlib.util
import json
import shutil
from pathlib import Path

import pytest
from test_cli import assert_no_children, fork_counter

from meltfront.cli import ExperimentConfig, main

ROOT = Path(__file__).resolve().parent.parent
_spec = importlib.util.spec_from_file_location("identity", ROOT / "tools" / "identity.py")
gate = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(gate)
HEAD = ROOT / "src"


def test_every_config_is_valid_and_every_pair_names_a_defined_one():
    for config in gate.CONFIGS.values():
        ExperimentConfig.from_dict(config)
    head_args = [*gate.ONE_CPU_ALL.values(), gate.SIMD]
    named = [*gate.BASE_HEAD, *(Path(a[a.index("--config") + 1]).stem
                                for a in head_args if "--config" in a)]
    assert sorted(set(named)) == sorted(gate.CONFIGS)
    assert "{work}/march/head/audit64" in gate.ONE_CPU_ALL["audit64"]
    assert "audit64" in gate.MARCHES
    for run in gate.VERIFIED:
        kind, side, name = run.split("/")
        assert side == "head" and name in {"march": gate.MARCHES, "runs": gate.BASE_HEAD}[kind]
    assert set(gate.MOLLIFIED) <= set(gate.BASE_HEAD)


@pytest.fixture(scope="module")
def rundir(tmp_path_factory):
    """A 20-step solve1d run directory."""
    tmp = tmp_path_factory.mktemp("gate")
    cfg = tmp / "config.json"
    cfg.write_text(json.dumps({"mode": "solve1d", "k1": 1, "t0": 0.25, "nx": 20,
                               "initial": {"kind": "similarity"}, "duration": 0.005}))
    assert main(["solve1d", "--config", str(cfg), "--out", str(tmp / "run")]) == 0
    return tmp / "run"


def copy_of(rundir, tmp_path):
    return Path(shutil.copytree(rundir, tmp_path / "copy"))


def test_directory_comparator_passes_a_copy(rundir, tmp_path):
    assert gate.same_dirs(HEAD, rundir, copy_of(rundir, tmp_path)) == (
        True, "compare exit 0; other files differing: []")


def test_directory_comparator_fails_a_negative_zero(rundir, tmp_path):
    copy = copy_of(rundir, tmp_path)
    csv = copy / "u_000000.csv"
    assert "\n0\n" in csv.read_text()
    csv.write_text(csv.read_text().replace("\n0\n", "\n-0\n", 1))
    same, text = gate.same_dirs(HEAD, rundir, copy)
    assert not same and text.startswith("compare exit 3; other files differing: []\n")


def test_directory_comparator_fails_a_changed_manifest_byte(rundir, tmp_path):
    """The last digit of the last snapshot time: within compare's manifest
    tolerance, so only the byte comparison sees it."""
    copy = copy_of(rundir, tmp_path)
    manifest = copy / "manifest.json"
    text = manifest.read_text()
    last = max(text.rfind(d) for d in "0123456789")
    manifest.write_text(text[:last] + str((int(text[last]) + 1) % 10) + text[last + 1:])
    same, text = gate.same_dirs(HEAD, rundir, copy)
    assert not same
    assert text.startswith("compare exit 0; other files differing: ['manifest.json']")


def test_directory_comparator_fails_an_extra_file(rundir, tmp_path):
    copy = copy_of(rundir, tmp_path)
    (copy / "notes.txt").write_text("")
    assert gate.same_dirs(HEAD, rundir, copy) == (False, "files on one side only: ['notes.txt']")


REPORT = {"status": "pass", "diagnostics": {"x": {"measured": 0.0, "pass": True}},
          "provenance": {"created_utc": "2026-01-01T00:00:00+00:00", "config_sha256": "ab"}}


@pytest.mark.parametrize("change, same", [
    (lambda r: r["provenance"].update(created_utc="2027-06-30T12:00:00+00:00"), True),
    (lambda r: r["provenance"].update(config_sha256="ac"), False),
    (lambda r: r["diagnostics"]["x"].update(measured=-0.0), False),
    (lambda r: r["diagnostics"]["x"].update(measured=0), False),
    (lambda r: r.update(status="fail"), False),
], ids=["created_utc", "config_sha256", "negative_zero", "int_zero", "status"])
def test_report_comparator_ignores_created_utc_only(tmp_path, change, same):
    changed = json.loads(json.dumps(REPORT))
    change(changed)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    a.write_text(json.dumps(REPORT))
    b.write_text(json.dumps(dict(reversed(changed.items()))))
    assert gate.same_reports(a, b)[0] is same


@pytest.mark.parametrize("name", sorted(gate.ONE_CPU_ALL))
def test_one_cpu_and_all_pairs_share_on_two_cpus(tmp_path, monkeypatch, name):
    """Head's job from the gate's table forks on two CPUs: a sharing size or
    step count moved above it would leave its pair comparing one process
    against one process."""
    gate.write_configs(tmp_path)
    gate.march("audit64", tmp_path / "march" / "head" / "audit64")
    forks = fork_counter(monkeypatch, 2)
    argv = [a.format(work=tmp_path, out=tmp_path / name) for a in gate.ONE_CPU_ALL[name]]
    assert main(argv) == 0
    assert forks[0] >= 1
    assert_no_children()
