"""Tests of the benchmark itself, kept apart from the package's suite.

Run from the repository root:  python3 -m pytest -q perfbench/tests
"""

import json
import os
import shutil
import subprocess
import sys
import time

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "perfbench"))

import calibration  # noqa: E402
import run  # noqa: E402
import workloads  # noqa: E402

WORKLOADS = ("large", "sweep", "certify")


def bench(*args, cwd=ROOT):
    return subprocess.run([sys.executable, "perfbench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=170)


@pytest.fixture(scope="module")
def spec():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


@pytest.fixture(scope="module")
def pkg():
    return workloads.load_package(ROOT)


def test_spec_names_the_workloads(spec):
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS)
    assert sorted(workloads.WORKLOADS) == sorted(WORKLOADS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_reduced_run_prints_every_metric(spec, workload, trace):
    proc = bench("--workload", workload, "--seed", "5", "--seconds", "0",
                 "--trace", str(trace), "--smoke")
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0
    assert result["attempted"] >= 1
    wanted = {m["name"]: m["unit"] for m in spec["per_layer" if trace else "end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == wanted
    for name, unit in wanted.items():
        assert any(line.startswith(f"{name} = ") and line.endswith(f" {unit}")
                   for line in lines[:-1]), name
    assert any(line.startswith("error_rate = 0 ") for line in lines)


def test_gate_fails_on_wrong_expected_rc_or_digest(pkg, tmp_path):
    large = workloads.Large(pkg, 1, str(tmp_path), smoke=True)
    output = large.run(None)
    assert large.check(output) == {}
    good_digest = large.digest
    large.expected["large:2"] = "30"          # C_64 has rc 31
    assert set(large.check(output)) == {"large:2"}
    large.expected["large:2"] = "31"
    large.digest = "0" * 64
    assert set(large.check(output)) == set(large.expected)
    large.digest = good_digest
    code, text, err = output
    assert large.check((code, text.replace(",31,", ",30,"), err))


def test_sweep_gate_checks_the_table_digest_and_the_oracle(pkg, tmp_path):
    sweep = workloads.Sweep(pkg, 2, str(tmp_path), smoke=True)
    output = sweep.run(None)
    assert sweep.check(output) == {}
    sweep.digest = "0" * 64
    failed = sweep.check(output)
    assert len(failed) == len(sweep.gj)
    sweep.digest = workloads.DIGESTS[("sweep", True)]
    sweep.gnp_expected["gnp:1"] = "99"
    assert set(sweep.check(output)) == {"gnp:1"}


def test_certify_gate_rejects_a_failed_evasion_or_a_raise(pkg, tmp_path):
    certify = workloads.Certify(pkg, 1, str(tmp_path), smoke=True)
    output = certify.run(None)
    assert certify.check(output) == {}
    name = next(iter(output))
    output[name] = dict(output[name], evade="captured")
    assert set(certify.check(output)) == {name}
    output[name] = RuntimeError("certificate escaped")
    assert set(certify.check(output)) == {name}


def test_counter_mismatch_is_flagged(tmp_path):
    os.makedirs(tmp_path / run.OUT_DIR)
    counters = {"engine.states": 10, "engine.moves": 3}
    assert run.compare_counters(str(tmp_path), "k", [counters, dict(counters)]) == 0
    assert run.compare_counters(str(tmp_path), "k", [counters]) == 0
    assert run.compare_counters(str(tmp_path), "k", [dict(counters, **{"engine.moves": 4})]) == 1
    assert run.compare_counters(str(tmp_path), "k", [counters, dict(counters, **{"engine.states": 9})]) == 1


def test_fails_without_result_when_the_package_is_absent(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(os.path.join(ROOT, "perfbench"), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = bench("--workload", "large", "--seed", "1", "--seconds", "1", "--trace", "0",
                 cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_speed_probe_times_the_pass_without_its_own_samples():
    start = time.perf_counter()
    with calibration.SpeedProbe() as probe:
        total = 0
        while time.perf_counter() - start < 0.5:
            total += sum(range(1000))
    elapsed = time.perf_counter() - start
    assert probe.samples >= 2
    assert 0.8 * elapsed < probe.wall < elapsed
    assert probe.calibrated > 0
    time.sleep(2 * calibration.PERIOD_S)   # the timer is off: no stray SIGALRM
