"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import layers  # noqa: E402
import pace  # noqa: E402
import workloads  # noqa: E402
from spans import Target, Tracer  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def run_bench(workload, trace, cwd=ROOT, script=BENCH / "run.py"):
    return subprocess.run(
        [sys.executable, str(script), "--workload", workload, "--seed", "5",
         "--seconds", "1", "--trace", str(trace), "--scale", "tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_tiny_run_reports_every_metric(workload, trace):
    proc = run_bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0, proc.stdout
    assert result["attempted"] >= 1
    expected = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {
        m["name"]: m["unit"] for m in expected
    }
    for name, entry in result["metrics"].items():
        assert isinstance(entry["value"], (int, float)), name
    if not trace:
        assert all(entry["value"] > 0 for entry in result["metrics"].values())


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / BENCH.name, ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("bound-sweep", 0, cwd=tmp_path, script=tmp_path / BENCH.name / "run.py")
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


def test_wrong_ber_counts_as_failed():
    reference = {"ber": 1e-2, "dispersion": 2.0, "errors": 10_000}
    checker = checks.Checker()
    assert checker.ber("right", 1000, 100_000, reference)
    assert not checker.ber("high", 2000, 100_000, reference)
    assert not checker.ber("low", 500, 100_000, reference)
    assert (checker.attempted, checker.failed) == (3, 2)


@pytest.mark.parametrize("name", ["mc-rate9-errcap", "mc-rate13-fixed"])
def test_full_size_probe_check_fails_with_no_errors(name):
    workload = workloads.make(name, 0, "full", ROOT)
    workload.setup(0, checks.Checker())
    for label, cfg in workload.entries:
        reference = workloads.load_reference()["mc"][workloads.mc_key(label, workload.points[label])]
        assert not checks.Checker().ber(label, 0, workload.probe_trials * cfg.rate, reference)


def test_wrong_bound_gap_or_exit_code_counts_as_failed():
    sweep = workloads.BoundSweep(0, workloads.TINY, ROOT)
    reference = workloads.load_reference()["theory"][workloads.TINY]
    outputs = {
        name: {"manifest": name, "snrs": None, "exit_code": 0, **json.loads(json.dumps(ref))}
        for name, ref in reference.items()
    }

    def failures(outputs):
        checker = checks.Checker()
        sweep.check_pass(workloads.PassResult(outputs=outputs), checker)
        return checker.failed

    assert failures(outputs) == 0
    name = next(iter(outputs))
    label = next(iter(outputs[name]["bounds"]))
    snr = next(iter(outputs[name]["bounds"][label]))
    outputs[name]["bounds"][label][snr] *= 1.001
    assert failures(outputs) == 1
    outputs[name]["bounds"][label][snr] /= 1.001
    gap = next(k for k, v in outputs[name]["gaps"].items() if v is not None)
    outputs[name]["gaps"][gap] += 0.02
    outputs[name]["exit_code"] = 3
    assert failures(outputs) == 2


def test_one_point_output_is_checked_on_its_point_only():
    sweep = workloads.BoundSweep(0, workloads.TINY, ROOT)
    name, ref = next(iter(workloads.load_reference()["theory"][workloads.TINY].items()))
    label = next(iter(ref["bounds"]))
    snr = next(iter(ref["bounds"][label]))
    bounds = {lab: {snr: values[snr]} for lab, values in ref["bounds"].items()}
    got = {"manifest": name, "snrs": [snr], "exit_code": 0, "bounds": bounds, "gaps": {}}
    checker = checks.Checker()
    sweep.check_pass(workloads.PassResult(outputs={f"{name}@{snr}": got}), checker)
    assert (checker.attempted, checker.failed) == (1 + len(bounds), 0)
    bounds[label][snr] *= 1.001
    del bounds[next(lab for lab in bounds if lab != label)]
    checker = checks.Checker()
    sweep.check_pass(workloads.PassResult(outputs={f"{name}@{snr}": got}), checker)
    assert checker.failed == 2


def test_paced_seconds_divides_out_the_probe_slowdown():
    # one unit slowed 2x with its probes, the other at reference speed
    passes = [[(2.0, 2.0, 2.0), (1.0, 1.0, 1.0)], [(1.0, 1.0, 1.0), (1.5, 1.0, 2.0)]]
    assert pace.paced_seconds(passes) == pytest.approx(1.0 + 1.0)
    assert pace.probe((pace.LOOP, pace.ARRAY, pace.STREAM)) > 0


def test_missing_function_is_reported_missing_not_zero():
    tracer = Tracer("test")
    tracer.install([Target("ris_rgsm.simulate", "_no_such_block_function", "simulate.block")])
    tracer.missing.add("ris_rgsm.simulate._block_job")
    assert "ris_rgsm.simulate._no_such_block_function" in tracer.missing
    metrics = layers.per_layer_metrics(
        tracer, setup_reps=1, traced=[(1.0, workloads.PassResult())],
        untraced=[(1.0, workloads.PassResult())], probe={"trials": 0, "hypothesis_bytes": 0},
    )
    assert metrics["simulate.blocks_run"]["value"] is None
    assert metrics["simulate.block_us_per_trial"]["value"] is None
    assert metrics["theory.evaluated_pairs"]["value"] == 0


def test_self_time_subtracts_children():
    tracer = Tracer("test")
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
    outer, inner = tracer.spans
    self_time = tracer.self_times()
    assert self_time[inner.span_id] == pytest.approx(inner.duration)
    assert self_time[outer.span_id] == pytest.approx(outer.duration - inner.duration)
    assert [s.name for s in tracer.under("outer")] == ["inner"]
