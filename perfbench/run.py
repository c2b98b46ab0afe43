"""ris-rgsm benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a checkout: the package is imported from ``src/``
and the configs are read from ``configs/``.  Each run is one process with
one worker and BLAS capped at ``THREAD_CAP`` threads.  With ``--trace 0``
it sets up once, repeats the workload's timed pass while another pass fits
in ``--seconds`` (timing each unit of a pass between two speed probes, see
``pace.py``), runs the workload's final check, times ``COLD_SETUPS``
set-ups from process start (this process and fresh child processes) and
prints the end-to-end metrics; with ``--trace 1`` it sets up several times,
pairs untraced and traced passes, runs the final check and the per-trial
probe, writes the spans to ``.perfbench/`` and prints the per-layer
metrics.  The last line of
standard output is one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics``.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

THREAD_CAP = 1
_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS")
for _var in _THREAD_VARS:
    os.environ[_var] = str(THREAD_CAP)
COLD_SETUPS = 5  # setup_s is the median over this process and four children

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from contextlib import nullcontext  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT_DIR = ROOT / ".perfbench"
WORKLOADS = ("mc-rate9-errcap", "mc-rate13-fixed", "bound-sweep")


def parse_args(argv):
    parser = argparse.ArgumentParser(description="ris-rgsm benchmark")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full",
        help="tiny shrinks every workload for the benchmark's own tests",
    )
    parser.add_argument(
        "--setup-only", action="store_true",
        help="time one set-up from process start and stop (the parent's setup_s sample)",
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be non-negative")
    return args


def machine_info() -> dict:
    import numpy as np

    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_count": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_cap": THREAD_CAP,
        "thread_env": {var: os.environ.get(var) for var in _THREAD_VARS},
        "workers": 1,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def child_setup_s(args, checker):
    """Seconds from process start to the end of set-up in a fresh process on
    the same inputs; None (and a failed check) if that process fails."""
    argv = [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
            "--seed", str(args.seed), "--seconds", "0", "--scale", args.scale, "--setup-only"]
    try:
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=120)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        ok, what = proc.returncode == 0 and result["correct"], f"exit {proc.returncode}, {result}"
    except (subprocess.TimeoutExpired, IndexError, ValueError, KeyError) as exc:
        ok, what = False, repr(exc)
    if not checker.check(ok, f"cold set-up in a child process failed: {what}"):
        return None
    return result["metrics"]["setup_s"]["value"]


def run(args, workdir):
    """Set up, run the passes, check them; returns (metrics, checker, tracer)."""
    import layers
    import pace
    import workloads
    from checks import Checker
    from spans import Tracer

    checker = Checker()
    workload = workloads.make(args.workload, args.seed, args.scale, workdir)
    tracer = Tracer(f"{args.workload}-seed{args.seed}-pid{os.getpid()}") if args.trace else None

    # set-up 0 is cold (first imports, codebook build and block); the traced
    # run repeats it for the per-layer set-up means
    for rep in range(workload.setup_reps if tracer is not None else 1):
        if tracer is None:
            workload.setup(rep, checker)
        else:
            with tracer.installed(layers.TARGETS), tracer.span(layers.SETUP):
                workload.setup(rep, checker)
        if rep == 0:
            cold_setup_s = time.perf_counter() - _START
    if args.setup_only:
        return {"setup_s": {"value": cold_setup_s, "unit": "s"}}, checker, None

    def final_check(results):
        merged = workloads.PassResult()
        for result in results:
            merged.merge(result)
        workload.final_check(merged, checker)

    def timed_pass(k, traced=False):
        """Runs pass ``k`` with a speed probe around each unit; returns (seconds
        inside the package, PassResult, [(unit seconds, probe before, probe after)])."""
        result = workloads.PassResult()
        units = []
        with (tracer.installed(layers.TARGETS) if traced else nullcontext()), (
            tracer.span(layers.PASS, index=k) if traced else nullcontext()
        ):
            before = pace.probe(workload.probe_kinds)
            for unit in workload.pass_units(k):
                seconds, part = unit()
                after = pace.probe(workload.probe_kinds)
                units.append((seconds, before, after))
                before = after
                result.merge(part)
        workload.check_pass(result, checker)
        return sum(seconds for seconds, _, _ in units), result, units

    def guarded(what, step, *args):
        # an exception inside a pass or a check is a failed check; the run stops there
        try:
            return step(*args)
        except Exception as exc:  # noqa: BLE001 - reported, then the run ends
            traceback.print_exc()
            checker.fail(f"{what} raised {exc!r}")
            return None

    if tracer is None:
        passes = []
        start = time.perf_counter()
        while True:
            done = guarded(f"pass {len(passes)}", timed_pass, len(passes))
            if done is None:
                break
            passes.append(done)
            elapsed = time.perf_counter() - start
            if elapsed + statistics.median(wall for wall, _, _ in passes) > args.seconds:
                break
        if not passes:
            raise RuntimeError("no timed pass completed")
        guarded("final check", final_check, [result for _, result, _ in passes])
        cold = [cold_setup_s] + [child_setup_s(args, checker) for _ in range(COLD_SETUPS - 1)]
        metrics = {
            "setup_s": {"value": statistics.median(s for s in cold if s is not None), "unit": "s"},
            "sweep_s": {"value": pace.paced_seconds([units for _, _, units in passes]), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb(), "unit": "MB"},
        }
        return metrics, checker, None

    traced, untraced = [], []
    for k in range(workload.traced_passes):
        for is_traced in (False, True) if k % 2 == 0 else (True, False):
            done = guarded(f"pass {k}", timed_pass, k, is_traced)
            if done is not None:
                (traced if is_traced else untraced).append(done[:2])
    if not traced or not untraced:
        raise RuntimeError("no traced/untraced pass pair completed")
    # a traced pass repeats the seeds of its untraced pair, so only these count
    guarded("final check", final_check, [result for _, result in untraced])
    probe = {"trials": 0, "hypothesis_bytes": 0}
    if hasattr(workload, "probe"):
        with tracer.span(layers.PROBE):
            probe = workload.probe(tracer, checker)
    metrics = layers.per_layer_metrics(
        tracer, setup_reps=workload.setup_reps, traced=traced, untraced=untraced, probe=probe
    )
    return metrics, checker, tracer


def main(argv=None) -> int:
    args = parse_args(argv)
    src = ROOT / "src"
    if not (src / "ris_rgsm" / "__init__.py").is_file() or not (ROOT / "configs").is_dir():
        print(f"error: no ris_rgsm checkout at {ROOT} (needs src/ris_rgsm and configs/)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    OUT_DIR.mkdir(exist_ok=True)
    workdir = OUT_DIR / f"work-{os.getpid()}"
    workdir.mkdir()
    try:
        metrics, checker, tracer = run(args, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    machine = machine_info()
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    missing = sorted(tracer.missing) if tracer is not None else []
    if tracer is not None:
        tracer.write(OUT_DIR / f"spans-{name}.jsonl", {"workload": args.workload, "machine": machine})

    print("machine " + json.dumps(machine))
    for failure in checker.failures:
        print(f"FAILED {failure}")
    for metric in missing:
        print(f"MISSING {metric}: its metrics are reported as null")
    print(f"failed_frac {checker.failed_frac:.6g} ({checker.failed} of {checker.attempted} checks)")
    for key, entry in metrics.items():
        shown = "missing" if entry["value"] is None else f"{entry['value']:.6g}"
        print(f"{key} {shown} {entry['unit']}")
    print(
        json.dumps(
            {
                "correct": checker.failed == 0,
                "attempted": checker.attempted,
                "failed": checker.failed,
                "metrics": metrics,
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
