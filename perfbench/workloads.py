"""The benchmark's workloads: set-up, one timed pass of fixed work, checks.

Set-up loads and validates the configs and builds the codebooks; on the
Monte Carlo workloads it also runs one warm-up block per curve at a
noiseless SNR, whose zero error count checks the ML round trip.

Inputs come from the run seed only: pass ``k`` simulates curve ``i`` with
config seed ``seed * 1000 + 10 * k + i``, so two runs with one seed do the
same work, and the passes of one run draw different channels.  The
reference BERs do not depend on the seed (see ``make_reference.py``).
"""

from __future__ import annotations

import contextlib
import csv
import functools
import io
import json
import math
import shutil
import tempfile
import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import yaml

import pace
from checks import BOUND_REL_TOL, GAP_ABS_TOL_DB
from ris_rgsm import channel, cli, detector, encoder, mapping, simulate
from ris_rgsm import config as config_mod

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CONFIG_DIR = ROOT / "configs"
REFERENCE_PATH = HERE / "reference.json"

NOISELESS_SNR_DB = 200.0
PROBE_STREAM = 0xBE7C
TINY = "tiny"
PROBE_MISSING = "per-trial probe"  # some function of the chain is gone


def config_seed(seed: int, pass_index: int, curve_index: int) -> int:
    return seed * 1000 + 10 * pass_index + curve_index


def warmup_seed(seed: int, rep: int) -> int:
    return seed * 1000 + 900 + rep


def mc_key(label: str, snr_db: float) -> str:
    return f"{label}@{snr_db:g}"


@functools.cache
def load_reference() -> dict:
    return json.loads(REFERENCE_PATH.read_text(encoding="utf-8"))


@dataclass
class PassResult:
    """What one timed pass produced, for the checks and the layer metrics."""

    points: list = field(default_factory=list)  # (label, config, BerPoint, block_size)
    outputs: dict = field(default_factory=dict)  # bound-sweep: manifest -> parsed files
    point_wall_s: float = 0.0

    def merge(self, other: "PassResult") -> None:
        self.points.extend(other.points)
        self.outputs.update(other.outputs)
        self.point_wall_s += other.point_wall_s

    @property
    def trials(self) -> int:
        return sum(p.trials for _, _, p, _ in self.points)

    @property
    def blocks_used(self) -> int:
        return sum(math.ceil(p.trials / block) for _, _, p, block in self.points)


class MonteCarlo:
    """``run_simulation`` at one SNR point per curve of a manifest.

    With ``error_cap`` set, each point stops at that many bit errors or at
    the config's trial cap; with ``trials`` set, each point runs exactly
    that many trials.
    """

    setup_reps = 3
    traced_passes = 4
    # blocks stream hypothesis tensors of tens of MB: memory-bound
    probe_kinds = (pace.STREAM,)

    def __init__(self, manifest, points, seed, scale, *, trials=None, error_cap=None, probe_trials):
        self.manifest = CONFIG_DIR / manifest
        self.points = points  # label -> snr_db
        self.seed = seed
        self.trials = trials
        self.error_cap = error_cap
        self.probe_trials = probe_trials
        self.entries = []
        if scale == TINY:
            self.setup_reps = 1
            self.traced_passes = 1
            self.probe_trials = max(1, probe_trials // 10)
            if trials is not None:
                self.trials = max(1, trials // 15)
            if error_cap is not None:
                self.error_cap = error_cap // 8

    def _point_config(self, cfg, snr_db, seed):
        overrides = {"snr_grid_db": (snr_db,), "seed": seed}
        if self.trials is not None:
            # error cap off: a cap the trial count cannot reach
            overrides.update(trials=self.trials, max_bit_errors=self.trials * cfg.rate + 1)
        if self.error_cap is not None:
            overrides["max_bit_errors"] = self.error_cap
        return cfg.with_overrides(**overrides)

    def setup(self, rep, checker) -> None:
        manifest = config_mod.load_manifest(self.manifest)
        self.entries = [(label, cfg) for label, cfg in manifest.entries if label in self.points]
        for i, (label, cfg) in enumerate(self.entries):
            block = simulate.default_block_size(cfg)
            warm = cfg.with_overrides(
                snr_grid_db=(NOISELESS_SNR_DB,),
                seed=warmup_seed(self.seed, rep) + i,
                trials=block,
                max_bit_errors=block * cfg.rate + 1,
            )
            point = simulate.run_simulation(warm, workers=1, label=label).points[0]
            checker.check(
                point.trials == block and point.bit_errors == 0,
                f"{label}: noiseless warm-up block gave {point.bit_errors} bit errors "
                f"in {point.trials} trials",
            )

    def pass_units(self, k) -> list:
        """One unit per curve; each returns (seconds in the package, PassResult)."""
        return [
            functools.partial(self._simulate, label, cfg, config_seed(self.seed, k, i))
            for i, (label, cfg) in enumerate(self.entries)
        ]

    def _simulate(self, label, cfg, seed):
        point_cfg = self._point_config(cfg, self.points[label], seed)
        start = time.perf_counter()
        curve = simulate.run_simulation(point_cfg, workers=1, label=label)
        wall = time.perf_counter() - start
        block = curve.meta["block_size"]
        return wall, PassResult(
            points=[(label, point_cfg, p, block) for p in curve.points],
            point_wall_s=sum(p.wall_time_s for p in curve.points),
        )

    def check_pass(self, result, checker) -> None:
        for label, cfg, p, _ in result.points:
            what = f"{label} @ {p.snr_db:g} dB"
            if self.error_cap is not None:
                checker.stopped_by_cap(what, p, cfg)
            else:
                checker.check(p.trials == cfg.trials, f"{what}: ran {p.trials} of {cfg.trials} trials")

    def final_check(self, result, checker) -> None:
        """BER of each curve over every pass of the run, against its reference."""
        errors, bits = {}, {}
        for label, cfg, p, _ in result.points:
            key = mc_key(label, p.snr_db)
            errors[key] = errors.get(key, 0) + p.bit_errors
            bits[key] = bits.get(key, 0) + p.trials * cfg.rate
        for key in errors:
            checker.ber(f"{key} dB, all passes", errors[key], bits[key], load_reference()["mc"][key])

    def probe(self, tracer, checker) -> dict:
        """The public per-trial path on the same configs and SNR points.

        The sweep does not call these functions: it runs a batched copy of
        the link model inside ``simulate``.  Returns computed sizes.
        """
        stages = {
            "draw": (channel, "sample_channel"),
            "encode": (encoder, "encode"),
            "transmit": (detector, "transmit"),
            "equiv": (detector, "precompute_equivalent_channel"),
            "hypothesis": (detector, "hypothesis_matrix"),
            "detect": (detector, "detect_ml"),
            "count": (detector, "count_bit_errors"),
        }
        fn = {}
        for stage, (module, attr) in stages.items():
            fn[stage] = getattr(module, attr, None)
            if fn[stage] is None:
                tracer.missing.add(f"{module.__name__}.{attr}")
        if any(fn[s] is None for s in stages if s != "hypothesis"):
            tracer.missing.add(PROBE_MISSING)
            return {"trials": 0, "hypothesis_bytes": 0}
        trials = hypothesis_bytes = 0
        for i, (label, cfg) in enumerate(self.entries):
            snr = self.points[label]
            codebook = mapping.Codebook(cfg)
            rng = channel.stream_rng(self.seed, PROBE_STREAM, i)
            errors = 0
            for _ in range(self.probe_trials):
                with tracer.span("channel.draw"):
                    bits = rng.integers(0, 2, size=cfg.rate, dtype=np.uint8)
                    ch = fn["draw"](cfg, rng)
                with tracer.span("encoder.encode"):
                    codeword = codebook.map_bits(bits)
                    reflection = fn["encode"](codeword, ch, cfg)
                with tracer.span("detector.transmit"):
                    received = fn["transmit"](
                        reflection, ch, snr, rng,
                        carrier=codeword.carrier, symbol_energy=cfg.symbol_energy,
                    )
                with tracer.span("detector.equiv"):
                    equiv = fn["equiv"](ch, cfg)
                if fn["hypothesis"] is not None:
                    with tracer.span("detector.hypothesis"):
                        hypotheses = fn["hypothesis"](equiv, codebook)
                    hypothesis_bytes += hypotheses.nbytes
                with tracer.span("detector.detect"):
                    detected = fn["detect"](received, equiv, codebook)
                with tracer.span("detector.count"):
                    counts = fn["count"](bits, codebook.unmap(detected), cfg.spatial_bits)
                errors += counts.total
            trials += self.probe_trials
            checker.ber(
                f"{label} @ {snr:g} dB, per-trial path",
                errors,
                self.probe_trials * cfg.rate,
                load_reference()["mc"][mc_key(label, snr)],
            )
        return {"trials": trials, "hypothesis_bytes": hypothesis_bytes}


class BoundSweep:
    """``ris-rgsm compare --kind theory`` in-process on two manifests.

    A timed pass runs ``compare`` once per SNR point of each manifest, on a
    one-point copy of the manifest written at set-up, so that the pass is
    made of short units (see ``pace.py``); together the units evaluate every
    bound of the two manifests.  The final check runs ``compare`` once on
    each whole manifest and also checks its gaps, which need the whole grid.
    """

    setup_reps = 3
    traced_passes = 2
    # the bound works on small arrays in cache, the CLI in the interpreter
    probe_kinds = (pace.LOOP, pace.ARRAY)
    manifests = ("rate9_comparison", "element_scaling")
    # tiny runs keep three grid points per manifest, around each curve's 1e-3 crossing
    tiny_grid = {"rate9_comparison": [-16.0, -10.0, -4.0], "element_scaling": [-24.0, -17.0, -10.0]}

    def __init__(self, seed, scale, workdir):
        self.seed = seed
        self.scale = scale
        self.workdir = Path(workdir)
        self.paths = {}
        self.points = []  # (manifest, snr_db, one-point manifest path)
        if scale == TINY:
            self.setup_reps = 1
            self.traced_passes = 1

    def setup(self, rep, checker) -> None:
        self.points = []
        for name in self.manifests:
            path = CONFIG_DIR / f"{name}.yaml"
            data = yaml.safe_load(path.read_text(encoding="utf-8"))
            if self.scale == TINY:
                data["snr_db"] = self.tiny_grid[name]
                path = self.workdir / f"{name}.yaml"
                path.write_text(yaml.safe_dump(data), encoding="utf-8")
            self.paths[name] = path
            entries = config_mod.load_manifest(path).entries
            for _, cfg in entries:
                mapping.Codebook(cfg)
            for snr in entries[0][1].snr_grid_db:
                one = self.workdir / f"{name}@{snr:g}.yaml"
                one.write_text(yaml.safe_dump({**data, "snr_db": [snr]}), encoding="utf-8")
                self.points.append((name, snr, one))

    def pass_units(self, k) -> list:
        """One unit per SNR point; each returns (seconds in the package, PassResult)."""
        return [
            functools.partial(self._compare, f"{name}@{snr:g}", name, path, [f"{snr:g}"])
            for name, snr, path in self.points
        ]

    def _compare(self, key, name, path, snrs=None):
        out = Path(tempfile.mkdtemp(prefix=f"{name}-", dir=self.workdir))
        try:
            argv = ["compare", "-c", str(path), "-o", str(out), "--kind", "theory",
                    "--seed", str(self.seed)]
            sink = io.StringIO()
            start = time.perf_counter()
            with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                code = cli.main(argv)
            wall = time.perf_counter() - start
            got = {"manifest": name, "snrs": snrs, "exit_code": code, **read_compare_output(out)}
        finally:
            shutil.rmtree(out, ignore_errors=True)
        return wall, PassResult(outputs={key: got})

    def check_pass(self, result, checker) -> None:
        """Bounds of the points each output covers; gaps of whole manifests."""
        for key, got in result.outputs.items():
            ref = load_reference()["theory"][self.scale][got["manifest"]]
            checker.check(got["exit_code"] == 0, f"{key}: compare exited with {got['exit_code']}")
            for label, bounds in ref["bounds"].items():
                for snr, value in bounds.items():
                    if got["snrs"] is None or snr in got["snrs"]:
                        actual = got["bounds"].get(label, {}).get(snr)
                        checker.close(f"{key} {label} @ {snr} dB bound", actual, value, rel=BOUND_REL_TOL)
            if got["snrs"] is not None:
                continue
            for pair, gap in ref["gaps"].items():
                what = f"{key} gap {pair}"
                if checker.check(pair in got["gaps"], f"{what}: missing from gaps.json"):
                    checker.close(what, got["gaps"][pair], gap, abs_=GAP_ABS_TOL_DB)

    def whole_manifests(self) -> PassResult:
        """``compare`` once on each whole manifest."""
        result = PassResult()
        for name, path in self.paths.items():
            result.merge(self._compare(name, name, path)[1])
        return result

    def final_check(self, result, checker) -> None:
        self.check_pass(self.whole_manifests(), checker)


def read_compare_output(out: Path) -> dict:
    """Theory bounds per curve CSV and gaps from ``gaps.json``."""
    bounds = {}
    gaps = {}
    if not out.is_dir():
        return {"bounds": bounds, "gaps": gaps}
    for csv_path in sorted(out.glob("*.csv")):
        if csv_path.name == "plotdata.csv":
            continue
        with open(csv_path, newline="", encoding="utf-8") as fh:
            bounds[csv_path.stem] = {
                row["snr_db"]: float(row["theory_bound"]) for row in csv.DictReader(fh)
            }
    gap_path = out / "gaps.json"
    if gap_path.is_file():
        for entry in json.loads(gap_path.read_text(encoding="utf-8"))["gaps"]:
            gaps[f"{entry['label_a']} vs {entry['label_b']}"] = entry["gap_db"]
    return {"bounds": bounds, "gaps": gaps}


# The probe's trial counts make its 5-sigma BER band exclude 0 errors at
# full size, so a per-trial path that never errs fails its check.
#
# Monte Carlo points: each curve's SNR is chosen so that about 3 blocks of
# 976 trials reach the 800-error cap (270 to 290 errors a block).  The wave
# planner runs 1, 1 and then 2 blocks, so every seed runs exactly 4 blocks
# per point (fixed work; 2 blocks stay 5 sigma short of the cap and 4 blocks
# 5 sigma past it) while it uses 3 or 4 of them (the waste the planner
# causes).
ERRCAP_POINTS = {"mux-psk8": -19.5, "mux-apsk8": -16.0, "diversity-64": -11.75}
FIXED_POINTS = {"psk32": -9.0, "apsk32": -9.0}
FIXED_TRIALS = 122  # 2 blocks of 61 trials per curve


def make(name: str, seed: int, scale: str, workdir):
    if name == "mc-rate9-errcap":
        return MonteCarlo(
            "rate9_comparison.yaml", ERRCAP_POINTS, seed, scale,
            error_cap=800, probe_trials=1200,
        )
    if name == "mc-rate13-fixed":
        return MonteCarlo(
            "psk_vs_apsk.yaml", FIXED_POINTS, seed, scale,
            trials=FIXED_TRIALS, probe_trials=400,
        )
    if name == "bound-sweep":
        return BoundSweep(seed, scale, workdir)
    raise ValueError(f"unknown workload {name!r}")
