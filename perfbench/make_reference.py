"""Regenerate ``reference.json``, the values the benchmark checks outputs against.

    python3 perfbench/make_reference.py

Monte Carlo references: for each benchmark SNR point, many independent
one-block ``run_simulation`` calls with seeds far from any benchmark seed.
They give the reference BER and the dispersion (variance over mean of the
per-block error counts) that scales the check's binomial tolerance.
Theory references: one ``compare`` on each whole bound-sweep manifest at
each scale, read back from the CSV and ``gaps.json`` files the CLI wrote.

Regenerate only when the expected outputs change on purpose, and say why.
"""

import os

for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS", "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"

import json  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import numpy as np  # noqa: E402

import workloads  # noqa: E402
from ris_rgsm import config as config_mod  # noqa: E402
from ris_rgsm import simulate  # noqa: E402

REF_SEED_BASE = 1 << 40
BLOCKS_RATE9 = 200  # one-block runs per rate-9 point (976 trials each)
BLOCKS_RATE13 = 600  # one-block runs per rate-13 point (61 trials each)


def mc_reference(manifest, points, blocks):
    out = {}
    entries = dict(config_mod.load_manifest(workloads.CONFIG_DIR / manifest).entries)
    for label, snr in points.items():
        cfg = entries[label]
        block = simulate.default_block_size(cfg)
        errors = []
        for j in range(blocks):
            one = cfg.with_overrides(
                snr_grid_db=(snr,), seed=REF_SEED_BASE + j, trials=block,
                max_bit_errors=block * cfg.rate + 1,
            )
            errors.append(simulate.run_simulation(one).points[0].bit_errors)
        errors = np.asarray(errors, dtype=float)
        bits = blocks * block * cfg.rate
        out[workloads.mc_key(label, snr)] = {
            "ber": float(errors.sum() / bits),
            "dispersion": float(errors.var(ddof=1) / errors.mean()),
            "errors": int(errors.sum()),
            "bits": int(bits),
            "blocks": blocks,
            "block_trials": block,
        }
        print(label, snr, out[workloads.mc_key(label, snr)], flush=True)
    return out


def theory_reference(scale):
    workdir = HERE.parent / ".perfbench" / f"reference-{scale}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        sweep = workloads.BoundSweep(0, scale, workdir)
        sweep.setup(0, None)
        result = sweep.whole_manifests()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    out = {}
    for name, got in result.outputs.items():
        if got["exit_code"] != 0:
            raise SystemExit(f"{name}: compare exited with {got['exit_code']}")
        out[name] = {"bounds": got["bounds"], "gaps": got["gaps"]}
    return out


def main():
    reference = {
        "theory": {scale: theory_reference(scale) for scale in ("full", workloads.TINY)},
        "mc": {
            **mc_reference("rate9_comparison.yaml", workloads.ERRCAP_POINTS, BLOCKS_RATE9),
            **mc_reference("psk_vs_apsk.yaml", workloads.FIXED_POINTS, BLOCKS_RATE13),
        },
    }
    workloads.REFERENCE_PATH.write_text(json.dumps(reference, indent=1, sort_keys=True) + "\n")
    print(f"wrote {workloads.REFERENCE_PATH}")


if __name__ == "__main__":
    main()
