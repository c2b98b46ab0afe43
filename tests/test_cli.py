"""Tests for the command-line driver and its exit codes."""

import csv
import json
from pathlib import Path

import pytest

from ris_rgsm.cli import main

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOOD_CONFIG = """\
scheme: rgssk
n_elements: 16
n_rx: 4
n_active: 2
combination_table: [[1,3],[1,4],[2,3],[2,4]]
snr_db: [-14, -10]
seed: 12
trials: 1500
max_bit_errors: 100000
"""

BAD_CONFIG = """\
scheme: mux_psk
n_elements: 64
n_rx: 4
n_active: 3
mod_order: 8
snr_db: [0]
"""

BIG_CODEBOOK = """\
scheme: mux_psk
n_elements: 64
n_rx: 5
n_active: 2
mod_order: 32
snr_db: [0]
"""

# diversity APSK rings are carrier amplitudes: 4 rings on 10-element groups
DIVERSITY_APSK = """\
scheme: diversity
diversity_constellation: apsk
mod_order: 16
ring_count: 4
n_elements: 20
n_rx: 4
n_active: 2
snr_db: [0]
trials: 300
"""

MANIFEST = """\
n_elements: 16
n_rx: 4
n_active: 2
combination_table: [[1,3],[1,4],[2,3],[2,4]]
snr_db: [-26, -22, -18]
seed: 12
trials: 1200
max_bit_errors: 100000
curves:
  - {label: n16, scheme: rgssk}
  - {label: n32, scheme: rgssk, n_elements: 32}
"""


@pytest.fixture
def good_config(tmp_path):
    path = tmp_path / "config.yaml"
    path.write_text(GOOD_CONFIG)
    return path


class TestValidateConfig:
    def test_valid_exits_zero(self, good_config, capsys):
        assert main(["validate-config", "-c", str(good_config)]) == 0
        out = capsys.readouterr().out
        assert "rate=2" in out

    def test_invalid_exits_two(self, tmp_path, capsys):
        path = tmp_path / "bad.yaml"
        path.write_text(BAD_CONFIG)
        assert main(["validate-config", "-c", str(path)]) == 2
        assert "n_active" in capsys.readouterr().err

    def test_missing_file_exits_two(self, tmp_path):
        assert main(["validate-config", "-c", str(tmp_path / "nope.yaml")]) == 2

    def test_malformed_yaml_exits_two(self, tmp_path, capsys):
        path = tmp_path / "broken.yaml"
        path.write_text(GOOD_CONFIG.replace("n_rx: 4", "n_rx: [5"))
        assert main(["validate-config", "-c", str(path)]) == 2
        assert "not valid YAML" in capsys.readouterr().err

    @pytest.mark.parametrize("grid", ["[a, 1]", "{start: a, stop: 1, step: 1}", "[[0], 1]"])
    def test_non_numeric_snr_exits_two(self, tmp_path, capsys, grid):
        path = tmp_path / "snr.yaml"
        path.write_text(GOOD_CONFIG.replace("snr_db: [-14, -10]", f"snr_db: {grid}"))
        assert main(["validate-config", "-c", str(path)]) == 2
        assert "snr_db" in capsys.readouterr().err

    def test_malformed_manifest_exits_two(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST.replace("snr_db: [-26, -22, -18]", "snr_db: [-26, x]"))
        assert main(["compare", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        path.write_text(MANIFEST + "  - {label: broken\n")
        assert main(["compare", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
        head = MANIFEST[: MANIFEST.index("curves:")]
        for curves in ("curves:\n", "curves: {label: n16}\n", "curves: []\n"):
            path.write_text(head + curves)
            assert main(["compare", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
            assert main(["validate-config", "-c", str(path)]) == 2

    def test_manifest_prints_one_line_per_curve(self, tmp_path, capsys):
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST)
        assert main(["validate-config", "-c", str(path)]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert [line.split()[1] for line in lines] == ["label=n16", "label=n32"]
        assert all(line.startswith("ok: ") and "rate=2" in line for line in lines)

    @pytest.mark.parametrize("path", sorted(CONFIG_DIR.glob("*.yaml")), ids=lambda p: p.name)
    def test_reference_configs_validate(self, path):
        assert main(["validate-config", "-c", str(path)]) == 0


class TestSimulateCommand:
    def test_writes_csv_and_summary(self, good_config, tmp_path):
        out = tmp_path / "results"
        assert main(["simulate", "-c", str(good_config), "-o", str(out)]) == 0
        with open(out / "rgssk.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 2
        assert int(rows[0]["trials"]) == 1500
        summary = json.loads((out / "summary.json").read_text())
        assert summary["curves"][0]["config"]["seed"] == 12

    def test_with_theory_fills_bound(self, good_config, tmp_path):
        out = tmp_path / "results"
        code = main(
            ["simulate", "-c", str(good_config), "-o", str(out), "--with-theory", "--label", "x"]
        )
        assert code == 0
        with open(out / "x.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(float(r["theory_bound"]) > 0 for r in rows)

    def test_constellation_rings_need_not_divide_groups(self, tmp_path):
        path = tmp_path / "div_apsk.yaml"
        path.write_text(DIVERSITY_APSK)
        out = tmp_path / "results"
        assert main(["validate-config", "-c", str(path)]) == 0
        assert main(["simulate", "-c", str(path), "-o", str(out)]) == 0
        with open(out / "diversity.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert int(rows[0]["trials"]) == 300

    def test_seed_override(self, good_config, tmp_path):
        out = tmp_path / "results"
        main(["simulate", "-c", str(good_config), "-o", str(out), "--seed", "77"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["curves"][0]["config"]["seed"] == 77


class TestTheoryCommand:
    def test_writes_theory_curve(self, good_config, tmp_path):
        out = tmp_path / "results"
        assert main(["theory", "-c", str(good_config), "-o", str(out)]) == 0
        with open(out / "rgssk_theory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["flag"] == "theory" for r in rows)
        assert all(r["ber"] == "" for r in rows)

    def test_enumeration_refusal_exit_code(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text(BIG_CODEBOOK)
        code = main(
            ["theory", "-c", str(path), "-o", str(tmp_path / "out"),
             "--pair-ceiling", "100000"]
        )
        assert code == 3

    def test_sampled_policy_allowed_above_ceiling(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text(BIG_CODEBOOK)
        code = main(
            ["theory", "-c", str(path), "-o", str(tmp_path / "out"),
             "--pair-ceiling", "100000", "--policy", "sampled", "--samples", "200"]
        )
        assert code == 0


class TestCompareCommand:
    def test_gap_report_written(self, tmp_path, capsys):
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST)
        out = tmp_path / "cmp"
        code = main(
            ["compare", "-c", str(path), "-o", str(out), "--kind", "theory",
             "--mode", "free", "--target-ber", "1e-3"]
        )
        assert code == 0
        gaps = json.loads((out / "gaps.json").read_text())
        assert gaps["gaps"][0]["label_a"] == "n16"
        assert (out / "plotdata.csv").exists()
        assert (out / "n16.csv").exists() and (out / "n32.csv").exists()
        assert "n16 vs n32" in capsys.readouterr().out

    def test_equal_rate_violation_exits_two(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text(
            "n_elements: 64\nn_rx: 5\nn_active: 2\nsnr_db: [0]\n"
            "curves:\n"
            "  - {label: a, scheme: mux_psk, mod_order: 4}\n"
            "  - {label: b, scheme: mux_psk, mod_order: 8}\n"
        )
        assert main(["compare", "-c", str(path), "-o", str(tmp_path / "o")]) == 2
