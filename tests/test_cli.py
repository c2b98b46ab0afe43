"""Tests for the command-line driver and its exit codes."""

import csv
import functools
import inspect
import json
import re
import warnings
from pathlib import Path

import pytest

import ris_rgsm
from ris_rgsm.cli import build_parser, main
from ris_rgsm.config import _SNR_LIMIT_DB
from ris_rgsm.mapping import Codebook

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

# rate 15: the first MUX-PSK rate on the 5x2 table above the pair ceiling
RATE_15 = BIG_CODEBOOK.replace("mod_order: 32", "mod_order: 64")

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

# square QAM needs an even power-of-two order
NON_SQUARE_QAM = """\
scheme: diversity
diversity_constellation: qam
mod_order: 8
n_elements: 16
n_rx: 4
n_active: 2
snr_db: [0]
trials: 200
"""

# validates, but its 2^30 codewords would need gigabytes before a bound
RATE_30 = """
scheme: mux_psk
n_elements: 64
n_rx: 8
n_active: 4
mod_order: 64
snr_db: [0]
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

    @pytest.mark.parametrize(
        "line",
        [
            'n_rx: "5"', "n_rx: 5.5", "n_rx: null", "symbol_energy: abc",
            'max_bit_errors: "9"', "seed: abc", "seed: -1", "trials: 1.5", "stagger: maybe",
            "n_active: true", "symbol_energy: true", "stagger: 1",
            "symbol_energy: .nan", "symbol_energy: .inf",
            "combination_table: [[1.5, 3], [1, 4], [1, 5], [2, 3], [2, 4], [2, 5], [3, 4], [3, 5]]",
        ],
    )
    def test_mistyped_value_exits_two(self, tmp_path, capsys, line):
        key = line.split(":")[0]
        text = (CONFIG_DIR / "apsk8_n64.yaml").read_text().splitlines()
        path = tmp_path / "typed.yaml"
        path.write_text("\n".join([t for t in text if not t.startswith(key)] + [line]) + "\n")
        assert main(["validate-config", "-c", str(path)]) == 2
        assert key in capsys.readouterr().err

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

    @pytest.mark.parametrize("text", [GOOD_CONFIG, DIVERSITY_APSK], ids=["rgssk", "diversity-apsk"])
    def test_snr_limit_runs_without_warnings(self, tmp_path, text):
        """Both engines run at minus and plus the SNR limit with every warning
        an error."""
        path = tmp_path / "limit.yaml"
        grid = f"snr_db: [{-_SNR_LIMIT_DB}, {_SNR_LIMIT_DB}]"
        path.write_text(re.sub(r"snr_db: \[.*\]", grid, text))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            argv = ["simulate", "-c", str(path), "-o", str(tmp_path / "o"), "--with-theory",
                    "--label", "limit"]
            assert main(argv) == 0
        with open(tmp_path / "o" / "limit.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [float(r["snr_db"]) for r in rows] == [-_SNR_LIMIT_DB, _SNR_LIMIT_DB]
        low, high = (float(r["theory_bound"]) for r in rows)
        assert low > high >= 0.0
        assert float(rows[1]["ber"]) == 0.0

    def test_seed_override(self, good_config, tmp_path):
        out = tmp_path / "results"
        main(["simulate", "-c", str(good_config), "-o", str(out), "--seed", "77"])
        summary = json.loads((out / "summary.json").read_text())
        assert summary["curves"][0]["config"]["seed"] == 77

    @pytest.mark.parametrize("command", ["simulate", "theory", "validate-config"])
    def test_negative_seed_exits_two(self, good_config, tmp_path, capsys, command):
        argv = [command, "-c", str(good_config), "--seed", "-1"]
        if command != "validate-config":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "seed must be non-negative" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()


class TestTheoryCommand:
    def test_writes_theory_curve(self, good_config, tmp_path):
        out = tmp_path / "results"
        assert main(["theory", "-c", str(good_config), "-o", str(out)]) == 0
        with open(out / "rgssk_theory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert all(r["flag"] == "theory" for r in rows)
        assert all(r["ber"] == "" for r in rows)

    def test_enumeration_refusal_exit_code(self, tmp_path, capsys):
        path = tmp_path / "rate15.yaml"
        path.write_text(RATE_15)
        assert main(["theory", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "exceed the ceiling" in capsys.readouterr().err

    def test_refusal_comes_before_the_codebook(self, tmp_path, monkeypatch, capsys):
        """A config that validates but whose codebook alone needs gigabytes
        (rate 30) is refused from its rate, before any codebook is built."""
        def no_codebook(self, config):
            raise AssertionError("codebook built before the pair ceiling was checked")

        monkeypatch.setattr(Codebook, "__init__", no_codebook)
        path = tmp_path / "rate30.yaml"
        path.write_text(RATE_30)
        assert main(["validate-config", "-c", str(path)]) == 0
        assert "rate=30" in capsys.readouterr().out
        assert main(["theory", "-c", str(path), "-o", str(tmp_path / "out")]) == 3
        assert "exceed the ceiling" in capsys.readouterr().err
        manifest = tmp_path / "rate30_manifest.yaml"
        manifest.write_text(RATE_30 + "curves:\n  - {label: r30}\n")
        code = main(
            ["compare", "--kind", "theory", "-c", str(manifest), "-o", str(tmp_path / "cmp")]
        )
        assert code == 3

    @pytest.mark.parametrize("value", ["0", "-1"])
    @pytest.mark.parametrize("command", ["simulate", "compare"])
    def test_bad_worker_count_exits_two(self, good_config, tmp_path, capsys, command, value):
        argv = [command, "-c", str(good_config), "-o", str(tmp_path / "out"), "--workers", value]
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        assert "--workers: must be at least 1" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_rate_13_runs_with_default_flags(self, tmp_path):
        path = tmp_path / "big.yaml"
        path.write_text(BIG_CODEBOOK)
        out = tmp_path / "out"
        assert main(["theory", "-c", str(path), "-o", str(out)]) == 0
        with open(out / "mux_psk_theory.csv") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 1 and float(rows[0]["theory_bound"]) > 0
        summary = json.loads((out / "summary.json").read_text())
        meta = summary["curves"][0]["meta"]
        assert meta["evaluated_pairs"] + meta["skipped_pairs"] == 8192 * 8191
        assert "policy" not in meta


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

    def test_theory_diagnostics_in_summary(self, tmp_path):
        """Pair counts and layout signatures land in summary.json, not the CSV."""
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST)
        out = tmp_path / "cmp"
        assert main(["compare", "-c", str(path), "-o", str(out), "--kind", "theory",
                     "--mode", "free"]) == 0
        curves = json.loads((out / "summary.json").read_text())["curves"]
        assert [c["label"] for c in curves] == ["n16", "n32"]
        for curve in curves:
            meta = curve["meta"]
            # 4 single-symbol rows: 12 ordered pairs; the rows match in
            # both, the first, the second or no position
            assert meta["evaluated_pairs"] == 12
            assert meta["skipped_pairs"] == 0
            assert meta["signatures"] == 4
            assert meta["skipped_pair_fraction"] == 0.0
        with open(out / "n16.csv", newline="") as fh:
            header = next(csv.reader(fh))
        assert header == [
            "snr_db", "trials", "bit_errors", "spatial_bit_errors",
            "symbol_bit_errors", "ber", "theory_bound", "flag",
        ]

    def test_equal_rate_violation_exits_two(self, tmp_path):
        path = tmp_path / "manifest.yaml"
        path.write_text(
            "n_elements: 64\nn_rx: 5\nn_active: 2\nsnr_db: [0]\n"
            "curves:\n"
            "  - {label: a, scheme: mux_psk, mod_order: 4}\n"
            "  - {label: b, scheme: mux_psk, mod_order: 8}\n"
        )
        assert main(["compare", "-c", str(path), "-o", str(tmp_path / "o")]) == 2


# labels whose output files would overwrite another output or that no file
# system accepts: a NUL byte, or <label>_theory.csv over 255 bytes
UNUSABLE_LABELS = ["plotdata", "a\0b", "x" * 300, "x" * 245]
UNUSABLE_IDS = ["plotdata", "nul", "300-bytes", "245-bytes"]


def files_under(path):
    return sorted(p.relative_to(path) for p in path.rglob("*"))


class TestRefusalsWriteNothing:
    """Each refusal exits 2 before any run, and no file appears anywhere."""

    @pytest.mark.parametrize("grid", ["[.nan, 0]", "[.inf]"])
    @pytest.mark.parametrize("command", ["validate-config", "simulate", "theory"])
    def test_non_finite_snr(self, tmp_path, capsys, command, grid):
        path = tmp_path / "snr.yaml"
        path.write_text(GOOD_CONFIG.replace("snr_db: [-14, -10]", f"snr_db: {grid}"))
        argv = [command, "-c", str(path)]
        if command != "validate-config":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert "snr_db values must be finite" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("snr.yaml")]

    @pytest.mark.parametrize(
        "grid,message",
        [
            ("[4000]", "must lie within"),
            ("[-4000]", "must lie within"),
            ("[1.0001, 1.0004]", "same 0.001 dB step"),
        ],
    )
    @pytest.mark.parametrize("command", ["validate-config", "simulate", "theory"])
    def test_snr_the_noise_model_cannot_take(self, tmp_path, capsys, command, grid, message):
        """Past the SNR limit the noise model overflows; closer than 0.001 dB
        two points would share every random draw."""
        path = tmp_path / "snr.yaml"
        path.write_text(GOOD_CONFIG.replace("snr_db: [-14, -10]", f"snr_db: {grid}"))
        argv = [command, "-c", str(path)]
        if command != "validate-config":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("snr.yaml")]

    @pytest.mark.parametrize(
        "grid,message",
        [
            ('["5", true]', "snr_db values must be numbers"),
            ('{start: "0", stop: 1, step: 1}', "snr_db values must be numbers"),
            ("{start: 0, stop: 2, step: 1, count: 9}", "unknown snr_db range keys"),
        ],
        ids=["string-and-boolean", "string-start", "extra-range-key"],
    )
    @pytest.mark.parametrize("command", ["validate-config", "simulate", "theory"])
    def test_snr_of_the_wrong_type_or_keys(self, tmp_path, capsys, command, grid, message):
        path = tmp_path / "snr.yaml"
        path.write_text(GOOD_CONFIG.replace("snr_db: [-14, -10]", f"snr_db: {grid}"))
        argv = [command, "-c", str(path)]
        if command != "validate-config":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("snr.yaml")]

    @pytest.mark.parametrize(
        "text,message",
        [
            (NON_SQUARE_QAM, "diversity qam needs a square mod_order"),
            (
                GOOD_CONFIG.replace(
                    "snr_db: [-14, -10]", "snr_db: {start: 0, stop: 1, step: 0.000001}"
                ),
                "same 0.001 dB step",
            ),
        ],
        ids=["qam8", "million-point-range"],
    )
    @pytest.mark.parametrize("command", ["validate-config", "simulate", "theory"])
    def test_config_no_run_can_take(self, tmp_path, capsys, command, text, message):
        """Non-square QAM would fail in the constellation after validation;
        a range finer than the random streams is refused before its points
        are built."""
        path = tmp_path / "cfg.yaml"
        path.write_text(text)
        argv = [command, "-c", str(path)]
        if command != "validate-config":
            argv += ["-o", str(tmp_path / "out")]
        assert main(argv) == 2
        assert message in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("cfg.yaml")]

    def test_manifest_with_non_square_qam(self, tmp_path, capsys):
        """The refusal comes before the valid first curve runs."""
        path = tmp_path / "manifest.yaml"
        path.write_text(
            MANIFEST
            + "  - {label: qam8, scheme: diversity, mod_order: 8, diversity_constellation: qam}\n"
        )
        argv = ["compare", "--kind", "theory", "--mode", "free", "-c", str(path)]
        assert main(argv + ["-o", str(tmp_path / "o")]) == 2
        assert "diversity qam" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("manifest.yaml")]

    @pytest.mark.parametrize("label", ["../x", "../../up", "a/b", ".", ".."])
    @pytest.mark.parametrize("command", ["simulate", "theory"])
    def test_label_outside_output(self, good_config, tmp_path, capsys, command, label):
        out = tmp_path / "deep" / "a" / "out"
        with pytest.raises(SystemExit) as exc:
            main([command, "-c", str(good_config), "-o", str(out), "--label", label])
        assert exc.value.code == 2
        assert "--label" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("config.yaml")]

    @pytest.mark.parametrize("label", ["../escaped", "a/b"])
    def test_manifest_label_outside_output(self, tmp_path, capsys, label):
        path = tmp_path / "manifest.yaml"
        # the first curve is valid: the refusal still comes before any output
        path.write_text(MANIFEST.replace("{label: n32,", f"{{label: '{label}',"))
        argv = ["compare", "--kind", "theory", "--mode", "free", "-c", str(path)]
        assert main(argv + ["-o", str(tmp_path / "o")]) == 2
        assert f"label {label!r}" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("manifest.yaml")]

    @pytest.mark.parametrize("label", UNUSABLE_LABELS, ids=UNUSABLE_IDS)
    @pytest.mark.parametrize("command", ["simulate", "theory"])
    def test_label_no_file_can_take(self, good_config, tmp_path, capsys, command, label):
        with pytest.raises(SystemExit) as exc:
            main([command, "-c", str(good_config), "-o", str(tmp_path / "o"), "--label", label])
        assert exc.value.code == 2
        assert "--label" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("config.yaml")]

    @pytest.mark.parametrize("label", ["null", "true"])
    @pytest.mark.parametrize("command", ["validate-config", "compare"])
    def test_manifest_label_null_or_boolean(self, tmp_path, capsys, command, label):
        """The refusal comes before the valid first curve runs."""
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST.replace("{label: n32,", f"{{label: {label},"))
        argv = [command, "-c", str(path)]
        if command == "compare":
            argv += ["--kind", "theory", "--mode", "free", "-o", str(tmp_path / "o")]
        assert main(argv) == 2
        assert "manifest label must be a name" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("manifest.yaml")]

    @pytest.mark.parametrize("label", UNUSABLE_LABELS, ids=UNUSABLE_IDS)
    def test_manifest_label_no_file_can_take(self, tmp_path, capsys, label):
        """``plotdata`` would lose its curve's CSV to ``plotdata.csv``; a NUL
        byte or a name over 255 bytes would fail after earlier curves' files."""
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST.replace("{label: n32,", f"{{label: {json.dumps(label)},"))
        argv = ["compare", "--kind", "theory", "--mode", "free", "-c", str(path)]
        assert main(argv + ["-o", str(tmp_path / "o")]) == 2
        assert "config error: label" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("manifest.yaml")]

    @pytest.mark.parametrize("target", ["0", "-1", "nan", "2", "1"])
    def test_target_ber_outside_unit_interval(self, tmp_path, capsys, target):
        path = tmp_path / "manifest.yaml"
        path.write_text(MANIFEST)
        argv = ["compare", "--kind", "theory", "--mode", "free", "-c", str(path),
                "-o", str(tmp_path / "o"), "--target-ber", target]
        assert main(argv) == 2
        assert "target_ber" in capsys.readouterr().err
        assert files_under(tmp_path) == [Path("manifest.yaml")]


def test_longest_label_is_written(good_config, tmp_path):
    """The longest label the check admits names a file the file system takes."""
    label = "x" * 244
    assert main(["theory", "-c", str(good_config), "-o", str(tmp_path), "--label", label]) == 0
    assert (tmp_path / f"{label}_theory.csv").is_file()


def test_parser_built_once_per_process(good_config, capsys):
    """Repeated calls share one parser, and parsing leaves it unchanged:
    a later call prints the same help and the same usage error."""
    build_parser.cache_clear()
    outputs = []
    for _ in range(2):
        with pytest.raises(SystemExit) as help_exit:
            main(["simulate", "--help"])
        with pytest.raises(SystemExit) as error_exit:
            main(["simulate", "-c", str(good_config), "--workers", "two"])
        assert main(["validate-config", "-c", str(good_config)]) == 0
        assert (help_exit.value.code, error_exit.value.code) == (0, 2)
        outputs.append(capsys.readouterr())
    assert outputs[0] == outputs[1]
    assert build_parser.cache_info().misses == 1


def test_readme_command_lines_parse():
    """Every ``ris-rgsm`` line of README's "Command line" block parses,
    optional parts included: brackets are dropped and a placeholder ``N``
    stands for 1.  Together the lines show every command."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1].split("```", 2)[1]
    commands = set()
    for line in block.splitlines():
        if not line.startswith("ris-rgsm "):
            continue
        words = line.split("#", 1)[0].replace("[", " ").replace("]", " ").split()[1:]
        args = build_parser().parse_args(["1" if word == "N" else word for word in words])
        commands.add(args.command)
    assert commands == {"validate-config", "simulate", "theory", "compare"}


def test_readme_library_surface_resolves():
    """Every name of README's "Library surface" section resolves: each ``rr.``
    name of the example, and each backticked name or call of the prose, is an
    attribute of ``ris_rgsm`` or of the module or class it is written with.
    A plain argument of a call is a parameter of the function called, and a
    bare word may be a parameter of any of those functions."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    section = readme.split("## Library surface", 1)[1].split("\n## ", 1)[0]
    _, example, prose = section.split("```", 2)
    names, calls = set(re.findall(r"\brr\.(\w+)", example)), []
    for span in re.findall(r"`([^`]+)`", prose):
        match = re.fullmatch(r"(?:ris_rgsm\.)?([A-Za-z_][\w.]*)(?:\((.*)\))?", span, re.S)
        if match:
            names.add(match.group(1))
            args = [a.strip() for a in (match.group(2) or "").split(",")]
            calls += [(match.group(1), a) for a in args if a.isidentifier()]
    found, parameters = {}, set()
    for name in names:
        target = functools.reduce(lambda obj, part: getattr(obj, part, None), name.split("."), ris_rgsm)
        if target is not None:
            found[name] = target
            if inspect.isfunction(target):
                parameters.update(inspect.signature(target).parameters)
    assert sorted(names - found.keys() - parameters) == []
    for name, arg in calls:
        assert arg in inspect.signature(found[name]).parameters, f"{name}({arg})"
    assert {"detector.ml_argmin", "detector.hypothesis_matrix", "transmit"} <= found.keys()


@pytest.mark.parametrize("label", ["[a, b]", "{x: 1}"], ids=["list", "mapping"])
@pytest.mark.parametrize("command", ["validate-config", "simulate", "theory", "compare"])
def test_list_or_mapping_label_exits_two(tmp_path, capsys, command, label):
    """A label that is a list or a mapping names no file; the manifest is
    refused before its valid first curve runs."""
    path = tmp_path / "manifest.yaml"
    path.write_text(MANIFEST.replace("{label: n32,", f"{{label: {label},"))
    argv = [command, "-c", str(path)]
    if command != "validate-config":
        argv += ["-o", str(tmp_path / "o")]
    assert main(argv) == 2
    assert "config error" in capsys.readouterr().err
    assert files_under(tmp_path) == [Path("manifest.yaml")]
