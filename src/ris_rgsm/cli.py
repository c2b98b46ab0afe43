"""Command-line driver: simulate, theory, compare, validate-config.

Exit codes: 0 on success, 2 on configuration errors, 3 when the union bound
is refused above the pair ceiling (``theory.PAIR_CEILING``).
"""

from __future__ import annotations

import argparse
import functools
import sys
from pathlib import Path

from .config import (
    ConfigError,
    SweepManifest,
    _checked_label,
    load_config,
    load_config_or_manifest,
    load_manifest,
)
from .simulate import (
    compare,
    merge_theory,
    run_simulation,
    run_theory,
    write_curve_csv,
    write_gap_report,
    write_plot_data,
    write_summary_json,
)
from .theory import EnumerationRefusedError

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_REFUSED = 3


def _add_common(parser: argparse.ArgumentParser, *, output: bool = True) -> None:
    parser.add_argument("-c", "--config", required=True, help="YAML config file")
    if output:
        parser.add_argument("-o", "--output", default="results", help="output directory")
    parser.add_argument("--seed", type=int, default=None, help="override the config seed")


def _int_at_least(low: int):
    """argparse type: an integer no smaller than ``low`` (else exit 2)."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


def _label(text: str) -> str:
    """argparse type: a curve label (else exit 2); empty leaves the default name."""
    try:
        return _checked_label(text) if text else text
    except ConfigError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI's parser, built once per process (parsing does not change it)."""
    parser = argparse.ArgumentParser(
        prog="ris-rgsm",
        description="RIS-aided receive generalized spatial modulation: "
        "Monte Carlo BER sweeps and analytical union bounds.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", help="Monte Carlo BER sweep")
    _add_common(p_sim)
    p_sim.add_argument(
        "--workers", type=_int_at_least(1), default=1, help="parallel trial workers"
    )
    p_sim.add_argument("--label", type=_label, default="", help="curve label")
    p_sim.add_argument(
        "--with-theory", action="store_true", help="attach the union bound to each point"
    )

    p_theory = sub.add_parser("theory", help="union-bound sweep")
    _add_common(p_theory)
    p_theory.add_argument("--label", type=_label, default="", help="curve label")

    p_cmp = sub.add_parser("compare", help="run a manifest of labeled curves")
    _add_common(p_cmp)
    p_cmp.add_argument("--workers", type=_int_at_least(1), default=1)
    p_cmp.add_argument("--kind", choices=["sim", "theory", "both"], default="both")
    p_cmp.add_argument("--mode", choices=["equal-rate", "free"], default="equal-rate")
    p_cmp.add_argument("--target-ber", type=float, default=1e-3)

    p_val = sub.add_parser(
        "validate-config", help="check a config or manifest and print one summary line per curve"
    )
    _add_common(p_val, output=False)
    return parser


def _outdir(args) -> Path:
    out = Path(args.output)
    out.mkdir(parents=True, exist_ok=True)
    return out


def _load(args, loader):
    loaded = loader(args.config)
    if args.seed is None:
        return loaded
    if hasattr(loaded, "with_overrides"):
        return loaded.with_overrides(seed=args.seed)
    entries = tuple((label, cfg.with_overrides(seed=args.seed)) for label, cfg in loaded.entries)
    return type(loaded)(entries=entries)


def _cmd_simulate(args) -> int:
    config = _load(args, load_config)
    curve = run_simulation(config, workers=args.workers, label=args.label)
    if args.with_theory:
        theory = run_theory(config, label=args.label)
        curve = merge_theory(curve, theory)
    out = _outdir(args)
    name = curve.label or "curve"
    write_curve_csv(curve, out / f"{name}.csv")
    write_summary_json([curve], out / "summary.json")
    print(f"wrote {out / (name + '.csv')}")
    return EXIT_OK


def _cmd_theory(args) -> int:
    config = _load(args, load_config)
    curve = run_theory(config, label=args.label)
    out = _outdir(args)
    name = (curve.label or "curve") + "_theory"
    write_curve_csv(curve, out / f"{name}.csv")
    write_summary_json([curve], out / "summary.json")
    print(f"wrote {out / (name + '.csv')}")
    return EXIT_OK


def _cmd_compare(args) -> int:
    manifest = _load(args, load_manifest)
    result = compare(
        manifest,
        mode=args.mode,
        kind=args.kind,
        target_ber=args.target_ber,
        workers=args.workers,
    )
    out = _outdir(args)
    for curve in result.curves:
        write_curve_csv(curve, out / f"{curve.label}.csv")
    write_plot_data(result.curves, out / "plotdata.csv")
    write_gap_report(result, out / "gaps.json")
    write_summary_json(result.curves, out / "summary.json", extra={"target_ber": result.target_ber})
    for gap in result.gaps:
        shown = "n/a" if gap.gap_db is None else f"{gap.gap_db:+.2f} dB"
        print(f"{gap.label_a} vs {gap.label_b} @ BER {result.target_ber:g}: {shown} ({gap.basis})")
    return EXIT_OK


def _cmd_validate(args) -> int:
    loaded = _load(args, load_config_or_manifest)
    entries = loaded.entries if isinstance(loaded, SweepManifest) else [(None, loaded)]
    for label, config in entries:
        name = "" if label is None else f"label={label} "
        print(
            f"ok: {name}scheme={config.scheme.value} rate={config.rate} bpcu "
            f"spatial_bits={config.spatial_bits} group_size={config.n_group} "
            f"codebook={1 << config.rate}"
        )
    return EXIT_OK


_COMMANDS = {
    "simulate": _cmd_simulate,
    "theory": _cmd_theory,
    "compare": _cmd_compare,
    "validate-config": _cmd_validate,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except FileNotFoundError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    except EnumerationRefusedError as exc:
        print(f"enumeration refused: {exc}", file=sys.stderr)
        return EXIT_REFUSED


if __name__ == "__main__":
    sys.exit(main())
