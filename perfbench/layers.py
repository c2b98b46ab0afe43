"""Per-layer metrics of a traced run, computed from its spans.

Each metric names the end-to-end metric it should move (see README.md).  A
metric whose wrapped function no longer exists is reported as missing
(``None``), never as zero; a layer that does no work on a workload reports 0.
"""

from __future__ import annotations

import statistics

from spans import Target
from workloads import PROBE_MISSING

SETUP, PASS, PROBE = "bench.setup", "bench.pass", "bench.probe"


def _annotate_codebook(span, args, result):
    span.attrs["size"] = int(args[0].size)


def _annotate_block(span, args, result):
    span.attrs["trials"] = int(result[0])


def _annotate_bound(span, args, result):
    span.attrs["evaluated"] = int(result.evaluated_pairs)
    span.attrs["skipped"] = int(result.skipped_pairs)


TARGETS = (
    Target("ris_rgsm.config", "load_manifest", "config.load"),
    Target("ris_rgsm.config", "load_config", "config.load"),
    Target("ris_rgsm.mapping", "Codebook.__init__", "mapping.codebook", _annotate_codebook),
    Target("ris_rgsm.simulate", "run_simulation", "simulate.run_simulation"),
    Target("ris_rgsm.simulate", "_block_job", "simulate.block", _annotate_block),
    Target("ris_rgsm.simulate", "run_theory", "simulate.run_theory"),
    Target("ris_rgsm.theory", "union_bound_ber", "theory.union_bound", _annotate_bound),
    Target("ris_rgsm.cli", "main", "cli.main"),
    Target("ris_rgsm.simulate", "write_curve_csv", "cli.write"),
    Target("ris_rgsm.simulate", "write_plot_data", "cli.write"),
    Target("ris_rgsm.simulate", "write_gap_report", "cli.write"),
    Target("ris_rgsm.simulate", "write_summary_json", "cli.write"),
)

# name -> (unit, wrapped or probed functions it needs)
PER_LAYER = {
    "config.load_ms": ("ms", ["ris_rgsm.config.load_manifest"]),
    "mapping.codebook_build_ms": ("ms", ["ris_rgsm.mapping.Codebook.__init__"]),
    "mapping.codebook_size": ("count", ["ris_rgsm.mapping.Codebook.__init__"]),
    "simulate.block_us_per_trial": ("us", ["ris_rgsm.simulate._block_job"]),
    "simulate.dispatch_s": ("s", ["ris_rgsm.simulate._block_job"]),
    "simulate.blocks_run": ("count", ["ris_rgsm.simulate._block_job"]),
    "simulate.blocks_used": ("count", []),
    "simulate.block_useful_ratio": ("ratio", ["ris_rgsm.simulate._block_job"]),
    "simulate.trials_per_s": ("1/s", []),
    "channel.draw_us_per_trial": ("us", ["ris_rgsm.channel.sample_channel"]),
    "encoder.encode_us_per_trial": ("us", ["ris_rgsm.encoder.encode"]),
    "detector.transmit_us_per_trial": ("us", ["ris_rgsm.detector.transmit"]),
    "detector.equiv_us_per_trial": ("us", ["ris_rgsm.detector.precompute_equivalent_channel"]),
    "detector.hypothesis_us_per_trial": ("us", ["ris_rgsm.detector.hypothesis_matrix"]),
    "detector.metric_us_per_trial": (
        "us", ["ris_rgsm.detector.detect_ml", "ris_rgsm.detector.hypothesis_matrix"]
    ),
    "detector.count_us_per_trial": ("us", ["ris_rgsm.detector.count_bit_errors"]),
    "detector.hypothesis_bytes_per_trial": (
        "bytes-computed", ["ris_rgsm.detector.hypothesis_matrix"]
    ),
    "theory.point_ms": ("ms", ["ris_rgsm.theory.union_bound_ber"]),
    "theory.pairs_per_s": ("1/s", ["ris_rgsm.theory.union_bound_ber"]),
    "theory.evaluated_pairs": ("count", ["ris_rgsm.theory.union_bound_ber"]),
    "theory.skipped_pairs": ("count", ["ris_rgsm.theory.union_bound_ber"]),
    "cli.write_ms": ("ms", ["ris_rgsm.simulate.write_curve_csv"]),
    "trace_overhead_frac": ("ratio", []),
}

PROBE_STAGES = {
    "channel.draw_us_per_trial": "channel.draw",
    "encoder.encode_us_per_trial": "encoder.encode",
    "detector.transmit_us_per_trial": "detector.transmit",
    "detector.equiv_us_per_trial": "detector.equiv",
    "detector.hypothesis_us_per_trial": "detector.hypothesis",
    "detector.count_us_per_trial": "detector.count",
}


def _ratio(num, den, scale=1.0):
    return num / den * scale if den else 0.0


def per_layer_metrics(tracer, *, setup_reps, traced, untraced, probe) -> dict:
    """``traced``/``untraced``: (wall seconds, PassResult) of the paired passes;
    ``probe``: trial count and computed bytes of the per-trial probe."""
    setup = tracer.under(SETUP)
    passes = tracer.under(PASS)
    probe_spans = tracer.under(PROBE)

    def total(spans, name):
        return sum(s.duration for s in spans if s.name == name)

    def attr(spans, name, key):
        return sum(s.attrs.get(key, 0) for s in spans if s.name == name)

    def count(spans, name):
        return sum(1 for s in spans if s.name == name)

    n_traced = len(traced)
    blocks_run = count(passes, "simulate.block")
    blocks_used = sum(result.blocks_used for _, result in traced)
    block_s = total(passes, "simulate.block")
    bounds = count(passes, "theory.union_bound")
    bound_s = total(passes, "theory.union_bound")
    evaluated = attr(passes, "theory.union_bound", "evaluated")
    untraced_s = sum(wall for wall, _ in untraced)

    values = {
        "config.load_ms": _ratio(total(setup, "config.load"), setup_reps, 1e3),
        "mapping.codebook_build_ms": _ratio(total(setup, "mapping.codebook"), setup_reps, 1e3),
        "mapping.codebook_size": attr(setup, "mapping.codebook", "size") // max(setup_reps, 1),
        "simulate.block_us_per_trial": _ratio(block_s, attr(passes, "simulate.block", "trials"), 1e6),
        "simulate.dispatch_s": _ratio(
            sum(result.point_wall_s for _, result in traced) - block_s if blocks_run else 0.0,
            n_traced,
        ),
        "simulate.blocks_run": blocks_run,
        "simulate.blocks_used": blocks_used,
        "simulate.block_useful_ratio": _ratio(blocks_used, blocks_run),
        "simulate.trials_per_s": _ratio(sum(r.trials for _, r in untraced), untraced_s),
        "detector.metric_us_per_trial": _ratio(
            total(probe_spans, "detector.detect") - total(probe_spans, "detector.hypothesis"),
            probe["trials"],
            1e6,
        ),
        "detector.hypothesis_bytes_per_trial": _ratio(probe["hypothesis_bytes"], probe["trials"]),
        "theory.point_ms": _ratio(bound_s, bounds, 1e3),
        "theory.pairs_per_s": _ratio(evaluated, bound_s),
        "theory.evaluated_pairs": evaluated,
        "theory.skipped_pairs": attr(passes, "theory.union_bound", "skipped"),
        "cli.write_ms": _ratio(total(passes, "cli.write"), n_traced, 1e3),
        "trace_overhead_frac": (
            statistics.median(w for w, _ in traced) / statistics.median(w for w, _ in untraced) - 1.0
        ),
    }
    for metric, span_name in PROBE_STAGES.items():
        values[metric] = _ratio(total(probe_spans, span_name), probe["trials"], 1e6)

    out = {}
    for name, (unit, needs) in PER_LAYER.items():
        if name in PROBE_STAGES or name.startswith("detector."):
            needs = [*needs, PROBE_MISSING]
        value = None if any(n in tracer.missing for n in needs) else values[name]
        out[name] = {"value": value, "unit": unit}
    return out
