"""Link-level simulator and analytical BER toolkit for RIS-aided receive
generalized spatial modulation.

Bits ride on the choice of receive-antenna combination and on per-group RIS
reflection states (phase rotations, ON/OFF counts); detection is exhaustive
joint maximum likelihood; the analytical side evaluates an exponential
union bound through Gaussian quadratic-form moment generating functions.
"""

__version__ = "0.1.0"

from .config import (
    ConfigError,
    Scheme,
    SweepManifest,
    SystemConfig,
    load_config,
    load_manifest,
)
from .channel import ChannelMatrix, element_index, sample_channel, stream_rng
from .mapping import Codebook, Codeword, build_combination_table
from .encoder import EncodeError, ReflectionVector, encode
from .detector import (
    BitErrorCounts,
    EquivalentChannel,
    ReceivedVector,
    count_bit_errors,
    detect_ml,
    noise_variance,
    precompute_equivalent_channel,
    transmit,
)
from .theory import (
    Category,
    DifferenceStatistics,
    EnumerationRefusedError,
    MgfDomainError,
    PairwiseBound,
    TheoryError,
    UnionBoundResult,
    UnsupportedPairError,
    assemble_statistics,
    classify_antenna,
    mgf_quadratic_form,
    pairwise_bound,
    union_bound_ber,
)
from .simulate import (
    BerCurve,
    BerPoint,
    CompareResult,
    compare,
    merge_theory,
    run_simulation,
    run_theory,
    snr_at_ber,
    write_curve_csv,
    write_gap_report,
    write_plot_data,
    write_summary_json,
)

__all__ = [
    "__version__",
    "BerCurve",
    "BerPoint",
    "BitErrorCounts",
    "Category",
    "ChannelMatrix",
    "Codebook",
    "Codeword",
    "CompareResult",
    "ConfigError",
    "DifferenceStatistics",
    "EncodeError",
    "EnumerationRefusedError",
    "EquivalentChannel",
    "MgfDomainError",
    "PairwiseBound",
    "ReceivedVector",
    "ReflectionVector",
    "Scheme",
    "SweepManifest",
    "SystemConfig",
    "TheoryError",
    "UnionBoundResult",
    "UnsupportedPairError",
    "assemble_statistics",
    "build_combination_table",
    "classify_antenna",
    "compare",
    "count_bit_errors",
    "detect_ml",
    "element_index",
    "encode",
    "load_config",
    "load_manifest",
    "merge_theory",
    "mgf_quadratic_form",
    "noise_variance",
    "pairwise_bound",
    "precompute_equivalent_channel",
    "run_simulation",
    "run_theory",
    "sample_channel",
    "snr_at_ber",
    "stream_rng",
    "transmit",
    "union_bound_ber",
    "write_curve_csv",
    "write_gap_report",
    "write_plot_data",
    "write_summary_json",
]
