"""Output checks; every check counts towards ``attempted`` and, if it fails,
towards ``failed``."""

from __future__ import annotations

import math

# A point's error count must lie within Z_TOLERANCE standard deviations of
# the reference.  Bit errors of one trial are correlated (a wrong symbol flips
# several bits), so the binomial variance is scaled by the dispersion the
# reference run measured (variance over mean of per-block error counts,
# never below 1), and the reference's own standard error is added.
Z_TOLERANCE = 5.0
BOUND_REL_TOL = 2e-5  # the CSV prints 6 significant digits
GAP_ABS_TOL_DB = 0.01


def ber_tolerance(reference: dict, bits: int) -> tuple[float, float]:
    """Expected error count for ``bits`` bits and its allowed deviation."""
    expected = reference["ber"] * bits
    dispersion = max(reference["dispersion"], 1.0)
    ref_rel_se = math.sqrt(dispersion / max(reference["errors"], 1))
    sigma = math.sqrt(dispersion * expected + (expected * ref_rel_se) ** 2)
    return expected, Z_TOLERANCE * sigma


class Checker:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.failures: list[str] = []

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.failures.append(what)
        return ok

    def fail(self, what: str) -> None:
        self.check(False, what)

    def ber(self, what: str, bit_errors: int, bits: int, reference: dict) -> bool:
        expected, allowed = ber_tolerance(reference, bits)
        return self.check(
            bits > 0 and abs(bit_errors - expected) <= allowed,
            f"{what}: {bit_errors} bit errors in {bits} bits, "
            f"reference {expected:.1f} +- {allowed:.1f}",
        )

    def stopped_by_cap(self, what: str, point, config) -> bool:
        return self.check(
            point.bit_errors >= config.max_bit_errors or point.trials == config.trials,
            f"{what}: stopped at {point.trials} trials with {point.bit_errors} errors, "
            f"before either cap ({config.trials} trials, {config.max_bit_errors} errors)",
        )

    def close(self, what: str, actual: float | None, expected: float | None, *, rel=0.0, abs_=0.0) -> bool:
        if actual is None or expected is None:
            ok = actual is None and expected is None
        else:
            ok = abs(actual - expected) <= max(rel * abs(expected), abs_)
        return self.check(ok, f"{what}: got {actual!r}, reference {expected!r}")

    @property
    def failed_frac(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0
