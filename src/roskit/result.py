"""Computed-value container shared by every numerical routine."""

from __future__ import annotations

import math
from dataclasses import dataclass, field


@dataclass(frozen=True)
class ConstantResult:
    """A computed constant together with how it was obtained.

    value        -- the number itself
    method       -- short tag naming the evaluation route, e.g. "closed_form",
                    "cp_series/cumulant", "cp_series/fourier",
                    "cp_series/exact_walk", "exact_enum", "sum_fourier",
                    "grid", and the witness's "sum_fourier/two_block"
    error_bound  -- rigorous bound on |value - truth|
    diagnostics  -- every interesting intermediate of the formula used
                    (lambda, truncation depth, prefactor, branch values, ...)
    """

    value: float
    method: str
    error_bound: float = 0.0
    diagnostics: dict = field(default_factory=dict)

    def __post_init__(self):
        if not math.isfinite(self.error_bound):
            raise ValueError("error_bound must be finite")

    def to_record(self) -> dict:
        """Flat key/value record for serialization (diagnostics inlined)."""
        rec = {
            "value": float(self.value),
            "method": self.method,
            "error_bound": float(self.error_bound),
        }
        for key, val in self.diagnostics.items():
            rec[str(key)] = _plain(val)
        return rec


def _plain(val):
    if isinstance(val, float):
        return float(val)
    if isinstance(val, bool):
        return bool(val)
    if isinstance(val, int):
        return int(val)
    if isinstance(val, (list, tuple)):
        return [_plain(v) for v in val]
    if isinstance(val, dict):
        return {str(k): _plain(v) for k, v in val.items()}
    if hasattr(val, "item"):  # numpy scalars
        return val.item()
    return str(val)
