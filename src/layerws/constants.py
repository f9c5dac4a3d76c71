"""Committed cost-bound constants.

The structures promise asymptotic bounds; the test suite asserts them with
fixed multiplicative constants, calibrated once over the full workload
matrix (1.25x the observed maxima) and then frozen in ``constants.json``.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path


@lru_cache(maxsize=None)
def _load() -> dict:
    with open(Path(__file__).with_name("constants.json"), "r", encoding="ascii") as fh:
        return json.load(fh)


def load_constants() -> dict:
    data = dict(_load())
    for field in ("search_per_lgw", "update_per_lgn", "skip_per_lgn",
                  "skip_doubled_factor", "skip_doubled_additive",
                  "amortized_flag_threshold"):
        if field not in data:
            raise KeyError(f"constants file missing {field!r}")
    return data
