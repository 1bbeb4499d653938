"""Shared utilities: deterministic RNG trees, calendar math, text tables."""

from repro.util.hashing import sha256_hex, short_hash
from repro.util.rng import RngTree, WeightedTable, derive_seed, poisson
from repro.util.text import ascii_bar, ascii_series, format_table, human_count, percentage
from repro.util.timeutils import (
    add_months,
    days_between,
    days_in_month,
    epoch_date,
    first_of_month,
    from_epoch,
    month_fraction,
    month_key,
    months_between,
    next_month,
    parse_month,
    quarter_key,
    to_epoch,
)

__all__ = [
    "RngTree",
    "WeightedTable",
    "derive_seed",
    "poisson",
    "sha256_hex",
    "short_hash",
    "ascii_bar",
    "ascii_series",
    "format_table",
    "human_count",
    "percentage",
    "add_months",
    "days_between",
    "days_in_month",
    "epoch_date",
    "first_of_month",
    "from_epoch",
    "month_fraction",
    "month_key",
    "months_between",
    "next_month",
    "parse_month",
    "quarter_key",
    "to_epoch",
]
