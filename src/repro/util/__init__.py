"""Shared utilities: deterministic RNG trees, calendar math, text tables,
and the one lookup of a named preset."""

from collections.abc import Mapping
from typing import TypeVar

from repro.util.hashing import sha256_hex, short_hash
from repro.util.rng import RngTree, WeightedTable, derive_seed, poisson
from repro.util.text import ascii_bar, ascii_series, format_table, percentage
from repro.util.timeutils import (
    days_between,
    days_in_month,
    epoch_date,
    first_of_month,
    from_epoch,
    month_key,
    months_between,
    next_month,
    parse_month,
    to_epoch,
)

_Preset = TypeVar("_Preset")


def preset(table: Mapping[str, _Preset], name: str, family: str) -> _Preset:
    """The preset called ``name`` in a family's ``table``.

    An unknown name raises ``ValueError("unknown <family> 'name' (known:
    a, b)")``; every ``from_name`` resolves through here.
    """
    try:
        return table[name]
    except KeyError:
        known = ", ".join(sorted(table))
        raise ValueError(
            f"unknown {family} {name!r} (known: {known})"
        ) from None


__all__ = [
    "RngTree",
    "WeightedTable",
    "derive_seed",
    "poisson",
    "preset",
    "sha256_hex",
    "short_hash",
    "ascii_bar",
    "ascii_series",
    "format_table",
    "percentage",
    "days_between",
    "days_in_month",
    "epoch_date",
    "first_of_month",
    "from_epoch",
    "month_key",
    "months_between",
    "next_month",
    "parse_month",
    "to_epoch",
]
