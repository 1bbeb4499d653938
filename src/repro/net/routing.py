"""Prefix deaggregation helpers (Figure 8(b) size analysis).

The paper deaggregates every announcement into /24s so AS sizes are
comparable regardless of how aggregated their announcements are.
"""

from __future__ import annotations

from repro.net.ipv4 import Prefix


def deaggregate(prefixes: list[Prefix]) -> list[Prefix]:
    """Split arbitrary prefixes into the equivalent list of /24s."""
    result: list[Prefix] = []
    for prefix in prefixes:
        if prefix.length > 24:
            raise ValueError(
                f"cannot deaggregate {prefix} (longer than /24)"
            )
        result.extend(Prefix(base, 24) for base in prefix.slash24_bases())
    return result
