"""Seeded corruption events for persisted artifacts.

The loss model (:mod:`repro.faults.transport`) breaks records *in
flight*; this module breaks what has already been written — checkpoint
files on disk, session-log lines in an export stream, built
``index.sqlite`` artifacts.  Like every other fault, the events are
drawn from seed-derived :class:`~repro.util.rng.RngTree` streams keyed
by artifact and save event, so the same seed corrupts the same bytes
every run and the simulation's own record streams are never perturbed.

This module must not import :mod:`repro.config` (the config module
embeds :class:`~repro.faults.plan.FaultProfile`, which carries our
:class:`~repro.faults.plan.IntegrityFaults` knobs).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

from repro import telemetry
from repro.faults.plan import IntegrityFaults
from repro.util.rng import RngTree


def _mangle_line(line: str, rng: random.Random) -> str:
    """Damage one line: truncate it, or flip one character."""
    if not line:
        return line
    if rng.random() < 0.5:
        return line[: rng.randrange(0, len(line))]
    index = rng.randrange(len(line))
    replacement = "~" if line[index] != "~" else "#"
    return line[:index] + replacement + line[index + 1 :]


@dataclass(frozen=True)
class LogCorruptor:
    """Mangles, duplicates and reorders session-log lines on export.

    Applied by :func:`repro.honeynet.io.write_jsonl` *after* the sidecar
    manifest is computed over the clean lines — the manifest records
    what the writer meant, the file records what the fault model let
    through, and the reader reconciles the two.
    """

    faults: IntegrityFaults
    tree: RngTree

    def corrupt_lines(self, lines: list[str]) -> list[str]:
        """The on-disk line sequence for the given clean lines."""
        rng = self.tree.rand()
        faults = self.faults
        out: list[str] = []
        for line in lines:
            roll = rng.random()
            if roll < faults.line_mangle_probability:
                out.append(_mangle_line(line, rng))
                telemetry.count("integrity.injected.mangled")
            elif roll < (
                faults.line_mangle_probability + faults.line_duplicate_probability
            ):
                out.append(line)
                out.append(line)
                telemetry.count("integrity.injected.duplicated")
            else:
                out.append(line)
        if faults.line_reorder_probability > 0.0:
            index = 0
            while index < len(out) - 1:
                if rng.random() < faults.line_reorder_probability:
                    out[index], out[index + 1] = out[index + 1], out[index]
                    telemetry.count("integrity.injected.reordered")
                    index += 2
                else:
                    index += 1
        return out


@dataclass(frozen=True)
class CheckpointCorruptor:
    """Bit-flips or truncates checkpoint files after they are saved."""

    probability: float
    tree: RngTree

    def maybe_corrupt(self, path: Path | str, key: int) -> bool:
        """Corrupt the file at ``path`` with the configured probability.

        ``key`` identifies the save event (the resume cursor's ordinal),
        so the decision is independent of how the run reached this save.
        Returns True when the file was damaged.
        """
        rng = self.tree.child(int(key)).rand()
        if rng.random() >= self.probability:
            return False
        corrupt_file(Path(path), rng)
        telemetry.count("checkpoint.corruptions")
        return True


#: The damage modes :class:`IndexCorruptor` can apply to an index file.
INDEX_CORRUPTION_MODES = ("bitflip", "truncate", "drop-rows")

#: SQLite's default page size — bit flips target whole pages so damage
#: lands where ``PRAGMA quick_check`` (or a failed read) can find it.
_SQLITE_PAGE_SIZE = 4096


@dataclass(frozen=True)
class IndexCorruptor:
    """Damages built ``index.sqlite`` artifacts after a faithful write.

    Three modes, covering the store's distinct failure surfaces:

    * ``bitflip`` — flip several bits inside one page (media decay; may
      land in free space, so detection is *not* guaranteed — queries
      must still answer correctly either way);
    * ``truncate`` — cut the file short (torn write / lost tail);
    * ``drop-rows`` — delete rows via SQL so the file stays a perfectly
      healthy database that silently *disagrees with its shards* — the
      desync only the index-audit cross-check can catch.

    Like every corruptor, decisions come from a seed-derived
    :class:`~repro.util.rng.RngTree` keyed by artifact, so the same seed
    damages the same index the same way every run, and a zero
    probability leaves fault-free runs untouched.  ``mode=None`` lets
    the stream pick; a fixed mode makes the damage reproducible by name
    (the CLI's ``--index-mode``).
    """

    probability: float
    tree: RngTree
    mode: str | None = None

    def __post_init__(self) -> None:
        if self.mode is not None and self.mode not in INDEX_CORRUPTION_MODES:
            known = ", ".join(INDEX_CORRUPTION_MODES)
            raise ValueError(
                f"unknown index corruption mode {self.mode!r} (known: {known})"
            )

    def maybe_corrupt(self, path: Path | str, key: int | str) -> str | None:
        """Corrupt the index at ``path`` with the configured probability.

        ``key`` identifies the build event (e.g. the export ordinal), so
        the decision is independent of how the run reached this build.
        Returns the mode applied, or ``None`` when the index survives.
        """
        rng = self.tree.child(key).rand()
        if rng.random() >= self.probability:
            return None
        mode = self.mode or rng.choice(INDEX_CORRUPTION_MODES)
        corrupt_index(Path(path), mode, rng)
        telemetry.count("store.corruptions")
        telemetry.count(f"store.corruptions.{mode}")
        return mode


def corrupt_index(path: Path, mode: str, rng: random.Random) -> None:
    """Apply one named damage mode to the index file at ``path``."""
    if mode == "drop-rows":
        import sqlite3

        try:
            connection = sqlite3.connect(path)
            try:
                with connection:
                    total = connection.execute(
                        "SELECT COUNT(*) FROM sessions"
                    ).fetchone()[0]
                    if total == 0:
                        return
                    victims = max(1, total // 4)
                    connection.execute(
                        "DELETE FROM sessions WHERE rowid IN ("
                        "SELECT rowid FROM sessions ORDER BY session_id "
                        f"LIMIT {victims})"
                    )
            finally:
                connection.close()
            return
        except sqlite3.Error:
            # Not (or no longer) a valid database — degrade to raw damage.
            mode = "bitflip"
    data = bytearray(path.read_bytes())
    if len(data) < 2:
        return
    if mode == "truncate":
        path.write_bytes(bytes(data[: rng.randrange(1, len(data))]))
        return
    # bitflip: scatter a handful of flips across one page.
    page_count = max(1, len(data) // _SQLITE_PAGE_SIZE)
    page = rng.randrange(page_count)
    start = page * _SQLITE_PAGE_SIZE
    end = min(len(data), start + _SQLITE_PAGE_SIZE)
    for _ in range(8):
        index = rng.randrange(start, end)
        data[index] ^= 1 << rng.randrange(8)
    path.write_bytes(bytes(data))


def corrupt_file(path: Path, rng: random.Random) -> None:
    """Damage ``path`` in place: truncate it, or flip one bit."""
    data = bytearray(path.read_bytes())
    if len(data) < 2:
        return
    if rng.random() < 0.5:
        path.write_bytes(bytes(data[: rng.randrange(1, len(data))]))
    else:
        index = rng.randrange(len(data))
        data[index] ^= 1 << rng.randrange(8)
        path.write_bytes(bytes(data))


def build_log_corruptor(
    faults: IntegrityFaults | None, tree: RngTree
) -> LogCorruptor | None:
    """A line corruptor for one export stream, or None when inert."""
    if faults is None or not faults.corrupts_lines:
        return None
    return LogCorruptor(faults=faults, tree=tree)


def build_checkpoint_corruptor(
    faults: IntegrityFaults | None, tree: RngTree
) -> CheckpointCorruptor | None:
    """A checkpoint corruptor for one run, or None when inert."""
    if faults is None or faults.checkpoint_corruption_probability <= 0.0:
        return None
    return CheckpointCorruptor(
        probability=faults.checkpoint_corruption_probability, tree=tree
    )


def build_index_corruptor(
    faults: IntegrityFaults | None, tree: RngTree, *, mode: str | None = None
) -> IndexCorruptor | None:
    """An index corruptor for one run, or None when inert."""
    if faults is None or faults.index_corruption_probability <= 0.0:
        return None
    return IndexCorruptor(
        probability=faults.index_corruption_probability, tree=tree, mode=mode
    )
