"""Checkpoint/resume for the orchestrator day-loop.

Every mutable piece of simulation state that influences the final
dataset lives in exactly two places: the collector (stored sessions,
dead letters, accounting counters) and each honeypot's session counter
(session ids embed it).  Everything else — populations, bots, fault
plans, per-day random streams — is a pure function of the master seed
and the calendar date, so a killed run can be resumed by restoring
those two pieces and fast-forwarding the day cursor.  The resumed run
produces a byte-identical dataset digest.

The checkpoint is one JSON document written atomically (temp file +
fsync + rename).  It embeds a fingerprint of the producing
configuration; loading it under a different configuration fails loudly
instead of silently mixing incompatible state.

Since format version 2 the checkpoint is also *self-verifying* and
*rotated*:

* every serialized session record carries a content checksum, and every
  top-level section (counters, honeypot counters, sessions, dead
  letters) carries a section checksum — a bit-flip that still parses as
  JSON is detected, not resumed from;
* each save rotates the previous generations (``run.ckpt`` →
  ``run.ckpt.1`` → ``run.ckpt.2``, keeping :data:`CHECKPOINT_GENERATIONS`
  files), and :func:`load_latest_checkpoint` resumes from the newest
  generation that validates, reporting every one it had to reject.  A
  corrupted checkpoint therefore costs re-simulated days, never a wrong
  dataset.
"""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from datetime import date
from pathlib import Path
from typing import TYPE_CHECKING

from repro.integrity.checksums import seal, section_checksum
from repro.util.fsio import atomic_write_text
from repro.util.hashing import sha256_hex

# NOTE: repro.honeynet.io is imported inside the (de)serialization
# functions: importing it at module level would run the repro.honeynet
# package __init__, which reaches repro.config — and repro.config
# imports this package to embed FaultProfile.

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from repro.config import SimulationConfig
    from repro.faults.corruption import CheckpointCorruptor
    from repro.honeynet.collector import Collector
    from repro.honeynet.deployment import Honeynet

#: Format version written into every checkpoint.
CHECKPOINT_VERSION = 2

#: How many checkpoint generations are kept on disk (newest first:
#: ``path``, ``path.1``, ``path.2``).
CHECKPOINT_GENERATIONS = 3

#: Counter names serialized from / restored into the collector.
_COUNTER_KEYS = (
    "generated",
    "dropped_outage",
    "dropped_sensor_down",
    "retried",
    "deduplicated",
    "dead_lettered",
    "quarantined",
)

#: Admission-gate counters.  Serialized only when nonzero, so a run
#: with no gate (or one that never engaged) writes byte-identical
#: checkpoints to the pre-overload format; restore tolerates absence.
_OVERLOAD_COUNTER_KEYS = ("admitted", "shed", "deferred")

#: Document sections covered by per-section checksums.
_SECTIONS = ("honeypot_counters", "counters", "sessions", "dead_letters")


class CheckpointError(ValueError):
    """Raised for malformed, incompatible or mismatched checkpoints.

    Carries the offending ``path`` and a stable ``reason`` slug
    (``unreadable``, ``unsupported-version``, ``section-checksum``,
    ``config-mismatch``, ``malformed``) so recovery code can tell a
    corrupt generation (skippable) from a config mismatch (fatal).
    """

    def __init__(
        self,
        message: str,
        *,
        path: Path | str | None = None,
        reason: str | None = None,
    ) -> None:
        super().__init__(message)
        self.path = str(path) if path is not None else None
        self.reason = reason


def config_fingerprint(config: "SimulationConfig") -> str:
    """A stable digest of every config field that shapes the dataset."""
    payload = {
        "seed": config.seed,
        "scale": config.scale,
        "start": config.start.isoformat(),
        "end": config.end.isoformat(),
        "n_honeypots": config.n_honeypots,
        "n_countries": config.n_countries,
        "n_honeypot_ases": config.n_honeypot_ases,
        "session_timeout_s": config.session_timeout_s,
        "include_telnet": config.include_telnet,
        "faults": repr(config.faults),
    }
    # FloodFaults is declared repr=False on FaultProfile, so an inert
    # flood keeps the payload — and every pre-overload fingerprint —
    # unchanged; an active flood shapes the dataset and must mismatch.
    if not config.faults.flood.inert:
        payload["flood"] = repr(config.faults.flood)
    return sha256_hex(json.dumps(payload, sort_keys=True))


@dataclass
class Checkpoint:
    """A deserialized mid-window snapshot."""

    fingerprint: str
    next_day: date
    honeypot_counters: dict[str, int]
    counters: dict[str, int]
    sessions: list
    dead_letters: list
    #: Supervision state written by a *degraded* supervised stream run
    #: (:mod:`repro.stream.engine`); None for batch checkpoints and for
    #: supervised checkpoints taken in the pristine state.
    stream: dict | None = None


def checkpoint_generations(path: Path | str) -> list[Path]:
    """Candidate files for ``path``'s rotation scheme, newest first."""
    path = Path(path)
    return [path] + [
        path.with_name(f"{path.name}.{generation}")
        for generation in range(1, CHECKPOINT_GENERATIONS)
    ]


def has_checkpoint(path: Path | str) -> bool:
    """Does any generation exist for ``path``?"""
    return any(candidate.exists() for candidate in checkpoint_generations(path))


def _rotate_generations(path: Path) -> None:
    """Shift existing generations down one slot (oldest falls off)."""
    candidates = checkpoint_generations(path)
    for older, newer in zip(reversed(candidates), reversed(candidates[:-1])):
        if newer.exists():
            os.replace(newer, older)


def save_checkpoint(
    path: Path | str,
    config: "SimulationConfig",
    next_day: date,
    honeynet: "Honeynet",
    collector: "Collector",
    *,
    corruptor: "CheckpointCorruptor | None" = None,
    stream_state: dict | None = None,
) -> None:
    """Atomically write the full resumable state to ``path``.

    ``next_day`` is the first day the resumed loop should simulate.
    The previous file (and its predecessors) are rotated into numbered
    generations first, so a save that later turns out corrupt never
    destroys the last good snapshot.  ``corruptor`` is the fault hook:
    when set, the freshly written file may be damaged in place
    (:class:`~repro.faults.corruption.CheckpointCorruptor`).

    ``stream_state``: the supervision snapshot of a degraded stream run
    (:mod:`repro.stream.engine`).  It is an *optional* checksummed
    section — absent entirely when ``None``, so batch checkpoints and
    pristine supervised checkpoints stay byte-identical.
    """
    from repro.honeynet.io import session_to_dict

    counters = {key: getattr(collector, key) for key in _COUNTER_KEYS}
    for key in _OVERLOAD_COUNTER_KEYS:
        value = getattr(collector, key)
        if value:
            counters[key] = value
    sections = {
        "honeypot_counters": {
            honeypot.honeypot_id: honeypot._counter
            for honeypot in honeynet.honeypots
            if honeypot._counter
        },
        "counters": counters,
        "sessions": [seal(session_to_dict(s)) for s in collector.sessions],
        "dead_letters": [
            seal(session_to_dict(s)) for s in collector.dead_letters
        ],
    }
    if stream_state is not None:
        sections["stream"] = stream_state
    document = {
        "v": CHECKPOINT_VERSION,
        "fingerprint": config_fingerprint(config),
        "next_day": next_day.isoformat(),
        "checksums": {
            name: section_checksum(section)
            for name, section in sections.items()
        },
        **sections,
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    _rotate_generations(path)
    atomic_write_text(path, json.dumps(document))
    if corruptor is not None:
        corruptor.maybe_corrupt(path, key=next_day.toordinal())


def _read_document(path: Path | str) -> dict:
    try:
        document = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, ValueError) as error:
        # ValueError covers both JSONDecodeError and UnicodeDecodeError
        # (a flipped bit can break UTF-8 before it breaks JSON).
        raise CheckpointError(
            f"unreadable checkpoint {path}: {error}",
            path=path,
            reason="unreadable",
        ) from error
    if not isinstance(document, dict):
        raise CheckpointError(
            f"unreadable checkpoint {path}: not a JSON object",
            path=path,
            reason="unreadable",
        )
    return document


def _validate_document(document: dict, path: Path | str) -> None:
    version = document.get("v")
    if version != CHECKPOINT_VERSION:
        raise CheckpointError(
            f"unsupported checkpoint version: {version!r}",
            path=path,
            reason="unsupported-version",
        )
    checksums = document.get("checksums")
    if not isinstance(checksums, dict):
        raise CheckpointError(
            f"malformed checkpoint: missing section checksums in {path}",
            path=path,
            reason="malformed",
        )
    for name in _SECTIONS:
        if name not in document:
            raise CheckpointError(
                f"malformed checkpoint: missing section {name!r} in {path}",
                path=path,
                reason="malformed",
            )
        if section_checksum(document[name]) != checksums.get(name):
            raise CheckpointError(
                f"checkpoint section {name!r} failed its checksum in {path}",
                path=path,
                reason="section-checksum",
            )
    # The stream section is optional (only degraded supervised runs
    # write one) but checksummed like any other when present.
    if "stream" in document and (
        section_checksum(document["stream"]) != checksums.get("stream")
    ):
        raise CheckpointError(
            f"checkpoint section 'stream' failed its checksum in {path}",
            path=path,
            reason="section-checksum",
        )


def _checkpoint_from_document(document: dict, path: Path | str) -> Checkpoint:
    from repro.honeynet.io import SessionLogError, session_from_dict

    try:
        return Checkpoint(
            fingerprint=document.get("fingerprint", ""),
            next_day=date.fromisoformat(document["next_day"]),
            honeypot_counters={
                str(key): int(value)
                for key, value in document["honeypot_counters"].items()
            },
            counters={
                key: int(document["counters"].get(key, 0))
                for key in _COUNTER_KEYS + _OVERLOAD_COUNTER_KEYS
            },
            sessions=[session_from_dict(p) for p in document["sessions"]],
            dead_letters=[
                session_from_dict(p) for p in document["dead_letters"]
            ],
            stream=document.get("stream"),
        )
    except (KeyError, TypeError, ValueError, SessionLogError) as error:
        raise CheckpointError(
            f"malformed checkpoint: {error}", path=path, reason="malformed"
        ) from error


def audit_checkpoint(path: Path | str) -> str | None:
    """Structural validity of one checkpoint file, without a config.

    Returns ``None`` when the file parses, passes every section and
    record checksum, and deserializes; otherwise the problem as text.
    Used by ``repro verify``, which audits trees it has no
    :class:`~repro.config.SimulationConfig` for.
    """
    try:
        document = _read_document(path)
        _validate_document(document, path)
        _checkpoint_from_document(document, path)
    except CheckpointError as error:
        return str(error)
    return None


def read_checkpoint_counters(path: Path | str) -> dict[str, int] | None:
    """The accounting counters of one checkpoint, without a config.

    Returns the counter dict (every known key, absent ones as 0) plus a
    ``stored`` entry derived from the sessions section, or ``None`` when
    the file fails structural validation.  Used by ``repro verify`` to
    audit the conservation law — including shed totals — over
    checkpoint trees it has no :class:`~repro.config.SimulationConfig`
    for.
    """
    try:
        document = _read_document(path)
        _validate_document(document, path)
        checkpoint = _checkpoint_from_document(document, path)
    except CheckpointError:
        return None
    counters = dict(checkpoint.counters)
    counters["stored"] = len(checkpoint.sessions)
    return counters


def load_checkpoint(path: Path | str, config: "SimulationConfig") -> Checkpoint:
    """Read and validate one checkpoint file written for ``config``."""
    document = _read_document(path)
    _validate_document(document, path)
    fingerprint = document.get("fingerprint", "")
    expected = config_fingerprint(config)
    if fingerprint != expected:
        raise CheckpointError(
            "checkpoint was written by a different configuration "
            f"(fingerprint {fingerprint[:12]}… != expected {expected[:12]}…)",
            path=path,
            reason="config-mismatch",
        )
    return _checkpoint_from_document(document, path)


def load_latest_checkpoint(
    path: Path | str, config: "SimulationConfig"
) -> tuple[Checkpoint | None, list[str]]:
    """Resume state from the newest *valid* generation of ``path``.

    Walks ``path``, ``path.1``, ``path.2`` … newest first, skipping
    generations that are unreadable or fail their checksums.  Returns
    ``(checkpoint, rejected)`` where ``rejected`` lists one message per
    generation that had to be skipped — callers must surface these
    loudly.  Returns ``(None, rejected)`` when no generation survives
    (the caller starts fresh).  A generation written by a *different
    configuration* is never skipped over: that raises, because silently
    resuming past it could mix state from two different runs.
    """
    rejected: list[str] = []
    for candidate in checkpoint_generations(path):
        if not candidate.exists():
            continue
        try:
            return load_checkpoint(candidate, config), rejected
        except CheckpointError as error:
            if error.reason == "config-mismatch":
                raise
            rejected.append(str(error))
    return None, rejected


def restore_state(
    checkpoint: Checkpoint, honeynet: "Honeynet", collector: "Collector"
) -> date:
    """Apply a checkpoint; returns the first day left to simulate."""
    collector.restore(
        checkpoint.sessions, checkpoint.dead_letters, checkpoint.counters
    )
    for honeypot_id, counter in checkpoint.honeypot_counters.items():
        honeynet.by_id(honeypot_id)._counter = counter
    return checkpoint.next_day
