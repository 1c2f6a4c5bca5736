"""Crash-tolerant ingestion checkpoints: resume instead of re-read.

``load_ensemble(..., checkpoint=DIR)`` records every per-profile
outcome of a path source in an append-only JSONL *journal* plus, per
successful profile, the decoded cali-JSON payload it was built from.
A re-run after a crash (or a deliberate interruption) resumes from the
journal: already-ingested profiles are rebuilt from their saved
payloads by the same validate → build step a fresh read goes through
(no re-read of the source, no re-run of an injected fault) and
already-quarantined profiles are skipped outright.  Payload dicts and
GraphFrames passed to ``load_ensemble`` are never journaled.

Crash tolerance of the journal itself:

* every record line carries a CRC-32 of its canonical encoding, so a
  torn write is detectable;
* on reopen, the longest valid prefix wins — a truncated or garbled
  tail (the only corruption an append-only crash can produce) is
  tolerated and *repaired* by truncating the file back to the last
  good record, surfaced via the ``ingest.checkpoint.repaired_tail``
  counter;
* record appends are flushed and fsynced one by one, so at most the
  profile in flight is lost.

Layout of a checkpoint directory::

    <dir>/journal.jsonl            one header + one record per profile
    <dir>/profiles/<sha256[:24]>.json   saved cali-JSON payloads
"""

from __future__ import annotations

import hashlib
import json
import logging
import os
from pathlib import Path

from ..errors import PersistenceError, ReproError
from ..ioutil import atomic_write_text, canonical_json, crc32_of, fsync_path
from ..obs import counter as obs_counter
from ..obs import span as obs_span

__all__ = ["CheckpointJournal", "JOURNAL_FORMAT"]

JOURNAL_FORMAT = "repro-journal-v1"

logger = logging.getLogger("repro.ingest.checkpoint")


# ----------------------------------------------------------------------
# the journal
# ----------------------------------------------------------------------

def _encode_record(record: dict) -> str:
    body = dict(record)
    body["crc"] = crc32_of(canonical_json(record))
    return canonical_json(body)


def _decode_record(line: str) -> dict | None:
    """Record dict, or None when the line is torn / fails its CRC."""
    try:
        body = json.loads(line)
    except json.JSONDecodeError:
        return None
    if not isinstance(body, dict) or "crc" not in body:
        return None
    crc = body.pop("crc")
    if crc != crc32_of(canonical_json(body)):
        return None
    return body


class CheckpointJournal:
    """Per-profile outcome journal backing ``load_ensemble(checkpoint=)``.

    Opening the journal replays (and, when needed, tail-repairs) the
    JSONL file; :meth:`get` answers "what happened to this source last
    run", and :meth:`record_ok` / :meth:`record_quarantined` append
    durable outcome records as the current run progresses.
    """

    def __init__(self, directory: str | Path):
        self.directory = Path(directory)
        self.journal_path = self.directory / "journal.jsonl"
        self.profiles_dir = self.directory / "profiles"
        self.records: dict[str, dict] = {}
        self.repaired_tail_lines = 0
        try:
            self.profiles_dir.mkdir(parents=True, exist_ok=True)
        except OSError as e:
            raise PersistenceError(
                f"cannot create checkpoint directory: {e}",
                source=self.directory, stage="journal") from e
        with obs_span("ingest.checkpoint.open", path=str(self.directory)):
            self._replay()
        self._fh = open(self.journal_path, "a", encoding="utf-8")
        if not self.records and self._fh.tell() == 0:
            self._append({"kind": "begin", "format": JOURNAL_FORMAT})

    # -- replay / repair ------------------------------------------------
    def _replay(self) -> None:
        if not self.journal_path.exists():
            return
        raw = self.journal_path.read_bytes()
        lines = raw.decode("utf-8", errors="replace").split("\n")
        good_bytes = 0
        good_lines: list[str] = []
        bad_seen = False
        for line in lines:
            if line == "":
                continue
            record = _decode_record(line)
            if record is None:
                bad_seen = True
                self.repaired_tail_lines += 1
                continue
            if bad_seen:
                # a valid record after a torn one: everything from the
                # first bad line onward is untrusted, drop it too
                self.repaired_tail_lines += 1
                continue
            good_lines.append(line)
            good_bytes = sum(len(g.encode("utf-8")) + 1 for g in good_lines)
            self._ingest_record(record)
        if good_lines and good_lines[0] != "":
            first = _decode_record(good_lines[0])
            if first and first.get("kind") == "begin" \
                    and first.get("format") != JOURNAL_FORMAT:
                raise PersistenceError(
                    f"checkpoint journal has unsupported format "
                    f"{first.get('format')!r} (expected {JOURNAL_FORMAT!r})",
                    source=self.journal_path, stage="journal")
        if self.repaired_tail_lines:
            logger.warning(
                "checkpoint journal %s: dropped %d torn/invalid trailing "
                "line(s), truncating back to last good record",
                self.journal_path, self.repaired_tail_lines)
            obs_counter("ingest.checkpoint.repaired_tail",
                        self.repaired_tail_lines)
            with open(self.journal_path, "r+b") as fh:
                fh.truncate(good_bytes)
                fh.flush()
                os.fsync(fh.fileno())

    def _ingest_record(self, record: dict) -> None:
        if record.get("kind") == "profile" and "key" in record:
            self.records[record["key"]] = record

    # -- append ---------------------------------------------------------
    def _append(self, record: dict) -> None:
        try:
            self._fh.write(_encode_record(record) + "\n")
            self._fh.flush()
            os.fsync(self._fh.fileno())
        except OSError as e:
            raise PersistenceError(
                f"cannot append to checkpoint journal: {e}",
                source=self.journal_path, stage="journal") from e
        self._ingest_record(record)

    def get(self, key: str) -> dict | None:
        """The last recorded outcome for *key*, if any."""
        return self.records.get(key)

    def payload_path(self, key: str) -> Path:
        """Where *key*'s saved payload lives (content-hashed)."""
        digest = hashlib.sha256(key.encode("utf-8")).hexdigest()[:24]
        return self.profiles_dir / f"{digest}.json"

    def record_ok(self, key: str, payload: dict) -> None:
        """Durably record a successful ingest: payload first, then the
        journal line (so an ``ok`` record always has its payload)."""
        path = self.payload_path(key)
        # key order is semantic here: the metadata mapping must round-trip
        # in insertion order so a resumed profile composes byte-identically
        atomic_write_text(path, json.dumps(  # repro: noqa[RPR005]
            payload, separators=(",", ":")))
        self._append({"kind": "profile", "key": key, "status": "ok",
                      "payload": path.name})
        obs_counter("ingest.checkpoint.recorded")

    def record_quarantined(self, key: str, error: ReproError) -> None:
        """Durably record a failed ingest so a resume can skip it: the
        journal line carries the error's record
        (:meth:`~repro.errors.ReproError.to_record`)."""
        self._append({"kind": "profile", "key": key,
                      "status": "quarantined", **error.to_record()})
        obs_counter("ingest.checkpoint.recorded")

    def load_payload(self, record: dict) -> dict:
        """The saved payload of an ``ok`` record; a missing or
        unreadable file is a :class:`PersistenceError`, on which the
        caller re-ingests the raw source — a checkpoint is a cache of
        work, never an additional way to lose it."""
        path = self.profiles_dir / str(record.get("payload"))
        try:
            return json.loads(path.read_text())
        except (OSError, ValueError) as e:
            raise PersistenceError(
                f"checkpoint payload unreadable: {type(e).__name__}: {e}",
                source=path, stage="journal") from e

    def close(self) -> None:
        """Close the journal handle and fsync the checkpoint directory."""
        if not self._fh.closed:
            self._fh.close()
        fsync_path(self.directory)

    def __enter__(self) -> "CheckpointJournal":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
