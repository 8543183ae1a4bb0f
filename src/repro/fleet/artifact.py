"""Self-validating shard artifacts: columnar ``.npz`` + checksum footer.

One fleet shard's durable output is a single file holding

* the shard's **columnar index arrays** -- the per-stream time axes
  the :class:`~repro.core.index.RecordIndex` already keeps as numpy
  arrays, plus the detected failure times -- so the rollup can compute
  cross-system time distributions without re-parsing any logs; and
* the shard's **diagnosis summary** as canonical JSON (category
  breakdown, family split, record/failure accounting, degradation),
  embedded as a zero-dimensional string array.

The container is ``np.savez_compressed`` bytes followed by a footer::

    <npz payload> b"RPRSHARD1\\n" <sha256 hexdigest of payload> b"\\n"

making every artifact *self-validating*: :func:`read_shard_artifact`
recomputes the payload digest and raises :class:`ShardArtifactError`
on any damage -- truncation (the footer is the first thing a torn
write loses), bit flips (digest mismatch), or a wrong/foreign file
(missing magic).  The fleet supervisor treats that error as "this
shard never completed" and rebuilds the artifact in place; corruption
is a repairable state, never a crash.

Note the npz payload bytes are **not deterministic** across writes
(zip member timestamps), so shard digests never appear in the fleet
report -- byte-identical resume parity rests on the *decoded* content,
which is deterministic in (member, seed).
"""

from __future__ import annotations

import hashlib
import io
import json
import zipfile
from dataclasses import dataclass
from pathlib import Path
from typing import Mapping

import numpy as np

from repro.core.artifacts import (
    BlobIntegrityError,
    read_checksummed_blob,
    write_checksummed_blob,
)
from repro.core.serialize import canonical_json

__all__ = [
    "ShardArtifactError",
    "ShardArtifact",
    "write_shard_artifact",
    "read_shard_artifact",
]

#: container magic separating the npz payload from the digest footer
MAGIC = b"RPRSHARD1\n"
#: reserved array name carrying the canonical-JSON shard summary
_REPORT_KEY = "report_json"


class ShardArtifactError(RuntimeError):
    """A shard artifact failed validation (truncated, corrupt, foreign).

    The fleet supervisor's cue to rebuild the shard, never a crash."""


@dataclass(frozen=True)
class ShardArtifact:
    """One decoded shard artifact: arrays + summary + payload digest."""

    arrays: dict[str, np.ndarray]
    report: dict
    digest: str


def write_shard_artifact(path: Path | str,
                         arrays: Mapping[str, np.ndarray],
                         report: dict) -> str:
    """Atomically publish one shard artifact; returns the payload digest.

    ``arrays`` must not use the reserved ``report_json`` key.  The file
    appears complete-with-footer or not at all (temp + fsync + rename
    via :func:`repro.core.artifacts.atomic_write_bytes`).
    """
    if _REPORT_KEY in arrays:
        raise ValueError(f"array name {_REPORT_KEY!r} is reserved")
    buffer = io.BytesIO()
    np.savez_compressed(
        buffer, **dict(arrays),
        **{_REPORT_KEY: np.asarray(canonical_json(report))})
    return write_checksummed_blob(Path(path), buffer.getvalue(), MAGIC)


def read_shard_artifact(path: Path | str) -> ShardArtifact:
    """Decode and validate one shard artifact.

    Raises :class:`ShardArtifactError` for every way the file can be
    wrong: missing, shorter than its footer, missing magic, digest
    mismatch, undecodable npz payload, or missing summary.
    """
    path = Path(path)
    try:
        # the shared footer validation; re-badge its verdicts so fleet
        # callers keep catching one exception type
        payload = read_checksummed_blob(path, MAGIC)
    except BlobIntegrityError as exc:
        raise ShardArtifactError(
            str(exc).replace("blob", "shard artifact", 1)) from None
    actual = hashlib.sha256(payload).hexdigest()
    try:
        with np.load(io.BytesIO(payload), allow_pickle=False) as npz:
            arrays = {name: npz[name] for name in npz.files
                      if name != _REPORT_KEY}
            if _REPORT_KEY not in npz.files:
                raise ShardArtifactError(
                    f"shard artifact {path} carries no {_REPORT_KEY}")
            report = json.loads(str(npz[_REPORT_KEY][()]))
    except ShardArtifactError:
        raise
    except (OSError, ValueError, KeyError, json.JSONDecodeError,
            zipfile.BadZipFile) as exc:
        # a payload that passes its checksum but fails to decode means
        # the file was *written* wrong, but the remedy is the same
        raise ShardArtifactError(
            f"undecodable shard artifact {path}: {exc}") from None
    return ShardArtifact(arrays=arrays, report=report, digest=actual)
