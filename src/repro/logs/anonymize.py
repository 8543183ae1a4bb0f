"""Log anonymization for publishable samples.

The paper's authors released *sanitized* sample logs on Zenodo; a
production site can only do that after scrubbing usernames, application
names and (often) renumbering components.  :class:`Anonymizer` performs
a deterministic, seed-keyed renaming:

* user names (``u1234`` and scheduler ``user=`` fields) map to stable
  pseudonyms;
* application names/paths map to ``appNN`` tokens;
* optionally, cabinet coordinates are permuted (topology *structure* is
  preserved -- blade/node offsets within a cabinet are untouched, so
  spatial-correlation analyses still work on the sanitized logs).

Determinism matters twice: the same input always yields the same output
(reviewable diffs), and the mapping is consistent *across* log families,
so a job's user appears under one pseudonym everywhere.
"""

from __future__ import annotations

import gzip
import hashlib
import re
from pathlib import Path
from typing import Optional

from repro.logs.store import LogStore, open_log_text

__all__ = ["Anonymizer", "anonymize_store"]

_USER_RE = re.compile(r"\bu(?:ser=)?(\d{3,5})\b")
_APP_RE = re.compile(r"\bapp=([\w./-]+)")
_CABINET_RE = re.compile(r"\bc(\d+)-(\d+)")


class Anonymizer:
    """Deterministic, seed-keyed log line scrubber."""

    def __init__(self, secret: str = "repro", permute_cabinets: bool = False):
        self.secret = secret
        self.permute_cabinets = permute_cabinets
        self._users: dict[str, str] = {}
        self._apps: dict[str, str] = {}
        self._cabinets: dict[tuple[str, str], tuple[int, int]] = {}

    # ------------------------------------------------------------------
    def _digest(self, kind: str, value: str) -> int:
        payload = f"{self.secret}/{kind}/{value}".encode("utf-8")
        return int.from_bytes(hashlib.sha256(payload).digest()[:4], "little")

    def user_alias(self, raw: str) -> str:
        """Stable pseudonym for a user id."""
        alias = self._users.get(raw)
        if alias is None:
            alias = f"{9000 + self._digest('user', raw) % 1000}"
            self._users[raw] = alias
        return alias

    def app_alias(self, raw: str) -> str:
        """Stable pseudonym for an application name."""
        alias = self._apps.get(raw)
        if alias is None:
            alias = f"app{self._digest('app', raw) % 100:02d}"
            self._apps[raw] = alias
        return alias

    def cabinet_alias(self, col: str, row: str) -> tuple[int, int]:
        """Stable permuted cabinet coordinate."""
        key = (col, row)
        alias = self._cabinets.get(key)
        if alias is None:
            digest = self._digest("cab", f"{col}-{row}")
            alias = (digest % 97, (digest // 97) % 97)
            # guarantee injectivity by probing on collision
            taken = set(self._cabinets.values())
            while alias in taken:
                alias = ((alias[0] + 1) % 97, alias[1])
            self._cabinets[key] = alias
        return alias

    # ------------------------------------------------------------------
    def line(self, text: str) -> str:
        """Anonymize one log line."""
        out = _USER_RE.sub(
            lambda m: m.group(0).replace(m.group(1), self.user_alias(m.group(1))),
            text,
        )
        out = _APP_RE.sub(lambda m: f"app={self.app_alias(m.group(1))}", out)
        if self.permute_cabinets:
            out = _CABINET_RE.sub(
                lambda m: "c{}-{}".format(*self.cabinet_alias(m.group(1), m.group(2))),
                out,
            )
        return out

    def mapping_summary(self) -> dict[str, int]:
        """How many distinct entities were renamed so far."""
        return {
            "users": len(self._users),
            "apps": len(self._apps),
            "cabinets": len(self._cabinets),
        }


def anonymize_store(
    src: LogStore,
    dst_root: Path | str,
    secret: str = "repro",
    permute_cabinets: bool = False,
    anonymizer: Optional[Anonymizer] = None,
) -> LogStore:
    """Write a sanitized copy of a whole log directory.

    The manifest is copied verbatim (it contains no identities); every
    file a diagnosis reads (:meth:`LogStore.listed_files`: rotated,
    gzipped and live) is rewritten under its own name and compression,
    line by line through one shared :class:`Anonymizer`, so pseudonyms
    are consistent across sources and the copy diagnoses like the
    original.
    """
    anon = anonymizer or Anonymizer(secret=secret,
                                    permute_cabinets=permute_cabinets)
    dst_root = Path(dst_root)
    dst = LogStore(dst_root)
    dst_root.mkdir(parents=True, exist_ok=True)
    manifest_path = src.root / "manifest.json"
    if manifest_path.is_file():
        (dst_root / "manifest.json").write_text(manifest_path.read_text())
    for files in src.listed_files().values():
        for rel in files:
            dst_path = dst_root / rel
            dst_path.parent.mkdir(parents=True, exist_ok=True)
            with open_log_text(src.root / rel) as fin:
                text = fin.read()
            # only "\n" ends a line, and a torn final line stays torn
            text = "\n".join(map(anon.line, text.split("\n")))
            opener = gzip.open if dst_path.suffix == ".gz" else open
            with opener(dst_path, "wt", encoding="utf-8",
                        newline="") as fout:
                fout.write(text)
    return dst
