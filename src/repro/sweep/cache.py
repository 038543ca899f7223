"""Content-addressed on-disk cache for sweep cell results.

A cell's address is the SHA-256 of its *normalized* configuration plus
:data:`ResultCache.VERSION` -- a schema/version salt combining the
cache schema number with the package version -- so:

- re-running an unchanged sweep is a pure cache hit;
- changing any knob -- figure, scale, seed, a parameter -- changes the
  address, never overwrites another cell;
- upgrading the package (or bumping ``CACHE_SCHEMA`` when the cell
  result shape changes) invalidates everything at once, which is the
  conservative and correct default for a simulator whose outputs are a
  function of its code: stale entries from an incompatible cell schema
  can never be silently reused.

Entries are single JSON documents under ``<root>/<aa>/<hash>.json``
(two-level fan-out keeps directories small).  Writes go through a
per-process temp file + ``os.replace`` so concurrent writers -- e.g.
two ``repro sweep`` processes sharing one cache directory -- never
tear an entry.
Unreadable entries are treated as misses, quarantined to
``<key>.corrupt`` for post-mortems, and re-executed.
"""

from __future__ import annotations

import hashlib
import json
import os
from pathlib import Path
from typing import Optional

import repro

#: bump to invalidate every cached cell regardless of repro version
#: (2: cell documents grew the ``events`` telemetry field; 3: the
#: interference fits dropped numpy, which changes ``fig06`` results in
#: environments that had it; 4: ``scale-smoke`` results dropped the
#: host-timed ``build_wall_s``; 5: ``fig02`` Dom-0 runs stopped building
#: a discarded second simulator, which lowers ``metrics.simulators``;
#: 6: cell documents dropped the ``events`` field)
CACHE_SCHEMA = 6

DEFAULT_CACHE_DIR = ".repro-sweep-cache"


def canonical_json(obj) -> str:
    """Deterministic JSON encoding (sorted keys, no whitespace)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def cell_key(config: dict, version: Optional[str] = None) -> str:
    """SHA-256 content address of one cell configuration.

    The address is salted with :data:`ResultCache.VERSION` (or the
    explicit ``version`` override), so entries written by a different
    cache schema or package version can never be read back.
    """
    doc = {
        "version": version if version is not None else ResultCache.VERSION,
        "config": config,
    }
    return hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem-backed map from content address to result document."""

    #: schema/version salt mixed into every content address
    VERSION = f"repro.sweep/{CACHE_SCHEMA}+{repro.__version__}"

    def __init__(self, root) -> None:
        self.root = Path(root)
        self.hits = 0
        self.misses = 0
        self.quarantined = 0

    def path_for(self, key: str) -> Path:
        return self.root / key[:2] / f"{key}.json"

    def get(self, key: str) -> Optional[dict]:
        path = self.path_for(key)
        try:
            with open(path, "r", encoding="utf-8") as fh:
                doc = json.load(fh)
        except FileNotFoundError:
            self.misses += 1
            return None
        except (OSError, ValueError):
            # torn or unparsable entry (killed writer outside the atomic
            # path, disk-full artifact): miss, but keep the evidence
            self.misses += 1
            self._quarantine(path)
            return None
        if not isinstance(doc, dict):
            self.misses += 1
            self._quarantine(path)
            return None
        self.hits += 1
        return doc

    def _quarantine(self, path: Path) -> None:
        try:
            os.replace(path, path.with_suffix(".corrupt"))
            self.quarantined += 1
        except OSError:
            pass  # e.g. deleted by a concurrent repair; nothing to keep

    def put(self, key: str, doc: dict) -> Path:
        path = self.path_for(key)
        path.parent.mkdir(parents=True, exist_ok=True)
        tmp = path.with_suffix(f".{os.getpid()}.tmp")
        try:
            with open(tmp, "w", encoding="utf-8") as fh:
                json.dump(doc, fh, sort_keys=True)
            os.replace(tmp, path)
        finally:
            if tmp.exists():
                try:
                    os.unlink(tmp)
                except OSError:
                    pass
        return path

    def __len__(self) -> int:
        if not self.root.is_dir():
            return 0
        return sum(1 for _ in self.root.glob("*/*.json"))
