"""Persistent cross-run evaluation cache.

The multiresolution search never pays twice for the same (point,
fidelity) pair *within* a run; this module extends that guarantee
*across* runs.  Priced design points are appended to a JSONL file keyed
by the evaluator's *fingerprint* — a string covering everything that
could change the metrics of a point: the Monte-Carlo seed, the fidelity
budgets, the specification under evaluation, and the code version.  A
rerun of ``table3``/``table4`` (or any search over the same
specification) then starts warm and answers grid rounds from disk
instead of repaying the simulation bill.

Semantics mirror the in-memory :class:`~repro.core.evaluation.\
CachingEvaluator`: the store keeps the *highest* fidelity seen per
(fingerprint, point), and a lower-fidelity request is answered by that
higher-fidelity record, which is at least as accurate.  A fingerprint
change invalidates nothing on disk — old entries simply stop matching,
so one file can serve many specifications at once (the table sweeps
share a single cache file across their specs).
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, IO, Mapping, Optional, Tuple, Union

PointKey = Tuple[Tuple[str, Any], ...]

#: Bump to orphan every existing cache file (schema migrations).
CACHE_SCHEMA_VERSION = 1


def evaluator_fingerprint(evaluator: object) -> str:
    """The cache-key prefix identifying an evaluator's exact behavior.

    Evaluators that want cross-run caching expose a ``fingerprint()``
    method returning a stable string over their seed, budgets, and
    specification.  Anything else falls back to its qualified class
    name, which never matches across incompatible evaluators but also
    never pretends two configurations are interchangeable.
    """
    hook = getattr(evaluator, "fingerprint", None)
    if callable(hook):
        return str(hook())
    cls = type(evaluator)
    return (
        f"{cls.__module__}.{cls.__qualname__}"
        f":max_fidelity={getattr(evaluator, 'max_fidelity', 0)}"
    )


def _ends_without_newline(path: Path) -> bool:
    """True for a non-empty file whose last byte is not a newline."""
    try:
        with path.open("rb") as handle:
            if handle.seek(0, os.SEEK_END) == 0:
                return False
            handle.seek(-1, os.SEEK_END)
            return handle.read(1) != b"\n"
    except FileNotFoundError:
        return False


class PersistentEvalCache:
    """Append-only JSONL store of priced design points.

    Thread-safe; entries survive process restarts.  Records are written
    eagerly (one line per computed evaluation, flushed immediately) so a
    crashed or interrupted search still leaves its paid-for evaluations
    behind for the next run.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._entries: Dict[Tuple[str, PointKey], Tuple[int, Dict[str, float]]] = {}
        self._file: Optional[IO[str]] = None
        self.n_loaded = 0
        #: Corrupt (undecodable / malformed) lines skipped at load time.
        #: Schema-version mismatches are *not* corruption and stay silent.
        self.n_skipped = 0
        self._load()

    # -- loading ---------------------------------------------------------

    def _load(self) -> None:
        if not self.path.exists():
            return
        with self.path.open("r", encoding="utf-8") as handle:
            for line_no, line in enumerate(handle, start=1):
                line = line.strip()
                if not line:
                    continue
                try:
                    record = json.loads(line)
                except json.JSONDecodeError:
                    # Torn tail line from an interrupted run — expected
                    # once at EOF, suspicious anywhere else; either way
                    # the entry is lost, so say so.
                    self._skip(line_no, "undecodable JSON")
                    continue
                if not isinstance(record, dict):
                    self._skip(line_no, "not a JSON object")
                    continue
                if record.get("schema") != CACHE_SCHEMA_VERSION:
                    continue  # orphaned by a schema bump, by design
                try:
                    key = (
                        str(record["fp"]),
                        tuple((str(k), v) for k, v in record["point"]),
                    )
                    fidelity = int(record["fid"])
                    metrics = {
                        str(k): float(v) for k, v in record["metrics"].items()
                    }
                except (KeyError, TypeError, ValueError):
                    self._skip(line_no, "malformed record")
                    continue
                existing = self._entries.get(key)
                if existing is None or fidelity > existing[0]:
                    self._entries[key] = (fidelity, metrics)
        self.n_loaded = len(self._entries)

    def _skip(self, line_no: int, reason: str) -> None:
        self.n_skipped += 1
        warnings.warn(
            f"evaluation cache {self.path}: skipping corrupt line "
            f"{line_no} ({reason})",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- lookup / insert -------------------------------------------------

    def get(
        self, fingerprint: str, key: PointKey, fidelity: int
    ) -> Optional[Tuple[int, Dict[str, float]]]:
        """The stored ``(fidelity, metrics)`` answering a request, or None.

        A stored record answers any request at or below its fidelity.
        """
        with self._lock:
            entry = self._entries.get((fingerprint, key))
            if entry is None or entry[0] < fidelity:
                return None
            return entry[0], dict(entry[1])

    def put(
        self,
        fingerprint: str,
        key: PointKey,
        fidelity: int,
        metrics: Mapping[str, float],
        elapsed_s: float = 0.0,
    ) -> bool:
        """Store one priced point; returns True if anything was written.

        Lower-or-equal-fidelity duplicates of an existing entry are
        dropped — the file only grows when knowledge improves.
        """
        metrics = {str(k): float(v) for k, v in metrics.items()}
        with self._lock:
            existing = self._entries.get((fingerprint, key))
            if existing is not None and existing[0] >= fidelity:
                return False
            self._entries[(fingerprint, key)] = (fidelity, metrics)
            record = {
                "schema": CACHE_SCHEMA_VERSION,
                "fp": fingerprint,
                "point": [[k, v] for k, v in key],
                "fid": fidelity,
                "metrics": metrics,
                "elapsed_s": round(float(elapsed_s), 6),
            }
            if self._file is None:
                self.path.parent.mkdir(parents=True, exist_ok=True)
                torn = _ends_without_newline(self.path)
                self._file = self.path.open("a", encoding="utf-8")
                if torn:
                    # A crashed writer's torn tail: end it, so this
                    # record starts on its own line instead of being
                    # glued onto (and lost with) the fragment.
                    self._file.write("\n")
            self._file.write(json.dumps(record, separators=(",", ":")) + "\n")
            self._file.flush()
            return True

    # -- bookkeeping -----------------------------------------------------

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict store accounting (for status endpoints/reports)."""
        with self._lock:
            return {
                "path": str(self.path),
                "entries": len(self._entries),
                "loaded": self.n_loaded,
                "skipped": self.n_skipped,
            }

    def close(self) -> None:
        with self._lock:
            if self._file is not None:
                self._file.close()
                self._file = None

    def __enter__(self) -> "PersistentEvalCache":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()
