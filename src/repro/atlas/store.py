"""The persistent design atlas: a cross-run Pareto library.

Where :class:`~repro.core.evalcache.PersistentEvalCache` remembers
*point prices*, the atlas remembers *answers*: for every scenario
(evaluator fingerprint) it keeps all priced design points plus the
Pareto frontier of the exact-fidelity ones, and alongside each
fingerprint a descriptor — driver kind, normalized spec features, goal
signature, frontier axes — so future scenarios can find their nearest
stored neighbors without ever reconstructing the original spec.

The on-disk format is append-only JSONL (one ``scenario`` descriptor
line per fingerprint, one ``record`` line per priced point, eagerly
flushed) with an atomic JSON index sidecar (``<path>.index.json``,
written via tmp-file + ``os.replace``) summarizing per-scenario counts
for cheap inspection; the JSONL file remains the source of truth.
Corrupt lines are skipped and counted (``n_skipped``) with a single
warning per load, mirroring the evaluation cache.

**Shared across processes.**  A cluster's replicas point at one atlas
file, so the store is multi-writer safe: every append takes an
exclusive advisory lock (``flock``; no-op where unavailable) for the
open-merge-write-close cycle, and every read first merges the *tail* —
lines other writers appended since this process last looked — tracked
by byte offset.  Appends are therefore serialized whole lines; readers
take a shared lock and never observe a torn record.  Merging is
idempotent (max-fidelity-wins dedup, first scenario descriptor wins),
so two nodes ingesting the same search converge to one state.  A file
*rewrite* (``atlas-compact``) is detected by inode/size change and
triggers a from-scratch re-merge rather than a misaligned tail read.
"""

from __future__ import annotations

import json
import os
import threading
import warnings
from pathlib import Path
from typing import Any, Dict, Iterable, List, Mapping, Optional, Tuple, Union

try:  # advisory locking is POSIX-only; elsewhere appends are best-effort
    import fcntl
except ImportError:  # pragma: no cover - non-POSIX platforms
    fcntl = None  # type: ignore[assignment]

from repro.atlas.frontier import ParetoFrontier, frontier_objectives
from repro.atlas.similarity import goal_signature, scenario_distance
from repro.core.evaluation import EvaluationRecord
from repro.core.objectives import DesignGoal, Direction, Objective

PointKey = Tuple[Tuple[str, Any], ...]

#: Bump to orphan every existing atlas file (schema migrations).
ATLAS_SCHEMA_VERSION = 1


class _Scenario:
    """In-memory state of one stored scenario."""

    def __init__(
        self,
        kind: str,
        features: Optional[Dict[str, float]],
        signature: str,
        axes: List[Objective],
    ) -> None:
        self.kind = kind
        self.features = features
        self.signature = signature
        self.axes = axes
        #: point key -> (fidelity, metrics, exact)
        self.records: Dict[PointKey, Tuple[int, Dict[str, float], bool]] = {}
        self.frontier = ParetoFrontier(axes)

    def offer(self, key: PointKey, fidelity: int, metrics: Dict[str, float], exact: bool) -> bool:
        """Max-fidelity-wins dedup; returns True when state improved."""
        existing = self.records.get(key)
        if existing is not None and existing[0] >= fidelity:
            return False
        self.records[key] = (fidelity, metrics, exact)
        if exact:
            self.frontier.add(
                EvaluationRecord(point=key, fidelity=fidelity, metrics=metrics)
            )
        return True


class DesignAtlas:
    """Append-only JSONL library of scenarios, records, and frontiers.

    Thread-safe.  Use as a context manager (or call :meth:`close`) so
    the index sidecar reflects the final state; crash-interrupted runs
    lose only the index freshness, never the JSONL records.
    """

    def __init__(self, path: Union[str, Path]) -> None:
        self.path = Path(path)
        self._lock = threading.Lock()
        self._scenarios: Dict[str, _Scenario] = {}
        self.n_loaded = 0
        #: Raw record lines consumed from the log, including entries a
        #: later higher-fidelity append superseded — the on-disk count
        #: compaction reports against the deduped in-memory view.
        self.n_record_lines = 0
        #: Corrupt (undecodable / malformed) lines skipped at load time.
        #: Schema-version mismatches are *not* corruption and stay silent.
        self.n_skipped = 0
        self._warned = False
        #: How far into the JSONL file this process has merged (bytes),
        #: plus the inode it belongs to — a changed inode or a shrunken
        #: file means the atlas was rewritten underneath us.
        self._read_offset = 0
        self._read_ino: Optional[int] = None
        self._line_no = 0
        with self._lock:
            self._refresh_locked()

    # -- file locking ----------------------------------------------------

    @staticmethod
    def _lock_file(handle, exclusive: bool) -> None:
        if fcntl is not None:
            fcntl.flock(
                handle.fileno(),
                fcntl.LOCK_EX if exclusive else fcntl.LOCK_SH,
            )

    @staticmethod
    def _unlock_file(handle) -> None:
        if fcntl is not None:
            fcntl.flock(handle.fileno(), fcntl.LOCK_UN)

    def _open_locked(self, mode: str, exclusive: bool):
        """Open + lock the atlas file, retrying across rewrites.

        A compaction replaces the file while a writer waits on the
        lock; appending to the now-orphaned inode would lose records,
        so after acquiring the lock we verify the fd still names the
        path and reopen if not.
        """
        while True:
            handle = self.path.open(mode)
            try:
                self._lock_file(handle, exclusive)
                try:
                    if (
                        os.fstat(handle.fileno()).st_ino
                        == os.stat(self.path).st_ino
                    ):
                        return handle
                except OSError:
                    pass  # path vanished mid-swap; reopen recreates it
                self._unlock_file(handle)
            except BaseException:
                handle.close()
                raise
            handle.close()

    # -- loading ---------------------------------------------------------

    def _refresh_locked(self) -> int:
        """Merge lines appended (by anyone) since the last read.

        Returns the number of lines consumed.  Caller holds ``_lock``.
        """
        try:
            handle = self._open_locked("rb", exclusive=False)
        except FileNotFoundError:
            return 0
        try:
            stat = os.fstat(handle.fileno())
            if stat.st_ino != self._read_ino or stat.st_size < self._read_offset:
                # Rewritten (compacted) underneath us: re-merge it all.
                # Idempotent, so existing in-memory state is kept.
                self._read_offset = 0
                self._line_no = 0
                self._read_ino = stat.st_ino
                self.n_record_lines = 0
            if stat.st_size <= self._read_offset:
                return 0
            return self._consume(handle)
        finally:
            self._unlock_file(handle)
            handle.close()

    def _consume(self, handle) -> int:
        """Parse lines from ``_read_offset`` to EOF; advance the offset.

        A final line without a newline is a torn concurrent append (or
        a crashed writer's remnant): it is left unconsumed so the next
        refresh re-reads it once complete.
        """
        handle.seek(self._read_offset)
        consumed = 0
        for raw in handle:
            if not raw.endswith(b"\n"):
                break  # torn tail; re-read once whole
            self._read_offset += len(raw)
            self._line_no += 1
            consumed += 1
            line = raw.decode("utf-8", errors="replace").strip()
            if not line:
                continue
            try:
                entry = json.loads(line)
            except json.JSONDecodeError:
                self._skip(self._line_no, "undecodable JSON")
                continue
            if not isinstance(entry, dict):
                self._skip(self._line_no, "not a JSON object")
                continue
            if entry.get("schema") != ATLAS_SCHEMA_VERSION:
                continue  # orphaned by a schema bump, by design
            kind = entry.get("type")
            try:
                if kind == "scenario":
                    self._load_scenario(entry)
                elif kind == "record":
                    self._load_record(entry)
                    self.n_record_lines += 1
                else:
                    self._skip(self._line_no, f"unknown line type {kind!r}")
            except (KeyError, TypeError, ValueError):
                self._skip(self._line_no, "malformed record")
        self.n_loaded = sum(
            len(scenario.records) for scenario in self._scenarios.values()
        )
        return consumed

    def refresh(self) -> int:
        """Pull in other writers' appends; returns lines merged."""
        with self._lock:
            return self._refresh_locked()

    def _load_scenario(self, entry: Mapping[str, Any]) -> None:
        fingerprint = str(entry["fp"])
        if fingerprint in self._scenarios:
            # A concurrent writer registered the same fingerprint; the
            # fingerprint covers everything behavior-relevant, so keep
            # the existing scenario (and its already-merged records).
            return
        raw_features = entry["features"]
        features = (
            {str(k): float(v) for k, v in raw_features.items()}
            if raw_features is not None
            else None
        )
        axes = [
            Objective(str(metric), Direction(str(direction)))
            for metric, direction in entry["axes"]
        ]
        if not axes:
            raise ValueError("scenario without frontier axes")
        self._scenarios[fingerprint] = _Scenario(
            kind=str(entry["kind"]),
            features=features,
            signature=str(entry["goal"]),
            axes=axes,
        )

    def _load_record(self, entry: Mapping[str, Any]) -> None:
        fingerprint = str(entry["fp"])
        scenario = self._scenarios.get(fingerprint)
        if scenario is None:
            raise ValueError("record before its scenario descriptor")
        key = tuple((str(k), v) for k, v in entry["point"])
        fidelity = int(entry["fid"])
        metrics = {str(k): float(v) for k, v in entry["metrics"].items()}
        scenario.offer(key, fidelity, metrics, bool(entry["exact"]))

    def _skip(self, line_no: int, reason: str) -> None:
        self.n_skipped += 1
        if self._warned:
            return
        self._warned = True
        warnings.warn(
            f"design atlas {self.path}: skipping corrupt line {line_no} "
            f"({reason}); further corrupt lines counted silently",
            RuntimeWarning,
            stacklevel=4,
        )

    # -- writing ---------------------------------------------------------

    def _append_entries(self, entries: List[Dict[str, Any]]) -> None:
        """Append whole lines under an exclusive advisory lock.

        Merges the foreign tail first so this process's view includes
        everything already on disk, then writes and advances the read
        offset past its own lines (they are already in memory).
        Caller holds ``_lock``.
        """
        if not entries:
            return
        self.path.parent.mkdir(parents=True, exist_ok=True)
        handle = self._open_locked("a+b", exclusive=True)
        try:
            stat = os.fstat(handle.fileno())
            if (
                stat.st_ino != self._read_ino
                or stat.st_size < self._read_offset
            ):
                self._read_offset = 0
                self._line_no = 0
                self._read_ino = stat.st_ino
                self.n_record_lines = 0
            self._consume(handle)
            if handle.seek(0, os.SEEK_END) > self._read_offset:
                # All that _consume leaves is a line without its newline,
                # and under the exclusive lock no writer is mid-append:
                # a crashed writer's torn tail.  End it (it is then
                # skipped as corrupt) so these lines are not glued onto it.
                handle.write(b"\n")
                handle.flush()
                self._consume(handle)
            payload = b"".join(
                json.dumps(entry, separators=(",", ":")).encode("utf-8")
                + b"\n"
                for entry in entries
            )
            handle.write(payload)
            handle.flush()
            self._read_offset = handle.tell()
            self._line_no += len(entries)
        finally:
            self._unlock_file(handle)
            handle.close()

    def _append(self, entry: Dict[str, Any]) -> None:
        self._append_entries([entry])

    def register_scenario(
        self,
        fingerprint: str,
        kind: str,
        features: Optional[Mapping[str, float]],
        goal: DesignGoal,
    ) -> None:
        """Record (once) what a fingerprint *means*.

        Idempotent: a fingerprint seen before keeps its stored
        descriptor — the fingerprint covers everything that could
        change behavior, so a matching fingerprint implies a matching
        scenario.
        """
        with self._lock:
            if fingerprint in self._scenarios:
                return
            axes = frontier_objectives(goal)
            scenario = _Scenario(
                kind=str(kind),
                features=dict(features) if features is not None else None,
                signature=goal_signature(goal),
                axes=axes,
            )
            self._scenarios[fingerprint] = scenario
            self._append(
                {
                    "schema": ATLAS_SCHEMA_VERSION,
                    "type": "scenario",
                    "fp": fingerprint,
                    "kind": scenario.kind,
                    "features": scenario.features,
                    "goal": scenario.signature,
                    "axes": [
                        [objective.metric, objective.direction.value]
                        for objective in axes
                    ],
                }
            )

    def ingest(
        self,
        fingerprint: str,
        kind: str,
        features: Optional[Mapping[str, float]],
        goal: DesignGoal,
        records: Iterable[EvaluationRecord],
        max_fidelity: int,
    ) -> Dict[str, int]:
        """Fold one search's evaluation log into the library.

        Every record is kept for exact-scenario replay; only records at
        ``max_fidelity`` (exact) feed the Pareto frontier.  Returns
        ``{"ingested": new-or-improved records, "frontier": size}``.
        """
        self.register_scenario(fingerprint, kind, features, goal)
        ingested = 0
        with self._lock:
            scenario = self._scenarios[fingerprint]
            entries: List[Dict[str, Any]] = []
            for record in records:
                key = tuple((str(k), v) for k, v in record.point)
                metrics = {
                    str(k): float(v) for k, v in record.metrics.items()
                }
                exact = record.fidelity >= max_fidelity
                if not scenario.offer(key, record.fidelity, metrics, exact):
                    continue
                ingested += 1
                entries.append(
                    {
                        "schema": ATLAS_SCHEMA_VERSION,
                        "type": "record",
                        "fp": fingerprint,
                        "point": [[k, v] for k, v in key],
                        "fid": record.fidelity,
                        "metrics": metrics,
                        "exact": exact,
                    }
                )
            self._append_entries(entries)
            frontier_size = len(scenario.frontier)
        return {"ingested": ingested, "frontier": frontier_size}

    # -- queries ---------------------------------------------------------

    def replay(self, fingerprint: str) -> List[EvaluationRecord]:
        """Every stored record of one scenario (all fidelities)."""
        with self._lock:
            self._refresh_locked()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return []
            return [
                EvaluationRecord(point=key, fidelity=fidelity, metrics=dict(metrics))
                for key, (fidelity, metrics, _exact) in scenario.records.items()
            ]

    def frontier(self, fingerprint: str) -> Tuple[EvaluationRecord, ...]:
        """The exact-fidelity Pareto frontier of one scenario."""
        with self._lock:
            self._refresh_locked()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return ()
            return scenario.frontier.records

    def scenario_info(self, fingerprint: str) -> Optional[Dict[str, Any]]:
        with self._lock:
            self._refresh_locked()
            scenario = self._scenarios.get(fingerprint)
            if scenario is None:
                return None
            return {
                "kind": scenario.kind,
                "features": dict(scenario.features)
                if scenario.features is not None
                else None,
                "goal": scenario.signature,
                "records": len(scenario.records),
                "frontier": len(scenario.frontier),
            }

    def neighbors(
        self,
        kind: str,
        features: Mapping[str, float],
        signature: str,
        threshold: float,
    ) -> List[Tuple[str, float]]:
        """Stored scenarios near a query, sorted by (distance, fp).

        Only scenarios of the same driver kind and goal signature are
        comparable; the deterministic fingerprint tie-break keeps seed
        order — and therefore warm-started searches — reproducible.
        """
        out: List[Tuple[str, float]] = []
        with self._lock:
            self._refresh_locked()
            for fingerprint, scenario in self._scenarios.items():
                if scenario.kind != kind or scenario.signature != signature:
                    continue
                if scenario.features is None:
                    continue
                distance = scenario_distance(dict(features), scenario.features)
                if distance <= threshold:
                    out.append((fingerprint, distance))
        out.sort(key=lambda item: (item[1], item[0]))
        return out

    def fingerprints(self) -> List[str]:
        with self._lock:
            self._refresh_locked()
            return sorted(self._scenarios)

    def stats(self) -> Dict[str, Any]:
        """Plain-dict accounting (for status endpoints/reports)."""
        with self._lock:
            self._refresh_locked()
            return {
                "path": str(self.path),
                "scenarios": len(self._scenarios),
                "records": sum(
                    len(s.records) for s in self._scenarios.values()
                ),
                "frontier": sum(
                    len(s.frontier) for s in self._scenarios.values()
                ),
                "loaded": self.n_loaded,
                "skipped": self.n_skipped,
            }

    # -- index sidecar / lifecycle ---------------------------------------

    @property
    def index_path(self) -> Path:
        return Path(str(self.path) + ".index.json")

    def _write_index(self) -> None:
        index = {
            "schema": ATLAS_SCHEMA_VERSION,
            "scenarios": {
                fingerprint: {
                    "kind": scenario.kind,
                    "goal": scenario.signature,
                    "records": len(scenario.records),
                    "frontier": len(scenario.frontier),
                }
                for fingerprint, scenario in self._scenarios.items()
            },
        }
        tmp = Path(str(self.index_path) + ".tmp")
        tmp.parent.mkdir(parents=True, exist_ok=True)
        with tmp.open("w", encoding="utf-8") as handle:
            json.dump(index, handle, indent=2, sort_keys=True)
            handle.write("\n")
        os.replace(tmp, self.index_path)

    def dump_entries(
        self, frontier_only: bool = False, refresh: bool = True
    ) -> List[Dict[str, Any]]:
        """The canonical deduped entry stream (for ``atlas-compact``).

        One scenario line per fingerprint followed by its records —
        max-fidelity survivors only, in a deterministic order.  With
        ``frontier_only``, only the exact-fidelity Pareto frontier of
        each scenario is kept (replay history is dropped).  Pass
        ``refresh=False`` when the caller already holds the file lock
        (a shared-lock refresh would self-deadlock against it).
        """
        with self._lock:
            if refresh:
                self._refresh_locked()
            entries: List[Dict[str, Any]] = []
            for fingerprint in sorted(self._scenarios):
                scenario = self._scenarios[fingerprint]
                entries.append(
                    {
                        "schema": ATLAS_SCHEMA_VERSION,
                        "type": "scenario",
                        "fp": fingerprint,
                        "kind": scenario.kind,
                        "features": scenario.features,
                        "goal": scenario.signature,
                        "axes": [
                            [objective.metric, objective.direction.value]
                            for objective in scenario.axes
                        ],
                    }
                )
                if frontier_only:
                    rows = [
                        (
                            tuple((str(k), v) for k, v in record.point),
                            (record.fidelity, dict(record.metrics), True),
                        )
                        for record in scenario.frontier.records
                    ]
                else:
                    rows = list(scenario.records.items())
                rows.sort(key=lambda item: json.dumps(list(item[0])))
                for key, (fidelity, metrics, exact) in rows:
                    entries.append(
                        {
                            "schema": ATLAS_SCHEMA_VERSION,
                            "type": "record",
                            "fp": fingerprint,
                            "point": [[k, v] for k, v in key],
                            "fid": fidelity,
                            "metrics": metrics,
                            "exact": exact,
                        }
                    )
            return entries

    def close(self) -> None:
        with self._lock:
            if self._scenarios:
                self._write_index()

    def __enter__(self) -> "DesignAtlas":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        self.close()


def format_atlas_report(atlas: DesignAtlas) -> str:
    """Human-readable library summary (``repro atlas-report``)."""
    stats = atlas.stats()
    lines = [
        f"design atlas: {stats['path']}",
        f"  scenarios: {stats['scenarios']}  records: {stats['records']}"
        f"  frontier designs: {stats['frontier']}",
    ]
    if stats["skipped"]:
        lines.append(f"  corrupt lines skipped: {stats['skipped']}")
    for fingerprint in atlas.fingerprints():
        info = atlas.scenario_info(fingerprint)
        label = fingerprint if len(fingerprint) <= 60 else fingerprint[:57] + "..."
        lines.append(
            f"  [{info['kind']}] {label}\n"
            f"    goal: {info['goal']}\n"
            f"    records: {info['records']}  frontier: {info['frontier']}"
        )
        for record in atlas.frontier(fingerprint):
            lines.append(f"      {record}")
    return "\n".join(lines)
