"""One MetaCore facade over per-driver definitions.

A MetaCore has four parts (paper Sec. 1): a parameterized design space,
objectives and constraints, a cost-evaluation engine, and the
multiresolution search every driver shares.  A driver supplies the
first three as one :class:`MetaCoreDefinition`; :class:`MetaCore` is
the search glue (plain and checkpointed searches, serving, atlas
recommendations and sweeps), written once for every definition.

Definitions are looked up by kind through :data:`DRIVERS`, a fixed
table of driver modules imported on first lookup, so this module
imports no driver.  A new driver plugs in with one table entry: a
module whose ``metacore_definition()`` returns its record.
"""

from __future__ import annotations

import dataclasses
import importlib
from dataclasses import dataclass, field, replace
from typing import Any, Callable, ClassVar, Dict, Optional, Sequence

from repro.core.evalcache import PersistentEvalCache
from repro.core.parallel import ParallelEvaluator
from repro.core.parameters import DesignSpace, Point
from repro.core.search import (
    MetacoreSearch,
    PointNormalizer,
    SearchConfig,
    SearchResult,
)
from repro.errors import ConfigurationError

#: Spec kind -> module whose ``metacore_definition()`` describes it.
#: The kind is also the wire payload's ``"kind"`` and the atlas kind.
DRIVERS: Dict[str, str] = {
    "viterbi": "repro.viterbi.metacore",
    "iir": "repro.iir.metacore",
}


@dataclass
class MetaCoreDefinition:
    """Everything driver-specific about one MetaCore."""

    #: Wire-payload and atlas kind string (a :data:`DRIVERS` key).
    kind: str
    #: The driver's specification class.
    spec_type: type
    #: ``fixed`` parameter values -> the driver's design space.
    design_space: Callable[[Optional[Dict[str, object]]], DesignSpace]
    #: Specification -> cost-evaluation engine.
    evaluator: Callable[[Any], Any]
    #: Specification -> wire-safe plain dict (carrying ``kind``).
    spec_to_payload: Callable[[Any], Dict[str, Any]]
    #: Wire payload -> specification.
    spec_from_payload: Callable[[Dict[str, Any]], Any]
    #: Specification -> normalized numeric features (atlas similarity).
    spec_features: Callable[[Any], Dict[str, float]]
    #: (engine, point) -> the concrete design the point describes.
    build: Callable[[Any, Point], Any]
    #: Canonicalizes grid points before evaluation (None = identity).
    normalizer: Optional[PointNormalizer] = None
    #: Parameters the CLI and the service pin when the caller pins none.
    default_fixed: Dict[str, object] = field(default_factory=dict)


def definition_for(kind: object) -> MetaCoreDefinition:
    """The definition of a spec kind (imports its driver on first use)."""
    module = DRIVERS.get(kind) if isinstance(kind, str) else None
    if module is None:
        raise ConfigurationError(f"unknown spec kind {kind!r}")
    return importlib.import_module(module).metacore_definition()


def definition_for_spec(spec: object) -> MetaCoreDefinition:
    """The definition whose specification class ``spec`` is."""
    for kind in DRIVERS:
        definition = definition_for(kind)
        if isinstance(spec, definition.spec_type):
            return definition
    raise ConfigurationError(
        f"no MetaCore driver for specification type {type(spec).__name__}"
    )


@dataclass
class MetaCore:
    """Facade: specification in, optimized design out.

    Subclasses name their driver through :attr:`kind`; on this base
    class the driver is found from the specification's type.
    """

    spec: Any
    fixed: Dict[str, object] = field(default_factory=dict)
    config: Optional[SearchConfig] = None
    #: Worker processes for grid evaluation (1 = serial in-process).
    workers: int = 1
    #: Path of the persistent cross-run evaluation cache (None = cold).
    cache_path: Optional[str] = None
    #: Crash-tolerant session checkpoint (see :mod:`repro.resilience`).
    checkpoint_path: Optional[str] = None
    #: Resume from an existing checkpoint instead of starting cold.
    resume: bool = False
    #: Abort (checkpoint intact) after this many computed rounds.
    max_rounds: Optional[int] = None
    #: Wrap the evaluator in the retry/quarantine shim.
    resilient: bool = False
    #: Path of the persistent design atlas (None = no library): searches
    #: warm-start from it and ingest their logs back into it.
    atlas_path: Optional[str] = None
    #: Search strategy override ("grid", "evolve" or "surrogate");
    #: None defers to :attr:`config` (whose own default is "grid").
    strategy: Optional[str] = None

    #: Driver kind (a :data:`DRIVERS` key); None = from the spec type.
    kind: ClassVar[Optional[str]] = None

    @property
    def definition(self) -> MetaCoreDefinition:
        """The driver this facade runs."""
        if self.kind is None:
            return definition_for_spec(self.spec)
        return definition_for(self.kind)

    def design_space(self) -> DesignSpace:
        """The driver's space with this MetaCore's fixed parameters."""
        return self.definition.design_space(self.fixed)

    def _engine(self):
        """A fresh cost-evaluation engine for :attr:`spec`."""
        return self.definition.evaluator(self.spec)

    def _effective_config(self) -> Optional[SearchConfig]:
        """:attr:`config` with the :attr:`strategy` override applied."""
        if self.strategy is None:
            return self.config
        return replace(self.config or SearchConfig(), strategy=self.strategy)

    def _open_atlas(self, engine):
        """(atlas, seeder) for this scenario, or (None, None)."""
        if not self.atlas_path:
            return None, None
        # Imported lazily: repro.atlas depends on this module.
        from repro.atlas import DesignAtlas, seeder_for

        atlas = DesignAtlas(self.atlas_path)
        seeder = seeder_for(
            atlas, engine, self.definition.kind, self.spec, self.spec.goal()
        )
        return atlas, seeder

    def _run(self, session: bool, opened=None):
        """One search, or one checkpointed session when ``session``.

        ``opened`` is an already-open ``(atlas, seeder)`` pair (the
        recommend fallback's); otherwise the atlas is opened and closed
        here.  Returns a :class:`SearchResult`, or a
        :class:`~repro.resilience.session.SessionResult` for a session.
        """
        engine = self._engine()
        atlas, seeder = opened or self._open_atlas(engine)
        evaluator: object = engine
        parallel: Optional[ParallelEvaluator] = None
        store: Optional[PersistentEvalCache] = None
        try:
            if self.workers and self.workers > 1:
                parallel = ParallelEvaluator(evaluator, workers=self.workers)
                evaluator = parallel
            if self.cache_path:
                store = PersistentEvalCache(self.cache_path)
            options = dict(
                config=self._effective_config(),
                normalizer=self.definition.normalizer,
                store=store,
                atlas=seeder,
            )
            if session:
                # Imported lazily: repro.resilience imports the drivers.
                from repro.resilience.session import SearchSession

                outcome = SearchSession(
                    self.design_space(),
                    self.spec.goal(),
                    evaluator,
                    self.checkpoint_path,
                    resume=self.resume,
                    max_rounds=self.max_rounds,
                    resilient=self.resilient,
                    **options,
                ).run()
                result = outcome.result
            else:
                outcome = result = MetacoreSearch(
                    self.design_space(), self.spec.goal(), evaluator, **options
                ).run()
            if atlas is not None:
                from repro.atlas import ingest_result

                ingest_result(
                    atlas, seeder, result.log.records, engine.max_fidelity
                )
            return outcome
        finally:
            if parallel is not None:
                parallel.close()
            if store is not None:
                store.close()
            if opened is None and atlas is not None:
                atlas.close()

    def search(self) -> SearchResult:
        """Run the multiresolution search for this specification."""
        if self.checkpoint_path:
            return self.search_session().result
        return self._run(session=False)

    def search_session(self):
        """Run the search as a checkpointed, resumable session.

        Returns a :class:`~repro.resilience.session.SessionResult`;
        requires :attr:`checkpoint_path`.
        """
        if not self.checkpoint_path:
            raise ConfigurationError("search_session requires checkpoint_path")
        return self._run(session=True)

    def serve(
        self,
        host: str = "127.0.0.1",
        port: int = 0,
        unix_path: Optional[str] = None,
        config: Optional[object] = None,
        replicas: int = 1,
    ):
        """Serve this MetaCore's evaluation engine to concurrent clients.

        Starts the asyncio evaluation service (socket server on a
        background thread) with this facade's ``workers`` /
        ``cache_path`` / ``resilient`` settings and a pre-warmed
        session for this specification; returns a started
        :class:`~repro.serve.server.ServeHandle` (context manager).
        Results are bit-identical to one-shot evaluation — see
        ``docs/serving.md``.

        With ``replicas > 1`` this becomes cluster mode: N replica
        services plus a fingerprint-sharded router front door, returned
        as a started :class:`~repro.cluster.handle.ClusterHandle` with
        the same ``client()``/``stop()`` surface.  Replicas share the
        design atlas; results stay bit-identical — see
        ``docs/cluster.md``.
        """
        # Imported lazily: repro.serve depends on this module.
        from repro.serve import ServeHandle, ServiceConfig, spec_to_payload

        if config is None:
            config = ServiceConfig(
                workers=self.workers,
                cache_path=self.cache_path,
                resilient=self.resilient,
                atlas_path=self.atlas_path,
            )
        if replicas > 1:
            from repro.cluster import ClusterHandle

            cluster = ClusterHandle(
                config, replicas=replicas, host=host, port=port
            )
            cluster.start()
            cluster.register_spec(self.spec)
            return cluster
        handle = ServeHandle(
            config, host=host, port=port, unix_path=unix_path
        )
        handle.start()
        handle.service.session_for_spec(spec_to_payload(self.spec))
        return handle

    def recommend(self, constraints: Optional[Dict[str, float]] = None):
        """Answer a constraint query from the design atlas.

        ``constraints`` are extra per-query upper bounds on metrics
        (e.g. ``{"area_mm2": 40.0}``) tightening the specification's
        goal.  A stored frontier design covering the query is returned
        with **zero evaluations**; a library miss falls back to a
        (warm-started) :meth:`search`, whose log is ingested so the
        next nearby query hits.  Requires :attr:`atlas_path`; returns a
        :class:`~repro.atlas.recommend.Recommendation`.
        """
        if not self.atlas_path:
            raise ConfigurationError("recommend requires atlas_path")
        from repro.atlas import recommend

        atlas, seeder = self._open_atlas(self._engine())
        try:
            return recommend(
                atlas,
                seeder.fingerprint,
                self.spec.goal(),
                constraints=constraints,
                fallback=lambda: self._run(
                    session=False, opened=(atlas, seeder)
                ),
            )
        finally:
            atlas.close()

    def sweep(
        self,
        specs: Sequence[object],
        labels: Optional[Sequence[str]] = None,
    ):
        """Search a portfolio of specifications into one atlas.

        Each spec runs through a copy of this facade (same fixed
        parameters, config, workers, cache, atlas); returns a
        :class:`~repro.atlas.sweep.SweepOutcome`.
        """
        from repro.atlas import run_sweep

        metacores = [dataclasses.replace(self, spec=spec) for spec in specs]
        return run_sweep(metacores, labels=labels)

    def build(self, point: Point):
        """The concrete design (decoder, realization, ...) of a point."""
        return self.definition.build(self._engine(), point)
