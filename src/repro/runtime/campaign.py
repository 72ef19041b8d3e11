"""One leg of a campaign: the run-directory lifecycle, written once.

``sweep``, ``fuzz`` and ``mc`` all run a campaign into a run
directory the same way: open (or re-attach to) the content-addressed
directory, use its ``results/`` store as the cache, append one audit
line per completed cell (a run's lines in one write), and end either
with a ``summary.json`` or marked ``interrupted`` so the next
invocation — the next *leg* — resumes.  :class:`CampaignLeg` owns that
policy.  ``metrics.jsonl`` is also how far the run has got: ``repro
report`` counts an unfinished run's planned cells there.

The constructor opens the leg; ``with leg:`` guarantees the ending:
whatever leaves the block without :meth:`CampaignLeg.finalize` — an
exception, ``KeyboardInterrupt``, ``SystemExit``, a plain return —
leaves the manifest ``interrupted``, never ``running``.  Without a run
root the leg is inert (no directory, an :meth:`~CampaignLeg.audit`
that does nothing, a ``finalize`` that never calls the summariser, and
none of the run-directory layers — :mod:`repro.obs.artifacts`,
:mod:`repro.runtime.cache` — imported), so call sites carry no ``if
run_dir is not None`` ladder.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Any, Callable, Mapping, Sequence

from repro.errors import ConfigurationError

if TYPE_CHECKING:
    from repro.obs.artifacts import RunDir
    from repro.runtime.cache import ResultCache
    from repro.runtime.request import ExecutionRequest, ExecutionResult


class CampaignLeg:
    """One invocation's hold on a run directory; see the module docstring.

    Args:
        root: The runs root (``--run-dir``), or ``None`` for an inert leg.
        kind, name, config: Recorded in the manifest.
        requests: The planned cells: the run id derives from their cache
            keys (each hashed once, then memoised on its request) and
            ``results/`` becomes the leg's cache.
    """

    def __init__(
        self,
        root: str | None,
        *,
        kind: str,
        name: str,
        config: Mapping[str, Any],
        requests: Sequence[ExecutionRequest],
    ) -> None:
        self.run_dir: RunDir | None = None
        #: The run directory's path; ``None`` for an inert leg.
        self.path: Any = None
        #: The ``results/`` store; ``None`` for an inert leg.
        self.cache: ResultCache | None = None
        #: The planned requests' cache keys, in order, for
        #: :meth:`SweepRunner.run <repro.runtime.sweep.SweepRunner.run>`;
        #: ``None`` for an inert leg.
        self.keys: list[str] | None = None
        #: Planned keys whose results were on disk when this leg opened.
        self.completed_before: set[str] = set()
        self._closed = False
        if root is None:
            return
        # The run-directory layers load with the first leg that has one.
        from repro.obs.artifacts import RunDir
        from repro.runtime.cache import ResultCache

        self.keys = keys = [r.cache_key() for r in requests]
        cells = [(r.name, key) for r, key in zip(requests, keys)]
        try:
            self.run_dir = RunDir.open(
                root,
                kind=kind,
                name=name,
                identity=sorted(keys),
                cells=cells,
                config=config,
            )
        except OSError as exc:
            raise ConfigurationError(
                f"cannot create run directory under {root}: "
                f"{exc.strerror or exc}"
            ) from exc
        self.path = self.run_dir.path
        try:
            self.cache = ResultCache(self.run_dir.results_dir)
            self.completed_before = self.cache.completed_keys() & set(keys)
        except BaseException:
            self.interrupt()
            raise

    # -- per run -------------------------------------------------------------

    def audit(
        self,
        requests: Sequence[ExecutionRequest],
        results: Sequence[ExecutionResult],
    ) -> None:
        """Append the run's lines to ``metrics.jsonl``: the cells one run
        served, which agree in everything but name and key — the
        :class:`~repro.runtime.sweep.SweepRunner` ``on_run`` seam."""
        if self.run_dir is None:
            return
        request, result = requests[0], results[0]
        profile = result.extra.get("profile") or {}
        self.run_dir.record_cell(
            [
                (request.name, result.request_key)
                for request, result in zip(requests, results)
            ],
            cached=result.cached,
            engine=request.engine,
            algorithm=request.algorithm,
            latency=result.latency,
            num_rounds=result.num_rounds,
            events=len(result.events),
            duration_s=profile.get("duration_s"),
        )

    # -- the two endings -----------------------------------------------------

    def finalize(
        self, summarize: Callable[[RunDir], dict[str, Any]]
    ) -> dict[str, Any] | None:
        """Write ``summarize(run_dir)`` as ``summary.json`` and close the
        leg ``complete``; returns the summary (``None`` when inert,
        without calling ``summarize``)."""
        if self._closed:
            raise RuntimeError("this campaign leg is already closed")
        if self.run_dir is None:
            self._closed = True
            return None
        summary = summarize(self.run_dir)
        self.run_dir.finalize(summary)
        self._closed = True
        self._close_store()
        return summary

    def interrupt(self) -> None:
        """Close the leg without a verdict: the next leg resumes it."""
        if self._closed:
            return
        self._closed = True
        if self.run_dir is not None:
            self._close_store()
            self.run_dir.mark_interrupted()

    def _close_store(self) -> None:
        """Close the handles of the ``results/`` store the leg opened."""
        if self.cache is not None:
            self.cache.close()

    def __enter__(self) -> "CampaignLeg":
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> None:
        self.interrupt()
