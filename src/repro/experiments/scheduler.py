"""Schedulers: execution engines for campaign runs.

This is the **scheduler layer** of the campaign service (see
``docs/campaigns.md``).  A :class:`Scheduler` takes a list of indexed
jobs and a worker function and delivers ``(index, result)`` pairs to a
callback in completion order; everything else — cache lookups, sharding,
persistence, aggregation — stays in the layers around it.
:class:`PoolScheduler` is the one engine: an in-process loop at one
worker, ``multiprocessing.Pool.imap_unordered`` above that.  Its
chunksize of 1 hands out one job at a time, so a slow run never idles
the other workers.

A :class:`CancelCampaign` raised by the result callback stops the
engine; combined with per-record persistence this makes any campaign
killable and resumable at run granularity.

Pool workers are separate processes, so the worker function and job
payloads must be picklable top-level callables.
"""

from __future__ import annotations

import abc
import multiprocessing
from typing import Callable, Sequence, Tuple

__all__ = [
    "CancelCampaign",
    "Scheduler",
    "PoolScheduler",
]

#: payload of one schedulable run: (slot index, worker-function argument)
Job = Tuple[int, object]
#: delivery callback: on_result(slot index, worker-function return)
OnResult = Callable[[int, object], None]


class CancelCampaign(Exception):
    """Raised *by a result callback* to stop a campaign gracefully.

    Schedulers treat it as a cancellation signal, not an error: dispatch
    stops, the pool terminates any in-flight runs, and the exception
    propagates to the caller, which keeps every result delivered so far.
    :func:`repro.experiments.campaign.run_campaign` turns it into a
    partial :class:`CampaignResult` marked ``cancelled``.
    """


class Scheduler(abc.ABC):
    """One way of executing a batch of independent jobs."""

    name: str = "?"

    @abc.abstractmethod
    def execute(
        self,
        fn: Callable[[object], object],
        jobs: Sequence[Job],
        on_result: OnResult,
    ) -> None:
        """Run ``fn(payload)`` for every ``(index, payload)`` job.

        ``on_result(index, result)`` fires in completion order, in the
        caller's process/thread.  A :class:`CancelCampaign` from
        ``on_result`` stops dispatching and re-raises after the engine
        has wound down.
        """


def _call_indexed(packed: Tuple[Callable, int, object]) -> Tuple[int, object]:
    """Pool-side trampoline carrying the job's slot index, so unordered
    completions map back to the right result slot."""
    fn, i, payload = packed
    return i, fn(payload)


class PoolScheduler(Scheduler):
    """``multiprocessing.Pool`` fan-out, in-process at one worker.

    Runs serially, with no pool, when the batch (or ``workers``) is 1.
    Cancellation is abrupt: the pool context terminates in-flight
    workers, and a resumed campaign re-runs them (nothing they computed
    was stored).
    """

    name = "pool"

    def __init__(self, workers: int = 1) -> None:
        self.workers = max(1, int(workers))

    def execute(self, fn, jobs, on_result) -> None:
        n = min(self.workers, len(jobs))
        if n <= 1:
            for i, payload in jobs:
                on_result(i, fn(payload))
            return
        packed = [(fn, i, payload) for i, payload in jobs]
        with multiprocessing.Pool(n) as pool:
            for i, result in pool.imap_unordered(_call_indexed, packed):
                on_result(i, result)
