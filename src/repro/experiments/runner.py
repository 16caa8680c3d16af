"""Parallel trial execution for experiment sweeps.

Every Rainbow sweep is a list of *independent* simulations: each point
builds its own :class:`~repro.core.instance.RainbowInstance` (its own
simulator, network, and seeded random streams) and returns plain row data.
That independence makes the sweeps embarrassingly parallel, and this module
is the one fan-out primitive they all share:

* :class:`Trial` — one unit of work: a picklable top-level callable plus
  keyword arguments.
* :func:`run_trials` — execute a list of trials and return their results
  **in trial order**, either serially (``n_jobs=1``) or across worker
  processes.

Determinism contract: a trial's result depends only on its own arguments
(experiments seed every stream explicitly, and every id a session uses
comes from its own instance, never from what ran earlier in the process),
and results are returned in submission order, so a given trial list
produces the identical result list — and therefore byte-identical
experiment tables — for every ``n_jobs``.

Robustness: workers are spawned (no inherited fork state, so the same code
path runs on every platform), and any trial whose worker dies or whose
result cannot be transported is transparently re-executed in the parent
process.  ``n_jobs`` therefore only ever changes wall-clock time, never
results.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Sequence

__all__ = ["Trial", "run_trials", "resolve_jobs", "sweep"]


@dataclass(frozen=True)
class Trial:
    """One schedulable unit of experiment work.

    ``fn`` must be a module-level callable (so it pickles by reference for
    spawn-based workers) and ``kwargs`` must contain only picklable values;
    the same holds for the return value.  ``tag`` is carried untouched for
    the caller's bookkeeping (e.g. the sweep point the trial belongs to).
    """

    fn: Callable[..., Any]
    kwargs: dict = field(default_factory=dict)
    tag: Any = None

    def execute(self) -> Any:
        """Run the trial in the current process."""
        return self.fn(**self.kwargs)


def resolve_jobs(n_jobs: int | None, n_trials: int) -> int:
    """Normalise an ``n_jobs`` request against the machine and the work.

    ``None`` or ``0`` means "all cores"; negative values mean "all cores
    minus ``|n_jobs| - 1``" (the ``joblib`` convention, so ``-1`` is also
    all cores).  The result is clamped to ``[1, n_trials]``.
    """
    cores = os.cpu_count() or 1
    if n_jobs is None or n_jobs == 0:
        jobs = cores
    elif n_jobs < 0:
        jobs = cores + 1 + n_jobs
    else:
        jobs = n_jobs
    return max(1, min(jobs, max(n_trials, 1)))


def _execute(trial: Trial) -> Any:
    """Top-level worker entry point (picklable under spawn)."""
    return trial.execute()


def run_trials(trials: Iterable[Trial], n_jobs: int | None = 1) -> list[Any]:
    """Execute ``trials`` and return their results in trial order.

    * ``n_jobs=1`` (the default): plain serial loop, no subprocesses.
    * ``n_jobs>1``: dispatch across a spawn-based process pool.  Results
      come back in submission order regardless of completion order.
    * ``n_jobs=None``/``0``/negative: see :func:`resolve_jobs`.

    Graceful degradation: if a worker dies (killed, out of memory, broken
    pool) or a trial's function/result fails to pickle, the affected trials
    are re-executed serially in the parent process, so the call still
    returns a complete, correctly ordered result list.  Ordinary exceptions
    *raised by a trial itself* are likewise reproduced in the parent — and
    therefore surface to the caller exactly as they would serially.
    """
    trials = list(trials)
    if not trials:
        return []
    jobs = resolve_jobs(n_jobs, len(trials))
    if jobs == 1:
        return [trial.execute() for trial in trials]

    results: list[Any] = [None] * len(trials)
    done = [False] * len(trials)
    try:
        context = multiprocessing.get_context("spawn")
        with ProcessPoolExecutor(max_workers=jobs, mp_context=context) as pool:
            futures = [pool.submit(_execute, trial) for trial in trials]
            for index, future in enumerate(futures):
                try:
                    results[index] = future.result()
                except Exception:
                    # Worker died mid-trial, result didn't pickle, or the
                    # trial raised: re-run in-process.  A genuine trial
                    # error re-raises here, identically to the serial path.
                    results[index] = trials[index].execute()
                done[index] = True
    except Exception:
        # The pool itself failed to come up or broke down so badly that
        # submission/collection stopped: finish the remainder serially.
        for index, trial in enumerate(trials):
            if not done[index]:
                results[index] = trial.execute()
    return results


def sweep(
    fn: Callable[..., Any],
    points: Sequence[dict],
    n_jobs: int | None = 1,
    **common: Any,
) -> list[Any]:
    """Run ``fn`` once per point dict (merged over ``common`` kwargs).

    Convenience wrapper used by the experiment modules: builds one
    :class:`Trial` per sweep point and returns the per-point results in
    point order.
    """
    trials = [Trial(fn, {**common, **point}, tag=tuple(point.items())) for point in points]
    return run_trials(trials, n_jobs=n_jobs)
