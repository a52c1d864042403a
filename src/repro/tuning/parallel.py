"""Process-based batched proposal evaluation for the autotuner.

Each worker process holds its own :class:`~repro.tuning.tuner.Autotuner`
built from the same (pickled) compiled program, datasets, device, seed and
noise level, so it evaluates configurations with full local caching.
Because simulated times — including measurement noise — are deterministic
functions of the path signature, any worker computes exactly the value a
serial run would have; the coordinator merges worker results back through
its master signature→time caches *in proposal order*, which keeps
``simulations``/``cache_hits`` accounting and every reported time identical
to a serial (``workers=1``) run with the same seed.

Workers also capture the :mod:`repro.perf` counter/timer delta of each
configuration they evaluate and ship it back with the result, so the
coordinator's ``perf.snapshot()`` covers work done in worker processes
(see ``docs/performance.md``, "Reading merged multi-worker snapshots").

Robustness (``docs/robustness.md``): the coordinator's active fault plan is
shipped to workers and re-activated there, so injected faults fire inside
worker processes too.  Workers apply the plan's transient-retry policy
locally and report deterministic failures as a reason string instead of a
result; a ``worker_crash`` fault hard-exits the worker (``os._exit``), and
the coordinator recovers by detecting the broken pool, respawning the
workers — against a plan whose ``worker_crash`` budget is decremented, so
replacement workers do not crash-loop — and re-dispatching exactly the
chunks that were lost.  Completed chunks are kept, so the deterministic
merge is unaffected by crashes.  A worker that dies while the pool starts
up is reported immediately (:class:`RuntimeError`) rather than hanging the
tuning run.
"""

from __future__ import annotations

import multiprocessing
import os
from concurrent.futures import ProcessPoolExecutor, TimeoutError as _FutTimeout
from concurrent.futures.process import BrokenProcessPool
from typing import Sequence

from repro import faults, perf
from repro.obs import trace as obs

__all__ = ["BatchExecutor"]

#: per-configuration worker result: (per-dataset (signature, time) list —
#: None when the configuration failed — , perf counter/timer delta
#: accumulated while evaluating it, failure reason or None)
EvalOut = tuple

#: exit code of a worker hard-exiting on an injected ``worker_crash``
WORKER_CRASH_EXIT = 23

#: worker-global evaluator, set once per process by the pool initializer
_WORKER = None


def _watch_parent(ppid: int) -> None:
    """Exit when the coordinator dies without shutting the pool down.

    A spawn-based worker blocked on the call queue survives a ``kill -9``
    of its parent indefinitely (both queue ends are open in the worker
    itself, so it never sees EOF).  For a one-shot ``repro tune`` that is
    a curiosity; for the long-running ``repro serve`` daemon it leaks a
    process per worker per kill.  Reparenting (``getppid() != ppid``) is
    the reliable death signal on POSIX.
    """
    import threading
    import time as _t

    def loop() -> None:
        while True:
            if os.getppid() != ppid:
                os._exit(0)
            _t.sleep(1.0)

    threading.Thread(target=loop, daemon=True, name="parent-watch").start()


def _init_worker(
    compiled, datasets, device, seed: int, noise: float, plan=None,
    codegen_cache: str | None = None, parent_pid: int | None = None,
) -> None:
    global _WORKER
    from repro.tuning.tuner import Autotuner

    if parent_pid is not None:
        _watch_parent(parent_pid)

    if codegen_cache is not None:
        # pin the coordinator's resolved kernel-cache directory so every
        # worker shares one compile cache (a kernel compiled by any process
        # is a disk hit for all the others)
        from repro.exec import compile_cache

        compile_cache.set_dir(codegen_cache)
    if plan is not None:
        faults.activate(plan)
        try:
            faults.check("worker.init")
        except faults.WorkerCrashFault:
            os._exit(WORKER_CRASH_EXIT)
    _WORKER = Autotuner(
        compiled, datasets, device, seed=seed, noise=noise, cache=True
    )


def _ping() -> int:
    """Startup probe: proves a worker can spawn, unpickle and respond."""
    return os.getpid()


def _eval_configs(cfgs: list[dict[str, int]]) -> list[EvalOut]:
    assert _WORKER is not None, "worker pool not initialised"
    inj = faults.current()
    retry_budget = inj.plan.retries if inj is not None else 8
    backoff_s = inj.plan.backoff_s if inj is not None else 0.0
    out: list[EvalOut] = []
    for cfg in cfgs:
        base = perf.export()
        try:
            faults.check("worker.eval")
            res, failure = _WORKER._eval_robust(
                cfg, None, retry_budget, backoff_s
            )
        except faults.WorkerCrashFault:
            # nothing is shipped back: the coordinator re-dispatches the
            # whole chunk to a replacement worker
            os._exit(WORKER_CRASH_EXIT)
        if failure is None:
            # commit locally so repeated signatures within this worker hit
            # its caches; the coordinator re-derives canonical accounting
            _WORKER._merge(cfg, res)
        else:
            _WORKER._note_quarantine(cfg, failure)
        out.append((res, perf.delta(base), failure))
    return out


class BatchExecutor:
    """A pool of evaluator processes for one tuning run.

    Use as a context manager (or call :meth:`close`) so the worker
    processes are torn down deterministically rather than at interpreter
    exit.  ``workers`` must be at least 2 — the serial path in
    :meth:`Autotuner.tune` already covers single-worker evaluation, and
    silently spawning more processes than asked for would misreport the
    run's parallelism.
    """

    #: replacement pools allowed per :meth:`evaluate` call before giving up
    max_respawns = 5
    #: seconds the startup probe may take before the pool counts as hung
    startup_timeout_s = 60.0

    def __init__(self, tuner, workers: int):
        workers = int(workers)
        if workers < 2:
            raise ValueError(
                f"BatchExecutor needs at least 2 workers, got {workers}; "
                f"use tune(workers=1) for serial evaluation"
            )
        self.workers = workers
        self._initargs = (
            tuner.compiled,
            tuner.datasets,
            tuner.device,
            tuner.seed,
            tuner.noise,
        )
        #: the plan replacement workers are built against; its
        #: ``worker_crash`` budget shrinks as crashes are observed
        self._plan = faults.active_plan()
        from repro.exec import compile_cache

        self._codegen_cache = compile_cache.shared_dir()
        self._pool: ProcessPoolExecutor | None = self._spawn_pool()

    def _spawn_pool(self) -> ProcessPoolExecutor:
        # "spawn", not fork: a worker hard-exiting (injected worker_crash)
        # can race a fork-based pool's management thread into never marking
        # the pool broken, hanging evaluate() forever on a pending future;
        # spawned workers start from a fresh interpreter and carry no
        # inherited lock state, so crash detection is reliable
        pool = ProcessPoolExecutor(
            max_workers=self.workers,
            mp_context=multiprocessing.get_context("spawn"),
            initializer=_init_worker,
            initargs=self._initargs
            + (self._plan, self._codegen_cache, os.getpid()),
        )
        # fail fast: surface a worker that dies (or hangs) while starting
        # up as a clear error instead of hanging the first evaluate()
        try:
            pool.submit(_ping).result(timeout=self.startup_timeout_s)
        except BrokenProcessPool:
            pool.shutdown(wait=False, cancel_futures=True)
            raise RuntimeError(
                "tuning worker process died during startup (it could not be "
                "spawned or crashed in its initializer)"
            ) from None
        except _FutTimeout:
            pool.shutdown(wait=False, cancel_futures=True)
            raise RuntimeError(
                f"tuning worker pool did not start within "
                f"{self.startup_timeout_s}s"
            ) from None
        return pool

    def _respawn(self) -> None:
        """Replace a broken pool, consuming one observed worker crash from
        the plan so replacement workers do not crash-loop."""
        if self._pool is not None:
            # a submit that races the pool's own teardown can start a worker
            # after the pool terminated the others; nothing else stops it,
            # and the pool's manager thread, which interpreter exit joins,
            # waits on it forever
            for proc in list(self._pool._processes.values()):
                proc.terminate()
            self._pool.shutdown(wait=False, cancel_futures=True)
        if self._plan is not None:
            self._plan = self._plan.consume("worker_crash", 1)
        self._pool = self._spawn_pool()

    def evaluate(self, cfgs: Sequence[dict[str, int]]) -> list[EvalOut]:
        """Per-configuration (result, perf delta, failure) triples, in the
        order given (contiguous chunks, one future per worker).

        Worker crashes are recovered transparently: completed chunks are
        kept, the pool is respawned, and only the lost chunks re-run — the
        values are deterministic functions of the path signature, so
        recovery cannot change the merged result.
        """
        if self._pool is None:
            raise RuntimeError("BatchExecutor is closed")
        if not cfgs:
            return []
        perf.inc("tuner.parallel_batches")
        n = len(cfgs)
        chunk = max(1, -(-n // self.workers))  # ceil division
        chunks = [list(cfgs[i : i + chunk]) for i in range(0, n, chunk)]
        results: list[list[EvalOut] | None] = [None] * len(chunks)
        pending = list(range(len(chunks)))
        respawns = 0

        def crashed(lost: int) -> None:
            nonlocal respawns
            respawns += 1
            perf.inc("faults.worker_crashes")
            obs.instant(
                "worker.crash", cat="faults",
                respawn=respawns, lost_chunks=lost,
            )
            if respawns > self.max_respawns:
                self.close()
                raise RuntimeError(
                    f"tuning workers crashed {respawns} times; giving up "
                    f"(is a fault plan injecting unbounded worker_crash?)"
                )
            self._respawn()

        while pending:
            try:
                futures = [
                    (idx, self._pool.submit(_eval_configs, chunks[idx]))
                    for idx in pending
                ]
            except (BrokenProcessPool, OSError, ValueError):
                # a crash from the *previous* round can surface here: the
                # worker died after its futures resolved, so the pool only
                # got marked broken in between.  Before it is marked, submit
                # may instead try to respawn the dead worker into the
                # half-torn-down pool and fail with OSError ("handle is
                # closed") or ValueError ("bad value(s) in fds_to_keep").
                # All of `pending` is still owed; any futures submitted
                # before the error belong to the dead pool and are simply
                # abandoned.
                crashed(len(pending))
                continue
            failed: list[int] = []
            for idx, fut in futures:
                try:
                    results[idx] = fut.result()
                except BrokenProcessPool:
                    failed.append(idx)
            if not failed:
                break
            crashed(len(failed))
            pending = failed
        out: list[EvalOut] = []
        for r in results:
            assert r is not None
            out.extend(r)
        return out

    def close(self) -> None:
        """Shut the pool down, waiting for worker processes to exit.

        Idempotent; after closing, :meth:`evaluate` raises RuntimeError.
        """
        pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown(wait=True, cancel_futures=True)

    # backwards-compatible alias
    shutdown = close

    def __enter__(self) -> "BatchExecutor":
        return self

    def __exit__(self, *exc) -> None:
        self.close()
