"""Detached jobs: submit now, poll later, stream the result.

``POST /jobs`` accepts a statement and returns immediately with a job
id; the statement runs on the manager's own small pool, holding one of
the server's statement permits, against a dedicated session
(``job-<id>``). ``GET /jobs/<id>`` polls the state machine::

    queued ──worker admitted──▶ running ──▶ done   (result held, cursor
       │                           │               token ready to fetch)
       └───────────────────────────┴──────▶ error  (structured payload)

A finished job holds its result on the job's own session behind a
streaming cursor, so clients drain it with the same ``POST /fetch``
pagination as synchronous queries. ``DELETE /jobs/<id>`` (or manager
shutdown) closes the session, releasing the result and its cursor.

Thread-safe: jobs are created on a connection's thread and completed on
the pool's; all state transitions hold the job's lock.
"""

from __future__ import annotations

import contextlib
import threading
from concurrent.futures import Executor, ThreadPoolExecutor
from typing import ContextManager, Dict, List, Optional

from ..errors import ReproError
from ..service import QueryService


class Job:
    """One detached statement and its lifecycle."""

    def __init__(self, job_id: str, sql: str, params: Dict[str, object]):
        self.id = job_id
        self.sql = sql
        self.params = params
        self.state = "queued"
        self.session = None
        self.result = None
        self.cursor = None
        #: structured error payload (repro.errors.ReproError.to_payload)
        self.error: Optional[Dict[str, object]] = None
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    @property
    def done(self) -> bool:
        with self._lock:
            return self.state in ("done", "error")

    def describe(self) -> Dict[str, object]:
        """The poll payload of ``GET /jobs/<id>``."""
        with self._lock:
            payload: Dict[str, object] = {
                "job_id": self.id,
                "state": self.state,
                "sql": self.sql,
            }
            if self.state == "done":
                payload["columns"] = list(self.result.columns)
                payload["row_count"] = len(self.result.rows)
            if self.error is not None:
                payload["error"] = self.error
            return payload


class JobManager:
    """Owns every detached job of one server."""

    def __init__(
        self,
        service: QueryService,
        executor: Optional[Executor] = None,
        gate: Optional[ContextManager] = None,
    ):
        self.service = service
        #: without an executor the manager keeps its own small pool
        self._owns_executor = executor is None
        self.executor = executor or ThreadPoolExecutor(
            max_workers=service.db.config.worker_threads,
            thread_name_prefix="repro-job",
        )
        #: held around each job's statement (the server's statement bound)
        self.gate = gate or contextlib.nullcontext()
        self._jobs: Dict[str, Job] = {}
        self._sequence = 0
        self.submitted = 0
        self.completed = 0
        self.failed = 0
        # assigned last: post-construction writes require the lock (see
        # repro.service.locking)
        self._lock = threading.RLock()

    def submit(
        self,
        sql: str,
        params: Optional[Dict[str, object]] = None,
        tenant: Optional[str] = None,
        page_size: Optional[int] = None,
    ) -> Job:
        """Create the job, hand it to the pool, return at once."""
        with self._lock:
            self._sequence += 1
            job = Job(f"j{self._sequence}", sql, dict(params or {}))
            self._jobs[job.id] = job
            self.submitted += 1
        # the session is created eagerly so a bad tenant/session setup
        # fails at submit time, not at poll time
        session = self.service.session(f"job-{job.id}", tenant=tenant)
        with job._lock:
            job.session = session
            # a concurrent delete() in the window before this assignment
            # saw session=None and closed nothing; it is on us now
            deleted = job.state == "deleted"
        if deleted:
            session.close()
            return job
        self.executor.submit(self._run, job, page_size)
        return job

    def _run(self, job: Job, page_size: Optional[int]) -> None:
        with self.gate:
            self._run_admitted(job, page_size)

    def _run_admitted(self, job: Job, page_size: Optional[int]) -> None:
        with job._lock:
            if job.state != "queued":  # deleted before the worker got it
                return
            job.state = "running"
        try:
            result = job.session.execute(job.sql, job.params)
            with job._lock:
                if job.state != "running":  # deleted mid-flight
                    return
                job.result = result
                job.cursor = job.session.open_cursor(result, page_size)
                job.state = "done"
            with self._lock:
                self.completed += 1
        except Exception as exc:
            # anything — including non-ReproError bugs — must land the
            # job in 'error', or clients poll a stuck 'running' forever
            if isinstance(exc, ReproError):
                payload = exc.to_payload()
            else:
                payload = {
                    "code": "internal",
                    "message": f"{type(exc).__name__}: {exc}",
                }
            with job._lock:
                if job.state != "running":  # deleted mid-flight
                    return
                job.error = payload
                job.state = "error"
            with self._lock:
                self.failed += 1
            job.session.close()

    def get(self, job_id: str) -> Optional[Job]:
        with self._lock:
            return self._jobs.get(job_id)

    def delete(self, job_id: str) -> bool:
        """Drop the job record and release its session (and result)."""
        with self._lock:
            job = self._jobs.pop(job_id, None)
        if job is None:
            return False
        with job._lock:
            # a queued/running worker observes this and abandons the job
            job.state = "deleted"
            session = job.session
        if session is not None and not session.closed:
            session.close()
        return True

    def jobs(self) -> List[Job]:
        with self._lock:
            return list(self._jobs.values())

    def active_count(self) -> int:
        """Jobs still queued or running (the drain path waits on this)."""
        with self._lock:
            return sum(
                1
                for job in self._jobs.values()
                if job.state in ("queued", "running")
            )

    def shutdown(self) -> None:
        """Release every job (server close path) and the own pool."""
        with self._lock:
            job_ids = list(self._jobs)
        for job_id in job_ids:
            self.delete(job_id)
        if self._owns_executor:
            self.executor.shutdown(wait=True)

    def stats(self) -> Dict[str, object]:
        with self._lock:
            states: Dict[str, int] = {}
            for job in self._jobs.values():
                states[job.state] = states.get(job.state, 0) + 1
            return {
                "submitted": self.submitted,
                "completed": self.completed,
                "failed": self.failed,
                "live": len(self._jobs),
                "states": states,
            }
