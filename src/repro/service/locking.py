"""Lock discipline for the thread-safe service layer.

The service layer is driven concurrently by the network front end's
connection threads (``repro.server``), so every mutable component owns an
``RLock`` named ``_lock`` and every attribute write after construction
must happen while that lock is held. Two helpers enforce the rule:

* :func:`owned` — is the calling thread currently holding a lock;
* :class:`LockDisciplineAuditor` — a test harness that patches audited
  classes' ``__setattr__`` to record every post-construction attribute
  write performed without the owning lock. The thread-safety lint
  (``tests/test_lock_discipline.py``) runs a concurrent workload under
  the auditor and fails on any recorded violation, so future PRs cannot
  silently reintroduce unlocked writes.

The convention that makes auditing possible: audited classes assign
``self._lock`` **last** in ``__init__`` (or declare it as the final
dataclass field). Until ``_lock`` exists, writes are construction and
exempt; from then on, every write needs the lock.
"""

from __future__ import annotations

import threading
from dataclasses import dataclass
from typing import Dict, List, Tuple, Type


def owned(lock) -> bool:
    """True when the *calling thread* holds ``lock``.

    Works for :class:`threading.RLock` (via the interpreter's owner
    check) and degrades to plain ``locked()`` for primitive locks,
    which cannot name an owner.
    """
    is_owned = getattr(lock, "_is_owned", None)
    if is_owned is not None:
        return bool(is_owned())
    return lock.locked()


@dataclass(frozen=True)
class LockViolation:
    """One attribute write performed without the owning lock."""

    class_name: str
    attribute: str
    thread_name: str

    def __str__(self) -> str:  # pragma: no cover - debug rendering
        return (
            f"{self.class_name}.{self.attribute} written by thread "
            f"{self.thread_name!r} without holding {self.class_name}._lock"
        )


class LockDisciplineAuditor:
    """Patches classes to detect attribute writes outside their lock.

    Usage (see ``tests/test_lock_discipline.py``)::

        auditor = LockDisciplineAuditor()
        with auditor.audit(QueryService, PlanCache, SlotScheduler):
            ...  # drive a concurrent workload
        assert auditor.violations == []

    Only writes on instances that already carry a ``_lock`` attribute
    are checked; construction (before the lock exists) is exempt, as is
    the ``_lock`` assignment itself.
    """

    def __init__(self, exempt: Tuple[str, ...] = ("_lock",)):
        self.exempt = frozenset(exempt)
        self.violations: List[LockViolation] = []
        self._originals: Dict[Type, object] = {}
        self._record_lock = threading.Lock()

    def audit(self, *classes: Type) -> "LockDisciplineAuditor":
        for cls in classes:
            self._patch(cls)
        return self

    def _patch(self, cls: Type) -> None:
        if cls in self._originals:
            return
        original = cls.__setattr__
        self._originals[cls] = original
        auditor = self

        def audited_setattr(instance, name, value, _original=original):
            lock = instance.__dict__.get("_lock")
            if lock is not None and name not in auditor.exempt and not owned(lock):
                with auditor._record_lock:
                    auditor.violations.append(
                        LockViolation(
                            class_name=type(instance).__name__,
                            attribute=name,
                            thread_name=threading.current_thread().name,
                        )
                    )
            _original(instance, name, value)

        cls.__setattr__ = audited_setattr

    def restore(self) -> None:
        for cls, original in self._originals.items():
            cls.__setattr__ = original
        self._originals.clear()

    def __enter__(self) -> "LockDisciplineAuditor":
        return self

    def __exit__(self, *exc) -> None:
        self.restore()
