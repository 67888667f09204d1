"""The durable-I/O shim: every byte the durability subsystem promises
to keep crosses this module.

Three primitives, shared by the write-ahead log, the checkpoint writer
and the columnar segment writer:

* :class:`DurableFile` — an append handle whose :meth:`~DurableFile.append`
  is one *durability barrier*: write, flush, ``fsync``. Used by the WAL.
* :func:`atomic_write` — full-file replacement that is atomic under
  crash: write to a same-directory temp file, ``fsync`` it, ``os.replace``
  onto the final name, ``fsync`` the directory. A crash at any point
  leaves either the old file or the new file under the final name,
  never a torn hybrid. Used by checkpoints, WAL truncation and sealed
  segment files.
* :func:`durable_read` — a whole-file read of a durability artifact,
  the hook point for bit-rot injection.

Fault injection threads through the optional
:class:`~repro.faults.FaultInjector`: each barrier first asks
:meth:`~repro.faults.FaultInjector.storage_barrier` whether it is the
configured crash point, and reacts by dying before writing
(``"crash"``), durably writing a deterministic short prefix and then
dying (``"torn"``), or raising ``OSError(ENOSPC)`` (``"enospc"``).
"Dying" means raising :class:`~repro.errors.SimulatedCrashError`, which
derives from ``BaseException`` precisely so no recovery or serving
layer can swallow it.
"""

from __future__ import annotations

import errno
import os
import tempfile
from typing import Optional

from ..errors import ReproError, SimulatedCrashError, SnapshotCorruptError

#: suffix of in-flight temp files; recovery sweeps leftovers away
TMP_SUFFIX = ".reprotmp"


def check_magic(blob: bytes, magic: bytes, path: str, what: str) -> None:
    """Refuse bytes that do not open with ``magic``, before anything in
    them is interpreted. Every on-disk format carries its version in its
    magic (``RSEG2``, ``RDBF2``, ``RWAL2``): the same four-letter tag
    with another version is a well-formed file this build does not read
    and is refused by name; anything else is not a ``what`` at all."""
    if blob.startswith(magic):
        return
    if len(blob) >= len(magic) and blob[:4] == magic[:4]:
        raise ReproError(
            f"{path!r} is a {what} in format {blob[: len(magic)]!r}; "
            f"this version reads only {magic!r}"
        )
    raise SnapshotCorruptError(f"not a repro {what}", path=path, offset=0)


def fsync_dir(directory: str) -> None:
    """Make a directory entry change (``os.replace``) durable. Silently
    a no-op on platforms that refuse to open directories."""
    try:
        fd = os.open(directory, os.O_RDONLY)
    except OSError:  # pragma: no cover - platform-dependent
        return
    try:
        os.fsync(fd)
    except OSError:  # pragma: no cover - platform-dependent
        pass
    finally:
        os.close(fd)


def _consult(injector, path: str) -> Optional[str]:
    """Ask the injector what happens at this barrier; raise immediately
    for the non-torn kinds (nothing has been written yet)."""
    if injector is None:
        return None
    action = injector.storage_barrier()
    if action == "crash":
        raise SimulatedCrashError(f"injected crash at durability barrier ({path})")
    if action == "enospc":
        raise OSError(errno.ENOSPC, "injected ENOSPC at durability barrier", path)
    return action  # None or "torn"


class DurableFile:
    """An append-only file handle with explicit durability barriers."""

    def __init__(self, path: str, injector=None):
        self.path = path
        self.injector = injector
        self._handle = open(path, "ab")

    def append(self, data: bytes) -> None:
        """Append ``data`` and make it durable — one durability barrier.
        When the barrier is an injected torn write, a deterministic
        strict prefix of ``data`` is made durable before the simulated
        crash, leaving exactly the torn tail a real power cut leaves."""
        action = _consult(self.injector, self.path)
        if action == "torn":
            cut = self.injector.torn_length(len(data))
            self._handle.write(data[:cut])
            self._handle.flush()
            os.fsync(self._handle.fileno())
            raise SimulatedCrashError(
                f"injected torn write ({cut}/{len(data)} bytes) at "
                f"durability barrier ({self.path})"
            )
        self._handle.write(data)
        self._handle.flush()
        os.fsync(self._handle.fileno())

    def tell(self) -> int:
        return self._handle.tell()

    def close(self) -> None:
        try:
            self._handle.close()
        except OSError:  # pragma: no cover - best effort
            pass


def atomic_write(path: str, data: bytes, injector=None, fsync: bool = True) -> None:
    """Atomically replace ``path`` with ``data`` (one durability barrier
    when ``fsync`` is set). A crash anywhere — including an injected
    torn write — leaves only a stray ``*.reprotmp`` file behind; the
    final name always holds either the previous contents or ``data``."""
    action = _consult(injector, path) if fsync else None
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(
        prefix=os.path.basename(path) + ".", suffix=TMP_SUFFIX, dir=directory
    )
    try:
        with os.fdopen(fd, "wb") as handle:
            if action == "torn":
                cut = injector.torn_length(len(data))
                handle.write(data[:cut])
                handle.flush()
                os.fsync(handle.fileno())
                raise SimulatedCrashError(
                    f"injected torn write ({cut}/{len(data)} bytes) at "
                    f"durability barrier ({path})"
                )
            handle.write(data)
            if fsync:
                handle.flush()
                os.fsync(handle.fileno())
        os.replace(tmp, path)
    except SimulatedCrashError:
        # the "process" died: leave the torn temp file on disk, exactly
        # as a real crash would (recovery sweeps *.reprotmp files)
        raise
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise
    if fsync:
        fsync_dir(directory)


def durable_read(path: str, injector=None) -> bytes:
    """Read a durability artifact (checkpoint, WAL) whole; the injector
    hook point for deterministic bit-rot."""
    with open(path, "rb") as handle:
        data = handle.read()
    if injector is not None:
        data = injector.corrupt_read(data)
    return data


def sweep_temp_files(directory: str) -> int:
    """Remove stray ``*.reprotmp`` files a crash left behind; returns
    how many were removed. Called by recovery before replay."""
    removed = 0
    try:
        names = os.listdir(directory)
    except OSError:
        return 0
    for name in names:
        if name.endswith(TMP_SUFFIX):
            try:
                os.unlink(os.path.join(directory, name))
                removed += 1
            except OSError:  # pragma: no cover - best effort
                pass
    return removed
