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

The snapshot payload and every WAL record are written in one plain-data
envelope (:func:`encode_payload` / :func:`decode_payload`).

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
import json
import os
import struct
import tempfile
from contextlib import contextmanager
from typing import Optional

from ..errors import ReproError, SimulatedCrashError, SnapshotCorruptError

#: suffix of in-flight temp files; recovery sweeps leftovers away
TMP_SUFFIX = ".reprotmp"
#: a payload's head length (u32 LE), and each blob's length (u64 LE)
_HEAD = struct.Struct("<I")
_BLOB = struct.Struct("<Q")


def encode_payload(tree) -> bytes:
    """Plain data as bytes: a JSON head in which every ``bytes`` value (a
    segment blob) is the reference ``{"$": i}``, then the blobs it names,
    each length-prefixed, in that order::

        <u32 head length> head (<u64 blob length> blob)*

    The snapshot payload and every WAL record are written this way. No
    dict in them is keyed by data (names travel as values), so a
    reference never collides with one."""
    blobs = []

    def refer(value):
        if type(value) is not bytes:
            raise TypeError(f"no plain-data encoding for a {type(value).__name__}")
        blobs.append(value)
        return {"$": len(blobs) - 1}

    head = json.dumps(tree, default=refer, separators=(",", ":")).encode()
    parts = [_HEAD.pack(len(head)), head]
    for blob in blobs:
        parts += (_BLOB.pack(len(blob)), blob)
    return b"".join(parts)


def decode_payload(body: bytes, path: str = "", offset: int = 0) -> dict:
    """The inverse of :func:`encode_payload` for a dict. Bytes that do
    not decode — a length past the end, a head that is not a JSON
    object, a reference to no blob — raise
    :class:`~repro.errors.SnapshotCorruptError` naming ``path`` and
    ``offset`` (where ``body`` starts in the file)."""
    try:
        (length,) = _HEAD.unpack_from(body, 0)
        position = _HEAD.size + length
        if position > len(body):
            raise ValueError("the head overruns the payload")
        blobs = []
        while position < len(body):
            (size,) = _BLOB.unpack_from(body, position)
            position += _BLOB.size
            if size > len(body) - position:
                raise ValueError("a blob overruns the payload")
            blobs.append(body[position : position + size])
            position += size

        def resolve(node: dict):
            if len(node) != 1 or "$" not in node:
                return node
            index = node["$"]
            if type(index) is not int or not 0 <= index < len(blobs):
                raise ValueError(f"the head names blob {index!r} of {len(blobs)}")
            return blobs[index]

        tree = json.loads(body[_HEAD.size : _HEAD.size + length], object_hook=resolve)
        if type(tree) is not dict:
            raise ValueError("the head is not an object")
        return tree
    except (ValueError, TypeError, RecursionError, struct.error) as exc:
        raise SnapshotCorruptError(
            f"payload does not decode ({type(exc).__name__}: {exc})",
            path=path,
            offset=offset,
        ) from exc


@contextmanager
def validating(path: str):
    """Read decoded plain data from ``path``: a field that is missing, of
    another kind than the program writes, or nested too deep surfaces
    where it is read as one of these exceptions, and means the file does
    not validate (a statement's text the parser refuses, nested past its
    bound included, is a ``SqlSyntaxError``, which surfaces as itself).
    Wrap the reading only: what then runs on the data is the program's,
    and an error it raises surfaces as itself."""
    try:
        yield
    except ReproError:
        raise
    except (LookupError, TypeError, ValueError, AttributeError, RecursionError) as exc:
        raise SnapshotCorruptError(
            f"content does not validate ({type(exc).__name__}: {exc})", path=path
        ) from exc


def checked(value, kind: type, each: Optional[type] = None):
    """``value`` when it is exactly a ``kind`` (and, for a list, each
    item exactly an ``each``); else ``TypeError``, which
    :func:`validating` reports as content that does not validate."""
    if type(value) is not kind or (
        each is not None and any(type(item) is not each for item in value)
    ):
        raise TypeError(
            f"expected a {kind.__name__}"
            + (f" of {each.__name__}" if each is not None else "")
            + f", not {type(value).__name__} {str(value)[:40]}"
        )
    return value


def check_magic(blob: bytes, magic: bytes, path: str, what: str) -> None:
    """Refuse bytes that do not open with ``magic``, before anything in
    them is interpreted. Every on-disk format carries its version in its
    magic (``RSEG3``, ``RDBF3``, ``RWAL3``): the same four-letter tag
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
