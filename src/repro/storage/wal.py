"""Write-ahead logging and crash recovery.

The durability subsystem (``ClusterConfig.durability_mode = "wal"``)
keeps two artifacts in ``ClusterConfig.data_dir``:

* ``wal.log`` — the write-ahead log. Every committed DDL/DML operation
  appends one checksummed, length-prefixed, fsynced record *after* the
  in-memory mutation succeeds and *before* the call returns — returning
  is the acknowledgement, so an acknowledged statement is durable by
  definition.
* ``checkpoint.db`` — the latest atomic checkpoint (the
  :mod:`repro.persist` snapshot format written via
  :func:`~repro.storage.durable.atomic_write`). ``Database.checkpoint``
  (or ``save`` onto the checkpoint path) truncates the WAL back to a
  bare header once the snapshot is durable.

Record framing on disk::

    RWAL3\\n | record ... record
    record := <u32 payload length LE> <u32 CRC32(payload) LE> <payload>

The payload is a plain-data dict in the one envelope
(:func:`~repro.storage.durable.encode_payload`: a JSON head and the
segment blobs it names; see ``Database._apply_wal_record`` for the
record kinds). A statement is logged as its normalised text — the
plan-cache key — and replayed through the parser; its SQL parameter
values, and a ``load``'s rows, are segment blobs of the one column
codec (:mod:`repro.storage.segment`). Replay walks the frames and
stops at the first record whose length or CRC does not hold — a *torn
tail* left by a crash mid-append, including a zero-filled one, whose
empty frames no record can be — truncating the file back to the last
good frame. A header that is itself torn truncates to an empty
log; bytes that are not a prefix of a WAL at all, or a record whose
CRC holds but whose payload does not decode, raise
:class:`~repro.errors.SnapshotCorruptError`; a log in another format
(``RWAL2``) is refused by name, never replayed.

Recovery (:func:`recover_database`) = load the checkpoint (if any),
replay the surviving WAL records in commit order, resume appending,
and log one INFO line on the ``repro.storage.wal`` logger saying what
it did. Because replay runs the same code paths as the original
statements on the same cluster shape, recovered rows, statistics and
catalog version are bit-identical to the acknowledged prefix of the
original session.
"""

from __future__ import annotations

import logging
import os
import struct
import zlib
from typing import Dict, List, Optional, Tuple

from ..errors import DurabilityError, ReproError, SnapshotCorruptError
from .durable import (
    DurableFile,
    atomic_write,
    check_magic,
    checked,
    decode_payload,
    durable_read,
    encode_payload,
    sweep_temp_files,
    validating,
)

logger = logging.getLogger(__name__)

WAL_MAGIC = b"RWAL3\n"
_FRAME = struct.Struct("<II")
#: the shortest payload :func:`encode_record` writes (a head length and
#: ``{}``): a frame that claims less is no record
_MIN_PAYLOAD = len(encode_payload({}))

CHECKPOINT_FILE = "checkpoint.db"
WAL_FILE = "wal.log"


def encode_record(record: dict) -> bytes:
    payload = encode_payload(record)
    return _FRAME.pack(len(payload), zlib.crc32(payload)) + payload


def read_wal(path: str, injector=None) -> Tuple[List[dict], int, bool]:
    """Decode a WAL file: ``(records, good_offset, torn)``.

    ``good_offset`` is the byte offset just past the last intact record
    (always at least the header length for a well-formed file); ``torn``
    reports whether trailing bytes after it failed validation and should
    be truncated away.
    """
    blob = durable_read(path, injector)
    if not blob:
        return [], 0, False
    if len(blob) < len(WAL_MAGIC) and WAL_MAGIC.startswith(blob):
        # a crash mid-header: nothing was ever logged
        return [], 0, True
    check_magic(blob, WAL_MAGIC, path, "WAL file")
    records: List[dict] = []
    offset = len(WAL_MAGIC)
    size = len(blob)
    while offset < size:
        if offset + _FRAME.size > size:
            return records, offset, True
        length, crc = _FRAME.unpack_from(blob, offset)
        payload = blob[offset + _FRAME.size : offset + _FRAME.size + length]
        # a crash mid-append can leave the file longer than the bytes
        # that landed, zero-filled: zeros read as an empty frame whose
        # CRC holds (crc32(b"") == 0), so a length no record has is torn
        if (
            length < _MIN_PAYLOAD
            or len(payload) < length
            or zlib.crc32(payload) != crc
        ):
            return records, offset, True
        # a CRC that holds over a record's worth of bytes that do not
        # decode is no torn write: it raises, and nothing after it is
        # truncated away
        records.append(decode_payload(payload, path, offset + _FRAME.size))
        offset += _FRAME.size + length
    return records, offset, False


def truncate_torn_tail(path: str, offset: int) -> int:
    """Durably truncate a WAL back to its last intact record; returns
    the number of bytes dropped."""
    with open(path, "r+b") as handle:
        dropped = handle.seek(0, os.SEEK_END) - offset
        handle.truncate(offset)
        handle.flush()
        os.fsync(handle.fileno())
    return dropped


class WriteAheadLog:
    """The append side of the log. One durability barrier per record.

    ``config_record`` (a ``{"kind": "config", ...}`` dict) is planted as
    the log's first record whenever the log starts empty, *in the same
    fsync as the header*: the cluster shape must be recoverable from the
    WAL alone — without it, a database that crashed before its first
    checkpoint would replay onto the default shape and lose the
    bit-identical partition layout.
    """

    def __init__(self, path: str, injector=None, config_record=None):
        self.path = path
        self.injector = injector
        self.config_record = config_record
        try:
            size = os.path.getsize(path)
        except OSError:
            size = 0
        self._file = DurableFile(path, injector=injector)
        if size == 0:
            # one barrier for header (+ config record when given): a
            # crash here leaves a torn header/torn first record, which
            # replay treats as an empty log
            blob = WAL_MAGIC
            if config_record is not None:
                blob += encode_record(config_record)
            self._file.append(blob)
        elif size == len(WAL_MAGIC) and config_record is not None:
            # bare header (a pre-recovery truncation left it): plant
            # the config record before any statement lands
            self._file.append(encode_record(config_record))

    @property
    def size_bytes(self) -> int:
        return self._file.tell()

    def append(self, record: dict) -> None:
        self._file.append(encode_record(record))

    def reset(self) -> None:
        """Truncate back to a header plus config record (after a
        checkpoint made the logged history redundant). Atomic: a crash
        mid-reset leaves either the full old log or the fresh header."""
        blob = WAL_MAGIC
        if self.config_record is not None:
            blob += encode_record(self.config_record)
        self._file.close()
        try:
            atomic_write(self.path, blob, injector=self.injector)
        finally:
            # reopen even if the reset crashed mid-way so a surviving
            # process ("enospc" kind) can keep appending
            self._file = DurableFile(self.path, injector=self.injector)

    def close(self) -> None:
        self._file.close()


class DurabilityManager:
    """Owns one database's durability artifacts and commit log.

    Constructed by :class:`~repro.db.Database` when
    ``durability_mode="wal"``. In the normal (``attach=True``) path it
    opens the WAL immediately and refuses a ``data_dir`` that already
    holds a database — recovering one is an explicit
    ``Database.restore(data_dir)`` / ``Database.open(config)``, never an
    accident. During recovery the manager starts detached (replayed
    records must not be re-logged) and :meth:`resume` attaches it once
    replay is complete.
    """

    def __init__(self, db, attach: bool = True):
        from ..persist import freeze_config

        config = db.config
        if not config.data_dir:
            raise ReproError(
                "durability_mode='wal' requires ClusterConfig.data_dir "
                "(the directory holding wal.log and checkpoint.db)"
            )
        self.db = db
        self.data_dir = os.path.abspath(config.data_dir)
        os.makedirs(self.data_dir, exist_ok=True)
        self.checkpoint_path = os.path.join(self.data_dir, CHECKPOINT_FILE)
        self.wal_path = os.path.join(self.data_dir, WAL_FILE)
        self.injector = db.storage.injector
        #: the WAL's first record: the cluster shape, so recovery can
        #: rebuild the same partition layout without a checkpoint
        self.config_record = {"kind": "config", "config": freeze_config(config)}
        self._wal: Optional[WriteAheadLog] = None
        #: records appended this session (not counting replayed history)
        self.records_logged = 0
        #: records replayed by the recovery that produced this database
        self.records_replayed = 0
        self.checkpoints_taken = 0
        if attach:
            if has_existing_state(self.data_dir):
                raise ReproError(
                    f"data_dir {self.data_dir!r} already holds a database "
                    "(checkpoint or non-empty WAL); recover it with "
                    "Database.restore(data_dir) instead of constructing "
                    "a fresh Database over it"
                )
            self._wal = WriteAheadLog(
                self.wal_path,
                injector=self.injector,
                config_record=self.config_record,
            )

    @property
    def active(self) -> bool:
        return self._wal is not None

    def resume(self, replayed: int = 0) -> None:
        """Attach after recovery: reopen the WAL for appending."""
        self.records_replayed = replayed
        self._wal = WriteAheadLog(
            self.wal_path,
            injector=self.injector,
            config_record=self.config_record,
        )

    def log(self, record: dict) -> None:
        """Append one committed operation. An ``OSError`` (ENOSPC, real
        I/O failure) surfaces as a structured
        :class:`~repro.errors.DurabilityError`: the statement stays
        applied in memory but was **not** acknowledged as durable."""
        if self._wal is None:
            return
        try:
            self._wal.append(record)
        except OSError as exc:
            raise DurabilityError(
                f"WAL append to {self.wal_path!r} failed; the statement "
                "is applied in memory but NOT durable"
            ) from exc
        self.records_logged += 1

    def on_checkpoint(self, path: str) -> None:
        """Called after a successful ``Database.save(path)``: when the
        snapshot landed on this manager's checkpoint path, the WAL
        history is redundant and is truncated."""
        if self._wal is None:
            return
        if os.path.abspath(path) != self.checkpoint_path:
            return
        try:
            self._wal.reset()
        except OSError as exc:
            raise DurabilityError(
                f"WAL truncation of {self.wal_path!r} after checkpoint failed"
            ) from exc
        self.checkpoints_taken += 1
        self.records_logged = 0

    def wal_bytes(self) -> int:
        try:
            return os.path.getsize(self.wal_path)
        except OSError:
            return 0

    def stats(self) -> Dict[str, object]:
        """The ``durability`` block of ``QueryService.stats()``."""
        return {
            "mode": "wal",
            "data_dir": self.data_dir,
            "active": self.active,
            "wal_bytes": self.wal_bytes(),
            "records_logged": self.records_logged,
            "records_replayed": self.records_replayed,
            "checkpoints_taken": self.checkpoints_taken,
            "has_checkpoint": os.path.exists(self.checkpoint_path),
        }

    def close(self) -> None:
        if self._wal is not None:
            self._wal.close()
            self._wal = None


def has_existing_state(data_dir: str) -> bool:
    """Does ``data_dir`` already hold a recoverable database — a
    checkpoint, or a WAL with at least one committed statement? (The
    config record a fresh WAL plants does not count: a database that
    never acknowledged anything is safely re-creatable.)"""
    if os.path.exists(os.path.join(data_dir, CHECKPOINT_FILE)):
        return True
    wal_path = os.path.join(data_dir, WAL_FILE)
    if not os.path.exists(wal_path):
        return False
    try:
        records, _offset, _torn = read_wal(wal_path)
    except SnapshotCorruptError:
        # unidentifiable bytes under the WAL name: refuse to build a
        # fresh database over them
        return True
    return any(record.get("kind") != "config" for record in records)


def recover_database(data_dir: str, config=None):
    """Rebuild a database from its durability directory: checkpoint (if
    any), then WAL replay, then resume logging. ``config`` overrides the
    saved cluster shape exactly like ``Database.restore(file, config)``
    (note that replaying onto a *different* slot count re-deals
    partitions, which forfeits bit-identical per-slot summation order —
    same contract as a plain restore)."""
    from ..config import ClusterConfig
    from ..db import Database
    from ..faults import FaultInjector
    from ..persist import (
        _effective_config,
        apply_snapshot,
        load_snapshot,
        thaw_config,
    )

    data_dir = os.path.abspath(data_dir)
    checkpoint_path = os.path.join(data_dir, CHECKPOINT_FILE)
    wal_path = os.path.join(data_dir, WAL_FILE)

    # the recovery-side injector (bit-rot on read) is armed by the
    # caller's override config — one shared read counter across the
    # checkpoint read (#1) and the WAL read (#2). It is separate from
    # the recovered database's own injector, whose barrier/read
    # counters start fresh for the new session.
    probe_plan = _effective_config(ClusterConfig(), config).fault_plan
    injector = (
        FaultInjector(probe_plan)
        if probe_plan is not None and probe_plan.storage_enabled
        else None
    )

    payload = None
    if os.path.exists(checkpoint_path):
        payload = load_snapshot(checkpoint_path, injector=injector)
    records: List[dict] = []
    torn_note = ""
    if os.path.exists(wal_path):
        records, offset, torn = read_wal(wal_path, injector=injector)
        if torn:
            dropped = truncate_torn_tail(wal_path, offset)
            torn_note = f"; truncated a torn tail at byte {offset} ({dropped} bytes dropped)"
    # the saved cluster shape: the checkpoint's config when one exists,
    # else the config record a fresh WAL plants as its first record —
    # either way replay happens on the original partition layout
    with validating(checkpoint_path if payload is not None else wal_path):
        if payload is not None:
            base = thaw_config(payload["config"])
        else:
            base = next(
                (
                    thaw_config(record["config"])
                    for record in records
                    if record.get("kind") == "config"
                ),
                ClusterConfig(),
            )
        effective = _effective_config(base, config).with_updates(
            durability_mode="wal", data_dir=data_dir
        )
        # the constructor is where a config's values are checked
        db = Database(effective, _recovery=True)
    if payload is not None:
        apply_snapshot(db, payload, checkpoint_path)
    records = [
        record for record in records if record.get("kind") != "config"
    ]
    last_version = None
    for record in records:
        db._apply_wal_record(record, wal_path)
        last_version = record.get("catalog_version", last_version)
    if last_version is not None:
        with validating(wal_path):
            db.catalog.version = max(db.catalog.version, checked(last_version, int))
    sweep_temp_files(data_dir)
    db._durability.resume(replayed=len(records))
    logger.info(
        "recovered %s: %s, %d WAL record(s) replayed%s",
        data_dir,
        "checkpoint loaded" if payload is not None else "no checkpoint",
        len(records),
        torn_note,
    )
    return db
