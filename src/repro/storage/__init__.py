"""Out-of-core storage subsystem: the two segment homes, the one column
codec, zone maps, a budgeted buffer pool, and durability.

Every table is one :class:`~repro.engine.storage.PartitionedTable`:
per slot, sealed immutable segments of ``segment_rows`` insert-order
rows plus an append-only columnar tail. ``ClusterConfig.storage_mode``
decides only what sealing a chunk produces:

* ``"memory"`` — a :class:`MemorySegment`: the chunk's columns and
  per-row sizes, with its zone maps cached on it;
* ``"disk"`` — a :class:`DiskSegment`: an immutable, checksummed
  columnar segment file (each typed or tensor-block column as its array
  buffer plus null mask, object columns pickled, and a footer carrying
  row count, per-column min/max and null counts) decoded straight into
  :class:`~repro.columnar.ColumnData` — read-only views of the file
  bytes — held by a :class:`BufferPool` with LRU-with-pins eviction.
  Spill files, snapshot partitions and WAL rows are the same segment
  blobs (:func:`encode_rows` / :func:`decode_segment`).

Both answer the same questions with identical serialized-byte
accounting, and the chunk boundaries come from the one table class, so
scans, zone-map pruning decisions and spill triggers charge bit-identical
simulated costs in either mode (see ``docs/STORAGE.md``).
"""

from .bufferpool import BufferPool
from .disk import DiskSegment
from .durable import (
    TMP_SUFFIX,
    DurableFile,
    atomic_write,
    durable_read,
    sweep_temp_files,
)
from .engine import STORAGE_MODES, StorageEngine
from .segment import (
    SEGMENT_MAGIC,
    MemorySegment,
    ZoneMap,
    chunk_offsets,
    compute_zone,
    compute_zones,
    decode_segment,
    encode_rows,
    encode_segment,
    read_segment_file,
    segment_pruned,
    write_segment_file,
    zone_excludes,
)

from .wal import (
    CHECKPOINT_FILE,
    WAL_FILE,
    WAL_MAGIC,
    DurabilityManager,
    WriteAheadLog,
    has_existing_state,
    read_wal,
    recover_database,
    truncate_torn_tail,
)

__all__ = [
    "BufferPool",
    "DiskSegment",
    "STORAGE_MODES",
    "StorageEngine",
    "TMP_SUFFIX",
    "DurableFile",
    "atomic_write",
    "durable_read",
    "sweep_temp_files",
    "CHECKPOINT_FILE",
    "WAL_FILE",
    "WAL_MAGIC",
    "DurabilityManager",
    "WriteAheadLog",
    "has_existing_state",
    "read_wal",
    "recover_database",
    "truncate_torn_tail",
    "SEGMENT_MAGIC",
    "MemorySegment",
    "ZoneMap",
    "chunk_offsets",
    "compute_zone",
    "compute_zones",
    "decode_segment",
    "encode_rows",
    "encode_segment",
    "read_segment_file",
    "segment_pruned",
    "write_segment_file",
    "zone_excludes",
]
