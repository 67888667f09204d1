"""The public database API.

:class:`Database` glues everything together: SQL text goes through the
parser, the binder (type checking, templated-signature binding), the
cost-based optimizer, the physical planner, and finally the simulated
cluster executor. Results come back as :class:`Result` objects carrying
both the rows and the execution metrics (simulated seconds, per-operator
breakdown).

Quickstart::

    from repro import Database
    import numpy as np

    db = Database()
    db.execute("CREATE TABLE v (vec VECTOR[])")
    db.load("v", [[np.random.randn(10)] for _ in range(100)])
    gram = db.execute("SELECT SUM(outer_product(vec, vec)) FROM v")
    print(gram.scalar())          # a 10x10 Matrix
    print(gram.metrics.total_seconds)
"""

from __future__ import annotations

from contextlib import contextmanager
from functools import partial
from itertools import chain
from typing import Dict, Iterable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .admission import AdmissionGate
from .catalog import (
    Catalog,
    FeedbackStatistics,
    Schema,
    TableEntry,
    append_stats,
    collect_stats,
)
from .catalog.statistics import estimate_needs_feedback
from .config import ClusterConfig
from .engine import Cluster, Executor, PartitionedTable, QueryMetrics
from .errors import CompileError, ExecutionError, SnapshotCorruptError, TypeCheckError
from .plan import Binder, CostModel, Optimizer, PhysicalPlanner
from .plan.logical import OutputColumn, ViewScanNode
from .plan_cache import CachedPlan, PlanCache, PlanCacheKey, param_signature
from .sql import ast, parse_keyed, parse_keyed_script, parse_statement
from .storage import StorageEngine
from .storage.durable import checked, validating
from .storage.segment import decode_segment, encode_columns, encode_rows
from .types import Matrix, Vector
from .views import ViewMatcher, ViewRegistry


def _ieee():
    """Floating-point arithmetic in a statement follows IEEE 754, as
    Python's own float arithmetic does: an overflow is ``inf``, ``0/0``
    ``nan`` (docs/SQL.md). numpy's warnings for those are silenced once,
    at the statement boundary — execution, view maintenance and loads —
    never per kernel."""
    return np.errstate(over="ignore", invalid="ignore", divide="ignore")


class Result:
    """Rows plus metadata from executing one statement."""

    def __init__(
        self,
        columns: List[str],
        rows: List[tuple],
        metrics: Optional[QueryMetrics] = None,
        stamps: Tuple[Tuple[str, int, int], ...] = (),
    ):
        self.columns = columns
        self.rows = rows
        self.metrics = metrics or QueryMetrics()
        #: (relation, shape stamp, statistics stamp) of every relation
        #: the statement read, as it executed: a cursor over the result
        #: stays valid while they hold (``repro.service.cursors``)
        self.stamps = stamps

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self):
        return iter(self.rows)

    def scalar(self):
        """The single value of a single-row, single-column result."""
        if len(self.rows) != 1 or len(self.columns) != 1:
            raise ExecutionError(
                f"scalar() needs a 1x1 result, got {len(self.rows)} row(s) x "
                f"{len(self.columns)} column(s)"
            )
        return self.rows[0][0]

    def column(self, name: str) -> List:
        try:
            index = [c.lower() for c in self.columns].index(name.lower())
        except ValueError:
            raise ExecutionError(f"no result column named {name!r}") from None
        return [row[index] for row in self.rows]

    def to_dicts(self) -> List[Dict[str, object]]:
        return [dict(zip(self.columns, row)) for row in self.rows]

    def profile(self) -> str:
        """Per-operator execution profile of this statement (simulated
        wall time, rows, network bytes, skew)."""
        return self.metrics.report()

    def __repr__(self) -> str:
        return f"Result({self.columns}, {len(self.rows)} row(s))"


def _convert_value(value):
    """Accept convenient Python/numpy values when loading data."""
    if isinstance(value, np.ndarray):
        if value.ndim == 1:
            return Vector(value)
        if value.ndim == 2:
            return Matrix(value)
        raise ExecutionError(f"cannot store a {value.ndim}-d array")
    if isinstance(value, np.generic):
        return value.item()
    if isinstance(value, (list,)):
        array = np.asarray(value, dtype=np.float64)
        return _convert_value(array)
    return value


class Database:
    """An in-process, simulated-distributed database with the paper's
    linear algebra extensions."""

    def __init__(
        self,
        config: Optional[ClusterConfig] = None,
        size_blind_optimizer: bool = False,
        execution_mode: Optional[str] = None,
        _recovery: bool = False,
    ):
        self.cluster = Cluster(config)
        self.config = self.cluster.config
        self.catalog = Catalog()
        #: cardinality feedback (docs/ENGINE.md, "Adaptive
        #: optimization"): observed per-operator row counts folded back
        #: from completed statements; consulted by the cost model when
        #: ``config.feedback_mode == "on"``, versioned so the plan cache
        #: drops plans built from stale statistics
        self.feedback = FeedbackStatistics()
        #: compiled SELECTs (and the queries inside CTAS / INSERT ...
        #: SELECT) of every door into this database — ``execute``,
        #: ``execute_script``, service sessions and their prepared
        #: handles, the server — valid while what they read is unchanged
        self.plan_cache = PlanCache()
        self.cost_model = CostModel(
            self.config, size_blind=size_blind_optimizer, feedback=self.feedback
        )
        #: segment files, buffer pool, and spill bookkeeping — shared by
        #: every table and executor of this database
        self.storage = StorageEngine(self.config)
        #: executor template: holds mode/storage/fault-injector; every
        #: statement executes on a ``fresh()`` copy so concurrently
        #: admitted statements never share per-statement state (lineage
        #: memos, checkpoints, trace bookkeeping)
        self._executor = Executor(self.cluster, execution_mode, storage=self.storage)
        # the storage engine's durability barriers (sealed segment
        # writes) draw from the same injector as the executor
        self.storage.set_injector(self._executor.injector)
        #: materialized views (docs/VIEWS.md): lifecycle, delta
        #: maintenance on base-table changes, and the counters behind
        #: ``QueryService.stats()["views"]``
        self.views = ViewRegistry(self)
        #: reader–writer statement admission: read-only statements run
        #: concurrently against a stable catalog, DDL/DML and config
        #: swaps take the exclusive path (see repro/admission.py). This
        #: replaces the old global ``_exec_lock`` that serialized every
        #: statement.
        self._admission = AdmissionGate()
        #: crash-safe durability (docs/DURABILITY.md): when the config
        #: says "wal", every committed DDL/DML appends a checksummed,
        #: fsynced record to ``data_dir/wal.log`` before the call
        #: returns; ``_recovery=True`` defers attaching until replay is
        #: done (repro.storage.wal.recover_database resumes it)
        self._durability = None
        #: reentrancy guard: only the *outermost* mutating operation of
        #: a statement logs (CTAS logs once, not once per inner
        #: create_table). Mutations are exclusively admitted, so a plain
        #: instance flag suffices.
        self._in_durable_op = False
        if self.config.durability_mode == "wal":
            from .storage.wal import DurabilityManager

            self._durability = DurabilityManager(self, attach=not _recovery)
        elif self.config.durability_mode != "off":
            raise ExecutionError(
                f"unknown durability_mode {self.config.durability_mode!r}; "
                "expected 'off' or 'wal'"
            )

    @property
    def execution_mode(self) -> str:
        """Which interpreter back end this database runs ("row" or
        "batch"); both produce identical rows and simulated metrics."""
        return self._executor.execution_mode

    def set_execution_mode(self, mode: str) -> None:
        """Switch interpreter back ends between statements. Takes the
        exclusive admission path: the executor template swap waits for
        in-flight statements to drain and is never observed mid-run."""
        with self._admission.exclusive():
            self._executor = Executor(
                self.cluster,
                mode,
                storage=self.storage,
                injector=self._executor.injector,
            )

    # -- persistence and durability -----------------------------------------------

    @property
    def durability(self):
        """The :class:`~repro.storage.wal.DurabilityManager` when
        ``durability_mode="wal"``, else None."""
        return self._durability

    def save(self, path: str) -> None:
        """Serialize schemas, data, and views to a single file —
        atomically (temp file + fsync + ``os.replace``), so a crash
        mid-save never leaves a torn file under ``path``. Restore with
        :meth:`Database.restore`. On a durable database, saving onto
        the checkpoint path (what :meth:`checkpoint` does) truncates
        the write-ahead log once the snapshot is down."""
        from .persist import save_database

        # shared admission: the snapshot must not interleave with a
        # writer, and the WAL truncation below must see the same state
        # the snapshot captured
        with self._admission.shared():
            save_database(self, path, injector=self.storage.injector)
            if self._durability is not None:
                self._durability.on_checkpoint(path)

    def checkpoint(self) -> str:
        """Atomically checkpoint a durable database into its
        ``data_dir`` and truncate the WAL; returns the checkpoint path.
        Recovery then replays only statements committed after this."""
        from .errors import ReproError

        if self._durability is None:
            raise ReproError(
                "checkpoint() requires durability_mode='wal' "
                "(use save(path) for a plain snapshot)"
            )
        self.save(self._durability.checkpoint_path)
        return self._durability.checkpoint_path

    @classmethod
    def restore(cls, path: str, config: Optional[ClusterConfig] = None) -> "Database":
        """Recreate a saved database (optionally onto a different
        cluster shape; data is re-partitioned). ``path`` may be a
        snapshot file, or a durability directory — the latter replays
        the write-ahead log on top of the latest checkpoint and keeps
        logging there (see docs/DURABILITY.md)."""
        from .persist import restore_database

        return restore_database(path, config)

    @classmethod
    def open(cls, config: ClusterConfig) -> "Database":
        """Open a durable database: recover ``config.data_dir`` when it
        already holds state, else start fresh. The crash-safe idiom for
        long-lived processes (the server entry point uses it)."""
        if config.durability_mode != "wal":
            return cls(config)
        from .storage.wal import DurabilityManager, has_existing_state

        data_dir = config.data_dir
        if data_dir and has_existing_state(data_dir):
            return cls.restore(data_dir, config)
        return cls(config)

    def close(self) -> None:
        """Release durability handles and storage-engine temp files.
        A durable database closed *without* a final :meth:`checkpoint`
        recovers through WAL replay, exactly like a crash."""
        if self._durability is not None:
            self._durability.close()
        self.storage.close()

    # -- write-ahead logging hooks -------------------------------------------------

    @contextmanager
    def _durable_root(self):
        """Yields True when the enclosed mutation is the outermost one
        of its statement and should be WAL-logged on success."""
        if (
            self._durability is None
            or not self._durability.active
            or self._in_durable_op
        ):
            yield False
            return
        self._in_durable_op = True
        try:
            yield True
        finally:
            self._in_durable_op = False

    def _log_durable(self, record: Dict[str, object]) -> None:
        """Append one committed operation to the WAL (the statement's
        acknowledgement point). Called with exclusive admission held, so
        WAL order is commit order."""
        record["catalog_version"] = self.catalog.version
        self._durability.log(record)

    def _apply_wal_record(self, record: Dict[str, object], path: str = "") -> None:
        """Replay one WAL record during recovery (the manager is
        detached, so nothing is re-logged). Replay runs the same code
        paths as the original statement on the same cluster shape, which
        is what makes recovered rows and statistics bit-identical. The
        record, read from ``path``, is checked before anything runs on
        it (``validating``); an error raised while running surfaces as
        itself."""
        from .persist import thaw_columns

        with validating(path):
            kind = record["kind"]
            if kind == "stmt":
                params = record["params"]
                if params is not None:
                    names, values = checked(params, list)
                    (row,) = decode_segment(checked(values, bytes))
                    params = dict(zip(checked(names, list, str), row, strict=True))
                statement, key = parse_keyed(checked(record["text"], str))
                run = partial(self._execute_statement, statement, params, key)
            elif kind == "create_table":
                partition_by = record["partition_by"]
                if partition_by is not None:
                    checked(partition_by, list, str)
                run = partial(
                    self.create_table,
                    checked(record["table"], str),
                    thaw_columns(record["columns"]),
                    partition_by=partition_by,
                )
            elif kind == "load":
                rows = decode_segment(checked(record["rows"], bytes))
                run = partial(self.load, checked(record["table"], str), rows)
            else:
                raise ValueError(f"unknown WAL record kind {kind!r}")
        try:
            run()
        except TypeCheckError as exc:
            if kind != "load":
                raise
            # a logged load held only values its table admits
            raise SnapshotCorruptError(
                f"content does not validate ({exc})", path=path
            ) from exc

    # -- schema and loading ----------------------------------------------------

    def create_table(
        self,
        name: str,
        columns: Sequence,
        partition_by: Optional[Sequence[str]] = None,
    ) -> TableEntry:
        """Create a table from ``(name, type)`` pairs (types may be
        strings like ``"MATRIX[10][]"``); optionally hash-partitioned on
        some columns at load time."""
        with self._admission.exclusive():
            with self._durable_root() as log:
                entry = self._create_table_locked(name, columns, partition_by)
                if log:
                    self._log_durable(
                        {
                            "kind": "create_table",
                            "table": entry.name,
                            "columns": [
                                (column.name, repr(column.data_type))
                                for column in entry.schema
                            ],
                            "partition_by": (
                                list(partition_by) if partition_by else None
                            ),
                        }
                    )
                return entry

    def _create_table_locked(
        self,
        name: str,
        columns: Sequence,
        partition_by: Optional[Sequence[str]] = None,
    ) -> TableEntry:
        schema = Schema(columns)
        entry = self.catalog.create_table(name, schema)
        entry.storage = PartitionedTable(
            schema,
            self.config.slots,
            partition_by=partition_by,
            segment_rows=self.config.segment_rows,
            engine=self.storage,
            name=name,
        )
        return entry

    def load(self, name: str, rows: Iterable[Sequence]) -> int:
        """Bulk-load rows (each a sequence of values; numpy arrays become
        vectors/matrices) and refresh the table's statistics. A value its
        column's type does not admit — by INSERT's rules — is a
        ``TypeCheckError``, and nothing is loaded."""
        with self._admission.exclusive(), _ieee():
            entry = self.catalog.table(name)
            converted = [
                tuple(_convert_value(value) for value in row) for row in rows
            ]
            # rows become columns once: checked and converted as INSERT's
            # are, the table appends them and the WAL record encodes them
            columns = entry.schema.conform(entry.storage.columns_of(converted), entry.name)
            with self._durable_root() as log:
                entry.storage.append(columns)
                if converted:  # zero rows change nothing
                    self._refresh_stats(entry, appended=columns)
                if log:
                    self._log_durable(
                        {
                            "kind": "load",
                            "table": entry.name,
                            "rows": encode_columns(columns)[0],
                        }
                    )
            return len(converted)

    def _refresh_stats(
        self, entry: TableEntry, appended: Optional[list] = None
    ) -> None:
        """Refresh ``entry``'s statistics after a DML statement that
        changed rows. When the statement only appended rows, pass them
        via ``appended`` (column-wise, as the table took them) and the
        accumulators are updated in place instead of rescanning the
        whole table; deletes always rescan."""
        outcome = None
        if appended is not None:
            outcome = append_stats(entry.stats, entry.schema, appended)
        if outcome is not None:
            reshaped = outcome.refined_changed
        else:
            before = [entry.refined_type(column) for column in entry.schema]
            entry.stats = collect_stats(entry.schema, entry.storage.all_rows())
            reshaped = before != [
                entry.refined_type(column) for column in entry.schema
            ]
        append_only = appended is not None
        # one version for the statement: the statistics stamp always
        # moves, the shape stamp when a refined dimension the binder
        # reads moved or a view over the table is rebuilt or goes stale
        # (plans that answered from it re-plan); plans that read neither
        # the table's statistics nor its shape keep hitting
        rebuilds = self.views.rebuilds(entry.name, append_only)
        self.catalog.touch(entry.name, shape=reshaped or rebuilds)
        # materialized views over this table fold the delta (append) or
        # refresh/go stale (delete), per config.view_refresh_mode
        self.views.on_table_changed(entry.name, append_only)

    # -- SQL ----------------------------------------------------------------------

    def execute(
        self, sql: str, params: Optional[Dict[str, object]] = None
    ) -> Result:
        """Parse, plan and execute a single SQL statement. A repeated
        text skips the lexer and parser, and a SELECT whose relations are
        unchanged reuses its compiled plan (``repro.plan_cache``)."""
        statement, key = parse_keyed(sql)
        return self._execute_statement(statement, params, key)

    def execute_script(
        self, sql: str, params: Optional[Dict[str, object]] = None
    ) -> List[Result]:
        """Execute a semicolon-separated script; returns one Result per
        statement."""
        return [
            self._execute_statement(statement, params, key)
            for statement, key in parse_keyed_script(sql)
        ]

    def explain(
        self,
        sql: str,
        params: Optional[Dict[str, object]] = None,
        verbose: bool = False,
        catalog=None,
    ) -> str:
        """The optimized logical and physical plans for a SELECT; with
        ``verbose=True`` every logical node is annotated with its
        estimated cardinality and row width — the size information the
        LA-aware optimizer plans with (section 4) — read from the planning
        pass the plan was compiled with. ``catalog`` is a session's
        temp-view overlay."""
        statement = parse_statement(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise CompileError("EXPLAIN supports SELECT statements only")
        estimates = self.cost_model.planning_pass()
        with self._admission.shared():
            plan = self._compile(statement, params, catalog, estimates=estimates)
            shown = estimates if verbose else None
            text = (
                "== logical ==\n"
                + plan.logical.pretty(cost_model=shown)
                + "\n== physical ==\n"
                + plan.physical.pretty()
            )
            if verbose:
                cost = estimates.plan_cost(plan.logical)
                text += f"\n== estimated cost ==\n{cost:.2f}s"
        return text

    def explain_analyze(
        self, sql: str, params: Optional[Dict[str, object]] = None
    ) -> str:
        """Execute a SELECT and render its physical plan with the cost
        model's estimated rows/bytes/seconds next to the measured
        actuals, plus a per-operator cardinality q-error column — the
        feedback loop that shows whether the LA-aware estimates the
        optimizer planned with (section 4) were right."""
        statement, key = parse_keyed(sql)
        if not isinstance(statement, ast.SelectStatement):
            raise CompileError("EXPLAIN ANALYZE supports SELECT statements only")
        with self._admission.shared():
            result = self._run_select(statement, params, key=key)
        trace = result.metrics.trace
        assert trace is not None
        lines = [trace.render()]
        lines.append(
            f"delivered {len(result.rows)} row(s) in "
            f"{result.metrics.total_seconds:.3f} simulated s "
            f"({result.metrics.jobs} job(s)), {result.metrics.plan_line}"
        )
        worst = trace.max_q_error()
        if worst is not None:
            lines.append(f"worst cardinality q-error {worst:.2f}")
        return "\n".join(lines)

    # -- statement dispatch ------------------------------------------------------

    def _execute_statement(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, object]],
        key: str,
    ) -> Result:
        """``key`` is the statement's normalised text (``parse_keyed``):
        its plan-cache key, and what the WAL logs of a statement that
        may mutate."""
        # read-only statements overlap under shared admission; anything
        # that can mutate the catalog or table storage takes the
        # exclusive path (and stamps what it changed, invalidating the
        # cached plans that read it)
        if isinstance(statement, (ast.SelectStatement, ast.UnionStatement)):
            with self._admission.shared():
                return self._dispatch_statement(statement, params, key)
        with self._admission.exclusive(), _ieee():
            with self._durable_root() as log:
                result = self._dispatch_statement(statement, params, key)
                if log:
                    # parameter values travel as the one row of a segment
                    frozen = None
                    if params:
                        values = tuple(map(_convert_value, params.values()))
                        frozen = list(params), encode_rows([values])
                    # the statement is applied; appending this record is
                    # the acknowledgement point (returning == durable)
                    self._log_durable(
                        {"kind": "stmt", "text": key, "params": frozen}
                    )
                return result

    def _dispatch_statement(
        self,
        statement: ast.Statement,
        params: Optional[Dict[str, object]],
        key: Optional[str] = None,
    ) -> Result:
        if isinstance(statement, ast.SelectStatement):
            return self._run_select(statement, params, key=key)
        if isinstance(statement, ast.CreateTable):
            self.create_table(statement.name, statement.columns)
            return Result([], [])
        if isinstance(statement, ast.CreateTableAs):
            # the query's plan is cached under the whole statement's text
            plan, hit = self._plan(statement.query, params, key)
            result = self._execute_plan(plan, hit)
            columns = [
                (column.name, column.data_type) for column in plan.logical.columns
            ]
            self.create_table(statement.name, columns)
            entry = self.catalog.table(statement.name)
            columns = entry.storage.columns_of(result.rows)
            entry.storage.append(columns)
            self._refresh_stats(entry, appended=columns)
            return self._attach_maintenance(result)
        if isinstance(statement, ast.CreateView):
            if statement.temporary:
                raise CompileError(
                    "CREATE TEMPORARY VIEW is session-scoped; acquire a "
                    "session from Database.service() and run it there"
                )
            # bind once against the current catalog so errors surface now;
            # parameters may stay unbound until the view is queried
            binder = Binder(self.catalog, params, defer_params=True)
            plan = binder.bind_select(statement.query)
            if statement.column_names is not None and len(
                statement.column_names
            ) != len(plan.columns):
                raise CompileError(
                    f"view {statement.name!r}: {len(statement.column_names)} "
                    f"column name(s) for {len(plan.columns)} column(s)"
                )
            self.catalog.create_view(
                statement.name, statement.query, statement.column_names, key
            )
            return Result([], [])
        if isinstance(statement, ast.CreateMaterializedView):
            self.views.create(statement, key)
            return Result([], [])
        if isinstance(statement, ast.RefreshMaterializedView):
            self.views.refresh(statement.name)
            return Result([], [])
        if isinstance(statement, ast.DropMaterializedView):
            self.views.drop(statement.name, if_exists=statement.if_exists)
            return Result([], [])
        if isinstance(statement, ast.InsertValues):
            entry = self.catalog.table(statement.table)
            binder = Binder(self.catalog, params)
            rows = binder.bind_insert_rows(entry.schema.types, statement.rows)
            columns = entry.schema.conform(entry.storage.columns_of(rows), entry.name)
            entry.storage.append(columns)
            self._refresh_stats(entry, appended=columns)
            return self._attach_maintenance(Result([], []))
        if isinstance(statement, ast.InsertSelect):
            return self._run_insert_select(statement, params, key)
        if isinstance(statement, ast.Delete):
            return self._run_delete(statement, params)
        if isinstance(statement, ast.UnionStatement):
            return self._run_union(statement, params, key)
        if isinstance(statement, ast.DropTable):
            self.catalog.drop_table(statement.name, if_exists=statement.if_exists)
            return Result([], [])
        if isinstance(statement, ast.DropView):
            self.catalog.drop_view(statement.name, if_exists=statement.if_exists)
            return Result([], [])
        raise ExecutionError(f"cannot execute {type(statement).__name__}")

    # -- writes beyond INSERT ... VALUES -----------------------------------------

    def _run_insert_select(
        self,
        statement: ast.InsertSelect,
        params: Optional[Dict[str, object]],
        key: Optional[str] = None,
    ) -> Result:
        entry = self.catalog.table(statement.table)
        result = self._run_select(statement.query, params, key=key)
        expected = entry.schema.types
        if result.rows and len(result.rows[0]) != len(expected):
            raise CompileError(
                f"INSERT INTO {statement.table}: query produces "
                f"{len(result.rows[0])} column(s), table has {len(expected)}"
            )
        if not result.rows:  # zero rows change nothing
            return Result([], [], result.metrics)
        columns = entry.schema.conform(entry.storage.columns_of(result.rows), entry.name)
        entry.storage.append(columns)
        self._refresh_stats(entry, appended=columns)
        return self._attach_maintenance(Result([], [], result.metrics))

    def _run_delete(
        self, statement: ast.Delete, params: Optional[Dict[str, object]]
    ) -> Result:
        """DELETE FROM t [WHERE ...]: filters the stored partitions in
        place (deletes rewrite partition files locally; no shuffle). A
        DELETE that removes no row changes nothing: no statistics pass,
        no stamp, no view maintenance."""
        entry = self.catalog.table(statement.table)
        if statement.where is None:
            changed = entry.storage.row_count > 0
            entry.storage.truncate()
            if not changed:
                return Result([], [])
            self._refresh_stats(entry)
            return self._attach_maintenance(Result([], []))
        converted = {
            key: _convert_value(value) for key, value in (params or {}).items()
        }
        binder = Binder(self.catalog, converted)
        predicate, columns = binder.bind_table_predicate(
            entry, statement.table, statement.where
        )
        index = {
            column.column_id: position for position, column in enumerate(columns)
        }
        from .engine.storage import RowView

        changed = False
        for slot in range(self.config.slots):
            rows = entry.storage.partition_rows(slot)
            kept = [
                row for row in rows if not predicate.evaluate(RowView(row, index))
            ]
            # a partition that loses no row keeps its segments as they are
            if len(kept) != len(rows):
                entry.storage.replace_partition(slot, kept)
                changed = True
        if not changed:
            return Result([], [])
        self._refresh_stats(entry)
        return self._attach_maintenance(Result([], []))

    def _run_union(
        self,
        statement: ast.UnionStatement,
        params: Optional[Dict[str, object]],
        key: Optional[str] = None,
    ) -> Result:
        # one cache entry per branch: normalised text has no newline
        results = [
            self._run_select(select, params, key=key and f"{key}\n{index}")
            for index, select in enumerate(statement.selects)
        ]
        width = len(results[0].columns)
        for result in results[1:]:
            if len(result.columns) != width:
                raise CompileError(
                    "UNION branches produce different column counts: "
                    f"{width} vs {len(result.columns)}"
                )
        rows: List[tuple] = []
        for result in results:
            rows.extend(result.rows)
        if not statement.all:
            seen = {}
            for row in rows:
                seen.setdefault(row, row)
            rows = list(seen.values())
        metrics = results[0].metrics
        for result in results[1:]:
            metrics = metrics.merge(result.metrics)
        stamps = tuple(chain.from_iterable(result.stamps for result in results))
        return Result(results[0].columns, rows, metrics, stamps)

    # -- service layer -------------------------------------------------------------

    def service(self, config=None, **overrides):
        """A :class:`repro.service.QueryService` in front of this
        database: sessions, plan caching, admission control and the
        fair-share slot scheduler. Keyword overrides update the
        :class:`repro.service.ServiceConfig` (e.g.
        ``db.service(max_concurrency=4)``)."""
        from .service import QueryService, ServiceConfig

        if config is None:
            config = ServiceConfig(**overrides)
        elif overrides:
            config = config.with_updates(**overrides)
        return QueryService(self, config)

    # -- SELECT pipeline -------------------------------------------------------------

    def _plan(
        self,
        statement: ast.SelectStatement,
        params: Optional[Dict[str, object]],
        key: Optional[str],
        catalog=None,
        scope: str = "",
    ):
        """The compiled plan of a SELECT with ``params`` bound to its
        cells on this thread, and whether it came from the plan cache.
        ``key`` is the normalised text of the statement the query belongs
        to (None compiles afresh, uncached); ``catalog`` / ``scope`` are
        a session's temp-view overlay and its cache scope."""
        converted = {
            name: _convert_value(value) for name, value in (params or {}).items()
        }
        if key is None:
            return self._compile(statement, converted, catalog), False
        cache_key = PlanCacheKey(
            sql=key,
            param_types=param_signature(converted),
            scope=scope,
            exec_fingerprint=(self.execution_mode, self.config.storage_mode),
            feedback_version=self.feedback.version,
        )
        shared = self.catalog
        plan = self.plan_cache.lookup(
            cache_key,
            lambda entry: entry.renewed(shared, self.cost_model.price_physical),
            shared.stamp,
            shared.statistics_stamp,
        )
        if plan is not None:
            plan.bind(converted)
            return plan, True
        plan = self._compile(statement, converted, catalog)
        self.plan_cache.purge_stale(self.feedback.version)
        self.plan_cache.store(cache_key, plan)
        return plan, False

    def _compile(
        self, statement, params, catalog=None, use_views=True, estimates=None
    ) -> CachedPlan:
        """Bind, optimize, lower and price a SELECT — the one path every
        SELECT compiles by — recording the shape stamp and content of
        every relation the binder resolved, and the statistics stamp and
        content of every table whose statistics the estimates read
        (``CostModel.scan_rule``), marking those that fed a choice: a
        plan answered from an incremental view reads none, so appends to
        its base table leave it cached, and a plan whose reads fed only
        estimates is re-priced after them. ``catalog`` may be a session-level
        overlay (temp views); parameters bind as runtime cells holding
        ``params`` on this thread, so the plan is the generic one a cache
        can keep; ``use_views=False`` disables view-based answering (a
        view's own refresh must recompute from the base tables). One
        planning pass (``estimates``, a fresh one when None) serves the
        optimizer and the physical planner, and the physical plan is
        priced once, onto its nodes."""
        converted = {
            key: _convert_value(value) for key, value in (params or {}).items()
        }
        estimates = estimates or self.cost_model.planning_pass()
        scope = catalog or self.catalog
        cells: Dict[str, object] = {}
        binder = Binder(scope, converted, param_cells=cells)
        plan = binder.bind_select(statement)
        whole = self._match_whole_statement(statement, scope) if use_views else None
        with self.cost_model.recording_reads() as read:
            if whole is not None:
                logical = ViewScanNode(whole, plan.columns, None)
                logical.view_hits = 1
                logical.view_misses = 0
            else:
                matcher = ViewMatcher(scope) if use_views else None
                optimizer = Optimizer(self.cost_model, view_matcher=matcher)
                logical = optimizer.optimize(plan, estimates)
                logical.view_hits = optimizer.view_hits
                logical.view_misses = optimizer.view_misses
            physical = PhysicalPlanner(self.cost_model).plan(logical, estimates)
            self.cost_model.price_physical(physical)
        shared = self.catalog
        return CachedPlan(
            logical=logical,
            physical=physical,
            param_cells=cells,
            stamps=tuple((name, shared.stamp(name)) for name in binder.relations),
            statistics={
                name: (shared.statistics_stamp(name), table.statistics_read())
                for name, table in read.tables.items()
            },
            shapes={name: shared.shape(name) for name in binder.relations},
            chose=frozenset(read.choices),
        )

    @staticmethod
    def _match_whole_statement(statement: ast.SelectStatement, catalog):
        """A fresh *full-mode* materialized view whose defining query is
        structurally identical to ``statement`` (AST dataclass
        equality) — the whole result is served from stored rows. The
        incrementally maintainable class is matched at the subtree
        level by the optimizer's ViewMatcher instead."""
        list_views = getattr(catalog, "materialized_views", None)
        if list_views is None:
            return None
        for view in list_views():
            if view.incremental or not view.fresh:
                continue
            if view.query == statement:
                return view
        return None

    def _execute_plan(self, plan: CachedPlan, cached: bool = False) -> Result:
        # shared admission (reentrant when the caller already holds an
        # admission, e.g. DML running its inner SELECT): read-only
        # execution overlaps with other readers. Each statement gets a
        # fresh executor so no per-statement state is shared; the
        # template's fault injector is shared so cumulative fault
        # counters stay database-wide.
        with self._admission.shared(), _ieee():
            executor = self._executor.fresh()
            rows, metrics = executor.run(plan.physical)
            if self.config.feedback_mode == "on":
                self._absorb_feedback(metrics.records)
            catalog = self.catalog
            stamps = tuple(
                (name, catalog.stamp(name), catalog.statistics_stamp(name))
                for name, _ in plan.stamps
            )
        metrics.plan_cached = cached
        metrics.view_hits = metrics.records.facts.view_scans
        metrics.view_misses = getattr(plan.logical, "view_misses", 0)
        columns = [column.name for column in plan.logical.columns]
        return Result(columns, rows, metrics, stamps)

    def _absorb_feedback(self, records) -> None:
        """Fold one statement's observed cardinalities back into the
        feedback statistics (the closed loop of docs/ENGINE.md,
        "Adaptive optimization"): at each plan position that carries a
        rule (``PlanFacts.rules``), read off the run's ``records``. Only
        materially wrong estimates are recorded — estimates within the
        q-error threshold teach the model nothing it doesn't already
        know — and operators the executor skipped (the LIMIT 0
        short-circuit) have no record, so they never become phantom
        actuals."""
        nodes = records.facts.nodes
        for at, kind, key in records.facts.rules:
            own, (_, _, (est_rows, *_), children) = records.op(at), nodes[at]
            if own is None or est_rows is None:
                continue
            actual = float(own.rows_out)
            if kind == "scan":
                # a pruned scan's output reflects the predicate's
                # segment elimination, not the table's cardinality
                if own.segments_pruned == 0 and estimate_needs_feedback(
                    est_rows, actual
                ):
                    self.feedback.record_scan_rows(key, actual)
            elif kind == "filter":
                # blame assignment: judge the filter by its *own*
                # selectivity estimate (own estimated rows over the
                # child's) applied to the actual input, not by its row
                # q-error — a child's misestimate (e.g. an unlearnable
                # parameterized predicate below) inflates the row error
                # without this filter being wrong
                child_est = nodes[children[0]][2][0]
                if own.rows_in > 0 and child_est is not None and child_est > 0:
                    predicted = est_rows / child_est * float(own.rows_in)
                    if estimate_needs_feedback(predicted, actual):
                        self.feedback.record_selectivity(
                            key, actual / float(own.rows_in)
                        )
            else:
                # a join: input cardinalities are its children's; their
                # product commutes, so probe/build orientation (which the
                # planner may flip run to run) cannot skew it
                inputs = 1.0
                estimated_inputs = 1.0
                for child in children:
                    ran = records.op(child)
                    inputs *= float(0 if ran is None else ran.rows_out)
                    estimated_inputs *= float(nodes[child][2][0] or 0.0)
                if inputs > 0 and estimated_inputs > 0:
                    # same blame assignment as filters: compare the
                    # join's selectivity estimate on the actual inputs
                    predicted = (est_rows / estimated_inputs) * inputs
                    if estimate_needs_feedback(predicted, actual):
                        self.feedback.record_join_selectivity(key, actual / inputs)

    def _run_select(
        self,
        statement: ast.SelectStatement,
        params: Optional[Dict[str, object]],
        use_views: bool = True,
        key: Optional[str] = None,
    ) -> Result:
        if not use_views:
            # a view's own refresh: never cached, never answered from views
            return self._execute_plan(self._compile(statement, params, use_views=False))
        return self._execute_plan(*self._plan(statement, params, key))

    def _attach_maintenance(self, result: Result) -> Result:
        """Fold the view maintenance a mutating statement triggered into
        its metrics (view counters in EXPLAIN ANALYZE / stats)."""
        summary = self.views.take_last_maintenance()
        if summary:
            result.metrics.view_maintenance = summary.get("maintained", 0)
            result.metrics.view_delta_rows = summary.get("delta_rows", 0)
            result.metrics.view_refreshes = summary.get("refreshes", 0)
        return result
