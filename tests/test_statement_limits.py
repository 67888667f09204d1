"""A statement that asks for more memory than the process may hold is
refused before the allocation is made: a ``StatementTooLargeError`` (a
``ReproError``) embedded, a non-500 response served — never a bare
``MemoryError``, nor a process the OS kills."""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro import Database, TEST_CLUSTER
from repro.engine import storage
from repro.errors import ResourceExhaustedError, StatementTooLargeError
from repro.server.protocol import status_for_error

SRC = Path(__file__).resolve().parents[1] / "src"

#: three tables of 1500 rows: the cross product holds 3.4e9 pairs, whose
#: residual columns alone would take 75 GiB
CROSS = "SELECT COUNT(*) FROM a, b, c WHERE a.v + b.v + c.v > -1.0"

#: run in a child process capped at 3 GiB of address space
CHILD = f"""
import json, resource
soft, hard = resource.getrlimit(resource.RLIMIT_AS)
resource.setrlimit(resource.RLIMIT_AS, (3 << 30, hard))
from repro import Database, TEST_CLUSTER
from repro.errors import ReproError
from repro.server import Server
from repro.server.client import ServerClient, ServerError

db = Database(TEST_CLUSTER)
for name in "abc":
    db.execute(f"CREATE TABLE {{name}} (v DOUBLE)")
    db.load(name, [(float(i % 7) - 3.0,) for i in range(1500)])
out = {{}}
try:
    out["embedded"] = ["rows", db.execute({CROSS!r}).rows]
except ReproError as exc:
    out["embedded"] = [type(exc).__name__, exc.code]
except MemoryError as exc:
    out["embedded"] = ["MemoryError", str(exc)]
with Server(db) as server:
    client = ServerClient(*server.address)
    try:
        client.query({CROSS!r})
        out["served"] = 200
    except ServerError as exc:
        out["served"] = [exc.status, exc.code]
    client.close()
print(json.dumps(out))
"""


def test_a_cross_product_past_the_address_space_is_refused():
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1", PYTHONPATH=str(SRC))
    child = subprocess.run(
        [sys.executable, "-c", CHILD], env=env, capture_output=True, text=True,
        timeout=60,
    )
    assert child.returncode == 0, child.stderr
    out = json.loads(child.stdout.splitlines()[-1])
    assert out["embedded"] == ["StatementTooLargeError", "statement_too_large"]
    assert out["served"] == [413, "statement_too_large"]


def test_the_refusal_is_a_resource_error_the_server_maps():
    exc = StatementTooLargeError("too large")
    assert isinstance(exc, ResourceExhaustedError)
    assert status_for_error(exc) == 413


def test_a_memory_error_from_the_allocation_is_the_same_refusal(monkeypatch):
    """Under the limit, an allocation that fails all the same is reported
    as the refusal, chained to its ``MemoryError``."""

    def exhausted(*args, **kwargs):
        raise MemoryError("no memory")

    with pytest.raises(StatementTooLargeError) as caught:
        storage.allocate(8.0, "a probe", exhausted)
    assert isinstance(caught.value.__cause__, MemoryError)


def test_the_limit_is_the_soft_address_space_limit_or_physical_memory():
    import resource

    soft, _ = resource.getrlimit(resource.RLIMIT_AS)
    pages = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
    expected = pages if soft == resource.RLIM_INFINITY else soft
    assert storage.host_memory_bytes() == float(expected)


def test_a_join_under_the_limit_runs_as_before(monkeypatch):
    """The check reads the bytes a build allocates, never refuses a
    statement the process can hold, and reads the host each time."""
    db = Database(TEST_CLUSTER)
    for name in "ab":
        db.execute(f"CREATE TABLE {name} (k INTEGER, v DOUBLE)")
        db.load(name, [(i % 5, float(i)) for i in range(40)])
    sql = "SELECT COUNT(*) FROM a, b WHERE a.v + b.v > 10.0"
    want = sum(1 for i in range(40) for j in range(40) if i + j > 10.0)
    assert db.execute(sql).rows == [(want,)]
    monkeypatch.setattr(storage, "host_memory_bytes", lambda: 1000.0)
    with pytest.raises(StatementTooLargeError, match="GiB"):
        db.execute(sql)
    joined = "SELECT a.v, b.v FROM a, b WHERE a.k = b.k"
    with pytest.raises(StatementTooLargeError):
        db.execute(joined)
    monkeypatch.setattr(storage, "host_memory_bytes", lambda: float(np.inf))
    assert len(db.execute(joined).rows) == 5 * 8 * 8
