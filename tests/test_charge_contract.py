"""The charge contract, pinned: every statement's rows and every
operator's charges, digested per cluster shape, execution mode, storage
mode and fault plan, must stay the digests committed below.

A change to how the simulated clock is *booked* (which objects hold a
ledger, how often a charge is made) must leave every charge the same
float, added in the same order; this is the test that says so. A change
that moves a charge on purpose regenerates the table with
``PYTHONPATH=src:. python tests/test_charge_contract.py`` and names the
moved charges in CHANGES.md.

Left out of the digest: ``mean_worker_seconds`` (and so ``skew_ratio``)
and every ``QueryMetrics`` sum. They go through builtin ``sum()``, which
is compensated from Python 3.12 on, so their last bits follow the
interpreter.
"""

import dataclasses
import hashlib
import itertools

import pytest

from repro.engine import OperatorMetrics
from repro.faults import FaultPlan
from tests.test_exec_modes import (
    MERGE_STATEMENTS,
    STAGE_SLOTS,
    STAGE_STATEMENTS,
    _stage_run,
)

MODES = ("row", "batch")
STORAGES = ("memory", "disk")
FAULTS = ("none", "transient")

#: the float fields of an operator's record, digested by ``.hex()``
FLOAT_FIELDS = {
    "bytes_out", "wall_seconds", "max_worker_seconds", "network_bytes",
    "spill_bytes", "peak_memory_bytes",
}
DIGESTED = [
    field.name
    for field in dataclasses.fields(OperatorMetrics)
    if field.name != "mean_worker_seconds"
]


def _operator(op: dict) -> tuple:
    return tuple(
        float(op[name]).hex() if name in FLOAT_FIELDS else op[name] for name in DIGESTED
    )


def charge_digest(slots: int, mode: str, storage: str, faults: str) -> tuple:
    """The digest of :func:`_stage_run` over ``STAGE_STATEMENTS`` and
    ``MERGE_STATEMENTS`` in one database — rows, operator records
    (``slot_seconds`` already by ``.hex()``) and fault counts — and how
    many transient errors landed."""
    plan = None
    if faults == "transient":
        plan = FaultPlan(seed=0, transient_error_rate=0.3, max_partition_retries=20)
    run = _stage_run(
        slots, mode, plan, storage, statements=STAGE_STATEMENTS + MERGE_STATEMENTS
    )
    names = [field.name for field in dataclasses.fields(OperatorMetrics)]
    out = [
        (rows, [_operator(dict(zip(names, op))) for op in ops], sorted(events.items()))
        for rows, ops, events in run
    ]
    landed = sum(events.get("transient_error", 0) for _, _, events in run)
    return hashlib.sha256(repr(out).encode()).hexdigest()[:24], landed


CONFIGURATIONS = list(itertools.product(STAGE_SLOTS, MODES, STORAGES, FAULTS))

#: ``charge_digest`` per configuration, generated before the ledger
#: rewrite that books one charge per operator
EXPECTED = {
    "1/row/memory/none": "f2607fab604097d4e3732ca4",
    "1/row/memory/transient": "eeeda7da62146647869ac001",
    "1/row/disk/none": "b077d5d36e831b2d1f3ee741",
    "1/row/disk/transient": "320370db735eba9e392e0ea4",
    "1/batch/memory/none": "f2607fab604097d4e3732ca4",
    "1/batch/memory/transient": "eeeda7da62146647869ac001",
    "1/batch/disk/none": "b077d5d36e831b2d1f3ee741",
    "1/batch/disk/transient": "320370db735eba9e392e0ea4",
    "3/row/memory/none": "d74c333a2b6076a446ac7dd8",
    "3/row/memory/transient": "748e9e3ae0a6b3854456420e",
    "3/row/disk/none": "dafcc5c12cc1c0bd9d62f1b0",
    "3/row/disk/transient": "d11db69ff739736903e0070d",
    "3/batch/memory/none": "d74c333a2b6076a446ac7dd8",
    "3/batch/memory/transient": "748e9e3ae0a6b3854456420e",
    "3/batch/disk/none": "dafcc5c12cc1c0bd9d62f1b0",
    "3/batch/disk/transient": "d11db69ff739736903e0070d",
    "4/row/memory/none": "2d017e390222dd98c01b2936",
    "4/row/memory/transient": "946af4c669361971d3e6d346",
    "4/row/disk/none": "7ed6deec433641f41cc1f5f7",
    "4/row/disk/transient": "ff95c3743d611ecff85d2a10",
    "4/batch/memory/none": "2d017e390222dd98c01b2936",
    "4/batch/memory/transient": "946af4c669361971d3e6d346",
    "4/batch/disk/none": "7ed6deec433641f41cc1f5f7",
    "4/batch/disk/transient": "ff95c3743d611ecff85d2a10",
    "80/row/memory/none": "f9084d387b03482b61189e9a",
    "80/row/memory/transient": "7c1b4a4011f436208c60738a",
    "80/row/disk/none": "5966fb808c582e5eec397765",
    "80/row/disk/transient": "17ceb8258f130418126a7ebf",
    "80/batch/memory/none": "f9084d387b03482b61189e9a",
    "80/batch/memory/transient": "7c1b4a4011f436208c60738a",
    "80/batch/disk/none": "5966fb808c582e5eec397765",
    "80/batch/disk/transient": "17ceb8258f130418126a7ebf",
}


@pytest.mark.parametrize("slots, mode, storage, faults", CONFIGURATIONS)
def test_charges_match_the_committed_digest(slots, mode, storage, faults):
    key = f"{slots}/{mode}/{storage}/{faults}"
    digest, landed = charge_digest(slots, mode, storage, faults)
    assert digest == EXPECTED[key], key
    # the fault half of the table is not the fault-free half again
    assert (landed > 0) == (faults == "transient"), key


if __name__ == "__main__":
    for configuration in CONFIGURATIONS:
        print(f'    "{"/".join(map(str, configuration))}": '
              f'"{charge_digest(*configuration)[0]}",')
