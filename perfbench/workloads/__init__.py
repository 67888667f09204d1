"""The benchmark's workloads; ``embedded_workload`` builds the three
that run in-process (``serve_mix`` drives a server and has its own
runner in :mod:`workloads.serve_mix`)."""

from __future__ import annotations


def embedded_workload(name: str, seed: int):
    from . import ingest_views, la_vector, rel_tuple

    classes = {
        "la_vector": la_vector.LaVector,
        "rel_tuple": rel_tuple.RelTuple,
        "ingest_views": ingest_views.IngestViews,
    }
    return classes[name](seed)
