"""Tests for aggregate functions, including VECTORIZE / ROWMATRIX /
COLMATRIX (paper section 3.3)."""

from functools import reduce

import numpy as np
import pytest

from repro.errors import ExecutionError, RuntimeTypeError, TypeCheckError
from repro.la import lookup_aggregate
from repro.types import (
    DOUBLE,
    INTEGER,
    LABELED_SCALAR,
    STRING,
    LabeledScalar,
    Matrix,
    MatrixType,
    Vector,
    VectorType,
)


def run(agg_name, values):
    agg = lookup_aggregate(agg_name)
    state = agg.create()
    for value in values:
        state = agg.add(state, value)
    return agg.finish(state)


def run_distributed(agg_name, partitions):
    """Partial-aggregate each partition, then merge — the way the engine
    actually evaluates distributive aggregates."""
    agg = lookup_aggregate(agg_name)
    partials = []
    for part in partitions:
        state = agg.create()
        for value in part:
            state = agg.add(state, value)
        partials.append(state)
    merger = agg.merger
    if merger is None:  # pairs and label dicts: the aggregate's own merge
        merged = reduce(agg.merge, partials)
    else:  # a state merges into its group as a value is added
        merged = reduce(merger.add, partials, merger.create())
    return agg.finish(merged)


class TestSum:
    def test_scalars(self):
        assert run("SUM", [1, 2, 3]) == 6

    def test_null_skipped(self):
        assert run("SUM", [1, None, 2]) == 3

    def test_all_null_returns_null(self):
        assert run("SUM", [None, None]) is None

    def test_vectors_entrywise(self):
        result = run("SUM", [Vector([1.0, 2.0]), Vector([3.0, 4.0])])
        assert result == Vector([4.0, 6.0])

    def test_matrices_entrywise(self):
        result = run("SUM", [Matrix([[1.0]]), Matrix([[2.0]])])
        assert result == Matrix([[3.0]])

    def test_vector_length_mismatch_raises(self):
        with pytest.raises(RuntimeTypeError):
            run("SUM", [Vector([1.0]), Vector([1.0, 2.0])])

    def test_result_types(self):
        agg = lookup_aggregate("SUM")
        assert agg.result_type(INTEGER) == INTEGER
        assert agg.result_type(DOUBLE) == DOUBLE
        assert agg.result_type(VectorType(5)) == VectorType(5)
        assert agg.result_type(MatrixType(2, 3)) == MatrixType(2, 3)
        with pytest.raises(TypeCheckError):
            agg.result_type(STRING)

    def test_distributed_equals_serial(self):
        parts = [[Vector([1.0, 1.0])] * 3, [Vector([2.0, 0.0])] * 2]
        assert run_distributed("SUM", parts) == Vector([7.0, 3.0])


class TestCountMinMaxAvg:
    def test_count_skips_nulls(self):
        assert run("COUNT", [1, None, "x"]) == 2

    def test_min_max(self):
        assert run("MIN", [3, 1, 2]) == 1
        assert run("MAX", [3, 1, 2]) == 3

    def test_min_on_labeled_scalar(self):
        assert run("MIN", [LabeledScalar(2.0, 1), LabeledScalar(1.0, 2)]) == 1.0

    def test_min_elementwise_over_vectors(self):
        result = run("MIN", [Vector([1.0, 5.0]), Vector([3.0, 2.0])])
        assert result == Vector([1.0, 2.0])

    def test_max_elementwise_over_matrices(self):
        result = run("MAX", [Matrix([[1.0, 5.0]]), Matrix([[3.0, 2.0]])])
        assert result == Matrix([[3.0, 5.0]])

    def test_min_type_rules(self):
        # labeled scalars are fine; booleans are not
        assert lookup_aggregate("MIN").result_type(LABELED_SCALAR) == DOUBLE
        from repro.types import BOOLEAN

        with pytest.raises(TypeCheckError):
            lookup_aggregate("MIN").result_type(BOOLEAN)

    def test_min_mixed_vector_lengths_raise(self):
        with pytest.raises(RuntimeTypeError):
            run("MIN", [Vector([1.0]), Vector([1.0, 2.0])])

    def test_avg(self):
        assert run("AVG", [1, 2, 3, None]) == 2.0

    def test_avg_of_vectors(self):
        result = run("AVG", [Vector([2.0]), Vector([4.0])])
        assert result == Vector([3.0])

    def test_avg_distributed(self):
        assert run_distributed("AVG", [[1, 2], [3, 4, 5]]) == 3.0

    def test_count_min_max_distributed(self):
        parts = [[1, None, 7], [], [None], [4, 2]]
        assert run_distributed("COUNT", parts) == 4
        assert run_distributed("MIN", parts[:3]) == 1
        assert run_distributed("MAX", parts) == 7

    def test_merge_rule_is_declared_once(self):
        """A state that is a value merges as a value is added: SUM, MIN
        and MAX by their own ``add``, COUNT's counts by SUM's; AVG pairs
        and the label dicts keep a ``merge`` of their own."""
        mergers = {
            name: lookup_aggregate(name).merger
            for name in ("SUM", "COUNT", "MIN", "MAX", "AVG", "VECTORIZE",
                         "ROWMATRIX", "COLMATRIX")
        }
        assert {name: merger and merger.name for name, merger in mergers.items()} == {
            "SUM": "SUM", "COUNT": "SUM", "MIN": "MIN", "MAX": "MAX", "AVG": None,
            "VECTORIZE": None, "ROWMATRIX": None, "COLMATRIX": None,
        }

    def test_avg_empty_is_null(self):
        assert run("AVG", []) is None


class TestVectorize:
    def test_paper_example(self):
        # VECTORIZE(label_scalar(y_i, i)) builds the vector y
        values = [LabeledScalar(v, i) for i, v in [(1, 1.5), (2, 2.5), (3, 3.5)]]
        assert run("VECTORIZE", values) == Vector([1.5, 2.5, 3.5])

    def test_holes_become_zero(self):
        values = [LabeledScalar(9.0, 4), LabeledScalar(1.0, 1)]
        assert run("VECTORIZE", values) == Vector([1.0, 0.0, 0.0, 9.0])

    def test_length_is_largest_label(self):
        assert run("VECTORIZE", [LabeledScalar(1.0, 7)]).length == 7

    def test_unlabeled_input_raises(self):
        with pytest.raises(ExecutionError):
            run("VECTORIZE", [LabeledScalar(1.0)])

    def test_wrong_value_type_raises(self):
        with pytest.raises(RuntimeTypeError):
            run("VECTORIZE", [3.0])

    def test_result_type(self):
        agg = lookup_aggregate("VECTORIZE")
        assert agg.result_type(LABELED_SCALAR) == VectorType(None)
        with pytest.raises(TypeCheckError):
            agg.result_type(DOUBLE)

    def test_distributed(self):
        parts = [
            [LabeledScalar(1.0, 1)],
            [LabeledScalar(3.0, 3), LabeledScalar(2.0, 2)],
        ]
        assert run_distributed("VECTORIZE", parts) == Vector([1.0, 2.0, 3.0])


class TestRowColMatrix:
    def test_rowmatrix(self):
        vectors = [
            Vector([1.0, 2.0], label=1),
            Vector([3.0, 4.0], label=2),
        ]
        assert run("ROWMATRIX", vectors) == Matrix([[1.0, 2.0], [3.0, 4.0]])

    def test_colmatrix(self):
        vectors = [
            Vector([1.0, 2.0], label=1),
            Vector([3.0, 4.0], label=2),
        ]
        assert run("COLMATRIX", vectors) == Matrix([[1.0, 3.0], [2.0, 4.0]])

    def test_hole_rows_are_zero(self):
        result = run("ROWMATRIX", [Vector([1.0], label=3)])
        assert result == Matrix([[0.0], [0.0], [1.0]])

    def test_unlabeled_vector_raises(self):
        with pytest.raises(ExecutionError):
            run("ROWMATRIX", [Vector([1.0])])

    def test_mismatched_widths_raise(self):
        vectors = [Vector([1.0], label=1), Vector([1.0, 2.0], label=2)]
        with pytest.raises(RuntimeTypeError):
            run("ROWMATRIX", vectors)

    def test_result_types(self):
        assert lookup_aggregate("ROWMATRIX").result_type(VectorType(5)) == MatrixType(
            None, 5
        )
        assert lookup_aggregate("COLMATRIX").result_type(VectorType(5)) == MatrixType(
            5, None
        )
        with pytest.raises(TypeCheckError):
            lookup_aggregate("ROWMATRIX").result_type(DOUBLE)

    def test_distributed(self):
        parts = [
            [Vector([1.0, 0.0], label=2)],
            [Vector([0.0, 1.0], label=1)],
        ]
        assert run_distributed("ROWMATRIX", parts) == Matrix(
            [[0.0, 1.0], [1.0, 0.0]]
        )


class TestBlockingPattern:
    """The paper's blocking query groups 1000 vectors into a MATRIX via
    ROWMATRIX(label_vector(...)); check the pattern end-to-end in
    miniature."""

    def test_group_vectors_into_block(self):
        rng = np.random.default_rng(0)
        rows = rng.normal(size=(4, 3))
        vectors = [Vector(rows[i], label=i + 1) for i in range(4)]
        block = run("ROWMATRIX", vectors)
        assert block.allclose(Matrix(rows))
