"""Tests for the built-in linear algebra function library."""

import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from repro.engine.aggregation import STEP_ROWS, advance
from repro.errors import ExecutionError, RuntimeTypeError
from repro.la import all_builtins, lookup
from repro.la.aggregates import sum_block
from repro.plan.expressions import ColumnVar, FuncExpr
from repro.types import Matrix, MatrixType, Vector, VectorType


def fn(name):
    function = lookup(name)
    assert function is not None, f"builtin {name} missing"
    return function


class TestRegistry:
    def test_paper_claims_at_least_22_builtins(self):
        assert len(all_builtins()) >= 22

    def test_lookup_case_insensitive(self):
        assert lookup("MATRIX_MULTIPLY") is fn("matrix_multiply")

    def test_unknown_returns_none(self):
        assert lookup("no_such_function") is None

    def test_every_builtin_has_signature_and_doc(self):
        for builtin in all_builtins():
            assert builtin.signature.name == builtin.name
            assert builtin.doc


class TestMultiplicationFamily:
    def test_matrix_multiply(self):
        left = Matrix([[1.0, 2.0], [3.0, 4.0]])
        right = Matrix([[5.0], [6.0]])
        assert fn("matrix_multiply")(left, right) == Matrix([[17.0], [39.0]])

    def test_matrix_multiply_inner_mismatch(self):
        with pytest.raises(RuntimeTypeError):
            fn("matrix_multiply")(Matrix([[1.0, 2.0]]), Matrix([[1.0, 2.0]]))

    def test_matrix_vector_multiply(self):
        mat = Matrix([[1.0, 0.0], [0.0, 2.0]])
        assert fn("matrix_vector_multiply")(mat, Vector([3, 4])) == Vector([3.0, 8.0])

    def test_vector_matrix_multiply(self):
        mat = Matrix([[1.0, 0.0], [0.0, 2.0]])
        assert fn("vector_matrix_multiply")(Vector([3, 4]), mat) == Vector([3.0, 8.0])

    def test_outer_product(self):
        result = fn("outer_product")(Vector([1, 2]), Vector([3, 4, 5]))
        assert result == Matrix([[3.0, 4.0, 5.0], [6.0, 8.0, 10.0]])

    def test_inner_product(self):
        assert fn("inner_product")(Vector([1, 2, 3]), Vector([4, 5, 6])) == 32.0

    def test_inner_product_mismatch(self):
        with pytest.raises(RuntimeTypeError):
            fn("inner_product")(Vector([1]), Vector([1, 2]))


class TestStructural:
    def test_transpose(self):
        assert fn("trans_matrix")(Matrix([[1.0, 2.0]])) == Matrix([[1.0], [2.0]])

    def test_diag_roundtrip(self):
        mat = Matrix([[1.0, 9.0], [9.0, 2.0]])
        assert fn("diag")(mat) == Vector([1.0, 2.0])
        rebuilt = fn("diag_matrix")(Vector([1.0, 2.0]))
        assert rebuilt == Matrix([[1.0, 0.0], [0.0, 2.0]])

    def test_diag_requires_square(self):
        with pytest.raises(RuntimeTypeError):
            fn("diag")(Matrix([[1.0, 2.0]]))

    def test_row_and_col_matrix(self):
        vec = Vector([1.0, 2.0])
        assert fn("row_matrix")(vec).shape == (1, 2)
        assert fn("col_matrix")(vec).shape == (2, 1)

    def test_get_row_col_one_based(self):
        mat = Matrix([[1.0, 2.0], [3.0, 4.0]])
        assert fn("get_row")(mat, 1) == Vector([1.0, 2.0])
        assert fn("get_col")(mat, 2) == Vector([2.0, 4.0])

    def test_get_row_out_of_range(self):
        with pytest.raises(ExecutionError):
            fn("get_row")(Matrix([[1.0]]), 2)
        with pytest.raises(ExecutionError):
            fn("get_row")(Matrix([[1.0]]), 0)

    def test_get_scalar_and_element(self):
        assert fn("get_scalar")(Vector([5.0, 7.0]), 2) == 7.0
        assert fn("get_element")(Matrix([[1.0, 2.0]]), 1, 2) == 2.0


class TestLabels:
    def test_label_scalar(self):
        ls = fn("label_scalar")(3.5, 4)
        assert ls.value == 3.5 and ls.label == 4

    def test_label_vector_copies(self):
        vec = Vector([1.0])
        labeled = fn("label_vector")(vec, 6)
        assert labeled.label == 6
        assert vec.label == -1

    def test_get_label(self):
        assert fn("get_label")(Vector([1.0], label=3)) == 3
        assert fn("get_label")(Vector([1.0])) == -1


class TestSolvers:
    def test_inverse(self):
        mat = Matrix([[4.0, 0.0], [0.0, 2.0]])
        assert fn("matrix_inverse")(mat).allclose(Matrix([[0.25, 0.0], [0.0, 0.5]]))

    def test_inverse_singular(self):
        with pytest.raises(ExecutionError):
            fn("matrix_inverse")(Matrix([[1.0, 1.0], [1.0, 1.0]]))

    def test_solve_matches_inverse(self):
        rng = np.random.default_rng(7)
        mat = Matrix(rng.normal(size=(5, 5)) + 5 * np.eye(5))
        vec = Vector(rng.normal(size=5))
        via_solve = fn("solve")(mat, vec)
        via_inverse = fn("matrix_vector_multiply")(fn("matrix_inverse")(mat), vec)
        assert via_solve.allclose(via_inverse, rtol=1e-6)

    def test_pseudo_inverse_shape(self):
        assert fn("pseudo_inverse")(Matrix(np.ones((3, 5)))).shape == (5, 3)

    def test_determinant_and_trace(self):
        mat = Matrix([[2.0, 0.0], [0.0, 3.0]])
        assert fn("determinant")(mat) == pytest.approx(6.0)
        assert fn("trace")(mat) == 5.0


class TestReductions:
    def test_vector_reductions(self):
        vec = Vector([3.0, -4.0])
        assert fn("norm_vector")(vec) == 5.0
        assert fn("sum_vector")(vec) == -1.0
        assert fn("min_vector")(vec) == -4.0
        assert fn("max_vector")(vec) == 3.0
        assert fn("index_min")(vec) == 2
        assert fn("index_max")(vec) == 1

    def test_matrix_reductions(self):
        mat = Matrix([[1.0, 2.0], [30.0, 4.0]])
        assert fn("sum_matrix")(mat) == 37.0
        assert fn("row_sums")(mat) == Vector([3.0, 34.0])
        assert fn("col_sums")(mat) == Vector([31.0, 6.0])
        assert fn("row_mins")(mat) == Vector([1.0, 4.0])
        assert fn("row_maxs")(mat) == Vector([2.0, 30.0])
        assert fn("col_mins")(mat) == Vector([1.0, 2.0])
        assert fn("col_maxs")(mat) == Vector([30.0, 4.0])


class TestConstructors:
    def test_identity(self):
        assert fn("identity_matrix")(3) == Matrix(np.eye(3))

    def test_identity_rejects_nonpositive(self):
        with pytest.raises(ExecutionError):
            fn("identity_matrix")(0)

    def test_zeros_and_ones(self):
        assert fn("zeros_vector")(4) == Vector([0.0] * 4)
        assert fn("ones_vector")(2) == Vector([1.0, 1.0])


class TestElementwise:
    def test_vector_variants(self):
        vec = Vector([-4.0, 9.0])
        assert fn("abs_vector")(vec) == Vector([4.0, 9.0])
        assert fn("sqrt_vector")(Vector([4.0, 9.0])) == Vector([2.0, 3.0])
        assert fn("exp_vector")(Vector([0.0])) == Vector([1.0])
        assert fn("log_vector")(Vector([1.0])) == Vector([0.0])

    def test_matrix_variants(self):
        mat = Matrix([[-1.0]])
        assert fn("abs_matrix")(mat) == Matrix([[1.0]])


class TestCostFormulas:
    def test_matrix_multiply_flops(self):
        flops = fn("matrix_multiply").estimate_flops(
            [MatrixType(10, 20), MatrixType(20, 30)]
        )
        assert flops == 2 * 10 * 20 * 30

    def test_runtime_flops_match_types(self):
        left = Matrix(np.ones((10, 20)))
        right = Matrix(np.ones((20, 30)))
        assert fn("matrix_multiply").runtime_flops([left, right]) == 2 * 10 * 20 * 30

    def test_outer_product_flops(self):
        assert fn("outer_product").estimate_flops(
            [VectorType(10), VectorType(20)]
        ) == 200

    def test_inverse_cubic(self):
        assert fn("matrix_inverse").estimate_flops([MatrixType(100, 100)]) == pytest.approx(
            2.0 * 100**3
        )


class TestAllBuiltinCostFormulas:
    """Every registered builtin must produce sane cost estimates for
    plausible argument types — the optimizer calls these blindly."""

    def test_every_builtin_costs_positive(self):
        from repro.types import DOUBLE, INTEGER, MatrixType, VectorType
        from repro.types.signature import SigMatrix, SigScalar, SigVector

        for builtin in all_builtins():
            arg_types = []
            for param in builtin.signature.params:
                if isinstance(param, SigVector):
                    arg_types.append(VectorType(7))
                elif isinstance(param, SigMatrix):
                    arg_types.append(MatrixType(7, 7))
                elif param.kind == "INTEGER":
                    arg_types.append(INTEGER)
                else:
                    arg_types.append(DOUBLE)
            flops = builtin.estimate_flops(arg_types)
            assert flops >= 0.0, builtin.name

    def test_every_builtin_kind_valid(self):
        for builtin in all_builtins():
            assert builtin.kind in ("blas1", "blas3"), builtin.name

    def test_blas3_set_is_exactly_the_dense_kernels(self):
        blas3 = {fn.name for fn in all_builtins() if fn.kind == "blas3"}
        assert blas3 == {
            "matrix_multiply",
            "matrix_inverse",
            "pseudo_inverse",
            "solve",
            "determinant",
        }


class TestFusedSumOracle:
    """The fused SUM's blocked BLAS order (``engine/aggregation.py``)
    against the sequential chain it replaced — ``sum_block`` over the
    per-row outer products. Row ≡ batch runs the one kernel on both
    sides, so this numpy differential is the check of its arithmetic."""

    COUNTS = (1, STEP_ROWS - 1, STEP_ROWS, STEP_ROWS + 1, 2 * STEP_ROWS + 1)
    #: (rows, cols, one expression): square Grams and non-square a x b
    SHAPES = ((3, 3, True), (1, 1, True), (3, 5, False), (8, 2, False), (1, 4, False))

    X = ColumnVar(0, VectorType(None), "x")
    Y = ColumnVar(1, VectorType(None), "y")

    def _call(self, same):
        return FuncExpr(fn("outer_product"), [self.X, self.X if same else self.Y])

    @staticmethod
    def _fold(call, operands, cuts=()):
        """The kernel over ``operands``, in runs split at ``cuts`` — each
        run continuing the state the one before it carried."""
        state, bounds = None, [0, *cuts, len(operands[0])]
        for start, stop in zip(bounds, bounds[1:]):
            state = advance(call, [operand[start:stop] for operand in operands], state)
        return state.finish().data

    @staticmethod
    def _chain(left, right):
        return sum_block(fn("outer_product").block_impl(left, right))

    def _cases(self, fill):
        rng = np.random.default_rng(7)
        for count in self.COUNTS:
            for rows, cols, same in self.SHAPES:
                left = fill(rng, (count, rows))
                right = left if same else fill(rng, (count, cols))
                operands = [left] if same else [left, right]
                yield count, same, operands, left, right

    @staticmethod
    def _wide(rng, shape):
        return rng.normal(size=shape) * 10.0 ** rng.integers(-6, 6, size=shape)

    def test_within_the_error_bound_of_the_sequential_chain(self):
        """Both orders sum the same ``n`` products per cell, so they
        differ by at most ``γₙ·(|A|ᵀ|B|)``, ``γₙ = nu / (1 - nu)``; the
        result of one expression is exactly symmetric (``syrk``); and a
        state carried across every step boundary, or a row either side
        of one, gives the one-run bits."""
        unit = np.finfo(np.float64).eps / 2
        for count, same, operands, left, right in self._cases(self._wide):
            got = self._fold(self._call(same), operands)
            want = self._chain(left, right)
            gamma = count * unit / (1 - count * unit)
            bound = gamma * (np.abs(left).T @ np.abs(right))
            assert got.shape == want.shape
            assert (np.abs(got - want) <= bound).all(), (count, left.shape, same)
            if same:
                assert (got == got.T).all()
            for cut in (STEP_ROWS - 1, STEP_ROWS, STEP_ROWS + 1, 2 * STEP_ROWS):
                if cut < count:
                    again = self._fold(self._call(same), operands, (1, cut))
                    assert again.tobytes() == got.tobytes(), (count, cut)

    def test_nan_and_infinities_land_in_the_same_cells(self):
        """An inf meeting a zero, or +inf meeting -inf, is NaN in either
        order; moderate finite values cannot overflow in one order only."""

        def special(rng, shape):
            values = rng.normal(size=shape)
            picks = rng.random(size=shape)
            values[picks < 0.03] = np.inf
            values[(picks >= 0.03) & (picks < 0.06)] = -np.inf
            values[(picks >= 0.06) & (picks < 0.08)] = np.nan
            values[(picks >= 0.08) & (picks < 0.12)] = 0.0
            return values

        with np.errstate(invalid="ignore"):
            for count, same, operands, left, right in self._cases(special):
                got = self._fold(self._call(same), operands)
                want = self._chain(left, right)
                for where in (np.isnan, np.isposinf, np.isneginf):
                    assert (where(got) == where(want)).all(), (count, where)

    def test_blas_thread_count_does_not_change_bits(self):
        """The contract lets the BLAS build change the bits, never its
        thread count: the kernel over operands large enough for OpenBLAS
        to thread (one step of 1000-wide rows, 4096 x 512) hashes the
        same at one and at two threads, ``syrk`` and ``gemm`` alike."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from repro.engine.aggregation import STEP_ROWS, advance\n"
            "from repro.la import lookup\n"
            "from repro.plan.expressions import ColumnVar, FuncExpr\n"
            "from repro.types import VectorType\n"
            "x, y = (ColumnVar(i, VectorType(None), n) for i, n in enumerate('xy'))\n"
            "outer, digest = lookup('outer_product'), hashlib.sha256()\n"
            "rng = np.random.default_rng(3)\n"
            "for count, dim in ((STEP_ROWS, 1000), (4096, 512)):\n"
            "    left, right = rng.normal(size=(2, count, dim))\n"
            "    for args, operands in (([x, x], [left]), ([x, y], [left, right])):\n"
            "        state = advance(FuncExpr(outer, args), operands)\n"
            "        digest.update(state.finish().data.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = _digests_by_thread_count(script)
        assert digests[0] == digests[1]

    def test_blas_thread_count_does_not_change_a_tile(self):
        """A nested-loop join's pair stage computes ``inner_product`` as one
        tile, the block kernel over ``(p, 1, d)`` probe and ``(1, b, d)``
        build blocks. In every process it equals, bit for bit, the kernel
        over the gathered pairs and the scalar ``float(l @ r)``; at one and
        at two threads it hashes the same up to ``d = 10000``. Past that
        OpenBLAS threads each dot and its bits follow the thread count —
        in every door alike, the row oracle's scalar dot included (the
        float contract in docs/ENGINE.md says so) — so ``d = 20000`` is
        held to the in-process identity only."""
        script = (
            "import hashlib\n"
            "import numpy as np\n"
            "from repro.la import lookup\n"
            "kernel, digest = lookup('inner_product').block_impl, hashlib.sha256()\n"
            "rng = np.random.default_rng(5)\n"
            "for rows, cols, dim in ((96, 96, 8), (40, 30, 17), (6, 5, 10000),\n"
            "                        (12, 10, 20000)):\n"
            "    probe = rng.normal(size=(rows, dim))\n"
            "    build = rng.normal(size=(cols, dim))\n"
            "    tile = kernel(probe[:, None], build[None])\n"
            "    i, j = np.divmod(np.arange(rows * cols), cols)\n"
            "    pairs = kernel(probe[i], build[j]).reshape(rows, cols)\n"
            "    scalar = np.array([[float(p @ b) for b in build] for p in probe])\n"
            "    assert tile.tobytes() == pairs.tobytes() == scalar.tobytes(), dim\n"
            "    if dim <= 10000:\n"
            "        digest.update(tile.tobytes())\n"
            "print(digest.hexdigest())\n"
        )
        digests = _digests_by_thread_count(script)
        assert digests[0] == digests[1]


def _digests_by_thread_count(script):
    """What ``script`` prints, run under ``OPENBLAS_NUM_THREADS=1`` and
    ``=2``, each in a process of its own (the thread count is read once,
    at load)."""
    source = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for threads in ("1", "2"):
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(
            [source] + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else [])
        )
        done = subprocess.run(
            [sys.executable, "-c", script],
            env=env,
            capture_output=True,
            text=True,
            timeout=300,
        )
        assert done.returncode == 0, done.stderr
        digests.append(done.stdout.strip())
    return digests
