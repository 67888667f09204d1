"""Cost-based plan optimization (paper section 4).

The optimizer works on *query regions*: a tree of Filter/Join nodes over
relation leaves (scans, view plans, subquery plans, aggregates). Within a
region it

1. splits the predicates into conjuncts and classifies them
   (single-relation filters are pushed down; cross-relation equalities
   become hash-join keys — including expression keys like the paper's
   ``x.id/1000 = ind.mi``; everything else becomes a residual predicate);
2. enumerates join orders with Selinger-style dynamic programming,
   **including cross products**, costing each candidate with the
   size-aware :class:`~repro.plan.cost.CostModel`;
3. applies **early projection**: as soon as all inputs of a pending
   projection expression are available and evaluating it would shrink the
   intermediate rows, the expression is computed and its (possibly huge)
   inputs are dropped. This is exactly how the section 4.1 example plan
   ``(pi(S x R)) |x| T`` beats ``pi((S |x| T) |x| R)``: the 80 MB matrices
   are multiplied away into 8 KB results before anything is joined with T;
4. prunes columns nothing downstream needs.

Every cost comparison of one ``optimize()`` call — DP and greedy
candidates, limit pushdown — reads one planning pass
(:class:`~repro.plan.cost.PlanEstimates`), which evaluates each plan
node once: a candidate join costs its own operator plus its
children's totals, never a re-walk of their subtrees. A compile hands
the same pass on to the physical planner.

With a size-blind cost model (the ablation), every attribute looks 8
bytes wide, early projection never looks beneficial, and the optimizer
degenerates to a classical join-graph-following planner — reproducing the
"bad" plan of section 4.1.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Dict, FrozenSet, List, Optional, Tuple

from .cost import CostModel, PlanEstimates
from .expressions import (
    BinaryExpr,
    BoolExpr,
    CaseExpr,
    ColumnVar,
    FuncExpr,
    IsNullExpr,
    LiteralExpr,
    NegExpr,
    NotExpr,
    ParamExpr,
    TypedExpr,
    and_together,
    conjuncts,
)
from .logical import (
    AggregateNode,
    AggSpec,
    DistinctNode,
    FilterNode,
    JoinNode,
    LogicalNode,
    OutputColumn,
    ProjectNode,
    ScanNode,
    SortNode,
)

#: Above this many relations in one region, fall back from exhaustive DP to
#: a greedy pairing heuristic.
DP_RELATION_LIMIT = 10

Subst = Dict[tuple, ColumnVar]


def substitute(expr: TypedExpr, subst: Subst) -> TypedExpr:
    """Replace any subtree whose structural key appears in ``subst`` with
    the corresponding column reference (largest subtrees win)."""
    if not subst:
        return expr
    replacement = subst.get(expr.key())
    if replacement is not None:
        return replacement
    if isinstance(expr, (ColumnVar, LiteralExpr, ParamExpr)):
        return expr
    if isinstance(expr, BinaryExpr):
        return BinaryExpr(
            expr.op, substitute(expr.left, subst), substitute(expr.right, subst)
        )
    if isinstance(expr, BoolExpr):
        return BoolExpr(
            expr.op, substitute(expr.left, subst), substitute(expr.right, subst)
        )
    if isinstance(expr, NotExpr):
        return NotExpr(substitute(expr.operand, subst))
    if isinstance(expr, NegExpr):
        return NegExpr(substitute(expr.operand, subst))
    if isinstance(expr, IsNullExpr):
        return IsNullExpr(substitute(expr.operand, subst), expr.negated)
    if isinstance(expr, FuncExpr):
        return FuncExpr(expr.builtin, [substitute(arg, subst) for arg in expr.args])
    if isinstance(expr, CaseExpr):
        return CaseExpr(
            [
                (substitute(condition, subst), substitute(value, subst))
                for condition, value in expr.whens
            ],
            substitute(expr.otherwise, subst)
            if expr.otherwise is not None
            else None,
        )
    return expr


def _replace_columns(
    expr: TypedExpr, mapping: Dict[int, TypedExpr]
) -> Optional[TypedExpr]:
    """Rewrite ``expr`` with every column reference replaced by its
    defining expression from ``mapping`` — the inverse direction of
    :func:`substitute`, used to push sort keys through a projection.
    Returns None when the expression references a column the mapping
    does not define (or an unknown node type), meaning: don't rewrite."""
    if isinstance(expr, ColumnVar):
        return mapping.get(expr.column_id)
    if isinstance(expr, (LiteralExpr, ParamExpr)):
        return expr
    if isinstance(expr, BinaryExpr):
        left = _replace_columns(expr.left, mapping)
        right = _replace_columns(expr.right, mapping)
        if left is None or right is None:
            return None
        return BinaryExpr(expr.op, left, right)
    if isinstance(expr, BoolExpr):
        left = _replace_columns(expr.left, mapping)
        right = _replace_columns(expr.right, mapping)
        if left is None or right is None:
            return None
        return BoolExpr(expr.op, left, right)
    if isinstance(expr, NotExpr):
        operand = _replace_columns(expr.operand, mapping)
        return NotExpr(operand) if operand is not None else None
    if isinstance(expr, NegExpr):
        operand = _replace_columns(expr.operand, mapping)
        return NegExpr(operand) if operand is not None else None
    if isinstance(expr, IsNullExpr):
        operand = _replace_columns(expr.operand, mapping)
        return IsNullExpr(operand, expr.negated) if operand is not None else None
    if isinstance(expr, FuncExpr):
        args = [_replace_columns(arg, mapping) for arg in expr.args]
        if any(arg is None for arg in args):
            return None
        return FuncExpr(expr.builtin, args)
    if isinstance(expr, CaseExpr):
        whens = []
        for condition, value in expr.whens:
            new_condition = _replace_columns(condition, mapping)
            new_value = _replace_columns(value, mapping)
            if new_condition is None or new_value is None:
                return None
            whens.append((new_condition, new_value))
        otherwise = None
        if expr.otherwise is not None:
            otherwise = _replace_columns(expr.otherwise, mapping)
            if otherwise is None:
                return None
        return CaseExpr(whens, otherwise)
    return None


def _max_column_id(node: LogicalNode) -> int:
    highest = max((column.column_id for column in node.columns), default=0)
    for child in node.children():
        highest = max(highest, _max_column_id(child))
    if isinstance(node, AggregateNode):
        for column in node.group_columns:
            highest = max(highest, column.column_id)
        for spec in node.aggregates:
            highest = max(highest, spec.output.column_id)
    return highest


@dataclass
class _Pending:
    """A projection expression waiting to be computed early."""

    expr: TypedExpr
    output: OutputColumn

    @property
    def key(self):
        return self.expr.key()

    @property
    def cols(self) -> FrozenSet[int]:
        return self.expr.column_ids


@dataclass
class _Conjunct:
    expr: TypedExpr
    rel_mask: int

    @property
    def cols(self) -> FrozenSet[int]:
        return self.expr.column_ids


@dataclass
class _Candidate:
    """A DP table entry."""

    plan: LogicalNode
    computed: FrozenSet[tuple]
    cost: float


class Optimizer:
    def __init__(self, cost_model: CostModel, view_matcher=None):
        self.cost = cost_model
        self.views = view_matcher  # repro.views.ViewMatcher or None
        self._ids = None  # set in optimize()
        self._estimates = None  # one planning pass per optimize()
        #: per-optimize() counts of aggregate subtrees answered from a
        #: materialized view / considered but not answered
        self.view_hits = 0
        self.view_misses = 0

    def optimize(
        self, plan: LogicalNode, estimates: Optional[PlanEstimates] = None
    ) -> LogicalNode:
        """``estimates`` is the compile's planning pass, which the
        physical planner then lowers with (a fresh one when None)."""
        self._ids = itertools.count(_max_column_id(plan) + 1)
        self._estimates = estimates or self.cost.planning_pass()
        self.view_hits = 0
        self.view_misses = 0
        optimized, _ = self._optimize(plan, None)
        return optimized

    # -- recursive dispatch ---------------------------------------------------

    def _optimize(
        self, node: LogicalNode, consumers: Optional[List[TypedExpr]]
    ) -> Tuple[LogicalNode, Subst]:
        if isinstance(node, ProjectNode):
            child, subst = self._optimize(node.child, list(node.exprs))
            exprs = [substitute(expr, subst) for expr in node.exprs]
            return ProjectNode(child, exprs, node.columns), {}
        if isinstance(node, AggregateNode):
            if self.views is not None:
                # a matched view is always cheaper (views/matcher.py), so
                # the rewrite is taken without pricing either side: a
                # view-answered plan reads no statistics of its base table
                replacement, considered = self.views.match_aggregate(node)
                if replacement is not None:
                    self.view_hits += 1
                    return replacement, {}
                if considered:
                    self.view_misses += 1
            inner_consumers = list(node.group_exprs) + [
                spec.arg for spec in node.aggregates if spec.arg is not None
            ]
            child, subst = self._optimize(node.child, inner_consumers)
            group_exprs = [substitute(expr, subst) for expr in node.group_exprs]
            aggregates = [
                AggSpec(
                    spec.aggregate,
                    substitute(spec.arg, subst) if spec.arg is not None else None,
                    spec.output,
                    spec.distinct,
                )
                for spec in node.aggregates
            ]
            return (
                AggregateNode(child, group_exprs, node.group_columns, aggregates),
                {},
            )
        if isinstance(node, SortNode):
            child, _ = self._optimize(node.child, None)
            plan = SortNode(child, node.keys, node.limit)
            if node.limit is not None:
                pushed = self._push_limit(plan)
                if pushed is not None:
                    return pushed, {}
            return plan, {}
        if isinstance(node, DistinctNode):
            child, _ = self._optimize(node.child, None)
            return DistinctNode(child), {}
        if isinstance(node, (FilterNode, JoinNode, ScanNode)):
            return self._optimize_region(node, consumers)
        return node, {}

    def _push_limit(self, node: SortNode) -> Optional[LogicalNode]:
        """Limit pushdown: ``ORDER BY ... LIMIT k`` above a projection
        becomes sort-then-project, so the projection expressions — and
        everything above the pre-gather local Top-K — touch at most k
        rows per slot instead of the whole input. Sort keys are
        rewritten through the projection's defining expressions; the
        rewrite is kept only when the cost model agrees (a shrinking
        projection, e.g. one multiplying 80 MB matrices into scalars,
        can make sorting the projected rows the cheaper order).

        Bit-identical either way: a projection is deterministic, 1:1
        and order-preserving, so every row keeps its rank and ties
        still break by the same input position."""
        child = node.child
        if not isinstance(child, ProjectNode):
            return None
        mapping = {
            column.column_id: expr
            for column, expr in zip(child.columns, child.exprs)
        }
        keys: List[Tuple[TypedExpr, bool]] = []
        for expr, ascending in node.keys:
            replaced = _replace_columns(expr, mapping)
            if replaced is None:
                return None
            keys.append((replaced, ascending))
        pushed = ProjectNode(
            SortNode(child.child, keys, node.limit), child.exprs, child.columns
        )
        self.cost.choosing(node)
        if self._estimates.plan_cost(pushed) < self._estimates.plan_cost(node):
            return pushed
        return None

    # -- region optimization -----------------------------------------------------

    def _collect_region(
        self, node: LogicalNode, relations: List[LogicalNode], preds: List[TypedExpr]
    ) -> None:
        if isinstance(node, FilterNode):
            preds.extend(conjuncts(node.predicate))
            self._collect_region(node.child, relations, preds)
            return
        if isinstance(node, JoinNode):
            for left_key, right_key in node.equi:
                preds.append(BinaryExpr("=", left_key, right_key))
            if node.residual is not None:
                preds.extend(conjuncts(node.residual))
            self._collect_region(node.left, relations, preds)
            self._collect_region(node.right, relations, preds)
            return
        relations.append(node)

    def _optimize_region(
        self, root: LogicalNode, consumers: Optional[List[TypedExpr]]
    ) -> Tuple[LogicalNode, Subst]:
        relations: List[LogicalNode] = []
        predicates: List[TypedExpr] = []
        self._collect_region(root, relations, predicates)
        predicates = _into_projections(relations, predicates)

        # recursively optimize relation leaves (views, subqueries, ...)
        relations = [
            rel if isinstance(rel, ScanNode) else self._optimize(rel, None)[0]
            for rel in relations
        ]

        rel_cols = [rel.column_ids for rel in relations]

        def mask_of(cols: FrozenSet[int]) -> int:
            mask = 0
            for index, owned in enumerate(rel_cols):
                if cols & owned:
                    mask |= 1 << index
            return mask

        conjunct_infos = [_Conjunct(expr, mask_of(expr.column_ids)) for expr in predicates]

        pending: List[_Pending] = []
        bare_consumer_cols: set = set()
        if consumers is not None:
            seen = set()
            for expr in consumers:
                if isinstance(expr, ColumnVar):
                    bare_consumer_cols.add(expr.column_id)
                    continue
                if not expr.column_ids:
                    continue
                key = expr.key()
                if key in seen:
                    continue
                seen.add(key)
                pending.append(
                    _Pending(
                        expr,
                        OutputColumn(next(self._ids), "_early", expr.data_type),
                    )
                )

        context = _RegionContext(
            cost=self.cost,
            estimates=self._estimates,
            relations=relations,
            conjuncts=conjunct_infos,
            pending=pending,
            bare_cols=frozenset(bare_consumer_cols),
            prune=consumers is not None,
            ids=self._ids,
        )
        best = context.solve()

        # constant predicates (no column references) apply at the very top
        floating = [c.expr for c in conjunct_infos if c.rel_mask == 0]
        plan = best.plan
        predicate = and_together(floating)
        if predicate is not None:
            plan = FilterNode(plan, predicate)

        subst: Subst = {
            item.key: item.output.var() for item in pending if item.key in best.computed
        }
        return plan, subst


def _into_projections(
    relations: List[LogicalNode], predicates: List[TypedExpr]
) -> List[TypedExpr]:
    """Move each conjunct that reads one projection leaf (a view or a
    subquery), and only columns it passes through unchanged, below that
    projection — into the region under it, where it filters before the
    projection computes anything and may become a join key (the paper's
    blocked distance: ``DISTANCES WHERE id1 = id2`` joins its two views
    on the block index instead of multiplying every block pair). Rows are
    the same: a projection is deterministic and 1:1. Returns the
    conjuncts left in this region."""
    moved: Dict[int, List[TypedExpr]] = {}
    kept = []
    for expr in predicates:
        columns = expr.column_ids
        target = next(
            (
                index
                for index, relation in enumerate(relations)
                if isinstance(relation, ProjectNode)
                and columns
                and columns <= relation.column_ids
            ),
            None,
        )
        inner = None
        if target is not None:
            relation = relations[target]
            renames = {
                column.column_id: inner_expr
                for column, inner_expr in zip(relation.columns, relation.exprs)
                if isinstance(inner_expr, ColumnVar)
            }
            inner = _replace_columns(expr, renames)
        if inner is None:
            kept.append(expr)
        else:
            moved.setdefault(target, []).append(inner)
    for index, inner in moved.items():
        relation = relations[index]
        relations[index] = ProjectNode(
            FilterNode(relation.child, and_together(inner)),
            relation.exprs,
            relation.columns,
        )
    return kept


@dataclass
class _RegionContext:
    cost: CostModel
    estimates: PlanEstimates
    relations: List[LogicalNode]
    conjuncts: List[_Conjunct]
    pending: List[_Pending]
    bare_cols: FrozenSet[int]
    prune: bool
    ids: object

    def solve(self) -> _Candidate:
        count = len(self.relations)
        self.full_mask = (1 << count) - 1
        if count > 1:  # the join order is picked by the estimates
            self.cost.choosing(*self.relations)
        if count > DP_RELATION_LIMIT:
            return self._greedy()
        return self._dynamic_programming()

    # -- shared machinery -------------------------------------------------------

    def _base_candidate(self, index: int) -> _Candidate:
        mask = 1 << index
        plan: LogicalNode = self.relations[index]
        local = [c.expr for c in self.conjuncts if c.rel_mask == mask]
        predicate = and_together(local)
        if predicate is not None:
            plan = FilterNode(plan, predicate)
        plan, computed = self._shrink(plan, mask, frozenset())
        return _Candidate(plan, computed, self.estimates.plan_cost(plan))

    def _connecting(self, left_mask: int, right_mask: int) -> List[_Conjunct]:
        """The conjuncts that join the two relation sets."""
        mask = left_mask | right_mask
        return [
            c
            for c in self.conjuncts
            if c.rel_mask
            and c.rel_mask & left_mask
            and c.rel_mask & right_mask
            and (c.rel_mask | mask) == mask
        ]

    def _combine(self, left: _Candidate, right: _Candidate, left_mask: int, right_mask: int) -> _Candidate:
        mask = left_mask | right_mask
        connecting = self._connecting(left_mask, right_mask)
        left_cols = left.plan.column_ids
        right_cols = right.plan.column_ids
        equi: List[Tuple[TypedExpr, TypedExpr]] = []
        residual: List[TypedExpr] = []
        for conjunct in connecting:
            pair = self._as_equi(conjunct.expr, left_cols, right_cols)
            if pair is not None:
                equi.append(pair)
            else:
                residual.append(conjunct.expr)
        plan: LogicalNode = JoinNode(
            left.plan, right.plan, equi, and_together(residual)
        )
        computed = left.computed | right.computed
        plan, computed = self._shrink(plan, mask, computed)
        return _Candidate(plan, computed, self.estimates.plan_cost(plan))

    @staticmethod
    def _as_equi(
        expr: TypedExpr, left_cols: FrozenSet[int], right_cols: FrozenSet[int]
    ) -> Optional[Tuple[TypedExpr, TypedExpr]]:
        if not (isinstance(expr, BinaryExpr) and expr.op == "="):
            return None
        lhs_cols = expr.left.column_ids
        rhs_cols = expr.right.column_ids
        if lhs_cols and rhs_cols:
            if lhs_cols <= left_cols and rhs_cols <= right_cols:
                return (expr.left, expr.right)
            if lhs_cols <= right_cols and rhs_cols <= left_cols:
                return (expr.right, expr.left)
        return None

    def _needed_elsewhere(
        self, mask: int, computed: FrozenSet[tuple], extra_computed: FrozenSet[tuple]
    ) -> Optional[FrozenSet[int]]:
        """Columns that must survive past this point, or None meaning
        'everything' (when the region's consumers are unknown)."""
        if not self.prune:
            return None
        needed = set(self.bare_cols)
        done = computed | extra_computed
        for conjunct in self.conjuncts:
            if conjunct.rel_mask and (conjunct.rel_mask | mask) != mask:
                needed |= conjunct.cols
        for item in self.pending:
            if item.key not in done:
                needed |= item.cols
            else:
                # a computed early-projection result must survive so the
                # consumer can reference it
                needed.add(item.output.column_id)
        return frozenset(needed)

    def _shrink(
        self, plan: LogicalNode, mask: int, computed: FrozenSet[tuple]
    ) -> Tuple[LogicalNode, FrozenSet[tuple]]:
        """Early-project pending expressions and prune dead columns."""
        if not self.prune:
            return plan, computed
        available = plan.column_ids
        to_compute: List[_Pending] = []
        for item in self.pending:
            if item.key in computed or not item.cols or not (item.cols <= available):
                continue
            tentative = frozenset(
                {item.key} | {other.key for other in to_compute}
            )
            needed = self._needed_elsewhere(mask, computed, tentative)
            droppable = [
                column
                for column in plan.columns
                if column.column_id in item.cols and column.column_id not in needed
            ]
            saved = sum(self.cost.type_width(column.data_type) for column in droppable)
            added = self.cost.type_width(item.expr.data_type)
            if added < saved:
                to_compute.append(item)

        new_computed = computed | frozenset(item.key for item in to_compute)
        needed = self._needed_elsewhere(mask, new_computed, frozenset())
        assert needed is not None
        keep = [
            column
            for column in plan.columns
            if column.column_id in needed or column.column_id in self.bare_cols
        ]
        if not to_compute and len(keep) == len(plan.columns):
            return plan, computed
        exprs: List[TypedExpr] = [column.var() for column in keep]
        outputs: List[OutputColumn] = list(keep)
        for item in to_compute:
            exprs.append(item.expr)
            outputs.append(item.output)
        if not outputs:
            # keep at least one column so rows remain countable
            fallback = plan.columns[0]
            exprs, outputs = [fallback.var()], [fallback]
        return ProjectNode(plan, exprs, outputs), new_computed

    # -- enumeration strategies ----------------------------------------------------

    def _dynamic_programming(self) -> _Candidate:
        count = len(self.relations)
        table: Dict[int, _Candidate] = {}
        for index in range(count):
            table[1 << index] = self._base_candidate(index)
        for size in range(2, count + 1):
            for mask in _masks_of_size(count, size):
                best: Optional[_Candidate] = None
                submask = (mask - 1) & mask
                while submask:
                    other = mask ^ submask
                    if submask < other:  # consider each split once
                        left, right = table.get(submask), table.get(other)
                        if left is not None and right is not None:
                            for a, b, am, bm in (
                                (left, right, submask, other),
                                (right, left, other, submask),
                            ):
                                candidate = self._combine(a, b, am, bm)
                                if best is None or candidate.cost < best.cost:
                                    best = candidate
                    submask = (submask - 1) & mask
                assert best is not None
                table[mask] = best
        return table[self.full_mask]

    def _greedy(self) -> _Candidate:
        entries: Dict[int, _Candidate] = {
            1 << index: self._base_candidate(index)
            for index in range(len(self.relations))
        }
        while len(entries) > 1:
            best_key = best_pair = best_candidate = None
            masks = list(entries)
            for i, left_mask in enumerate(masks):
                for right_mask in masks[i + 1 :]:
                    candidate = self._combine(
                        entries[left_mask], entries[right_mask], left_mask, right_mask
                    )
                    # the cheapest pair a predicate joins: a cross product
                    # can cost no more than a join on its own while its
                    # output grows every join above it, which a greedy
                    # pick never sees — so it comes last
                    cross = not self._connecting(left_mask, right_mask)
                    if best_key is None or (cross, candidate.cost) < best_key:
                        best_key = (cross, candidate.cost)
                        best_candidate = candidate
                        best_pair = (left_mask, right_mask)
            left_mask, right_mask = best_pair
            del entries[left_mask]
            del entries[right_mask]
            entries[left_mask | right_mask] = best_candidate
        return next(iter(entries.values()))


def _masks_of_size(count: int, size: int):
    for bits in itertools.combinations(range(count), size):
        mask = 0
        for bit in bits:
            mask |= 1 << bit
        yield mask


def optimize_plan(plan: LogicalNode, cost_model: CostModel) -> LogicalNode:
    """Convenience wrapper: optimize a bound logical plan."""
    return Optimizer(cost_model).optimize(plan)
