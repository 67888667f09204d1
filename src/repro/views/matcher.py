"""View-based query answering: match aggregate subtrees against views.

The matcher rewrites a scalar-aggregate subtree

    Aggregate[no keys] -> [Filter] -> Scan t

into a ``ViewScan`` of a fresh incremental materialized view over ``t``
whose predicate and aggregate arguments are structurally identical. The
comparison is by expression key after renaming the view's scan columns
onto the query's (column ids are plan-wide and differ between bindings;
names are the stable join point). The view may compute a superset of the
query's aggregates in any order — ``spec_indices`` records which view
spec answers which query output, preserving the query's column ids so
nothing downstream renumbers.

The replacement emits one row in a single partition, exactly like the
scalar FinalAggregate it displaces, and the stored states were folded in
engine order — so the rewrite is unconditionally bit-identical. It is
also always cheaper: one stored row on one slot against a scan, a
partial aggregate per slot, a gather and a merge. So the optimizer takes
it without pricing either plan, and a view-answered plan reads no
statistics of the base table — an append to it leaves the plan cached.
"""

from __future__ import annotations

from typing import List, Optional, Tuple

from ..plan.logical import (
    AggregateNode,
    FilterNode,
    LogicalNode,
    ScanNode,
    ViewScanNode,
)


class ViewMatcher:
    """Matches logical subtrees against the catalog's materialized views."""

    def __init__(self, catalog):
        self._catalog = catalog

    def match_aggregate(
        self, node: AggregateNode
    ) -> Tuple[Optional[ViewScanNode], int]:
        """A ViewScan answering ``node`` from stored state, or None.
        Also returns how many candidate views were considered, so the
        caller can count a miss (considered > 0, no replacement)."""
        from ..plan.optimizer import substitute

        if node.group_exprs or node.group_columns:
            return None, 0
        if any(spec.distinct for spec in node.aggregates):
            return None, 0
        child = node.child
        predicate = None
        if isinstance(child, FilterNode):
            predicate = child.predicate
            child = child.child
        if not isinstance(child, ScanNode):
            return None, 0
        table = child.table.name.lower()

        query_cols = {
            column.name.lower(): column for column in child.columns
        }
        considered = 0
        for view in self._catalog.materialized_views():
            if not view.incremental or table not in view.base_tables:
                continue
            if not view.fresh:
                continue
            considered += 1
            # rename the view's scan columns onto the query's by name
            subst = {}
            ok = True
            for view_column in view.scan_columns:
                query_column = query_cols.get(view_column.name.lower())
                if query_column is None:
                    ok = False
                    break
                subst[view_column.var().key()] = query_column.var()
            if not ok:
                continue
            if (predicate is None) != (view.predicate is None):
                continue
            if predicate is not None:
                if substitute(view.predicate, subst).key() != predicate.key():
                    continue
            indices = self._match_specs(node, view, subst, substitute)
            if indices is None:
                continue
            return ViewScanNode(view, node.columns, indices), considered
        return None, considered

    @staticmethod
    def _match_specs(
        node: AggregateNode, view, subst, substitute
    ) -> Optional[List[int]]:
        """For each query aggregate, the index of the view spec that
        computes it — or None when any query aggregate has no match."""
        indices: List[int] = []
        for query_spec in node.aggregates:
            found = None
            for position, view_spec in enumerate(view.specs):
                if view_spec.aggregate.name != query_spec.aggregate.name:
                    continue
                if (view_spec.arg is None) != (query_spec.arg is None):
                    continue
                if view_spec.arg is not None:
                    renamed = substitute(view_spec.arg, subst)
                    if renamed.key() != query_spec.arg.key():
                        continue
                found = position
                break
            if found is None:
                return None
            indices.append(found)
        return indices
