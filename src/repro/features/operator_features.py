"""Operator-level featurization (Table 1, GNN input).

Each operator becomes a fixed-width vector laid out per
:data:`~repro.features.schema.OPERATOR_SCHEMA`:

``[log1p(continuous) | discrete | one-hot operator kind | one-hot
partitioning]``

and a plan becomes an ``N x P_O`` matrix with rows in topological order —
the same order as the adjacency matrix from
:meth:`repro.scope.plan.QueryPlan.adjacency_matrix`.

The matrix is built in one pass over the plan: one attribute gather per
operator, one ``log1p(clip)`` over the whole continuous block, and the
one-hot columns set by index. Every step is elementwise, so a row equals
what featurizing its operator alone gives (:func:`operator_vector` is the
one-row case of the same code).
"""

from __future__ import annotations

from functools import lru_cache
from itertools import chain
from operator import attrgetter
from typing import Sequence

import numpy as np

from repro.features.schema import OPERATOR_SCHEMA, FeatureSchema
from repro.scope.plan import OperatorNode, QueryPlan

__all__ = ["operator_vector", "plan_feature_matrix"]


@lru_cache(maxsize=8)
def _layout(schema: FeatureSchema):
    """Numeric attribute getter and one-hot column lookups of ``schema``."""
    numeric = attrgetter(*schema.continuous, *schema.discrete)
    kind_start = schema.operator_kind_slice().start
    part_start = schema.partitioning_slice().start
    kind_column = {
        kind: kind_start + i for i, kind in enumerate(schema.operator_kinds)
    }
    part_column = {
        method: part_start + i
        for i, method in enumerate(schema.partitioning_methods)
    }
    return numeric, kind_column, part_column


def _feature_rows(
    nodes: Sequence[OperatorNode], schema: FeatureSchema
) -> np.ndarray:
    """One ``P_O``-width row per node, in the given order."""
    numeric, kind_column, part_column = _layout(schema)
    n_nodes = len(nodes)
    n_continuous = schema.num_continuous
    n_numeric = n_continuous + schema.num_discrete
    values = np.fromiter(
        chain.from_iterable(map(numeric, nodes)),
        dtype=np.float64,
        count=n_nodes * n_numeric,
    ).reshape(n_nodes, n_numeric)
    hot = np.fromiter(
        chain.from_iterable(
            [
                (kind_column[node.kind], part_column[node.partitioning])
                for node in nodes
            ]
        ),
        dtype=np.intp,
        count=2 * n_nodes,
    )

    width = schema.operator_dim
    matrix = np.zeros((n_nodes, width), dtype=np.float64)
    # The clip copies the block into a C-contiguous array, so log1p runs
    # the same contiguous loop as it would on one operator's values.
    matrix[:, :n_continuous] = np.log1p(
        np.clip(values[:, :n_continuous], 0.0, None)
    )
    matrix[:, n_continuous:n_numeric] = values[:, n_continuous:]
    # Both one-hots of row i, as flat indices into the matrix.
    hot += np.repeat(np.arange(0, n_nodes * width, width), 2)
    matrix.reshape(-1)[hot] = 1.0
    return matrix


def operator_vector(
    node: OperatorNode, schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Featurize a single operator into a ``P_O``-width vector."""
    return _feature_rows((node,), schema)[0]


def plan_feature_matrix(
    plan: QueryPlan, schema: FeatureSchema = OPERATOR_SCHEMA
) -> np.ndarray:
    """Featurize a plan into an ``N x P_O`` matrix in topological order."""
    nodes = plan.nodes
    return _feature_rows(
        [nodes[op_id] for op_id in plan.topological_order], schema
    )
