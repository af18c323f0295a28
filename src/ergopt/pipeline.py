"""One-call pipeline from a potential to its critical structure, and the
dense barrier matrices read off it."""

from __future__ import annotations

from .potential import TwoSidedPotential, compile_weights, reduce_two_sided
from .symbolic import DEFAULT_NODE_BUDGET, refine
from .tropical import (
    BarrierMatrices,
    CriticalStructure,
    mane_matrix,
    minimizing_value,
    peierls_matrix,
)


def solve_instance(potential, node_budget=DEFAULT_NODE_BUDGET) -> CriticalStructure:
    """Refine, weight, and solve: the critical structure, which holds the
    graph, weights and abar, with its witness cycle checked.

    A two-sided table is solved on its one-sided envelope. The working
    order is the smallest one carrying the weights.
    """
    envelope = potential
    if isinstance(potential, TwoSidedPotential):
        envelope = reduce_two_sided(potential)
    graph = refine(envelope.sft, envelope.working_order, node_budget=node_budget)
    return minimizing_value(graph, compile_weights(envelope, graph))


def barrier_matrices(crit: CriticalStructure) -> BarrierMatrices:
    """The dense phi and h over all nodes, as integer rows over one
    denominator from the Mane rows to the relay."""
    nodes = range(crit.graph.n_nodes)
    big, phi = mane_matrix(crit.graph, crit.weights, crit.abar, nodes, scaled=True)
    return BarrierMatrices(big, phi, peierls_matrix(phi, crit))
