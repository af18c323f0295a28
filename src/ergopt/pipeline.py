"""One-call pipeline from a potential to the full solve bundle."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from .potential import (
    OneSidedPotential,
    TwoSidedPotential,
    compile_weights,
    reduce_two_sided,
)
from .symbolic import DEFAULT_NODE_BUDGET, DeBruijnGraph, SftSystem, refine
from .tropical import (
    BarrierMatrices,
    CriticalStructure,
    calibrated_fixed_point,
    mane_matrix,
    minimizing_value,
    peierls_matrix,
)


@dataclass(frozen=True, eq=False)
class SolveBundle:
    """One solve of `potential`, the table as given (one- or two-sided);
    its sft, graph, weights and abar are views of `crit`."""

    potential: OneSidedPotential | TwoSidedPotential
    crit: CriticalStructure

    @property
    def sft(self) -> SftSystem:
        return self.graph.sft

    @property
    def graph(self) -> DeBruijnGraph:
        return self.crit.graph

    @property
    def weights(self) -> tuple:
        return self.crit.weights

    @property
    def abar(self):
        return self.crit.abar

    @cached_property
    def fixed_point(self) -> tuple:
        return calibrated_fixed_point(self.crit)

    @cached_property
    def barriers(self) -> BarrierMatrices:
        """The dense phi and h over all nodes, built on first access, as
        integer rows over one denominator from the Mane rows to the relay."""
        nodes = range(self.graph.n_nodes)
        big, phi = mane_matrix(self.graph, self.weights, self.abar, nodes, scaled=True)
        return BarrierMatrices(big, phi, peierls_matrix(phi, self.crit))


def solve_instance(potential, node_budget=DEFAULT_NODE_BUDGET):
    """Refine, weight, and solve; returns everything downstream needs.

    A two-sided table is solved on its one-sided envelope. The working
    order is the smallest one carrying the weights.
    """
    envelope = potential
    if isinstance(potential, TwoSidedPotential):
        envelope = reduce_two_sided(potential)
    graph = refine(envelope.sft, envelope.working_order, node_budget=node_budget)
    crit = minimizing_value(graph, compile_weights(envelope, graph))
    return SolveBundle(potential, crit)
