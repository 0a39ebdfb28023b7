"""Exception types shared across the package."""

from __future__ import annotations


class RainbowCactusError(Exception):
    """Base class for all errors raised by this package."""


class EdgeListFormatError(RainbowCactusError):
    """Malformed edge-list text; carries the 1-based line number."""

    def __init__(self, message: str, line_number: int | None = None):
        super().__init__(message)
        self.line_number = line_number


class EmptyInputError(RainbowCactusError):
    pass


class InvalidLabelError(RainbowCactusError):
    def __init__(self, label: object):
        super().__init__(f"vertex label {label!r} is not a non-negative int")
        self.label = label


class SelfLoopError(RainbowCactusError):
    def __init__(self, label: int):
        super().__init__(f"self-loop at vertex {label}")
        self.label = label


class ParallelEdgeError(RainbowCactusError):
    def __init__(self, edge: tuple[int, int]):
        super().__init__(f"duplicate edge {edge[0]} {edge[1]}")
        self.edge = edge


class DisconnectedError(RainbowCactusError):
    def __init__(self, unreachable_label: int):
        super().__init__(f"graph is disconnected (vertex {unreachable_label} unreachable)")
        self.unreachable_label = unreachable_label


class NotOddCactusError(RainbowCactusError):
    pass


class NotAntipodalEdgeError(RainbowCactusError):
    def __init__(self, edge: int):
        super().__init__(f"edge {edge} is not antipodal to a cut vertex")
        self.edge = edge


class PartialColoringError(RainbowCactusError):
    pass


class TooLargeError(RainbowCactusError):
    def __init__(self, edge_count: int, max_edges: int):
        super().__init__(f"graph has {edge_count} edges, brute force is capped at {max_edges}")
        self.edge_count = edge_count
        self.max_edges = max_edges


class SearchBudgetError(RainbowCactusError):
    """The search for a rainbow shortest path of one pair ran out of steps:
    the graph has too many shortest paths between them to decide."""

    def __init__(self, u: int, v: int, budget: int):
        super().__init__(
            f"no verdict within {budget} search steps: too many shortest paths between"
            f" vertices {u} and {v} (dense ids)"
        )
        self.u = u
        self.v = v
        self.budget = budget


class InvalidSpecError(RainbowCactusError):
    pass


class InvalidPartitionError(RainbowCactusError):
    def __init__(self, property_name: str, witness: object = None):
        super().__init__(f"partition violates property {property_name!r} (witness: {witness!r})")
        self.property_name = property_name
        self.witness = witness


class InvariantError(RuntimeError):
    """An internal invariant of the algorithm failed: a bug, not bad input.

    Raised explicitly rather than by `assert`, so the check also runs under
    `python -O`.
    """
