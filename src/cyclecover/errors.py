"""Exception types shared across the toolkit.

Errors are fine-grained so callers (and the CLI exit-code mapping) can tell
apart bad input, violated hypotheses of a construction, and aborted searches.
"""


class GraphError(Exception):
    """Base class for all toolkit errors."""


class HypothesisViolated(GraphError):
    """Input does not satisfy a hypothesis of the requested computation.

    Base class of every failure the CLI reports as a hypothesis violation
    (exit 2).
    """


# --- graph construction / validation ---------------------------------------

class NotCubic(GraphError):
    """A vertex has degree != 3 where a cubic graph is required."""


class LoopEdge(GraphError):
    """A loop appeared where loops are forbidden."""


class Unsupported(GraphError):
    """Requested parameter outside the implemented range."""


# --- surgery ----------------------------------------------------------------

class AllDegreeTwo(GraphError):
    """Suppression input is a disjoint union of circuits (no degree-3 vertex)."""


class NotTwoFactor(GraphError):
    """Edge set is not a spanning 2-regular subgraph."""


class BridgeDeleted(GraphError):
    """A 2-cut join was asked to delete a bridge."""


class MapMismatch(GraphError):
    """Cover does not live on the reduced graph of the given reduction map."""


# --- families / formats -----------------------------------------------------

class BadParameter(GraphError):
    """Invalid family parameter."""


class BadEncoding(GraphError):
    """Malformed graph6 input."""


class HasParallelEdges(GraphError):
    """graph6 cannot encode parallel edges."""


class BadLine(GraphError):
    """Malformed line in the adjacency text format."""


# --- solvers ------------------------------------------------------------

class Bridged(HypothesisViolated):
    """No cycle cover exists: the graph has a bridge."""


class NodeLimitExceeded(GraphError):
    """Search aborted by the configured node limit (not a proof of infeasibility).

    ``search`` names the search that stopped ("transitions", "cover engine",
    "labelling" or "circumference"), and ``nodes`` is the budget spent over
    the whole call when it stopped: the nodes of every search stage that
    shares the limit, which is one more than the limit.
    """

    def __init__(self, search: str, nodes: int):
        super().__init__(search, nodes)
        self.search = search
        self.nodes = nodes

    def __str__(self):
        return f"node limit exceeded in {self.search} after {self.nodes} nodes"


class NoThreePaths(HypothesisViolated):
    """Fewer than three disjoint paths exist (connectivity hypothesis violated)."""


class NoTwoFactor(HypothesisViolated):
    """Graph has no 2-factor (no perfect matching)."""


# --- constructions ------------------------------------------------------

class NotContained(GraphError):
    """Prescribed circuits are not all present in the given CDC."""


class TooLong(GraphError):
    """Cover too long for the weight-1 extraction (length >= 4m/3 + 2)."""


class NotHamiltonian(GraphError):
    """Circuit does not span all vertices."""


class SharedMismatch(GraphError):
    """A CDC being merged does not contain the shared circuits."""


class StrongCdcNotFound(GraphError):
    """The search proved that no CDC holds the prescribed circuits (an abort
    raises ``NodeLimitExceeded`` instead)."""


class NotTwoConnectedReduced(HypothesisViolated):
    """Graph or reduction is not 2-connected, so a cover construction stops."""


class LinksNotDisjoint(HypothesisViolated):
    """Connecting edges/paths are not disjoint as required."""


class NotACover(GraphError):
    """Perfect matchings do not cover the edge set as required."""


class NoTwoFactorClass(GraphError):
    """5-CDC has no colour class that is a 2-factor."""


class TauTooLarge(HypothesisViolated):
    """Perfect matching index exceeds 4, so the tau-based construction does not apply."""


# --- petersen colouring -------------------------------------------------

class PartialAssignment(GraphError):
    """Colouring verification requires a total assignment."""


class PreimageNotEven(HypothesisViolated):
    """Circuit preimage is not an even subgraph (the colouring is invalid)."""
