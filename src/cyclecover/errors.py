"""Exception types shared across the toolkit, one per outcome of a command.

The CLI maps them to exit codes: ``GraphError`` is bad input or a bad
parameter (exit 1), ``HypothesisViolated`` and ``StrongCdcNotFound`` are
proven negatives (exit 2), and ``NodeLimitExceeded`` is an aborted search
(exit 3).  Each raise site says in its message what failed.
"""


class GraphError(Exception):
    """Base class for all toolkit errors: bad input or a bad parameter."""


class HypothesisViolated(GraphError):
    """Input does not satisfy a hypothesis of the requested computation.

    Base class of every failure the CLI reports as a hypothesis violation
    (exit 2).
    """


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


class StrongCdcNotFound(GraphError):
    """The search proved that no CDC holds the prescribed circuits (an abort
    raises ``NodeLimitExceeded`` instead)."""


class TauTooLarge(HypothesisViolated):
    """Perfect matching index exceeds 4, so the tau-based construction does not apply.

    Kept apart from its base because the ``certify`` benchmark names it as
    the expected outcome of the Petersen graph's tau-4 job.
    """
