"""Exception types shared across the toolkit, one per outcome of a command,
and ``_Record``, the base of its immutable result types.

The CLI maps the exceptions to exit codes: ``GraphError`` is bad input or a
bad parameter (exit 1), ``HypothesisViolated`` and ``StrongCdcNotFound`` are
proven negatives (exit 2), and ``NodeLimitExceeded`` is an aborted search
(exit 3).  Each raise site says in its message what failed.
"""

from operator import attrgetter


class _Record:
    """An immutable record whose fields are its class's ``__slots__``.

    A subclass declares ``__slots__`` as its field names, in order, and
    ``_defaults`` for the fields that have a default.  Records are built from
    positional or keyword fields (``TypeError`` on a missing, unknown or
    repeated one), then checked by ``__post_init__``.  They refuse
    assignment and deletion with ``AttributeError``, compare equal to
    records of the same class with equal fields, hash as the tuple of their
    fields, print as ``Name(field=value, ...)`` and pickle and copy through
    their constructor.  The class is declared here, the lowest module, so
    that every module of results can use it without importing more.
    """

    __slots__ = ()
    _defaults = {}

    def __init_subclass__(cls):
        fields = cls.__match_args__ = cls.__slots__
        get = attrgetter(*fields)
        cls._values = get if len(fields) > 1 else staticmethod(lambda record: (get(record),))
        cls._setters = tuple(cls.__dict__[name].__set__ for name in fields)

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != len(self._setters):
            args = self._bind(args, kwargs)
        for put, value in zip(self._setters, args):
            put(self, value)
        self.__post_init__()

    def _bind(self, args, kwargs):
        """The field values in order, from any mix of positional and keyword
        fields and defaults."""
        fields, name = self.__slots__, type(self).__name__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} fields but {len(args)} were given")
        values = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in fields:
                raise TypeError(f"{name}() got an unexpected keyword argument {key!r}")
            if key in values:
                raise TypeError(f"{name}() got multiple values for argument {key!r}")
            values[key] = value
        values = {**self._defaults, **values}
        missing = [key for key in fields if key not in values]
        if missing:
            raise TypeError(f"{name}() missing required argument(s): {', '.join(missing)}")
        return [values[key] for key in fields]

    def __post_init__(self):
        """Check the fields; a subclass raises here to refuse a record."""

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values(self) == other._values(other)
        return NotImplemented

    def __hash__(self):
        return hash(self._values(self))

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __reduce__(self):
        return type(self), self._values(self)


class GraphError(Exception):
    """Base class for all toolkit errors: bad input or a bad parameter."""


class HypothesisViolated(GraphError):
    """Input does not satisfy a hypothesis of the requested computation.

    Base class of every failure the CLI reports as a hypothesis violation
    (exit 2).
    """


class NodeLimitExceeded(GraphError):
    """Search aborted by the configured node limit (not a proof of infeasibility).

    ``search`` names the search that stopped: "transitions" (covers with
    weights <= 2, circuit-form CDCs), "cover engine" (weights above 2),
    "labelling" (tau, colourings, k-class CDCs) or "circumference".
    ``nodes`` is the budget spent over the whole call when it stopped: every
    search stage of one public call spends one node budget in turn, so it
    counts them all, and it is one more than the limit.
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
