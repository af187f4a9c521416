"""Exception types shared across the package."""


class TaxprobError(Exception):
    """Base class for all errors raised by this package."""


class UnknownEventError(TaxprobError):
    """An identifier was used that is not part of the declared universe."""


class AtomSpaceError(TaxprobError):
    """The atom cap is malformed, or a query's atoms exceed it.

    The oracle's cap bounds the atoms projected onto the basics a query
    reads, not the atoms over the whole universe.  A query over more atoms
    than the oracle enumerates is refused only when its largest elimination
    table exceeds the cap too."""


class ProbabilisticConflictError(TaxprobError):
    """Two sound intervals for the same conditional have an empty intersection.

    This signals that an asserted bound contradicts the taxonomy, or that
    saturation derived incompatible bounds for one conditional.  The second
    case does not prove that the knowledge base has no model: two sound
    bounds on (X|P) that do not meet prove only that every model gives P
    probability 0, and the error is raised then too, on satisfiable
    knowledge bases such as the worked rows a and b.
    """

    def __init__(self, conclusion, premise, first, second, context=""):
        self.conclusion = conclusion
        self.premise = premise
        self.first = first
        self.second = second
        msg = (f"probabilistic conflict for ({conclusion}|{premise}): "
               f"{first} and {second} do not intersect")
        if context:
            msg += f" ({context})"
        super().__init__(msg)


class CoherenceError(TaxprobError):
    """A query command was run against an incoherent knowledge base."""


class InternalSolverError(TaxprobError):
    """The LP solver reached a state that is impossible for well-formed input."""
