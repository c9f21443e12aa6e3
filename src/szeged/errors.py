"""Exception types shared across the library."""


class GraphError(Exception):
    """Base class for all errors raised by this package."""


class SelfLoop(GraphError):
    """An edge joins a vertex to itself."""


class DuplicateEdge(GraphError):
    """The same unordered vertex pair appears more than once."""


class VertexOutOfRange(GraphError):
    """An edge endpoint is not in [0, n)."""


class Disconnected(GraphError):
    """The operation is only defined for connected graphs."""


class SamePair(GraphError):
    """A vertex pair must consist of two distinct vertices."""


class TooLarge(GraphError):
    """The graph exceeds the brute-force size bound of the operation."""


class InvalidTreeSpec(GraphError):
    """A rooted-tree description is malformed."""


class HypothesisViolated(GraphError):
    """The input does not satisfy the hypothesis of the requested bound."""


class FormatError(GraphError):
    """A graph file or string does not conform to its declared format."""
