"""Exception types shared by the rotdist modules."""


class RotDistError(Exception):
    """Base class for all rotdist errors."""


class InvalidVertex(RotDistError):
    """A vertex id is outside range(n)."""


class SelfLoop(RotDistError):
    """An edge joins a vertex to itself."""


class InvalidParameter(RotDistError):
    """A parameter value is out of its documented range."""


class DisconnectedGraph(RotDistError):
    """The operation requires a connected graph."""


class InvalidOrdering(RotDistError):
    """A vertex ordering is not a permutation of the vertex set."""


class InvalidTree(RotDistError):
    """A parent vector does not encode a rooted spanning tree."""


class NotATreeEdge(RotDistError):
    """The requested rotation edge is not a parent edge of the tree.

    When raised while applying a sequence, `step` is the 1-based
    position of the offending edge.
    """

    def __init__(self, message: str, edge=None, step=None):
        super().__init__(message)
        self.edge = edge
        self.step = step


class InstanceTooLarge(RotDistError):
    """The instance exceeds a size cap for exhaustive exploration."""
