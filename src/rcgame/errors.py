"""Exception hierarchy shared by all rcgame modules."""


class GraphGameError(Exception):
    """Base class for all rcgame errors."""


class InvalidVertex(GraphGameError):
    """An edge endpoint is outside 0..n-1."""


class SelfLoop(GraphGameError):
    """An edge joins a vertex to itself."""


class NotConnected(GraphGameError):
    """Operation requires a connected graph."""


class InvalidParam(GraphGameError):
    """A generator or solver parameter is outside its validity range."""


class SizeGuard(GraphGameError):
    """Requested construction exceeds the configured vertex cap."""


class UnknownInstance(GraphGameError):
    """No named graph instance with the given id."""


class CouldNotConnect(GraphGameError):
    """Random graph sampling exhausted its retry budget without a connected sample."""


class NoWinningStrategy(GraphGameError):
    """Cop strategy requested from an analysis the cop does not win."""


class NoEvasionStrategy(GraphGameError):
    """Robber strategy requested from an analysis the cop wins."""


class IllegalMove(GraphGameError):
    """A strategy prescribed a move outside the mover's closed neighborhood."""


class RoleCannotWin(GraphGameError):
    """Requested transcript role does not win at the given capture radius."""


class NotOuterplanarEmbedding(GraphGameError):
    """A graph is not the polygon 0..n-1 plus non-crossing chords."""


class NotARetraction(GraphGameError):
    """Map violates a retraction clause; message carries the witness."""


class ParseError(GraphGameError):
    """Malformed input; carries the byte offset or line number."""

    def __init__(self, message, offset=None, line=None):
        super().__init__(message)
        self.offset = offset
        self.line = line


class InvariantViolation(GraphGameError):
    """An internal consistency check failed; indicates a solver bug."""
