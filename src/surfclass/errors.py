"""Exceptions shared by every module in the package."""

from __future__ import annotations


class TopologyError(Exception):
    """Base class for all errors raised by this package."""


class ParseError(TopologyError):
    """Malformed input text or document."""

    def __init__(self, message: str, line: int | None = None):
        if line is not None:
            message = f"line {line}: {message}"
        super().__init__(message)
        self.line = line


class NotRegular(ParseError):
    """A face cycle repeats a vertex."""


class MalformedFace(ParseError):
    """A face cycle is shorter than 3 vertices."""


class MalformedWord(ParseError):
    """A boundary word is empty, names a missing edge, or is not a closed walk."""


class UnsupportedDimension(ParseError):
    """A cell of dimension 4 or higher was supplied."""


class EmptyComplex(TopologyError):
    """An operation that needs at least one vertex got an empty complex."""


class NotLocallyPlanar(TopologyError):
    """An edge or vertex violates the local planarity conditions."""

    def __init__(
        self,
        message: str,
        *,
        edge: tuple[str, str] | None = None,
        face_count: int | None = None,
        vertex: str | None = None,
        branch_vertex: str | None = None,
    ):
        super().__init__(message)
        self.edge = edge
        self.face_count = face_count
        self.vertex = vertex
        self.branch_vertex = branch_vertex


class NotSurface(TopologyError):
    """A complex (or one of its components) is not a surface."""

    def __init__(self, message: str, *, component: int | None = None, defect: Exception | None = None):
        super().__init__(message)
        self.component = component
        self.defect = defect


class NotManifold(TopologyError):
    """A 3-complex fails a manifold condition."""

    def __init__(
        self,
        message: str,
        *,
        triangle: tuple[str, ...] | None = None,
        count: int | None = None,
        vertex: str | None = None,
    ):
        super().__init__(message)
        self.triangle = triangle
        self.count = count
        self.vertex = vertex


class InvariantError(TopologyError):
    """A result broke an invariant its algorithm guarantees: a bug, not bad input."""


class Disconnected(TopologyError):
    """The operation requires a connected object."""


class SizeMismatch(TopologyError):
    """Two objects cannot correspond because their part counts differ."""


class NotIsomorphism(TopologyError):
    """A supplied map is not a graph isomorphism."""


class InvalidSurface(TopologyError):
    """No surface has the requested invariants."""


class UnknownFixture(TopologyError):
    """The catalog has no fixture with the requested name."""


class BoundExceeded(TopologyError):
    """An enumeration was asked to go beyond its configured bound."""
