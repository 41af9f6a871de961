"""Classification of compact surfaces by orientability, genus, boundary."""

from __future__ import annotations

from dataclasses import dataclass

from .complexes import Complex, euler_characteristic
from .connectivity import classes, component_subcomplexes
from .errors import Disconnected, InvalidSurface, NotSurface
from .orientation import OrientationWitness, orient2
from .surface import is_surface


@dataclass(frozen=True)
class SurfaceType:
    """The classification triple plus the Euler characteristic."""

    orientable: bool
    genus: int
    boundary: int
    euler: int

    def name(self) -> str:
        """Conventional name, unique per homeomorphism type."""
        g, b = self.genus, self.boundary
        if self.orientable:
            if b == 0:
                return "S2" if g == 0 else "T2" if g == 1 else f"F{g}"
            return f"F_{{{g},{b}}}"
        if b == 0:
            return "RP2" if g == 1 else "Kl" if g == 2 else f"N{g}"
        return f"N_{{{g},{b}}}"


def genus(euler: int, orientable: bool, boundary: int) -> int:
    """Solve the Euler formula for the genus; raise if no surface fits."""
    if boundary < 0:
        raise InvalidSurface("negative boundary count")
    rest = 2 - euler - boundary
    if orientable:
        if rest < 0 or rest % 2:
            raise InvalidSurface(
                f"no orientable surface has chi={euler} with {boundary} boundary circles"
            )
        return rest // 2
    if rest < 1:
        raise InvalidSurface(
            f"no non-orientable surface has chi={euler} with {boundary} boundary circles"
        )
    return rest


def classify_component(cx: Complex) -> SurfaceType:
    """Classify a connected surface; raise Disconnected for any other count."""
    types = classify_surface(cx)
    if len(types) != 1:
        raise Disconnected(f"expected one component, got {len(types)}")
    return types[0]


def classify_surface(cx: Complex) -> list[SurfaceType]:
    """Classify every connected component, in component order.

    Raises NotSurface naming the first failing component.
    """
    out = []
    for i, sub in enumerate(component_subcomplexes(cx)):
        chk = is_surface(sub)
        if not chk.surface:
            raise NotSurface(
                f"component {i} is not a surface: {chk.defect}",
                component=i,
                defect=chk.defect,
            )
        orientable = isinstance(orient2(sub), OrientationWitness)
        chi = euler_characteristic(sub)
        b = chk.boundary_count or 0
        out.append(SurfaceType(orientable, genus(chi, orientable, b), b, chi))
    return out


def _closed_and_euler(cx: Complex) -> tuple[bool | None, int] | None:
    # (closed, chi) of a connected surface; None for anything else
    if len(classes(cx.vertex_set(), cx.edge_set())) != 1:  # an empty complex has 0 classes
        return None
    chk = is_surface(cx)
    return (chk.closed, euler_characteristic(cx)) if chk.surface else None


def is_sphere(cx: Complex) -> bool:
    """Connected, locally planar everywhere, closed, and chi = 2."""
    return _closed_and_euler(cx) == (True, 2)


def is_disk(cx: Complex) -> bool:
    """Connected, locally planar, nonempty boundary, and chi = 1."""
    return _closed_and_euler(cx) == (False, 1)
