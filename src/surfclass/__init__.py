"""Classify triangulated and cell-decomposed surfaces.

The package decides, for several combinatorial presentations of a
compact surface, which surface it is: simplicial complexes and regular
CW 2-complexes, systems of loops and words on a graph, rotation systems
with edge signs, and chord diagrams.  A small, bounded amount of
3-manifold checking is included for simplicial 3-complexes.
"""

from types import ModuleType as _ModuleType

from .catalog import Fixture, catalog_get, catalog_list
from .classify import (
    SurfaceType,
    classify_component,
    classify_surface,
    genus,
    is_disk,
    is_sphere,
)
from .complexes import (
    Complex,
    CWComplex2,
    SimplicialComplex,
    close,
    cw_complex,
    euler_characteristic,
    induced_subcomplex,
    parse_complex,
    parse_cw2,
    parse_simplicial,
    relabel,
    skeleton1,
    to_json_obj,
    to_text,
)
from .connectivity import (
    ComponentPartition,
    component_subcomplexes,
    components,
    is_connected,
)
from .errors import (
    BoundExceeded,
    Disconnected,
    EmptyComplex,
    InvalidSurface,
    MalformedFace,
    MalformedWord,
    NotIsomorphism,
    NotLocallyPlanar,
    NotManifold,
    NotRegular,
    NotSurface,
    ParseError,
    SizeMismatch,
    TopologyError,
    UnknownFixture,
    UnsupportedDimension,
)
from .manifold3 import (
    Manifold3Check,
    TriangleStatus,
    face_check3,
    is_3manifold,
    vertex_link3,
)
from .orientation import (
    NonOrientable,
    OrientationWitness,
    induced_edge_orientations,
    induced_triangle_parities,
    orient2,
    orient3,
)
from .rotation import (
    FaceTrace,
    RotationSystem,
    chord_canonical,
    chord_isomorphic,
    chord_text,
    chord_to_rotation,
    classify_embedding,
    code_to_permutation,
    enumerate_chords,
    parse_chord_code,
    parse_rotation,
    permutation_to_code,
    rotation_system,
    rs_orientable,
    serialize_rotation,
    trace_faces,
)
from .slw import (
    Letter,
    SLWGraph,
    SLWSurfaceCheck,
    WordList,
    classify_slw,
    extends_to_homeomorphism,
    list_equivalent,
    parse_slw,
    slw_equivalent,
    slw_euler,
    slw_from_complex,
    slw_graph,
    slw_surface_check,
    slw_to_text,
    word_equivalent,
    word_list,
    word_reverse,
)
from .surface import (
    BOUNDARY,
    INTERIOR,
    BoundaryDecomposition,
    EdgeStatus,
    SurfaceCheck,
    VertexLink,
    boundary_components,
    edge_check,
    is_surface,
    vertex_check,
)

__version__ = "0.1.0"

# every public name imported above; the submodules bound by those imports are not exported
__all__ = sorted(
    name for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
