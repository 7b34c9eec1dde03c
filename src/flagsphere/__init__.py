"""Combinatorics of flag simplicial 2-spheres.

Validated triangulated 2-spheres; flagness and belts; edge contraction
with certified reduction to the octahedron; vertex splitting; canonical
forms; the Hasse graph of the contraction order; and brute-force oracles
backing all of it.
"""

from types import ModuleType as _ModuleType

from .canonical import (
    canonical_automorphisms,
    canonical_form,
    canonical_sphere,
    decode_form,
    encode_face_set,
    form_hex,
    isomorphic,
    sphere_from_form,
)
from .contraction import (
    CertificateCheck,
    CertStep,
    ContractionCertificate,
    certificate_from_json,
    certificate_to_json,
    contract,
    contract_mapped,
    is_flag_contractible,
    is_minimal,
    link_condition,
    reduce_to_octahedron,
    square_link_vertices,
    verify_certificate,
)
from .errors import (
    BadSplitSpec,
    BadVertex,
    BudgetTooLarge,
    BudgetTooSmall,
    FlagsphereError,
    FormatError,
    InternalMinimalityViolation,
    LinkConditionViolated,
    NotAnEdge,
    NotASphere,
    NotFlag,
    TooLarge,
)
from .expansion import (
    SplitSpec,
    diagonal_count,
    expansion_bound,
    flag_expansions,
    flag_splits,
    split_vertex,
)
from .flags import (
    Belt,
    belt_covered_edges,
    belts,
    edge_in_belt,
    is_flag,
    missing_triangles,
)
from .hasse import (
    BoundEntry,
    BoundsReport,
    HasseGraph,
    HasseNode,
    build,
    export_dot,
    export_json,
    export_levels_tsv,
    import_json,
    verify_degree_bounds,
)
from .oracle import (
    brute_automorphism_count,
    brute_belts,
    brute_is_flag,
    brute_isomorphic,
    clique_is_flag,
    clique_is_flag_at,
    edge_belts,
    enumerate_all_spheres,
)
from .sphere import (
    SimplicialSphere,
    dump_corpus,
    dump_tri,
    from_faces,
    octahedron,
    parse_corpus,
    parse_tri,
    tetrahedron,
)

__version__ = "0.1.0"

# The public names are those the imports above bind, less the submodules.
__all__ = sorted(
    name
    for name, value in globals().items()
    if not name.startswith("_") and not isinstance(value, _ModuleType)
)
