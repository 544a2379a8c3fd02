"""Lattice arithmetic, deformation-graph combinatorics, Morse-surgery
bookkeeping, and Kirby-calculus homology for the topological classification
of real cubic fourfolds."""

from .atlas import (
    Atlas,
    Edge,
    VertexData,
    VertexId,
    atlas_to_dot,
    atlas_to_json,
    build_atlas,
    classify_type,
    validate_atlas,
    vertex_invariants,
)
from .intmat import cokernel, det, smith_normal_form
from .lattices import (
    AMBIENT_M,
    AMBIENT_M0,
    DegenerateLatticeError,
    DiscriminantForm,
    DiscriminantGroup,
    GramMatrix,
    IndefiniteLatticeError,
    LatticeExpr,
    ParseError,
    discriminant_form,
    discriminant_group,
    enumerate_norm_vectors,
    gram,
    is_six_root,
    parse_lattice_expr,
    signature,
)
from .ramified import (
    PerturbationData,
    add_unknotted_handle,
    euler_perturbation,
    handle_counts,
    lift_morse_index,
)
from .surgery import (
    AbelianGroup,
    GroupPresentation,
    abelianization,
    blow_down,
    blow_up,
    h1_from_linking,
    lifted_framing,
    slide,
    spiral_scenario,
)
from .topology import (
    MorseEvent,
    RealLocusDescriptor,
    apply_morse,
    descriptor_invariants,
    facet_index_options,
    propagate,
    verify,
)
from .walls import (
    CuspVerdict,
    MoveKind,
    classify_move,
    cusp_stratum,
    find_a2_pair,
    mod3_condition,
    refute_a2_mod2,
)

__version__ = "0.1.0"
