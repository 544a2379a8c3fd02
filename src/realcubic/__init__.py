"""Lattice arithmetic, deformation-graph combinatorics, Morse-surgery
bookkeeping, and Kirby-calculus homology for the topological classification
of real cubic fourfolds.

``import realcubic`` runs none of the library modules. Each of them is a
lazy module in ``sys.modules``, loaded on the first use of one of its
attributes, so a CLI command loads only what it calls. The first use of a
re-exported name loads the whole library and binds all of them.
"""

import sys as _sys
from importlib import util as _util

# the names each library module re-exports
_EXPORTS = {
    "atlas": ("Atlas", "Edge", "MoveKind", "VertexData", "VertexId",
              "atlas_to_dot", "atlas_to_json", "build_atlas", "classify_type",
              "validate_atlas", "vertex_invariants"),
    "intmat": ("AbelianGroup", "cokernel", "det", "smith_normal_form"),
    "lattices": ("AMBIENT_M", "AMBIENT_M0", "DegenerateLatticeError",
                 "DiscriminantForm", "GramMatrix", "IndefiniteLatticeError",
                 "LatticeExpr", "ParseError", "discriminant_form",
                 "discriminant_group", "enumerate_norm_vectors", "gram",
                 "is_six_root", "parse_lattice_expr", "signature"),
    "ramified": ("PerturbationData", "add_unknotted_handle",
                 "euler_perturbation", "handle_counts", "lift_morse_index"),
    "surgery": ("GroupPresentation", "abelianization", "blow_down", "blow_up",
                "h1_from_linking", "lifted_framing", "slide",
                "spiral_scenario"),
    "topology": ("MorseEvent", "RealLocusDescriptor", "apply_morse",
                 "descriptor_invariants", "facet_index_options", "propagate",
                 "verify"),
    "walls": ("CuspVerdict", "classify_move", "cusp_stratum", "find_a2_pair",
              "mod3_condition", "refute_a2_mod2"),
}
__all__ = [name for names in _EXPORTS.values() for name in names]
__version__ = "0.1.0"


def _lazy(module: str):
    """realcubic.<module>, registered in sys.modules but not yet run."""
    spec = _util.find_spec(f"{__name__}.{module}")
    spec.loader = _util.LazyLoader(spec.loader)
    lazy = _util.module_from_spec(spec)
    _sys.modules[spec.name] = lazy
    spec.loader.exec_module(lazy)
    return lazy


# cli is left out: `python -m realcubic.cli` warns when it is already in
# sys.modules
globals().update((module, _lazy(module)) for module in _EXPORTS)


def __getattr__(name: str):
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    for module, names in _EXPORTS.items():
        globals().update((n, getattr(globals()[module], n)) for n in names)
    return globals()[name]


def __dir__():
    return sorted(set(globals()) | set(__all__))
