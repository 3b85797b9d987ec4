"""Exact-arithmetic toolkit for 3-term homotopy Lie algebras.

Two equivalent presentations of the same structure are supported: a graded
vector space with multilinear brackets satisfying the strong homotopy
identities, and a linear 2-category whose bracket, Jacobiator and Identiator
satisfy the corresponding categorical laws.  Conversions between the two are
lossless and gated on the defining identities.  A simplicial layer exposes
the nerve, its normalized chain complex, the shuffle and front-face
comparison maps, and the failure of the nerve to be monoidal.
"""

# Nothing is loaded here: a name loads its module when first read (PEP 562), so that a CLI call
# loads only what its command runs, and a submodule is an attribute once it is imported.
_HOMES = {name: module for module, names in (
    ("chain", ("ChainComplexT", "ChainMapT", "homology_data", "tensor_complex")),
    ("graded", ("GradedSpace", "GradedVector", "MultiMap", "Permutation", "koszul_chi")),
    ("lie3", ("Lie3Data", "check_bifunctor", "check_coherence", "check_identiator",
              "check_jacobiator", "from_linfinity", "to_linfinity")),
    ("lincat", ("Cell", "LinearNCat", "NFunctor", "from_chain", "to_chain")),
    ("linfinity", ("LInfinityData", "check_all", "check_condition", "is_special")),
    ("simplicial", ("SimplicialVS", "aw", "ez", "moore", "nerve", "obstruction_demo")),
    ("specfile", ("AlgebraSpecFile", "SpecError", "parse_spec", "render_spec")),
) for name in names}


def __getattr__(name: str):
    if name not in _HOMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(__import__(f"{__name__}.{_HOMES[name]}", fromlist=[name]), name)


__version__ = "0.1.0"
__all__ = sorted(_HOMES)
