"""Exact-arithmetic toolkit for 3-term homotopy Lie algebras.

Two equivalent presentations of the same structure are supported: a graded
vector space with multilinear brackets satisfying the strong homotopy
identities, and a linear 2-category whose bracket, Jacobiator and Identiator
satisfy the corresponding categorical laws.  Conversions between the two are
lossless and gated on the defining identities.  A simplicial layer exposes
the nerve, its normalized chain complex, the shuffle and front-face
comparison maps, and the failure of the nerve to be monoidal.
"""

# Every module is loaded here, so that the tracer of perfbench/launcher.py can rebind each traced name.
from .chain import ChainComplexT, ChainMapT, homology_data, tensor_complex
from .graded import GradedSpace, GradedVector, MultiMap, Permutation, koszul_chi
from .lie3 import (Lie3Data, check_bifunctor, check_coherence,
                   check_identiator, check_jacobiator, from_linfinity,
                   to_linfinity)
from .lincat import Cell, LinearNCat, NFunctor, check_axioms, from_chain, to_chain
from .linfinity import LInfinityData, check_all, check_condition, is_special
from .simplicial import SimplicialVS, aw, ez, moore, nerve, obstruction_demo
from .specfile import AlgebraSpecFile, SpecError, parse_spec, render_spec

__version__ = "0.1.0"

__all__ = [
    "AlgebraSpecFile", "Cell", "ChainComplexT", "ChainMapT", "GradedSpace",
    "GradedVector", "LInfinityData", "Lie3Data", "LinearNCat", "MultiMap",
    "NFunctor", "Permutation", "SimplicialVS", "SpecError", "aw",
    "check_all", "check_axioms", "check_bifunctor", "check_coherence",
    "check_condition", "check_identiator", "check_jacobiator", "ez",
    "from_chain", "from_linfinity", "homology_data", "is_special",
    "koszul_chi", "moore", "nerve", "obstruction_demo", "parse_spec",
    "render_spec", "tensor_complex", "to_chain", "to_linfinity",
]
