"""brisk: exact computation of ideal-membership certificates, graded free
resolutions, projective invariants, and effective degree bounds for
polynomial systems on affine varieties.

Everything is computed over Q with exact arithmetic; results are
bit-reproducible.  See the README for the CLI and file formats.
"""

from .bounds import BoundInputs, BoundReport, CInf
from .certificate import Certificate, MembershipInstance
from .groebner import Budget, GroebnerBasis, Ideal, buchberger, membership, normal_form
from .localorder import BranchParam, NewtonRegion
from .orders import MonomialOrder, elim, grevlex, lex
from .polyring import NEG_INF, MultiPoly, PolyRing, dehomogenize, homogenize

__version__ = "0.1.0"

__all__ = [
    "BoundInputs",
    "BoundReport",
    "BranchParam",
    "Budget",
    "Certificate",
    "CInf",
    "GroebnerBasis",
    "Ideal",
    "MembershipInstance",
    "MonomialOrder",
    "MultiPoly",
    "NEG_INF",
    "NewtonRegion",
    "PolyRing",
    "buchberger",
    "dehomogenize",
    "elim",
    "grevlex",
    "homogenize",
    "lex",
    "membership",
    "normal_form",
    "__version__",
]
