"""Curve configurations on splitting surfaces in alternating link complements.

Parse planar diagram codes, validate the reduced prime alternating
hypotheses, enumerate standard-position curve configurations over the
augmented dual graph, account for their surfaces by Euler
characteristic, and check the counts against closed-form polynomial caps.
"""

from .bounds import (
    BoundReport,
    c_g,
    compare,
    general_bound,
    genus2_config_bound,
    genus2_surface_bound,
    pppp_bound,
    psps_bound,
)
from .diagram import (
    Diagram,
    Face,
    PdCode,
    ValidationReport,
    build_diagram,
    parse_pd,
    validate,
)
from .dualgraph import AugmentedDualGraph, SaddleChannel, Step, build_dual
from .enumerators import (
    DEFAULT_GUARD_CAP,
    EnumerationResult,
    budgets,
    classify_family,
    enumerate_general,
    enumerate_genus2,
    enumerate_pppp,
    enumerate_psps_pairs,
    oracle_enumerate,
)
from .errors import (
    EulerInconsistencyError,
    GuardAbort,
    PdStructureError,
    PdSyntaxError,
    PlanarityError,
    PreconditionError,
)
from .euler import euler_crosscheck
from .render import render_diagram
from .tubing import configuration_tubing_count, count_tubings
from .words import (
    Configuration,
    CurveWord,
    Letter,
    canonicalize,
    check_configuration,
    check_word,
    make_configuration,
    serialize_word,
    word_pattern,
)

__version__ = "0.1.0"
