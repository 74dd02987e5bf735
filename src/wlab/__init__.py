"""wlab: a numerical laboratory for conformal surface geometry in spheres.

Surfaces are handled through the Minkowski light-cone model of the
conformal n-sphere: charts of conformally parametrized immersions are
lifted to the light cone of R^{n+2}_1, the canonical frame and the
conformal invariants (Hopf differential, Schwarzian, normal connection)
are computed by spectral/finite-difference calculus on the parameter
grid, and the classical residuals (Willmore, S-Willmore, flat normal
bundle, isothermic, Gauss/Codazzi/Ricci) are evaluated pointwise with
pass/fail verdicts.
"""

__version__ = "0.1.0"

from .calculus import GridSpec, convergence_order, diff_z, diff_zbar, integrate, wirtinger
from .diagnostics import (
    DiagnosticsReport,
    analyze,
    codazzi_gauss_residuals,
    flat_normal_residual,
    reduction_span_check,
    remark62_residual,
    s_willmore_residual,
    six_form,
    willmore_residual,
)
from .frame import Chart, FrameField, build_frame, canonical_lift, light_cone_lift, validate_chart
from .gallery import (
    GALLERY,
    HopfChartResult,
    apply_mobius,
    build_surface,
    clifford,
    homogeneous_cp2_hopf,
    hopf_from_curvature,
    include_in_higher_sphere,
    pinkall_hopf_torus,
    round_sphere,
    veronese,
)
from .invariants import (
    hopf_schwarzian,
    normal_D,
    ricci_residual,
    willmore_energy_conformal,
    willmore_energy_euclidean,
)
from .lorentz import mink_inner, random_mobius, span_rank

from types import ModuleType as _ModuleType

__all__ = [name for name, value in globals().items()  # every name imported above, no module
           if not name.startswith("_") and not isinstance(value, _ModuleType)]
