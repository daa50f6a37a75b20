"""Wave-trace synthesis and interface/vertex detection on simplicial domains."""

from .acoustic import (
    AcousticMedium,
    LineState,
    intensity_coefficients,
    line_state,
)
from .coupled_mode import (
    CascadeSpec,
    CoupledModeParams,
    CouplerStage,
    DelayStage,
    ModeTrajectory,
    cascade_transfer,
    closed_form_power,
    coupler_matrix,
    delay_matrix,
    integrate_coupled_modes,
)
from .detect import (
    DetectionReport,
    FieldTrace,
    InterfaceHit,
    InterfaceHits,
    Ray,
    VertexHit,
    VertexVerdict,
    detect_interfaces_acoustic,
    detect_interfaces_em,
    detect_vertex_cascade,
    detect_vertex_coupled_mode,
    detect_vertex_fwm,
    synthesize_ray_trace,
)
from .fresnel import (
    EmMedium,
    InterfaceCoefficients,
    amplitude_coefficients_normal,
    energy_residual,
)
from .fwm import (
    FwmParams,
    GainFit,
    GainModel,
    closed_form_signal,
    degenerate_gain,
    fit_gain,
    integrate_signal,
)
from .geometry import (
    FacetClassification,
    SimplicialComplex,
    build_complex,
    classify_facets,
)
from .scenario import Scenario, load_scenario, run_detect, run_simulate
from .waveguide import (
    GuidedMode,
    SlabSpec,
    mode_profile,
    solve_te_slab_modes,
    tir_cos_theta2,
)

__version__ = "0.1.0"
