"""Small-noise diffusions with oblique reflection on smooth bounded domains.

Simulation of reflected dynamics, deterministic rate/action functionals,
obstacle-problem PDE and dynamic-programming solvers, and end-to-end
large-deviations consistency experiments.
"""

__version__ = "0.1.0"

from .geometry import (  # noqa: F401
    CoefficientField,
    Disk,
    Domain,
    Ellipse,
    Interval,
    ObliqueField,
    constant_coefficients,
    normal_field,
    oblique_from_tangent,
    validate_oblique,
)
from .reflect import (  # noqa: F401
    Control,
    ReferencePath,
    ReflectedPath,
    TimeGrid,
    holder_half_quotient,
    reflect_step,
    solve_reflected_ode,
    solve_skorokhod_picard,
    validate_reflected_path,
)
from .sde import (  # noqa: F401
    EventSpec,
    NoiseScale,
    estimate_event_probability,
    log_rate_estimate,
    simulate_reflected_sde,
    tube_obstacle,
)
from .rate import (  # noqa: F401
    RateResult,
    rate_of_event,
    rate_of_path,
    weak_stability_check,
)
from .control_stop import (  # noqa: F401
    DiscreteProblem,
    ObstacleBoundError,
    multi_stop_value,
    reduced_value,
    value_inf_sup,
)
from .hjbvi import (  # noqa: F401
    ValueGrid,
    constant_obstacle,
    load_npz,
    residual_scan,
    solve_eps_vi,
    solve_limit_vi,
)
from .testfn import (  # noqa: F401
    build_testfn,
    check_testfn_properties,
)
from .ldp import (  # noqa: F401
    LdpConfig,
    LdpReport,
    cap_identity_check,
    run_lower_bound_experiment,
    run_upper_bound_experiment,
)
