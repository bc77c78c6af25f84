"""lsilab: numerical laboratory for sharp log-Sobolev-type inequalities.

Computes entropy/energy functionals and inequality deficits on intervals
and circles, the constructive maps between them (reflection doubling,
affine normalization, square-root lift), and the experiments that verify
the sharp constants pi^2 and 4 pi^2 numerically.
"""

from .errors import (
    DomainMismatchError,
    EvenSampleCountError,
    InsufficientDataError,
    InvalidInputError,
    LsiLabError,
    NegativeFunctionError,
    NonPositiveFunctionError,
    NotHermitianError,
    NotNormalizedError,
    ParamOutOfRangeError,
    TruncationTooLargeError,
    UnknownFamilyError,
    ZeroMassError,
)
from .function_space import (
    Circle,
    Domain,
    Family,
    FourierSeries,
    GridFunction,
    Interval,
    UNIT_CIRCLE,
    UNIT_INTERVAL,
    differentiate,
    fourier_from_dict,
    from_callable,
    from_fourier,
    grid_points,
    integrate,
    read_fourier_json,
    read_grid_csv,
    sample_family,
    to_fourier,
    write_fourier_json,
    write_grid_csv,
)
from .functionals import (
    FOUR_PI_SQUARED,
    FunctionalReport,
    PI_SQUARED,
    WeightPower,
    diaz_deficit,
    dirichlet_energy,
    entropy,
    lsi_deficit_circle,
    lsi_deficit_density_form,
    lsi_deficit_general,
    lsi_deficit_interval,
    squared_mass,
    weissler_bound,
    wirtinger_deficit,
)
from .transforms import (
    TransformCertificate,
    affine_normalize,
    reflect_to_circle,
    sqrt_lift,
)
from .experiments import (
    DiazProbeReport,
    OptimizerResult,
    SweepRecord,
    diaz_probe,
    eigenvalue_check,
    extrapolate_constant,
    minimize_deficit,
    random_admissible_function,
    sharpness_sweep,
    wang_ode_residual,
)

__version__ = "0.1.0"
