"""Multi-phase mean curvature flow on the flat torus via constrained
Allen-Cahn systems, with the geometric-measure diagnostics needed to verify
the flow's conservation laws, energy dissipation, equipartition, first
variation, weighted energy balances, and Gaussian-density monotonicity at
finite interface width."""

from .analysis import (
    KernelSpec,
    MonotonicityTrace,
    backward_heat_kernel,
    brakke_residual,
    gaussian_density,
    monotonicity_check,
)
from .diagnostics import (
    MeasureSample,
    VariationReport,
    energy_bv_gap,
    energy_measure,
    first_variation,
    mean_curvature_proxy,
    measure_junction_angles,
    measure_sample,
)
from .dynamics import (
    ModelKind,
    ModelSpec,
    PhaseField,
    project_constraint,
)
from .errors import (
    BlowUpError,
    ConfigurationError,
    InputError,
    MpfcError,
    ProjectionError,
    ProjectionSingularError,
    ScenarioError,
    SnapshotFormatError,
    SolverFailureError,
)
from .grid import (
    GridSpec,
    ScalarField,
    VectorField,
)
from .potential import (
    SIGMA,
    double_well,
    double_well_prime,
    optimal_profile,
    sqrt_double_well,
    well_primitive,
)
from .run import BrakkeSeries, RunRecord, run_simulation
from .scenarios import (
    Disk,
    DoubleStrip,
    FlatStrip,
    Scenario,
    TripleJunction,
    TwoDisks,
    build_scenario,
)
from .snapshots import emit_timeseries, read_snapshot, write_snapshot
from .study import StudyResult, convergence_study

__version__ = "0.1.0"
