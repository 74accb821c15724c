"""cnlight: cyclic light states from three-level atoms in a cavity.

Closed-form sector spectra and propagators, time-dependent dynamics under
shaped coupling envelopes, field reductions with Husimi/symmetry
certification, and the multi-pass cat-generation protocol.
"""

from .errors import (
    CnLightError,
    DegenerateSectorError,
    DetuningConditionError,
    DomainError,
    MinimumNotFoundError,
    NonPureFieldError,
    NumericalError,
    SectorTooSmallError,
    StepSizeUnderflowError,
    TargetUnreachableError,
    ValidationError,
)
from .hilbert import (
    AtomicConfig,
    BasisState,
    Kind,
    SectorBasis,
    build_sector_basis,
    excitation_number,
    sector_dimension,
)
from .analytic_core import (
    Branch,
    DressedState,
    PropagatorMatrix,
    StepSpectrum,
    balanced_coupling,
    balanced_detuning_residual,
    dressed_linear_entropy,
    dressed_states,
    evolve_ground_analytic,
    propagator,
    rabi_frequency,
    step_spectrum,
    switching_time,
)
from .dynamics import (
    CouplingSchedule,
    ExactPropagator,
    IntegratorStats,
    SystemState,
    Trajectory,
    build_rhs,
    bump,
    diagonal_energy,
    ground_product_state,
    integrate,
    integrate_ode,
    interaction_elements,
    interaction_matrix,
    make_superposition,
)
from .observables import (
    FieldDensityMatrix,
    HusimiGrid,
    SymmetryReport,
    detect_cyclic_symmetry,
    husimi,
    husimi_two_fock,
    husimi_values,
    linear_entropy,
    photon_probabilities,
    reduce_field,
)
from .protocol import (
    CatReference,
    PassSpec,
    PassageReport,
    ProtocolSpec,
    REFERENCE_CATS,
    TofSearchResult,
    find_tof_for_cat,
    first_passage,
    reference_config,
    run_protocol,
    subsequent_passage,
)

__version__ = "0.1.0"
