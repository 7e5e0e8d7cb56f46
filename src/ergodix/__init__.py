"""Desk-scale ergodic averaging over Z^q.

Folner windows and densities, dense-matrix states and seminorms, finite and
quasi-local dynamical systems, mixing statistics, a discrete van der Corput
harness, compact-system return-time analysis, Koopman spectral splitting, and
Szemeredi multi-correlation averages, all evaluated exactly on small systems.
"""

from .folner import (
    FolnerWindow,
    Homomorphism,
    box_schedule,
    box_window,
    custom_window,
    folner_defect,
    inverse_product,
    lower_density,
    shift_window,
    tempelman_ratio,
)
from .operators import (
    State,
    apply_state,
    omega_norm,
    operator_norm,
    telescope_decompose,
    tensor,
    trace_state,
)
from .systems import (
    FiniteSystem,
    LocalObservable,
    QuasiLocalSystem,
    clock_shift_system,
    commutator_norm,
    cyclic_permutation_system,
    evaluate,
    pauli_observable,
    product_system,
    rotation_algebra_system,
    shift_system,
    single_site,
)
from .mixing import (
    HigherOrderSpec,
    MixingStatistic,
    asymptotic_abelianness,
    ergodic_average,
    gamma_sequence,
    higher_order_defect,
    square_defect,
    weak_mixing_defect,
)
from .vdc import (
    VectorSequence,
    average_vector,
    check_double_average_bound,
    check_window_cauchy_schwarz,
    vdc_verdict,
)
from .compactness import (
    correlation_lower_bound,
    orbit_epsilon_structure,
    return_set,
    szemeredi_average_compact,
)
from .spectral import (
    dichotomy_classify,
    eigenoperator_factor,
    gns_build,
    koopman_split,
    szemeredi_driver,
)

__version__ = "0.1.0"
