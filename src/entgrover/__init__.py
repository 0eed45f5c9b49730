"""Amplitude amplification and quantum counting on entangled registers.

The search register of N = 2**n basis states is coupled row-by-row to a
D-dimensional data register; amplification, closed-form predictions and
the counting circuit all operate on that coupled table, and everything
analytic is verified against exact state-vector simulation.
"""
from .analytic import (
    DegenerateCaseError,
    best_integer_time,
    closed_form_rows,
    f_plus_minus,
    optimal_times,
    oscillation_params,
    p_max,
    recurrence_sequence,
    recurrence_vectors,
    state_at_optimal,
    success_probability,
)
from .counting import (
    CountState,
    ancilla_distribution,
    build_count_state,
    circuit_distribution,
    error_bound,
    estimate_from_outcome,
    kernel_s,
    run_count,
    window_probability,
)
from .grover import (
    grover_iterate,
    grover_step,
    grover_trajectory,
    oracle_phase_flip,
    reflect_zero,
    walsh_hadamard,
)
from .qstate import (
    EntangledState,
    GoodSet,
    MemoryLimitError,
    from_amplitudes,
    good_mass,
    moments,
    new_flat,
    random_good_set,
    random_with_moments,
    search_distribution,
)

__version__ = "0.1.0"
