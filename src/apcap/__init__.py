"""Capacity bounds and array synthesis for aperture-constrained free-space links.

The library computes the operator spectrum of a circular synthesis
region, waterfills power over the resulting parallel channels, evaluates
the capacity lower and upper bounds in both signal regimes, and builds
finite distributed arrays that approach the lower bound constructively.
"""

from .arrays import (
    ArrayDesign,
    ChannelMatrixPair,
    FarFieldScene,
    achieved_efficiency,
    channel_matrix_pair,
    design_json,
    equal_area_partition,
    exact_channel_matrix,
    finite_array_gram,
    lemma1_check,
    reduced_channel_matrix,
    synthesize_array,
)
from .bounds import (
    CapacityBounds,
    beta_at_area,
    bounds_report,
    bounds_to_dict,
    corollary_approx,
    default_area_grid,
    effective_gains,
    lower_bound_beta,
    optimize_disc_area,
    stream_rates,
    upper_bound,
)
from .link import (
    LinkBudget,
    LinkDerived,
    ValidationError,
    derive_link,
    mimo_equal_power_efficiency,
    siso_efficiency,
)
from .numerics import bessel_j_table, gauss_quadrature, solve_eps0
from .spectrum import (
    DiscGeometry,
    ModeIndex,
    OperatorSpectrum,
    SpectrumEntry,
    TruncationWarning,
    assemble_spectrum,
    default_truncation,
    disc_for_area,
    effective_rank,
    spectrum_report,
)
from .waterfill import (
    ChannelGains,
    PowerAllocation,
    allocation_efficiency,
    select_active_K,
    waterfill,
)

__version__ = "0.1.0"
