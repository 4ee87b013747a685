"""Capacity bounds and array synthesis for aperture-constrained free-space links.

The library computes the operator spectrum of a circular synthesis
region, waterfills power over the resulting parallel channels, evaluates
the capacity lower and upper bounds in both signal regimes, and builds
finite distributed arrays that approach the lower bound constructively.
"""

from .arrays import finite_array_gram, synthesize_array
from .bounds import beta_at_area, optimize_disc_area
from .link import ValidationError
from .spectrum import assemble_spectrum
from .waterfill import waterfill

__version__ = "0.1.0"
