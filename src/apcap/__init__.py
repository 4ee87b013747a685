"""Capacity bounds and array synthesis for aperture-constrained free-space links.

The library computes the operator spectrum of a circular synthesis
region, waterfills power over the resulting parallel channels, evaluates
the capacity lower and upper bounds in both signal regimes, and builds
finite distributed arrays that approach the lower bound constructively.
Each name is imported from its own module (apcap.bounds, apcap.arrays,
...); importing the package loads none of them.
"""

__version__ = "0.1.0"

# the seed of verify's randomized checks; golden.json's lemma 1 gaps were
# drawn with it. The CLI and the checks both read it here, so neither imports the other
DEFAULT_SEED = 20260822
