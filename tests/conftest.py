import numpy as np
import pytest
from hypothesis import HealthCheck, settings

from apcap import spectrum as spectrum_module
from apcap.spectrum import DiscGeometry, assemble_spectrum
from apcap.verification import STUDY_RANGE, STUDY_WAVELENGTH, area_for_m0, study_link

settings.register_profile(
    "suite",
    deadline=None,
    derandomize=True,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("suite")


@pytest.fixture(scope="session")
def m0_4_geometry():
    return DiscGeometry(area_for_m0(4.0), STUDY_WAVELENGTH, STUDY_RANGE, 1.0)


@pytest.fixture(scope="session")
def m0_4_spectrum(m0_4_geometry):
    """The M0 = 4 spectrum with radial samples, shared across test modules."""
    return assemble_spectrum(m0_4_geometry)


@pytest.fixture(scope="session")
def snr10_link():
    return study_link(10.0)


@pytest.fixture
def rng():
    return np.random.Generator(np.random.Philox(20260822))


@pytest.fixture
def solved_orders(monkeypatch):
    """The angular orders _order_solves yields, in order: one per radial eigensolve."""
    solved = []
    solves = spectrum_module._order_solves

    def recorded(*args, **kwargs):
        for solve in solves(*args, **kwargs):
            solved.append(solve[0])
            yield solve

    monkeypatch.setattr(spectrum_module, "_order_solves", recorded)
    return solved
