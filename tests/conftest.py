import gc
import weakref

import numpy as np
import pytest

from tiltlab.autodiff import Tape
from tiltlab.diffusion import GaussianMixture, PolicyNet, add_residual_net, make_schedule
from tiltlab.streams import make_rng


@pytest.fixture
def rng():
    return make_rng(0)


@pytest.fixture(scope="session")
def std_base():
    return GaussianMixture.std_normal(1)


@pytest.fixture(scope="session")
def sched16():
    return make_schedule(16, 6.0)


@pytest.fixture(scope="session")
def sched32():
    return make_schedule(32, 6.0)


@pytest.fixture(scope="session")
def analytic16(std_base, sched16):
    return PolicyNet(sched16, base=std_base)


@pytest.fixture(scope="session")
def analytic32(std_base, sched32):
    return PolicyNet(sched32, base=std_base)


@pytest.fixture(scope="session")
def residual16(analytic16):
    return add_residual_net(analytic16, make_rng(42), hidden=(24, 24))


@pytest.fixture(scope="session")
def two_modes():
    return GaussianMixture(np.array([0.5, 0.5]), np.array([[-3.0], [3.0]]), np.array([1.0, 1.0]))


@pytest.fixture
def recorded_tapes(monkeypatch):
    """Weak references to every Tape built during the test, with the cyclic GC off.

    With the collector disabled, a recorded tape is dead only if reference
    counting alone freed it.
    """
    refs = []
    init = Tape.__init__

    def recording_init(self):
        init(self)
        refs.append(weakref.ref(self))

    monkeypatch.setattr(Tape, "__init__", recording_init)
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        yield refs
    finally:
        if was_enabled:
            gc.enable()
