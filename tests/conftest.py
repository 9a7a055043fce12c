import numpy as np
import pytest
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import wavedamp.forward
import wavedamp.reconstruct
from wavedamp.spectral import DampingPair, SampledFunction1D


def count_probe_solves(monkeypatch, members=None):
    """Record the (damping, mode) of every member of every probe batch from here on.

    The batches are counted at reconstruct's binding of solve_modes, the one
    seam every probe passes.
    """
    members = [] if members is None else members

    def counting_solve_modes(dampings, modes, *args, **kwargs):
        members.extend((a, mode) for a in dampings for mode in modes)
        return wavedamp.forward.solve_modes(dampings, modes, *args, **kwargs)

    monkeypatch.setattr(wavedamp.reconstruct, "solve_modes", counting_solve_modes)
    return members


@pytest.fixture
def probe_members(monkeypatch):
    """The (damping, mode) members of every probe batch of the test."""
    return count_probe_solves(monkeypatch)


def damping_samples(elements):
    """A strategy for the samples of one damped side: 3 to 300 values drawn from elements."""
    return st.integers(3, 300).flatmap(lambda n: arrays(np.float64, n, elements=elements))


def scaled_pair(a1, a2, k=0):
    """The damping pair of samples a1 and a2 times 2^k; the sides meet at a1's corner value."""
    a2 = np.concatenate([a1[:1], a2[1:]])
    return DampingPair(SampledFunction1D(np.ldexp(a1, k)), SampledFunction1D(np.ldexp(a2, k)))
