import numpy as np
import pytest
from hypothesis import strategies as st

from triqes import ModeFrequencies, SubspaceLabel, certify_subspace


@pytest.fixture
def unit_freqs():
    return ModeFrequencies(1.0, 1.0, 1.0)


def frequencies(min_value=-3.0, max_value=3.0):
    finite = st.floats(
        min_value=min_value, max_value=max_value,
        allow_nan=False, allow_infinity=False, width=32,
    )
    return st.builds(ModeFrequencies, finite, finite, finite)


def labels(max_l=10, max_m=10):
    return st.builds(
        SubspaceLabel,
        st.integers(min_value=0, max_value=max_l),
        st.integers(min_value=0, max_value=max_m),
    )


def random_frequency_triples(rng: np.random.Generator, count: int, scale=2.0):
    return [ModeFrequencies(*rng.uniform(-scale, scale, 3)) for _ in range(count)]


def certify_one(freqs, label, energies, vecs, b_values, branches, oracle=None):
    """The `Certificate` of the one-subspace `certify_subspace` call."""
    ((_, cert),) = certify_subspace(
        freqs, [(label, energies, vecs)], b_values, branches, oracle
    )
    return cert
