import math
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import strategies as st

from triqes import Branch, ModeFrequencies, SubspaceLabel, certify_batch


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


def exact_power(branch, p):
    """c^p as (+-1)^p 2^(p // 2) sqrt(2)^(p % 2), the phi weights' power of
    c: its one rounding is that of sqrt(2)."""
    sign = -1.0 if branch is Branch.MINUS and p % 2 else 1.0
    return sign * math.ldexp(math.sqrt(2.0) if p % 2 else 1.0, p // 2)


def label_arrays(labels):
    """The pair-axis form of a label per pair: int arrays (ell, m) [pair]."""
    return (
        np.array([label.ell for label in labels], dtype=int),
        np.array([label.m for label in labels], dtype=int),
    )


def certify_one(freqs, label, energies, vecs, b_values, branches, oracle=False):
    """The batch `Certificate` of the one-subspace `certify_batch` call:
    its pair i is column i of `vecs`."""
    cert, _ = certify_batch(freqs, [(label, energies, vecs)], b_values, branches, oracle)
    return cert


def pair_fields(cert, pairs=slice(None)):
    """Every field of the batch `cert` at `pairs` of its pair axis, by
    name; an oracle that did not run stays None."""
    values = {}
    for f in fields(cert):
        arr = getattr(cert, f.name)
        if arr is not None:
            arr = arr[:, :, pairs] if f.name == "potential" else arr[..., pairs]
        values[f.name] = arr
    return values
