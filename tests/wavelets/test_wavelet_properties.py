"""Hypothesis property tests on the Haar wavelet baseline."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.normalization import Domain
from repro.wavelets.haar import HaarSynopsis, haar_transform


@st.composite
def counts_vector(draw, n_max=48):
    n = draw(st.integers(min_value=1, max_value=n_max))
    values = draw(st.lists(st.integers(0, 15), min_size=n, max_size=n))
    return np.array(values, dtype=float)


class TestTransformProperties:
    @settings(max_examples=30, deadline=None)
    @given(counts=counts_vector(), seed=st.integers(0, 2**31 - 1))
    def test_linearity(self, counts, seed):
        other = np.random.default_rng(seed).integers(0, 15, len(counts)).astype(float)
        np.testing.assert_allclose(
            haar_transform(counts + other),
            haar_transform(counts) + haar_transform(other),
            atol=1e-9,
        )

    @settings(max_examples=30, deadline=None)
    @given(counts=counts_vector())
    def test_parseval(self, counts):
        coeffs = haar_transform(counts)
        assert float(coeffs @ coeffs) == pytest.approx(
            float(counts @ counts), rel=1e-9, abs=1e-9
        )

    @settings(max_examples=30, deadline=None)
    @given(counts=counts_vector(), scale=st.floats(0.1, 50.0))
    def test_scale_equivariance(self, counts, scale):
        np.testing.assert_allclose(
            haar_transform(counts * scale), haar_transform(counts) * scale, atol=1e-7
        )


class TestSynopsisProperties:
    @settings(max_examples=20, deadline=None)
    @given(
        seed=st.integers(0, 2**31 - 1),
        size=st.integers(min_value=1, max_value=80),
    )
    def test_streaming_matches_batch(self, seed, size):
        n = 37  # deliberately not a power of two
        r = np.random.default_rng(seed)
        values = r.integers(0, n, size)
        streamed = HaarSynopsis(Domain.of_size(n), budget=8)
        for v in values:
            streamed.update(int(v))
        batch = HaarSynopsis.from_counts(
            Domain.of_size(n), np.bincount(values, minlength=n).astype(float), 8
        )
        np.testing.assert_array_equal(
            streamed.state_dict()["details"], batch.state_dict()["details"]
        )

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 2**31 - 1))
    def test_insert_delete_cancel(self, seed):
        n = 29
        r = np.random.default_rng(seed)
        syn = HaarSynopsis(Domain.of_size(n), budget=8)
        base = r.integers(0, n, 30)
        for v in base:
            syn.update(int(v))
        snapshot = syn.state_dict()["details"]
        extra = r.integers(0, n, 10)
        for v in extra:
            syn.update(int(v))
        for v in extra:
            syn.update(int(v), weight=-1)
        np.testing.assert_array_equal(syn.state_dict()["details"], snapshot)
