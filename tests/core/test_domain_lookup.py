"""Categorical domains build their value-to-index table once."""

import copy
import pickle
import tracemalloc

import numpy as np
import pytest

from repro.core.normalization import Domain
from repro.resilience.checkpoint import domain_from_spec, domain_to_spec

CATEGORIES = [f"c{i}" for i in range(100_000)]


def test_one_value_lookup_allocates_under_64_kib_after_the_first():
    domain = Domain.categorical(CATEGORIES)
    assert domain.index_of("c5") == 5  # builds the table
    tracemalloc.start()
    try:
        assert domain.index_of("c99999") == 99_999
        assert domain.locate(["c7", "nope"])[1].tolist() == [True, False]
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 * 1024


def test_equality_hashing_and_specs_ignore_the_table():
    fresh, used = Domain.categorical(["a", "b"]), Domain.categorical(["a", "b"])
    used.indices_of(["b"])
    assert fresh == used and hash(fresh) == hash(used)
    assert domain_to_spec(used) == domain_to_spec(fresh) == {"categories": ["a", "b"]}
    assert domain_from_spec(domain_to_spec(used)) == used


@pytest.mark.parametrize("clone", [copy.deepcopy, lambda d: pickle.loads(pickle.dumps(d))])
def test_copies_carry_no_table_and_rebuild_it(clone):
    domain = Domain.categorical(["x", "y", "z"])
    domain.indices_of(["z"])
    copied = clone(domain)
    assert "_lookup" not in vars(copied)
    np.testing.assert_array_equal(copied.indices_of(["z", "x"]), [2, 0])
    assert pickle.dumps(copied) == pickle.dumps(Domain.categorical(["x", "y", "z"]))


def test_unknown_value_still_raises():
    with pytest.raises(ValueError, match="not in categorical domain"):
        Domain.categorical(["x"]).indices_of(["w"])
