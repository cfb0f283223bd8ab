"""The kernel switch: ``set_backend`` takes ``"numpy"`` or ``"reference"``."""

import numpy as np
import pytest

from repro.core.basis import basis_matrix
from repro.fastpath import backend_name, phi_block, set_backend


class TestSetBackend:
    def test_switch_to_reference_and_back(self):
        previous = set_backend("reference")
        assert previous == "numpy"
        assert backend_name() == "reference"
        positions = np.linspace(0.0, 1.0, 32)
        assert np.array_equal(
            phi_block(8, positions), basis_matrix(np.arange(8), positions)
        )
        assert set_backend(previous) == "reference"

    def test_unknown_backend_rejected(self):
        with pytest.raises(ValueError, match="unknown backend"):
            set_backend("cython")
