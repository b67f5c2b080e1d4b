"""Shared test fixtures."""

import numpy as np
import pytest

from rydsag.heterodyne import Sweep


@pytest.fixture
def synthetic_sweep():
    """Builds a heterodyne ``Sweep`` over ``fields`` whose SNR at each field
    e is ``snr_of(e)``, with a 150 kHz line on a 1e-20 floor."""

    def build(fields, snr_of, beat_db=-30.0):
        fields = np.array(fields, dtype=float)
        return Sweep(
            e_signal=fields,
            snr_db=np.array([snr_of(e) for e in fields.tolist()]),
            beat_db=np.full(fields.size, beat_db),
            peak_freq_hz=np.full(fields.size, 150e3),
            floor_density=np.full(fields.size, 1e-20),
        )

    return build
