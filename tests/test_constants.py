"""The package's physical constants against scipy.constants."""

import pytest
import scipy.constants

from rydsag import constants

NAMES = ("h", "c", "e", "k", "hbar", "epsilon_0", "atomic_mass")


@pytest.mark.parametrize("name", NAMES)
def test_constant_equals_scipy_constants(name):
    # bit-equal to the CODATA 2022 values that scipy.constants gives
    assert getattr(constants, name) == getattr(scipy.constants, name)


def test_no_other_constants():
    assert sorted(n for n in vars(constants) if not n.startswith("_")) == sorted(NAMES)
