import pytest

from opintegral.rng import Xorshift64Star


@pytest.fixture
def rng():
    return Xorshift64Star(20240915)

