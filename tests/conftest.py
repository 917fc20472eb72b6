import pytest
from hypothesis import settings

from slabgreen import SlabGeometry, context_from_index

# Every property draws the same examples on every run, however long it takes.
# A @settings call under tests/ sets only what differs per property.
settings.register_profile("suite", derandomize=True, deadline=None)
settings.load_profile("suite")

# Workhorse configuration used across the suite: absorbing slab with
# n = 2 + 0.5i, k = 1, half length 1, sources on the right at x > 1.
N_LOSSY = 2 + 0.5j


@pytest.fixture
def lossy_ctx():
    return context_from_index(SlabGeometry(1.0), N_LOSSY, 1.0)


@pytest.fixture
def vacuum_ctx():
    return context_from_index(SlabGeometry(1.0), 1.0 + 0.0j, 1.0)


@pytest.fixture
def metal_ctx():
    return context_from_index(SlabGeometry(1.0), 0.1 + 3.0j, 1.0)
