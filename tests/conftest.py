import pytest
from hypothesis import settings

from slabgreen import SlabGeometry, context_from_index

import processes

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


def pytest_configure(config):
    config.addinivalue_line("markers", "child(*children): the child processes this test waits for (tests/processes.py)")


def pytest_collection_modifyitems(items):
    """Tests that wait for a child process run last, so that their children run while the in-process tests do."""
    items.sort(key=lambda item: item.get_closest_marker("child") is not None)


@pytest.fixture(scope="session")
def children(request, tmp_path_factory):
    """The selected tests' children, queued in the order the tests run; those left running at the end are reaped."""
    marks = [item.get_closest_marker("child") for item in request.session.items]
    queue = processes.Children([child for mark in marks if mark for child in mark.args],
                               tmp_path_factory.mktemp("children"))
    yield queue
    queue.close()


@pytest.fixture(autouse=True)
def child(children, request):
    """Starts queued children while fewer than processes.LIMIT run; then this test's finished runs, if it has any."""
    children.top_up()
    if mark := request.node.get_closest_marker("child"):
        return children.wait(mark.args)
