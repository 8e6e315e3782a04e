import numpy as np
import pytest

from eegtd.core import Windows

# Tests that train the full A1/A2 detection experiments; `-m "not slow"`
# deselects them for a quick loop.
SLOW_FIXTURES = {"a1_result", "a2_result"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


def windows_end_to_end(data, labels) -> Windows:
    """Hand-built windows data (N, C, T) laid end to end along time as one
    Windows: window i is data[i], of class labels[i]."""
    data = np.asarray(data)
    n, c, t = data.shape
    return Windows(data.transpose(1, 0, 2).reshape(c, n * t), t, np.arange(n) * t, labels)


@pytest.fixture(scope="session")
def acceptance_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")
