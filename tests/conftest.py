import numpy as np
import pytest

# Tests that train the full A1/A2 detection experiments; `-m "not slow"`
# deselects them for a quick loop.
SLOW_FIXTURES = {"a1_result", "a2_result"}


def pytest_collection_modifyitems(items):
    for item in items:
        if SLOW_FIXTURES & set(getattr(item, "fixturenames", ())):
            item.add_marker(pytest.mark.slow)


@pytest.fixture(scope="session")
def acceptance_tmp(tmp_path_factory):
    return tmp_path_factory.mktemp("acceptance")
