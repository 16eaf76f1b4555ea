"""Opt-in slow tests, and a cold SW cache for every test.

A test marked `slow` runs only when pytest is given --runslow.  fold_product_poly's cache is
cleared around each test, so a test that patches one of its inputs sees its own patch whatever
ran before it.
"""

import pytest

from torusbundles.swcalc import fold_product_poly


def pytest_addoption(parser):
    parser.addoption("--runslow", action="store_true", default=False, help="also run the tests marked slow")


def pytest_collection_modifyitems(config, items):
    if config.getoption("--runslow"):
        return
    skip = pytest.mark.skip(reason="slow test: pass --runslow to run it")
    for item in items:
        if "slow" in item.keywords:
            item.add_marker(skip)


@pytest.fixture(autouse=True)
def _cold_fold_cache():
    fold_product_poly.cache_clear()
    yield
    fold_product_poly.cache_clear()
