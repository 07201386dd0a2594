import gc

import pytest


@pytest.fixture(autouse=True, scope="module")
def collect_cycles_after_module():
    """Run the cyclic collector after each test module, so an object a module
    left in a reference cycle (such as a file held by a kept traceback) is
    finalized there, and a ResourceWarning it raises fails a test of that
    module rather than of a later one. Per test it would cost too much time."""
    yield
    gc.collect()
