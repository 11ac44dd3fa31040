"""The benchmark's span tracer patches caloron from outside the package:
every function it names must exist where it looks for it."""

import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def tracing():
    sys.path.insert(0, PERFBENCH)
    try:
        import tracing
    finally:
        sys.path.remove(PERFBENCH)
    return tracing


def test_every_traced_function_exists(tracing):
    missing = [(getattr(home, "__name__", home), attr)
               for home, attr, _ in tracing.TRACED
               if not callable(getattr(home, attr, None))]
    assert not missing
    assert all(getattr(home, "__module__", getattr(home, "__name__", ""))
               .startswith("caloron") for home, _, _ in tracing.TRACED)
