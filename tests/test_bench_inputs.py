"""The benchmark draws its workload through caloron (regularity decides
which points it keeps): the seed-42 inputs must still hash to the digest
its stored reference potentials were made from."""

import json
import os
import sys

import pytest

PERFBENCH = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                         "perfbench")


@pytest.fixture(scope="module")
def inputs():
    sys.path.insert(0, PERFBENCH)
    try:
        import inputs
    finally:
        sys.path.remove(PERFBENCH)
    return inputs


def test_seed_42_inputs_match_the_stored_reference(inputs):
    with open(os.path.join(PERFBENCH, "refs", "seed-42.json")) as fh:
        want = json.load(fh)["digest"]
    assert inputs.digest(*inputs.potential_inputs(42)[:2]) == want
