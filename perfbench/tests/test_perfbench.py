"""Self-tests of the benchmark: its generated data, its tracer and its references.

Run with `python3 -m pytest perfbench/tests` from the repository root.
"""

import json
import os
import time

import numpy as np

import hostspeed
import inputs
import run
import tracing
from caloron import connection, nahm, oracle


def test_poly_twin_is_gauge_equivalent():
    # the +phi'X sign of the T_0 map is pinned here: the opposite sign moves
    # A by ~1.6e-2 on this dataset
    cfg, points, poly_cfg = inputs.potential_inputs(42)
    const, poly = nahm.from_dict(cfg), nahm.from_dict(poly_cfg)
    assert all(iv.degree == inputs.POLY_DEGREE for iv in poly.intervals)
    worst = 0.0
    for i in range(poly.n):
        a, b = poly.interval_bounds(i)
        for s in np.linspace(a, b, 9)[1:-1]:
            worst = max(worst, float(np.max(np.abs(nahm.nahm_residual(poly, s)))))
    assert worst < 1e-7  # fit error; ~1e-8 measured
    for alpha in range(poly.n):
        # the threshold of `caloron validate --strict`
        assert np.max(np.abs(nahm.matching_residual(poly, alpha))) < 1e-8
    t = np.array(points[0])
    dA = np.max(np.abs(connection.gauge_potential(const, t).A
                       - connection.gauge_potential(poly, t).A))
    assert dA < 1e-6


def test_points_sit_at_the_pinned_flow_scale():
    cfg, points, _ = inputs.potential_inputs(7)
    data = nahm.from_dict(cfg)
    for t in points:
        assert abs(inputs.flow_scale(data, np.array(t)) - inputs.FLOW_SCALE) < 1e-12


def test_traced_and_untraced_potentials_are_bitwise_equal():
    data = oracle.su2_reference_data()
    t = np.array([0.25, 0.15, -0.2, 0.3])
    original = connection.gauge_potential
    plain = connection.gauge_potential(data, t).A
    tracer = tracing.Tracer()
    tracer.op = 0
    tracer.install()
    try:
        traced = connection.gauge_potential(data, t).A
    finally:
        tracer.uninstall()
    assert connection.gauge_potential is original
    assert np.array_equal(plain, traced)
    names = {span[tracing.NAME] for span in tracer.spans}
    assert {"connection.gauge_potential", "greens.boundary",
            "monodromy.transfer"} <= names
    layers = tracing.layer_metrics(tracer.spans, 1)
    assert layers["monodromy.coeff.evals_per_op"][0] > 0


def test_self_time_subtracts_children():
    spans = [["a", 0.0, 10.0, -1, 0, 0, 0.0],
             ["monodromy.transfer", 1.0, 5.0, 0, 0, 3, 2.5],
             ["monodromy.transfer", 6.0, 7.0, 0, 0, 1, 0.5]]
    layers = tracing.layer_metrics(spans, 2)
    assert layers["monodromy.transfer.calls_per_op"][0] == 1.0
    assert abs(layers["monodromy.transfer.self_s_per_op"][0] - 1.0) < 1e-12
    assert abs(layers["monodromy.coeff.self_s_per_op"][0] - 1.5) < 1e-12
    assert layers["monodromy.coeff.evals_per_transfer"][0] == 2.0


def test_tail_needs_ten_samples_beyond():
    assert run.tail([3.0, 1.0, 2.0]) == (2.0, 50.0)
    samples = list(range(200))
    value, pct = run.tail(samples)
    assert sum(1 for x in samples if x > value) == run.TAIL_BEYOND
    assert pct == 95.0


def test_reference_speed_uses_the_kernel_times_within_a_span():
    ref = hostspeed.REF_S
    sampler = hostspeed.Sampler()
    sampler.samples = [(0.0, 9.0), (5.1, 2 * ref), (5.3, 2 * ref), (5.5, 9.0),
                       (6.5, 9.0)]
    assert abs(sampler.at_reference((5.0, 6.0, 1.5)) - 0.75) < 1e-12
    # a span too short to hold a sample takes the last one before it
    assert abs(sampler.at_reference((5.31, 5.32, 0.01)) - 0.005) < 1e-12


def test_sampler_time_is_left_out_of_a_span():
    sampler = hostspeed.Sampler()
    mark = sampler.mark()
    sampler.start()
    try:
        end = time.perf_counter() + 0.35
        while time.perf_counter() < end:
            pass
    finally:
        sampler.stop()
    start, stop, seconds = sampler.span(mark)
    assert len(sampler.samples) >= 3
    assert abs((stop - start) - seconds - sampler.paused) < 1e-9


def test_committed_reference_matches_default_seed():
    cfg, points, _ = inputs.potential_inputs(42)
    with open(os.path.join(inputs.REF_DIR, "seed-42.json")) as fh:
        doc = json.load(fh)
    assert doc["digest"] == inputs.digest(cfg, points)
    assert np.asarray(doc["A"]).shape[:2] == (inputs.POINTS, 4)
