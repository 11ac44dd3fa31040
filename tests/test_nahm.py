"""Config schema, evaluation and residual checks for the Nahm data model."""

import json

import numpy as np
import pytest

from caloron import nahm, oracle, spin
from caloron.errors import ConfigError

from conftest import direct_flow_matrix, random_poly_data, zero_mat

TWO_PI = 2.0 * np.pi


def chebdata(k=1):
    """Single-interval dataset with a degree-2 Chebyshev T_3 and Q = 0."""
    # T_3(u) = 0.3 T_0(u) + 0.1 T_1(u) - 0.05 T_2(u) on the scaled interval
    coeffs = [0.3, 0.1, -0.05]
    t3 = [[[[c, 0.0]]] for c in coeffs]
    return nahm.from_dict({
        "k": 1,
        "lambdas": [1.0],
        "intervals": [{
            "degree": 2,
            "T": {"0": [zero_mat(1)] * 3, "1": [zero_mat(1)] * 3,
                  "2": [zero_mat(1)] * 3, "3": t3},
        }],
        "Q": [[[[0.0, 0.0]], [[0.0, 0.0]]]],
    })


# ---------------------------------------------------------------- schema

def test_roundtrip(reference):
    cfg = nahm.to_dict(reference)
    again = nahm.from_dict(cfg)
    assert again.k == reference.k
    assert np.allclose(again.lambdas, reference.lambdas)
    for a, b in zip(again.intervals, reference.intervals):
        assert a.degree == b.degree
        assert np.allclose(a.coeffs, b.coeffs)
    for qa, qb in zip(again.Q, reference.Q):
        assert np.allclose(qa, qb)
    # json-serializable all the way down
    text = json.dumps(cfg)
    assert nahm.from_dict(json.loads(text)).k == reference.k


def test_load_from_path(tmp_path, reference):
    p = tmp_path / "ref.json"
    p.write_text(json.dumps(nahm.to_dict(reference)))
    data = nahm.load(str(p))
    assert data.n == 2
    with pytest.raises(ConfigError):
        nahm.load(str(tmp_path / "missing.json"))
    bad = tmp_path / "bad.json"
    bad.write_text("{ not json")
    with pytest.raises(ConfigError):
        nahm.load(str(bad))
    bad.write_bytes(b'\xff\xfe{"k": 1}')   # not UTF-8 text
    with pytest.raises(ConfigError, match="invalid JSON"):
        nahm.load(str(bad))


@pytest.mark.parametrize("mutate,msg", [
    (lambda c: c.pop("k"), "missing"),
    (lambda c: c.update(k=0), "positive"),
    (lambda c: c.update(k=True), "positive"),
    (lambda c: c.update(lambdas={"a": 1}), "list of reals"),
    (lambda c: c.update(lambdas=["x"]), "list of reals"),
    (lambda c: c.update(lambdas=[2.0, 1.0]), "increasing"),
    (lambda c: c.update(lambdas=[-0.5, 1.0]), "lie in"),
    (lambda c: c.update(lambdas=[1.0, 7.0]), "lie in"),
    (lambda c: c.update(intervals=c["intervals"][:1]), "length"),
    (lambda c: c.update(Q=c["Q"][:1]), "length"),
    (lambda c: c.update(description=3), "string"),
    # checked against the matrices given before anything of the declared
    # size (10^12 coefficients, 10^12-entry blocks) is allocated
    (lambda c: c["intervals"][0].update(degree=10 ** 12), "coefficient matrices"),
    (lambda c: c.update(k=10 ** 6), "expected shape"),
])
def test_bad_configs(reference, mutate, msg):
    cfg = nahm.to_dict(reference)
    mutate(cfg)
    with pytest.raises(ConfigError, match=msg):
        nahm.from_dict(cfg)


def test_nonhermitian_rejected(reference):
    cfg = nahm.to_dict(reference)
    cfg["intervals"][0]["T"]["3"][0][0][0] = [0.0, 0.5]  # imaginary diagonal
    with pytest.raises(ConfigError):
        nahm.from_dict(cfg)


def test_q_shape_errors(reference):
    cfg = nahm.to_dict(reference)
    cfg["Q"][0] = cfg["Q"][0][:1]  # wrong row count
    with pytest.raises(ConfigError, match="rows"):
        nahm.from_dict(cfg)
    cfg = nahm.to_dict(reference)
    cfg["Q"][0] = [[], []]
    with pytest.raises(ConfigError, match="width"):
        nahm.from_dict(cfg)


def test_interval_degree_mismatch(reference):
    cfg = nahm.to_dict(reference)
    cfg["intervals"][0]["degree"] = 2  # but only one coefficient given
    with pytest.raises(ConfigError, match="coefficient"):
        nahm.from_dict(cfg)


# ------------------------------------------------------------ evaluation

def test_eval_matches_chebval():
    data = chebdata()
    a, b = data.interval_bounds(0)
    assert a == 1.0 and b == pytest.approx(1.0 + TWO_PI)
    for s in np.linspace(a + 0.1, b - 0.1, 7):
        u = (2.0 * s - a - b) / (b - a)
        want = np.polynomial.chebyshev.chebval(u, [0.3, 0.1, -0.05])
        got = nahm.eval_T(data, 3, s)
        assert got.shape == (1, 1)
        assert abs(got[0, 0] - want) < 1e-14


def test_locate_wraps_around():
    data = chebdata()
    i0, s0 = nahm.locate(data, 1.5)
    i1, s1 = nahm.locate(data, 1.5 + TWO_PI)
    i2, s2 = nahm.locate(data, 1.5 - TWO_PI)
    assert i0 == i1 == i2 == 0
    assert s0 == s1 == s2 == 1.5


def test_marked_index():
    data = chebdata()
    assert nahm.marked_index(data, 1.0) == 0
    assert nahm.marked_index(data, 1.0 + TWO_PI) == 0
    assert nahm.marked_index(data, 1.0 + 1e-13) == 0
    assert nahm.marked_index(data, 2.5) is None


def test_sides_at_marked_point(reference):
    lam = reference.lambdas[0]
    right = nahm.eval_T(reference, 3, lam, side="right")
    left = nahm.eval_T(reference, 3, lam, side="left")
    jump = nahm.jump_T(reference, 0, 3)
    assert np.allclose(right - left, jump, atol=1e-13)
    assert np.max(np.abs(jump)) > 0.1  # reference data really jumps


# ------------------------------------------------------------- residuals

def test_reference_is_on_shell(reference):
    for i in range(reference.n):
        a, b = reference.interval_bounds(i)
        for u in (0.2, 0.5, 0.8):
            r = nahm.nahm_residual(reference, a + u * (b - a))
            assert np.max(np.abs(r)) < 1e-14
    for alpha in range(reference.n):
        m = nahm.matching_residual(reference, alpha)
        assert np.max(np.abs(m)) < 1e-14


def test_nahm_residual_rejects_marked_point(reference):
    with pytest.raises(ValueError):
        nahm.nahm_residual(reference, reference.lambdas[0])


def test_matching_residual_range(reference):
    with pytest.raises(IndexError):
        nahm.matching_residual(reference, 2)


def test_off_shell_detected(reference):
    cfg = nahm.to_dict(reference)
    cfg["intervals"][0]["T"]["1"][0][0][0][0] += 0.05
    data = nahm.from_dict(cfg)
    worst = max(np.max(np.abs(nahm.matching_residual(data, a)))
                for a in range(data.n))
    assert worst > 1e-3


def test_q_spin_parts(reference):
    # the jump of T_j is i times the j-th spin component of Q Q^dag
    for alpha in range(reference.n):
        parts = nahm.q_spin_parts(reference, alpha)
        q = reference.Q[alpha]
        back = sum(np.kron(spin.E[mu], parts[mu]) for mu in range(4))
        assert np.allclose(back, q @ q.conj().T, atol=1e-14)
        for j in (1, 2, 3):
            dj = nahm.jump_T(reference, alpha, j)
            assert np.allclose(dj, 1j * parts[j], atol=1e-14)


def test_boundary_Q_places_each_Q_at_its_own_columns():
    cfg = nahm.to_dict(random_poly_data(np.random.default_rng(5), k=2, n=3, degree=1))
    cfg["Q"][1] = [[[float(r), float(c)] for c in range(2)] for r in range(4)]  # width 2
    data = nahm.from_dict(cfg)
    BQ = data.boundary_Q
    assert BQ.shape == (3, 4, 4)
    for alpha, cols in enumerate((slice(0, 1), slice(1, 3), slice(3, 4))):
        assert np.array_equal(BQ[alpha, :, cols], data.Q[alpha])
        rest = np.ones(4, dtype=bool)
        rest[cols] = False
        assert not np.any(BQ[alpha][:, rest])


@pytest.mark.parametrize("degree", [3, 16])
def test_flow_coefficient_series_matches_pointwise_formula(degree):
    # the precomputed Chebyshev series of every flow matrix against the
    # pointwise formula, at both ends, the middle and random u
    rng = np.random.default_rng(degree)
    data = random_poly_data(rng, k=2, n=2, degree=degree)
    t = rng.uniform(-0.8, 0.8, size=4)
    us = [-1.0, 0.0, 1.0] + list(rng.uniform(-1.0, 1.0, size=5))
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        for tag in ("ddag", "finv", "ddagd", "dfinv", "ddfinv"):
            coeff = nahm.flow_coefficient(data, t, i, tag)
            for u in us:
                want = direct_flow_matrix(data, t, i, tag, u)
                got = coeff(0.5 * (a + b) + 0.5 * (b - a) * u)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) < 1e-13 * scale, (tag, i, u)


@pytest.mark.parametrize("degree", [0, 3, 16])
def test_flow_coefficient_stack_matches_scalar_calls(degree):
    # one call on a step's stage points against one call per point, for
    # steps inside the interval and across both ends (clipped points)
    from caloron.monodromy import _C
    rng = np.random.default_rng(30 + degree)
    data = random_poly_data(rng, k=2, n=2, degree=degree)
    t = rng.uniform(-0.8, 0.8, size=4)
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        steps = [(a, 0.3), (0.5 * (a + b), -0.4), (a - 0.2, 0.5), (b - 0.1, 0.4)]
        for tag in nahm.FLOWS:
            coeff = nahm.flow_coefficient(data, t, i, tag)
            for s, h in steps:
                points = s + _C[1:] * h
                got = coeff(points)
                want = np.array([coeff(float(x)) for x in points])
                assert got.shape == want.shape
                if degree == 0:
                    # a one-term series is its coefficient, in either form
                    assert np.array_equal(got, want), (tag, i, s)
                    continue
                # a stacked product rounds apart from one basis row by a
                # few ulps
                scale = np.abs(want).max(axis=(1, 2))
                err = np.abs(got - want).max(axis=(1, 2))
                assert np.all(err <= 1e-14 * scale), (tag, i, s, np.max(err / scale))
            # points past an end are clipped to it: all give the same matrix
            past = coeff(np.array([a - 1.0, a - 0.1, b + 0.1, b + 1.0]))
            assert np.array_equal(past[0], past[1]), (tag, i)
            assert np.array_equal(past[2], past[3]), (tag, i)


@pytest.mark.parametrize("k", [1, 2, 3])
@pytest.mark.parametrize("degree", [0, 3])
def test_assembled_flow_matrices_match_pointwise_formula(k, degree):
    # the gather of every flow, built once per (tag, k), against the
    # pointwise formula at both ends, the middle and random u
    rng = np.random.default_rng(10 * k + degree)
    data = random_poly_data(rng, k=k, n=2, degree=degree)
    t = rng.uniform(-0.8, 0.8, size=4)
    us = [-1.0, 0.0, 1.0] + list(rng.uniform(-1.0, 1.0, size=3))
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        for tag in nahm.FLOWS:
            coeff = nahm.flow_coefficient(data, t, i, tag)
            for u in us:
                want = direct_flow_matrix(data, t, i, tag, u)
                got = coeff(0.5 * (a + b) + 0.5 * (b - a) * u)
                scale = max(1.0, np.max(np.abs(want)))
                assert np.max(np.abs(got - want)) < 1e-13 * scale, (tag, i, u)


@pytest.mark.parametrize("k", [1, 2, 3])
def test_assembly_maps_are_read_only_and_linear_in_size(k):
    # one gather per (tag, k): at most two sources per flow-matrix entry,
    # so O(dim^2) memory, where a dense map from the 6 k^2 block entries
    # would take 6 k^2 dim^2
    dims = {"ddag": 2 * k, "finv": 2 * k, "ddagd": 4 * k,
            "dfinv": 10 * k, "ddfinv": 30 * k}
    assert set(dims) == set(nahm.FLOWS)
    for tag, dim in dims.items():
        index, weight = nahm._assembly(tag, k)
        assert nahm._assembly(tag, k) is nahm._assembly(tag, k)
        for arr in (index, weight):
            assert not arr.flags.writeable, tag
            assert arr.shape in ((1, dim * dim), (2, dim * dim)), (tag, arr.shape)
        assert index.min() >= 0 and index.max() <= 6 * k * k + 1, tag


@pytest.mark.parametrize("k", [1, 2, 3])
def test_jump_T_is_the_chebyshev_end_difference(k):
    # the closed form against the one-sided evaluations it replaced
    rng = np.random.default_rng(40 + k)
    for data in (oracle.random_valid_data(rng, k=k, n=3),
                 random_poly_data(rng, k=k, n=3, degree=4)):
        for alpha in range(data.n):
            lam = data.lambdas[alpha]
            for mu in range(4):
                want = (nahm.eval_T(data, mu, lam, side="right")
                        - nahm.eval_T(data, mu, lam, side="left"))
                got = nahm.jump_T(data, alpha, mu)
                assert np.max(np.abs(got - want)) < 1e-14, (alpha, mu)
