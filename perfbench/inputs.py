"""Seeded inputs of the benchmark workloads and their correctness references.

Everything here is generated from the seed alone, so the same seed gives the
same datasets, points, scan points and reference potentials on every machine.
Nothing in this module is timed.
"""

import hashlib
import json
import os
import subprocess
import sys

import numpy as np
from numpy.polynomial import chebyshev

from caloron import monodromy, nahm, oracle

# criterion 11a's dataset shape: random_valid_data(rng, k=2, n=3, magnitude=0.3)
K, N_MARKED, MAGNITUDE = 2, 3, 0.3

# distinct evaluation points per seed; each needs a classical reference
# (9-13 s), computed in parallel, one child interpreter per point
POINTS = 2

# Each point is scaled so that the circle-mean spectral radius of the
# second-order flow equals this value.  The DP45 step count, and with it the
# cost of an op, is almost exactly linear in that radius (correlation 0.994
# over about 120 random (data, t) pairs), so pinning it makes every seed ask
# for about the same work while the data, t0 and the direction of t vary.
FLOW_SCALE = 1.0
DATASET_DRAWS = 20

# degree and amplitude of the gauge-equivalent polynomial twin
POLY_DEGREE = 16
PHI_AMPLITUDE = 0.3

# criterion 7's box (t0, t1, t2, t3); one scan point per CLI call, so that a
# run's median is taken over several calls
SCAN_BOX = ((0.2, 0.8), (-0.3, 0.3), (-0.3, 0.3), (0.1, 0.5))
SCAN_POINTS = 128   # distinct points per seed, enough that a run never repeats one

# pinned acceptance budgets (criteria 6, 9 and 7)
A_BUDGET = 1e-4
GRAM_BUDGET = 1e-6
RESIDUAL_BUDGET = 1e-3

HERE = os.path.dirname(os.path.abspath(__file__))
REF_DIR = os.path.join(HERE, "refs")
SRC = os.path.join(os.path.dirname(HERE), "src")


def flow_scale(data, t):
    """Circle-mean of the largest root modulus of the finv companion flow.

    On a block-scalar, piecewise-constant interval the roots of block b are
    i(a0 + t0) +- |a + t|, so their modulus is sqrt((a0 + t0)^2 + |a + t|^2).
    """
    total = 0.0
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        c = data.intervals[i].coeffs[:, 0]
        radius = 0.0
        for blk in range(data.k):
            a0 = c[0, blk, blk].real + t[0]
            v = np.array([c[j, blk, blk].real + t[j] for j in (1, 2, 3)])
            radius = max(radius, float(np.sqrt(a0 * a0 + v @ v)))
        total += (b - a) * radius
    return total / (2.0 * np.pi)


def _bisect(f, lo, hi):
    """Root of the increasing function f on [lo, hi]; None if f does not
    change sign there."""
    if f(lo) >= 0.0 or f(hi) <= 0.0:
        return None
    for _ in range(60):
        mid = 0.5 * (lo + hi)
        if f(mid) < 0.0:
            lo = mid
        else:
            hi = mid
    return hi


def draw_point(data, rng):
    """Regular point with flow_scale == FLOW_SCALE, t0 and direction random;
    None if 50 draws find none (the data's own flow can exceed the scale)."""
    for _ in range(50):
        t0 = rng.uniform(0.05, 0.95)
        direction = rng.normal(size=3)
        direction /= np.linalg.norm(direction)
        r = _bisect(lambda r: flow_scale(data, np.concatenate([[t0], r * direction]))
                    - FLOW_SCALE, 0.0, 3.0)
        if r is None:
            continue
        t = np.concatenate([[t0], r * direction])
        if monodromy.regularity(data, t, threshold=1e-3).is_regular:
            return t
    return None


def gauge_direction(rng, k):
    """Seed-drawn, non-diagonal hermitian k x k matrix of unit Frobenius norm."""
    Z = rng.normal(size=(k, k)) + 1j * rng.normal(size=(k, k))
    X = 0.5 * (Z + Z.conj().T)
    return X / np.linalg.norm(X)


def gauge_transform(data, X):
    """Degree-POLY_DEGREE Chebyshev fit of data under g(s) = exp(i phi(s) X).

    With phi = PHI_AMPLITUDE * sin(s): T_0 -> g T_0 g^dag + phi'(s) X,
    T_j -> g T_j g^dag and Q_alpha -> (id2 (x) g(lambda_alpha)) Q_alpha.
    Q^dag F Q, chi and A are invariant, so the result is the constant data's
    gauge-equivalent twin.  Returns a schema dict.
    """
    degree, amplitude = POLY_DEGREE, PHI_AMPLITUDE
    w, V = np.linalg.eigh(X)

    def g(s):
        return (V * np.exp(1j * amplitude * np.sin(s) * w)) @ V.conj().T

    u = np.cos(np.pi * (np.arange(degree + 1) + 0.5) / (degree + 1))
    intervals = []
    for i in range(data.n):
        a, b = data.interval_bounds(i)
        const = data.intervals[i].coeffs[:, 0]
        vals = np.empty((4, degree + 1, data.k, data.k), dtype=complex)
        for p, s in enumerate(0.5 * (a + b) + 0.5 * (b - a) * u):
            gs = g(s)
            for mu in range(4):
                vals[mu, p] = gs @ const[mu] @ gs.conj().T
            vals[0, p] += amplitude * np.cos(s) * X
        T = {}
        for mu in range(4):
            c = chebyshev.chebfit(u, vals[mu].reshape(degree + 1, -1), degree)
            c = c.reshape(degree + 1, data.k, data.k)
            T[str(mu)] = to_pairs(0.5 * (c + c.conj().transpose(0, 2, 1)))
        intervals.append({"degree": degree, "T": T})
    Q = [np.kron(np.eye(2), g(lam)) @ q for lam, q in zip(data.lambdas, data.Q)]
    return {
        "k": data.k,
        "lambdas": [float(x) for x in data.lambdas],
        "intervals": intervals,
        "Q": [to_pairs(q) for q in Q],
        "description": f"degree-{degree} gauge-equivalent twin of: {data.description}",
    }


def to_pairs(arr):
    return np.stack([arr.real, arr.imag], axis=-1).tolist()


def _complex(pairs):
    arr = np.asarray(pairs, dtype=float)
    return arr[..., 0] + 1j * arr[..., 1]


def potential_inputs(seed):
    """(const config, points, poly config) for the potential and zero-mode workloads.

    The dataset is drawn first from default_rng(seed), so seed 42 gives
    criterion 11a's dataset.  A dataset without regular points at the
    pinned flow scale is replaced by the next one the generator draws.
    """
    rng = np.random.default_rng(seed)
    for _ in range(DATASET_DRAWS):
        data = oracle.random_valid_data(rng, k=K, n=N_MARKED, magnitude=MAGNITUDE)
        points = [draw_point(data, rng) for _ in range(POINTS)]
        if all(t is not None for t in points):
            break
    else:
        raise RuntimeError(f"seed {seed}: no dataset with regular points at the pinned flow scale")
    poly = gauge_transform(data, gauge_direction(rng, data.k))
    return nahm.to_dict(data), [[float(x) for x in t] for t in points], poly


def scan_inputs(seed):
    """(config, grids) for scan_selfdual: one `--grid` string per CLI call,
    each a single point inside criterion 7's box.

    t1, t2 and t3 are drawn; t0 is then chosen so that the point's
    flow_scale equals that of the box centre.  A row's RHS evaluation count
    varies about +-30% across the box but only about +-5% at a fixed
    flow_scale, so every call asks for about the same work.
    """
    data = oracle.su2_reference_data()
    (t0_lo, t0_hi), *box = SCAN_BOX
    target = flow_scale(data, np.array([0.5 * (lo + hi) for lo, hi in SCAN_BOX]))
    rng = np.random.default_rng([seed, 7])
    grids = []
    while len(grids) < SCAN_POINTS:
        rest = [rng.uniform(lo, hi) for lo, hi in box]
        t0 = _bisect(lambda t0: flow_scale(data, np.array([t0, *rest])) - target,
                     t0_lo, t0_hi)
        if t0 is not None:
            grids.append(",".join(f"t{mu}={x!r}" for mu, x in enumerate([t0, *rest])))
    return nahm.to_dict(data), grids


# -- references ---------------------------------------------------------------

def digest(cfg, points):
    text = json.dumps({"config": cfg, "points": points}, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def _classical_A(cfg, t):
    return oracle.classical_gauge_potential(nahm.from_dict(cfg), np.array(t)).A


def _classical_in_children(cfg, points, preexec_fn):
    """_classical_A at each point, each in a child interpreter running this
    file; every child is waited for, and killed first if anything fails."""
    path = os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    procs = []
    try:
        for t in points:
            job = json.dumps({"config": cfg, "t": t})
            procs.append(subprocess.Popen([sys.executable, os.path.abspath(__file__), job],
                                          stdout=subprocess.PIPE, text=True, env=env,
                                          preexec_fn=preexec_fn))
        results = []
        for proc in procs:
            out, _ = proc.communicate()
            if proc.returncode != 0:
                raise RuntimeError(f"reference child exited with code {proc.returncode}")
            results.append(_complex(json.loads(out)))
        return np.array(results)
    finally:
        for proc in procs:
            if proc.poll() is None:
                proc.kill()
                proc.wait()


def reference_potentials(seed, cfg, points, preexec_fn=None):
    """Classical-route A at each point, shape (POINTS, 4, N, N).

    Computed once per seed (9-13 s a point) and stored in refs/; a stored
    file is used only when it was made from exactly these inputs.
    """
    path = os.path.join(REF_DIR, f"seed-{seed}.json")
    want = digest(cfg, points)
    try:
        with open(path) as fh:
            doc = json.load(fh)
        if doc.get("digest") == want:
            return _complex(doc["A"])
    except (OSError, ValueError):
        pass
    A = _classical_in_children(cfg, points, preexec_fn)
    os.makedirs(REF_DIR, exist_ok=True)
    tmp = f"{path}.{os.getpid()}.tmp"
    with open(tmp, "w") as fh:
        json.dump({"seed": seed, "digest": want, "points": points,
                   "route": "oracle.classical_gauge_potential, defaults",
                   "A": to_pairs(A)}, fh)
    os.replace(tmp, path)
    return A


if __name__ == "__main__":
    # one reference point: python3 inputs.py '{"config": ..., "t": [...]}'
    job = json.loads(sys.argv[1])
    print(json.dumps(to_pairs(_classical_A(job["config"], job["t"]))))
