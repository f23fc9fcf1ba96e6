"""Separator calibration and Monte Carlo property checks.

The feasible parameter sets (small m, wide radius) make rates measurable at
1e5 draws; the theory-scale set from the acceptance suite has alpha ~ 1e-20
and is exercised there.  Summaries are dumped as JSON for inspection.
"""

import math

import mpmath
import numpy as np
import pytest

from bufpart import (CalibrationError, RandomStream, calibrate, gaussian_tail,
                     sample_two_buffers)
from bufpart.reports import render_json
from bufpart.separators import classify, practical_params


def quad_tail(t: float) -> float:
    density = lambda x: mpmath.exp(-x * x / 2) / mpmath.sqrt(2 * mpmath.pi)
    with mpmath.workdps(30):   # keep relative accuracy down at the 1e-20 scale
        return float(mpmath.quad(density, [t, t + 60, mpmath.inf]))


def make_cloud(seed: int = 0, dim: int = 8, clusters: int = 4, per: int = 10,
               loose: int = 10) -> np.ndarray:
    """Mixed cloud: tight clusters around orthogonal centers plus spread vectors."""
    rng = np.random.default_rng(seed)
    rows = []
    for c in range(clusters):
        center = np.zeros(dim)
        center[c] = 1.0
        for _ in range(per):
            v = center + 0.03 * rng.normal(size=dim)
            rows.append(v / np.linalg.norm(v))
    for _ in range(loose):
        v = rng.normal(size=dim)
        rows.append(v / np.linalg.norm(v))
    return np.asarray(rows)


def batch_projections(vectors: np.ndarray, stream, draws: int) -> np.ndarray:
    g = stream.normals(draws * vectors.shape[1]).reshape(draws, vectors.shape[1])
    return g @ vectors.T


class TestCalibrate:
    def test_certificate_reverified_by_quadrature(self):
        for eps, m, r in [(0.2, 16, 0.5), (0.3, 3, 1.5), (0.1, 8, 1.0), (0.5, 40, 1.2)]:
            p = calibrate(eps, m, r)
            rho = 1.0 / math.sqrt(1.0 - r * r / 4.0)
            joint = quad_tail(rho * p.t)
            single = quad_tail(p.t)
            assert joint <= single / m * (1.0 + 1e-9)
            assert p.alpha == pytest.approx(single, rel=1e-10)
            assert p.calibrated

    def test_threshold_is_smallest(self):
        p = calibrate(0.3, 3, 1.5)
        rho = 1.0 / math.sqrt(1.0 - 1.5 ** 2 / 4.0)
        shrunk = p.t * (1.0 - 1e-6)
        assert gaussian_tail(rho * shrunk) > gaussian_tail(shrunk) / 3.0

    def test_eps_prime_formula(self):
        # eps = 0.1 at t = 1 would give eps' = 0.1 / (2e)
        p = practical_params(0.1, 8.0, 0.5, gaussian_tail(1.0))
        assert p.t == pytest.approx(1.0, abs=1e-12)
        assert p.eps_prime == pytest.approx(0.1 / (2.0 * math.e), abs=1e-9)

    def test_monotone_in_m(self):
        t3 = calibrate(0.2, 3, 1.0).t
        t10 = calibrate(0.2, 10, 1.0).t
        assert t10 >= t3

    def test_infeasible_raises(self):
        with pytest.raises(CalibrationError):
            calibrate(0.2, 1e6, 0.01)

    def test_domain_checks(self):
        with pytest.raises(CalibrationError):
            calibrate(1.2, 4, 1.0)
        with pytest.raises(CalibrationError):
            calibrate(0.2, 2.0, 1.0)
        with pytest.raises(CalibrationError):
            calibrate(0.2, 4, 2.5)


class TestSingleDraws:
    def test_identical_vectors_move_together(self):
        p = calibrate(0.3, 3, 1.5)
        vecs = np.tile(np.array([1.0, 0.0, 0.0]), (5, 1))
        every = {0, 1, 2, 3, 4}
        for i in range(50):
            s = sample_two_buffers(vecs, np.ones(5), 0.3, 2.0 / 3.0, 1.5,
                                   RandomStream(7, "test", i), params=p)
            sets = [set(s.x.tolist()), set(s.y.tolist()), set(s.z.tolist())]
            assert all(m in (set(), every) for m in sets)
            assert sum(m == every for m in sets) <= 1

    def test_non_unit_input_rejected(self):
        p = calibrate(0.3, 3, 1.5)
        with pytest.raises(ValueError, match="unit"):
            sample_two_buffers(np.array([[1.0, 1.0]]), np.ones(1), 0.3, 2.0 / 3.0, 1.5,
                               RandomStream(0, "test"), params=p)

    def test_interval_structure(self):
        # membership is a pure function of which interval holds the projection
        p = practical_params(0.4, 4.0, 1.0, 0.2)
        rng = np.random.default_rng(3)
        proj = rng.normal(size=1000) * 1.5
        x, y, z = classify(proj, p)
        assert not (x & y).any() and not (y & z).any() and not (x & z).any()
        assert np.array_equal(x, proj >= p.t)
        assert np.array_equal(y, (proj > p.t - p.eps_prime) & (proj < p.t))
        assert np.array_equal(z, (proj > p.t - 2 * p.eps_prime) & (proj <= p.t - p.eps_prime))

    def test_boundary_conventions(self):
        # g_u = t lands in X; g_u = t - eps' lands in Z; g_u = t - 2 eps' in none
        p = practical_params(0.4, 4.0, 1.0, 0.2)
        proj = np.array([p.t, p.t - p.eps_prime, p.t - 2 * p.eps_prime])
        x, y, z = classify(proj, p)
        assert x.tolist() == [True, False, False]
        assert y.tolist() == [False, False, False]
        assert z.tolist() == [False, True, False]

    def test_singleton_never_rejected(self):
        vecs = np.array([[1.0, 0.0]])
        for i in range(200):
            s = sample_two_buffers(vecs, np.array([1.0]), 0.3, 0.5, 0.8,
                                   RandomStream(11, "test", i))
            assert not s.rejected

    def test_identical_cloud_never_rejected(self):
        vecs = np.tile(np.array([0.0, 1.0, 0.0]), (8, 1))
        for i in range(100):
            s = sample_two_buffers(vecs, np.full(8, 0.5), 0.3, 0.1, 0.5,
                                   RandomStream(12, "test", i))
            assert not s.rejected


DRAWS = 100_000


@pytest.fixture(scope="module")
def feasible():
    return calibrate(0.3, 3.0, 1.5)


@pytest.fixture(scope="module")
def projections(feasible):
    cloud = make_cloud()
    stream = RandomStream(2024, "mc-sep")
    return cloud, batch_projections(cloud, stream, DRAWS)


class TestMonteCarlo:
    DRAWS = DRAWS

    def test_x_rate_matches_alpha(self, feasible, projections, tmp_path):
        cloud, proj = projections
        p = feasible
        hits = (proj >= p.t).mean(axis=0)
        se = math.sqrt(p.alpha * (1 - p.alpha) / self.DRAWS)
        assert np.abs(hits - p.alpha).max() <= 4 * se
        summary = {
            "param_set": {"eps": p.epsilon, "m": p.m, "r": p.r, "t": p.t, "alpha": p.alpha},
            "n_draws": self.DRAWS,
            "empirical_rates": {"x_min": float(hits.min()), "x_max": float(hits.max())},
            "bounds": {"alpha_pm_4se": [p.alpha - 4 * se, p.alpha + 4 * se]},
            "pass": bool(np.abs(hits - p.alpha).max() <= 4 * se),
        }
        (tmp_path / "mc_x_rate.json").write_text(render_json(summary))

    def test_buffer_rates_bounded(self, feasible, projections):
        cloud, proj = projections
        p = feasible
        y_rate = ((proj > p.t - p.eps_prime) & (proj < p.t)).mean(axis=0)
        z_rate = ((proj > p.t - 2 * p.eps_prime) & (proj <= p.t - p.eps_prime)).mean(axis=0)
        cap = p.epsilon * p.alpha
        allowance = 4 * math.sqrt(cap * (1 - cap) / self.DRAWS)
        assert y_rate.max() <= cap + allowance
        assert z_rate.max() <= cap + allowance

    def test_far_pairs_rarely_joint(self, feasible, projections):
        cloud, proj = projections
        p = feasible
        d = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
        far = [(i, j) for i in range(len(cloud)) for j in range(i + 1, len(cloud))
               if d[i, j] >= p.r]
        assert far, "cloud must contain far pairs"
        cap = p.alpha / p.m
        allowance = 4 * math.sqrt(cap * (1 - cap) / self.DRAWS)
        x = proj >= p.t
        for i, j in far:
            joint = float((x[:, i] & x[:, j]).mean())
            assert joint <= cap + allowance

    def test_near_pairs_protected_by_buffers(self, feasible, projections):
        # Pr{v not in X u Y | u in X} should scale with ||u - v||^2
        cloud, proj = projections
        p = feasible
        x = proj >= p.t
        xy = proj > p.t - p.eps_prime
        d = np.linalg.norm(cloud[:, None, :] - cloud[None, :, :], axis=2)
        for i in range(0, 40, 7):
            for j in range(i + 1, min(i + 5, 40)):
                if d[i, j] > 0.15:
                    continue
                cond = x[:, i]
                if cond.sum() < 500:
                    continue
                escape = float((~xy[cond][:, j]).mean())
                # loose distortion-style cap, fitted not asserted from theory
                assert escape <= 60.0 * d[i, j] ** 2 / p.epsilon + 0.01

    def test_two_buffer_escape_scales_with_distance(self, feasible):
        # Pr{v not in X u Y u Z | u in X u Y} / ||u-v||^2 stays under a fitted
        # cap proportional to (1/eps) log(1/delta-equivalent)
        rng = np.random.default_rng(40)
        base = rng.normal(size=8)
        base /= np.linalg.norm(base)
        spreads = [0.05, 0.1, 0.2, 0.3]
        vectors = [base]
        for s in spreads:
            v = base + s * rng.normal(size=8)
            vectors.append(v / np.linalg.norm(v))
        vectors = np.asarray(vectors)
        p = feasible
        stream = RandomStream(4040, "mc-two-buffer")
        proj = batch_projections(vectors, stream, 200_000)
        xy = proj > p.t - p.eps_prime
        xyz = proj > p.t - 2 * p.eps_prime
        cond = xy[:, 0]
        assert cond.sum() > 5000
        fitted_cap = 40.0 * math.log(p.m) / p.epsilon
        for j in range(1, len(vectors)):
            s2 = float(((vectors[0] - vectors[j]) ** 2).sum())
            escape = float((~xyz[cond][:, j]).mean())
            assert escape / s2 <= fitted_cap + 4.0 / math.sqrt(cond.sum() * s2)

    def test_measured_min_ball_never_violated(self, feasible):
        cloud = make_cloud(seed=5)
        mu = np.abs(np.random.default_rng(6).normal(size=len(cloud))) + 0.1
        total = float(mu.sum())
        delta = 0.25
        for i in range(300):
            s = sample_two_buffers(cloud, mu, 0.3, delta, 1.5,
                                   RandomStream(400, "mc-ball", i))
            assert len(set(s.x) & set(s.y)) == 0
            assert len(set(s.y) & set(s.z)) == 0
            assert len(set(s.x) & set(s.z)) == 0
            if s.x.size:
                pts = cloud[s.x]
                dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
                leftover = ((dm > 1.5) * mu[s.x][None, :]).sum(axis=1).min()
                assert leftover <= delta * total + 1e-12

    def test_measured_rejection_rate_bounded(self):
        # orthonormal spread cloud with uniform measure: conditioned on any u in X',
        # the rejection probability stays below 1/2 (the Markov step)
        dim = 12
        cloud = np.eye(dim)
        mu = np.full(dim, 1.0)
        delta = 2.0 / 3.0
        p = calibrate(0.3, 2.0 / delta, 1.2)
        kept = 0
        dropped = 0
        stream = RandomStream(500, "mc-reject")
        proj = batch_projections(cloud, stream, 40_000)
        x = proj >= p.t
        for row in range(x.shape[0]):
            idx = np.flatnonzero(x[row])
            if idx.size == 0:
                continue
            pts = cloud[idx]
            dm = np.linalg.norm(pts[:, None, :] - pts[None, :, :], axis=2)
            leftover = ((dm > p.r) * mu[idx][None, :]).sum(axis=1).min()
            if leftover <= delta * dim:
                kept += 1
            else:
                dropped += 1
        assert kept + dropped > 200
        assert dropped / (kept + dropped) <= 0.5 + 4 / math.sqrt(kept + dropped)


def test_sample_measured_passthrough_rates():
    # Pr{u in X} for a measured draw stays within [alpha/2, alpha] statistically
    cloud = make_cloud(seed=9, clusters=3, per=6, loose=4)
    mu = np.full(len(cloud), 1.0)
    p = calibrate(0.3, 3.0, 1.5)
    draws = 20_000
    hits = np.zeros(len(cloud))
    for i in range(draws):
        s = sample_two_buffers(cloud, mu, 0.3, 2.0 / 3.0, 1.5,
                               RandomStream(808, "mc-meas", i), params=p)
        hits[s.x] += 1
    rate = hits / draws
    se = math.sqrt(p.alpha / draws)
    assert rate.max() <= p.alpha + 4 * se
    assert rate.min() >= p.alpha / 2 - 4 * se
