"""Tests for single-qudit Pauli error channels."""

import numpy as np
import pytest

from quditsim.errors import ShapeError
from quditsim.noise import error_distribution, sample_error, sample_error_batch


class TestErrorDistribution:
    """Exact channel supports."""

    def test_flip_support(self):
        dist = error_distribution("f", 0.3, 3)
        assert dist[(0, 0)] == pytest.approx(0.7)
        assert dist[(1, 0)] == pytest.approx(0.15)
        assert dist[(2, 0)] == pytest.approx(0.15)
        assert set(dist) == {(0, 0), (1, 0), (2, 0)}

    def test_phase_support(self):
        dist = error_distribution("p", 0.2, 5)
        assert set(dist) == {(0, 0)} | {(0, b) for b in range(1, 5)}
        assert dist[(0, 3)] == pytest.approx(0.05)

    def test_depolarizing_support(self):
        d = 3
        dist = error_distribution("d", 0.1, d)
        assert len(dist) == d * d
        assert dist[(0, 0)] == pytest.approx(0.9)
        non_identity = [v for k, v in dist.items() if k != (0, 0)]
        assert all(v == pytest.approx(0.1 / (d * d - 1)) for v in non_identity)

    def test_probabilities_sum_to_one(self):
        for kind in ("f", "p", "d"):
            for d in (2, 3, 5, 7):
                total = sum(error_distribution(kind, 0.37, d).values())
                assert total == pytest.approx(1.0)

    def test_unknown_kind(self):
        with pytest.raises(ShapeError):
            error_distribution("q", 0.1, 3)


class TestSampling:
    """Empirical draws match the exact distribution."""

    @pytest.mark.parametrize("kind", ["f", "p", "d"])
    @pytest.mark.parametrize("d", [3, 5])
    def test_frequencies(self, kind, d):
        rng = np.random.default_rng(hash((kind, d)) % 2**32)
        n = 40000
        counts = {}
        for _ in range(n):
            pair = sample_error(kind, 0.4, d, rng)
            counts[pair] = counts.get(pair, 0) + 1
        exact = error_distribution(kind, 0.4, d)
        for pair, p in exact.items():
            assert counts.get(pair, 0) / n == pytest.approx(p, abs=0.02)
        assert set(counts) <= set(exact)

    def test_zero_probability_never_fires(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            assert sample_error("d", 0.0, 3, rng) == (0, 0)

    def test_certain_error_always_fires(self):
        rng = np.random.default_rng(1)
        for _ in range(200):
            assert sample_error("d", 1.0, 3, rng) != (0, 0)

    def test_batch_support_matches_exact(self):
        rng = np.random.default_rng(42)
        xs, zs = sample_error_batch("d", 3, rng, 20000)
        pairs, counts = np.unique(np.stack([xs, zs], axis=1), axis=0,
                                  return_counts=True)
        support = {tuple(p) for p in pairs.tolist()}
        assert support == {(a, b) for a in range(3) for b in range(3)
                           if (a, b) != (0, 0)}
        assert (np.abs(counts / 20000 - 1 / 8) < 0.02).all()

    def test_batch_frequencies(self):
        rng = np.random.default_rng(2)
        xs, zs = sample_error_batch("f", 5, rng, 60000)
        assert (xs != 0).all()
        assert (zs == 0).all()
        values, counts = np.unique(xs, return_counts=True)
        assert set(values.tolist()) == {1, 2, 3, 4}
        assert (np.abs(counts / len(xs) - 0.25) < 0.02).all()


class TestInputChecks:
    """A bad kind or probability fails before anything is drawn."""

    BAD = [("f", -0.5), ("d", 2.0), ("p", float("nan")), ("x", 0.0),
           ("x", 0.5)]

    @pytest.mark.parametrize("kind, prob", BAD)
    def test_error_distribution_rejects(self, kind, prob):
        with pytest.raises(ShapeError, match="noise kind|noise probability"):
            error_distribution(kind, prob, 3)

    @pytest.mark.parametrize("kind, prob", BAD)
    def test_sample_error_rejects_before_drawing(self, kind, prob):
        rng = np.random.default_rng(5)
        state = rng.bit_generator.state
        with pytest.raises(ShapeError, match="noise kind|noise probability"):
            sample_error(kind, prob, 3, rng)
        assert rng.bit_generator.state == state
