import numpy as np
import pytest

from kreincalc import DEFAULT_TOL
from kreincalc.cluster import cluster_points, distinct_points, match_points
from kreincalc.spectral import diagonalize

import cluster_reference as ref

RADII = (0.0, 0.1, 0.25, 0.5, 1.0)


def point_set(rng, kind, k):
    """Random points: scattered, on a half-step lattice (exact duplicates and
    equidistant ties), chained (gaps below the radius), or integers."""
    if kind == "scattered":
        return rng.standard_normal(k) + 1j * rng.standard_normal(k)
    if kind == "lattice":
        return 0.5 * (rng.integers(-3, 4, k) + 1j * rng.integers(-1, 2, k))
    if kind == "chain":
        return np.cumsum(rng.uniform(0.0, 0.2, k)) + 0j
    return rng.integers(-2, 3, k) + 0j


KINDS = ("scattered", "lattice", "chain", "integer")


@pytest.mark.parametrize("kind", KINDS)
def test_cluster_points_agrees_with_union_find(kind):
    rng = np.random.default_rng(70)
    for k in list(range(0, 25)) * 4:
        values = point_set(rng, kind, k)
        radius = float(rng.choice(RADII))
        centers, labels = cluster_points(values, radius)
        expected = ref.cluster_points(values, radius)
        assert centers.tolist() == [c for c, _ in expected]
        assert [np.flatnonzero(labels == i).tolist() for i in range(len(centers))] == [
            m for _, m in expected
        ]


def test_cluster_points_shapes():
    centers, labels = cluster_points([], 1.0)
    assert centers.shape == (0,) and labels.shape == (0,)
    centers, labels = cluster_points([2.0, 0.0, 2.0 + 1e-9, 1j], 1e-6)
    assert centers.tolist() == [0j, 1j, 2.0 + 5e-10]
    assert labels.tolist() == [2, 0, 2, 1]


@pytest.mark.parametrize("kind", KINDS)
def test_distinct_points_agrees_with_scan(kind):
    rng = np.random.default_rng(73)
    for k in list(range(0, 25)) * 2:
        values = point_set(rng, kind, k)
        radius = float(rng.choice(RADII))
        assert distinct_points(values, radius).tolist() == ref.distinct_points(values, radius)


@pytest.mark.parametrize("kind", KINDS)
def test_match_points_agrees_with_scan(kind):
    rng = np.random.default_rng(71)
    for k in list(range(0, 12)) * 6:
        values = point_set(rng, kind, 8)
        targets = point_set(rng, kind, k)
        radius = float(rng.choice(RADII))
        expected = [ref.match_point(v, targets, radius) for v in values]
        assert match_points(values, targets, radius) == expected


@pytest.mark.parametrize("kind", KINDS)
def test_match_points_pairs_agree_with_scan(kind):
    rng = np.random.default_rng(72)
    for k in list(range(0, 10)) * 6:
        values = point_set(rng, kind, 16).reshape(8, 2)
        targets = point_set(rng, kind, 2 * k).reshape(k, 2)
        radius = float(rng.choice(RADII))
        expected = [ref.match_point(v, targets, radius) for v in values]
        assert match_points(values, targets, radius) == expected


def test_match_points_pair_uses_larger_component_distance():
    targets = [(0j, 0j), (1j, 1j)]
    assert match_points([(0.7j, 0.6j)], targets, 0.5) == [1]  # 0.4 away, 0.7 from 0
    assert match_points([(0.9j, 0.2j)], targets, 0.5) == [None]  # 0.8 and 0.9 away
    assert match_points(np.zeros((0, 2), complex), targets, 1.0) == []
    assert match_points([(0j, 0j)], [], 1.0) == [None]


def test_diagonalize_warnings_match_pairwise_scan():
    gap = 2.5e-7 * (1 + 2.5e-7)
    M = np.diag([0.0, gap, 2 * gap, 1.0, 1.0 + 1e-9]).astype(complex)
    data = diagonalize(M, DEFAULT_TOL)
    radius = DEFAULT_TOL.cluster_radius(np.max(np.abs(np.diag(M))))
    assert len(data.centers) == 4
    assert list(data.warnings) == ref.cluster_warnings(data.centers, radius)
    assert len(data.warnings) == 3
