"""Single-linkage clustering of points in the complex plane."""

from __future__ import annotations

import numpy as np


def cluster_points(values, radius):
    """Group ``values`` into single-linkage clusters of the given radius.

    Returns a list of ``(centroid, member_indices)`` with centroids ordered by
    (real, imag) for determinism. An empty input gives an empty list.
    """
    vals = np.asarray(values, dtype=complex)
    k = vals.size
    if k == 0:
        return []
    parent = list(range(k))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    for i in range(k):
        for j in range(i + 1, k):
            if abs(vals[i] - vals[j]) <= radius:
                ri, rj = find(i), find(j)
                if ri != rj:
                    parent[ri] = rj
    groups = {}
    for i in range(k):
        groups.setdefault(find(i), []).append(i)
    out = []
    for members in groups.values():
        centroid = complex(np.mean(vals[members]))
        out.append((centroid, sorted(members)))
    out.sort(key=lambda t: (t[0].real, t[0].imag))
    return out


def match_point(value, targets, radius):
    """Index of the target within ``radius`` of ``value``, or None.

    Picks the closest when several qualify.
    """
    best, best_d = None, radius
    for i, t in enumerate(targets):
        d = abs(value - t)
        if d <= best_d:
            best, best_d = i, d
    return best


def match_points(values, targets, radius):
    """:func:`match_point` for every value, from one distance matrix.

    Same radius and tie rule: among equally close targets the last wins.
    """
    if not len(targets):
        return [None] * len(values)
    dist = np.abs(np.asarray(values)[:, None] - np.asarray(targets)[None, :])
    last = dist.shape[1] - 1 - np.argmin(dist[:, ::-1], axis=1)
    hit = dist[np.arange(len(values)), last] <= radius
    return [int(j) if ok else None for j, ok in zip(last, hit)]
