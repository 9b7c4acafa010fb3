"""Reference implementations of point clustering and matching.

The pairwise union-find and the per-point nearest-target scan that
``kreincalc.cluster`` replaced, kept to check the vectorized routines on
random point sets.
"""

import numpy as np


def cluster_points(values, radius):
    """Single-linkage clusters as a list of ``(centroid, member_indices)``,
    centroids ordered by (real, imag)."""
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
    """Index of the closest target within ``radius`` of ``value``, or None;
    among equally close targets the last wins. A zero pair ``(z, w)`` is at
    the larger of its two component distances from a target pair."""
    best, best_d = None, radius
    for i, t in enumerate(targets):
        if np.ndim(value):
            d = max(abs(value[0] - t[0]), abs(value[1] - t[1]))
        else:
            d = abs(value - t)
        if d <= best_d:
            best, best_d = i, d
    return best


def cluster_warnings(centers, radius):
    """The pairwise scan ``diagonalize`` flags close clusters with."""
    warnings = []
    for i in range(len(centers)):
        for j in range(i + 1, len(centers)):
            gap = abs(centers[i] - centers[j])
            if gap < 3 * radius:
                warnings.append(
                    f"clusters {centers[i]:.6g} and {centers[j]:.6g} "
                    f"are only {gap:.2e} apart"
                )
    return warnings


def distinct_points(values, radius):
    """The incremental scan ``support_values`` kept its first points with."""
    out = []
    for i, z in enumerate(values):
        if match_point(z, [values[j] for j in out], radius) is None:
            out.append(i)
    return out
