"""Point identity: single-linkage clustering and nearest-target matching.

Whether two computed numbers are the same point is decided here and nowhere
else, each answer read off one distance matrix.
"""

from __future__ import annotations

import numpy as np


def cluster_points(values, radius):
    """Single-linkage clusters of ``values``: the connected components of
    ``|v_i - v_j| <= radius``.

    Returns ``(centers, labels)``: each center is the mean of its members in
    index order, centers are sorted by (real, imag) (ties by first member),
    and ``labels[i]`` is the cluster of ``values[i]``.
    """
    vals = np.asarray(values, dtype=complex).ravel()
    close = np.abs(vals[:, None] - vals[None, :]) <= radius
    # components by min-label propagation: each point takes the smallest label
    # among its neighbours, then that label's own label, until nothing moves;
    # a component ends up labelled by its first member
    label = np.arange(vals.size)
    while True:
        lower = np.where(close, label, label[:, None]).min(axis=1, initial=vals.size)
        lower = lower[lower]
        if np.array_equal(lower, label):
            break
        label = lower
    first = np.flatnonzero(label == np.arange(vals.size))
    comp = np.searchsorted(first, label)
    ncomp = first.size
    centers = vals[first]
    for c in np.flatnonzero(np.bincount(comp) > 1):
        centers[c] = vals[comp == c].mean()
    order = np.lexsort((first, centers.imag, centers.real))
    rank = np.empty(ncomp, dtype=int)
    rank[order] = np.arange(ncomp)
    return centers[order], rank[comp]


def distinct_points(values, radius):
    """Indices of the points left when every point within ``radius`` of an
    earlier one that is left is dropped: the first point wins."""
    vals = np.asarray(values, dtype=complex)
    later = np.triu(np.abs(vals[:, None] - vals[None, :]) <= radius, 1)
    keep = np.ones(vals.size, dtype=bool)
    for i in np.flatnonzero(later.any(axis=1)):
        if keep[i]:
            keep[later[i]] = False
    return np.flatnonzero(keep)


def match_points(values, targets, radius):
    """Index of the closest target within ``radius`` of each value, or None.

    Among equally close targets the last wins. Points are complex numbers;
    zero pairs are ``(k, 2)`` arrays, at the larger of their two component
    distances.
    """
    values = np.asarray(values, dtype=complex)
    targets = np.asarray(targets, dtype=complex)
    if not len(values) or not len(targets):
        return [None] * len(values)
    dist = np.abs(values[:, None] - targets[None, :])
    if dist.ndim == 3:
        # np.maximum, as a reduction over an axis of length 2 costs 20x more
        dist = np.maximum(dist[..., 0], dist[..., 1])
    backwards = dist[:, ::-1]  # argmin takes the first minimum: here the last target
    last = (dist.shape[1] - 1 - backwards.argmin(axis=1)).tolist()
    hit = (dist.min(axis=1) <= radius).tolist()
    return [j if ok else None for j, ok in zip(last, hit)]
