"""Vectorized planar-geometry primitives.

All positions in this library are ``float64`` arrays of shape ``(n, 2)``
holding ``(x, y)`` coordinates in meters.  These helpers are the single
place where distance math lives so that every consumer (routing, the
schedulers, the simulator) agrees on the metric and benefits from the
same vectorization.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

__all__ = [
    "as_points",
    "distance",
    "distances_from",
    "pairwise_distances",
    "pairs_within",
    "neighbors_within",
    "path_length",
    "nearest_index",
]


def as_points(pts: np.ndarray) -> np.ndarray:
    """Validate and canonicalize an ``(n, 2)`` float point array.

    Accepts anything :func:`numpy.asarray` accepts; a single point may be
    given as a flat pair and is promoted to shape ``(1, 2)``.

    Raises:
        ValueError: if the input cannot be interpreted as 2-D points or
            contains non-finite coordinates.
    """
    arr = np.asarray(pts, dtype=np.float64)
    if arr.ndim == 1:
        if arr.shape[0] != 2:
            raise ValueError(f"a single point must have 2 coordinates, got {arr.shape[0]}")
        arr = arr.reshape(1, 2)
    if arr.ndim != 2 or arr.shape[1] != 2:
        raise ValueError(f"expected shape (n, 2), got {arr.shape}")
    if not np.all(np.isfinite(arr)):
        raise ValueError("point coordinates must be finite")
    return arr


def distance(a: np.ndarray, b: np.ndarray) -> float:
    """Euclidean distance between two single points."""
    a = np.asarray(a, dtype=np.float64).reshape(2)
    b = np.asarray(b, dtype=np.float64).reshape(2)
    return float(np.hypot(a[0] - b[0], a[1] - b[1]))


def distances_from(origin: np.ndarray, pts: np.ndarray) -> np.ndarray:
    """Distances from one ``origin`` point to every row of ``pts``.

    Returns a 1-D array of length ``len(pts)``.
    """
    pts = as_points(pts)
    origin = np.asarray(origin, dtype=np.float64).reshape(2)
    d = pts - origin
    return np.hypot(d[:, 0], d[:, 1])


def pairwise_distances(a: np.ndarray, b: Optional[np.ndarray] = None) -> np.ndarray:
    """Full distance matrix between point sets ``a`` and ``b``.

    With ``b=None`` computes the symmetric self-distance matrix of ``a``.
    Uses broadcasting rather than ``scipy.spatial.distance.cdist`` so the
    function stays allocation-predictable for the small matrices the
    schedulers build (tens to hundreds of points).
    """
    a = as_points(a)
    b = a if b is None else as_points(b)
    diff = a[:, None, :] - b[None, :, :]
    return np.hypot(diff[..., 0], diff[..., 1])


_FORWARD = ((0, 0), (0, 1), (1, -1), (1, 0), (1, 1))
_AROUND = tuple((dx, dy) for dx in (-1, 0, 1) for dy in (-1, 0, 1))


class _CellGrid:
    """The rows of ``pts`` sorted by square cells a hair wider than
    ``radius``, so two points that pass the distance test sit in the same
    or adjacent cells whatever the rounding.  Cells are at least
    ``span / 2**30`` wide, so the key ``cx * width + cy`` fits in int64
    however small the radius, and at least ``1e-150``, below which a
    squared offset underflows to zero and passes any radius."""

    def __init__(self, pts: np.ndarray, radius: float) -> None:
        self.lo = float(pts.min())  # one origin for both axes: cheaper, and empty cells are free
        span = float(pts.max()) - self.lo
        self.side = max(radius * (1.0 + 1e-12) + 1e-12 * span, span * 2.0**-30, 1e-150)
        self.top = np.floor(span / self.side)
        self.width = int(self.top) + 8  # room for clamped cells and their neighbours
        key = self.key_of(pts)
        self.order = np.argsort(key, kind="stable")
        self.keys = key[self.order]

    def key_of(self, pts: np.ndarray) -> np.ndarray:
        """Cell key of each row; far-away rows clamp to two cells outside."""
        cell = np.floor((pts - self.lo) / self.side)
        np.maximum(cell, -2.0, out=cell)
        np.minimum(cell, self.top + 2.0, out=cell)
        cell = cell.astype(np.int64) + 4
        return cell[:, 0] * self.width + cell[:, 1]

    def candidates(self, keys: np.ndarray, offsets: tuple, after_self: bool = False):
        """Pairings ``(k, pos)`` of each ``keys[k]`` with the sorted
        positions of the rows in cells ``keys[k] + offset``.  With
        ``after_self`` (``keys`` is :attr:`keys`), the first offset, the
        own cell, yields only the positions after ``k``."""
        q = keys + np.array([dx * self.width + dy for dx, dy in offsets])[:, None]
        lo = np.searchsorted(self.keys, q)
        hi = np.searchsorted(self.keys, q, side="right")
        if after_self:
            lo[0] = np.arange(1, len(keys) + 1)
        lo, count = lo.ravel(), (hi - lo).ravel()
        k = np.repeat(np.tile(np.arange(len(keys)), len(offsets)), count)
        return k, np.arange(len(k)) + np.repeat(lo - (np.cumsum(count) - count), count)


def _within(a: np.ndarray, i: np.ndarray, b: np.ndarray, j: np.ndarray, radius: float):
    """Mask of ``|a[i] - b[j]| <= radius``, squared as cKDTree does."""
    (ax, ay), (bx, by) = a.T, b.T  # 1-D gathers are much cheaper than row gathers
    dx, dy = ax[i] - bx[j], ay[i] - by[j]
    return dx * dx + dy * dy <= radius * radius


def pairs_within(pts: np.ndarray, radius: float) -> np.ndarray:
    """All index pairs ``(i, j), i < j`` with ``dist <= radius``.

    A uniform-grid cell list compares only points in the same or adjacent
    cells: ``O(n log n + k)`` time and memory, not ``O(n^2)``.  The test
    is ``dx*dx + dy*dy <= radius*radius``, as in a
    :class:`scipy.spatial.cKDTree`, so boundary ties resolve the same
    way.  Returns a ``(k, 2)`` int array (possibly empty) in
    lexicographic ``(i, j)`` order.
    """
    pts = as_points(pts)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    n = len(pts)
    if n < 2:
        return np.empty((0, 2), dtype=np.intp)
    grid = _CellGrid(pts, radius)
    # The own cell and the four forward neighbours: each unordered pair
    # of points is a candidate exactly once.
    a, b = grid.candidates(grid.keys, _FORWARD, after_self=True)
    a, b = grid.order[a], grid.order[b]
    i, j = np.minimum(a, b), np.maximum(a, b)
    keep = _within(pts, i, pts, j, radius)
    i, j = i[keep], j[keep]
    order = np.argsort(i * n + j)
    return np.stack([i[order], j[order]], axis=1)


def neighbors_within(centers: np.ndarray, pts: np.ndarray, radius: float) -> list:
    """For each center, the indices of ``pts`` within ``radius``.

    Returns a list (one entry per center) of sorted int arrays.  This is
    the primitive behind "which sensors can detect target t".  Same
    cell list and distance test as :func:`pairs_within`; centers may lie
    anywhere, inside the field of ``pts`` or not.
    """
    centers = as_points(centers)
    pts = as_points(pts)
    if radius < 0:
        raise ValueError("radius must be non-negative")
    if len(pts) == 0:
        return [np.empty(0, dtype=np.intp) for _ in range(len(centers))]
    grid = _CellGrid(pts, radius)
    c, pos = grid.candidates(grid.key_of(centers), _AROUND)
    p = grid.order[pos]
    keep = _within(centers, c, pts, p, radius)
    c, p = c[keep], p[keep]
    order = np.argsort(c * len(pts) + p)
    c, p = c[order], p[order]
    bounds = np.searchsorted(c, np.arange(len(centers) + 1))
    return [p[bounds[k] : bounds[k + 1]] for k in range(len(centers))]


def path_length(pts: np.ndarray) -> float:
    """Total polyline length visiting the rows of ``pts`` in order."""
    pts = as_points(pts)
    if len(pts) < 2:
        return 0.0
    seg = np.diff(pts, axis=0)
    return float(np.hypot(seg[:, 0], seg[:, 1]).sum())


def nearest_index(origin: np.ndarray, pts: np.ndarray) -> int:
    """Index of the row of ``pts`` closest to ``origin``.

    Ties resolve to the lowest index (``numpy.argmin`` semantics), which
    keeps every consumer deterministic.
    """
    d = distances_from(origin, pts)
    if d.size == 0:
        raise ValueError("cannot take nearest of an empty point set")
    return int(np.argmin(d))
