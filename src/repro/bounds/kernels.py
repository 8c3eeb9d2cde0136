"""Hot kernels over CSR adjacency arrays.

The bound-maintenance loops that dominate CPU once the oracle is cheap or
sharded — the Tri frontier sweep, the SPLUB Dijkstra relaxation and edge
sweep, and the LAESA landmark-matrix sweep — live here as NumPy array
code.  They perform the same IEEE-754 elementwise operations and
order-independent min/max reductions as the per-pair reference loops, so
their results are byte-identical to them.

Every kernel consumes the ``(indptr, indices, weights)`` CSR triple served
by :meth:`repro.core.partial_graph.PartialDistanceGraph.csr_arrays` (which
is the shared-memory :meth:`repro.core.csr_store.CSRStore.csr` view when a
store is bound) instead of rebuilding per-call flat mirrors.
"""

from __future__ import annotations

import math
from heapq import heappop, heappush
from typing import Tuple

import numpy as np


def tri_frontier(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    u: int,
    others: np.ndarray,
    cap: float,
    relaxation: float = 1.0,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Tri bounds for every pair ``(u, others[b])`` in one CSR sweep.

    Returns ``(lowers, uppers, triangles_inspected)`` aligned with
    ``others``, clamped to ``[0, cap]`` exactly like the per-pair Tri
    kernels; candidates without triangles get ``(0, cap)``.  The
    candidate-major order scatters ``u``'s row into a dense array, gathers
    it at every candidate neighbour in one flat CSR gather, and reduces per
    candidate with ``np.maximum.reduceat`` / ``np.minimum.reduceat``.
    """
    k = others.shape[0]
    lbs = np.zeros(k, dtype=np.float64)
    ubs = np.full(k, cap, dtype=np.float64)
    s, e = int(indptr[u]), int(indptr[u + 1])
    if e == s:
        return lbs, ubs, 0
    # Two sweep orders compute the same triangle set {(u, w, c) : both
    # edges known}: candidate-major scans every candidate's adjacency
    # (work = sum of candidate degrees), neighbor-major scans the adjacency
    # of u's neighbors (work = sum of N(u) degrees).  min/max reductions
    # are order-independent bit-for-bit, so pick whichever touches less.
    cand_work = int((indptr[others + 1] - indptr[others]).sum())
    nbr_work = int((indptr[indices[s:e] + 1] - indptr[indices[s:e]]).sum())
    if nbr_work < cand_work:
        return _tri_frontier_nbr(
            indptr, indices, weights, n, u, others, cap, relaxation, lbs, ubs
        )
    dense = np.full(n, math.inf)
    dense[indices[s:e]] = weights[s:e]
    starts = indptr[others]
    lengths = indptr[others + 1] - starts
    nz = np.nonzero(lengths)[0]
    if nz.size == 0:
        return lbs, ubs, 0
    l_nz = lengths[nz].astype(np.intp)
    s_nz = starts[nz].astype(np.intp)
    total = int(l_nz.sum())
    offsets = np.zeros(nz.size, dtype=np.intp)
    np.cumsum(l_nz[:-1], out=offsets[1:])
    flat = np.repeat(s_nz - offsets, l_nz) + np.arange(total, dtype=np.intp)
    wc = weights[flat]
    du = dense[indices[flat]]
    valid = np.isfinite(du)
    triangles = int(valid.sum())
    c = relaxation
    if c == 1.0:
        lb_elem = np.where(valid, np.abs(du - wc), -math.inf)
    else:
        lb_elem = np.where(valid, np.maximum(du / c - wc, wc / c - du), -math.inf)
    ub_elem = np.where(valid, du + wc, math.inf)
    lb_red = np.maximum.reduceat(lb_elem, offsets)
    ub_red = np.minimum.reduceat(ub_elem, offsets)
    if c != 1.0:
        # min(c·(x+y)) == c·min(x+y): positive scaling is monotone under
        # IEEE-754 rounding, so scaling after the reduction is bit-identical
        # to scaling each element first.
        ub_red = c * ub_red
    np.maximum(lb_red, 0.0, out=lb_red)
    np.minimum(ub_red, cap, out=ub_red)
    np.minimum(lb_red, ub_red, out=lb_red)
    lbs[nz] = lb_red
    ubs[nz] = ub_red
    return lbs, ubs, triangles


def _tri_frontier_nbr(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    u: int,
    others: np.ndarray,
    cap: float,
    relaxation: float,
    lbs: np.ndarray,
    ubs: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray, int]:
    """Neighbor-major Tri sweep: enumerate triangles from u's neighbor rows.

    Every element (one triangle ``u — w — c``) appears in exactly one
    neighbor row, so dense scatter-reductions over the third vertex see the
    identical element multiset as the candidate-major reduceat — and exact
    min/max make the reduction order irrelevant bit-for-bit.
    """
    s, e = int(indptr[u]), int(indptr[u + 1])
    nbrs = indices[s:e]
    d_un = weights[s:e]
    starts = indptr[nbrs].astype(np.intp)
    lengths = (indptr[nbrs + 1] - indptr[nbrs]).astype(np.intp)
    total = int(lengths.sum())
    triangles = 0
    if total:
        offsets = np.zeros(nbrs.shape[0], dtype=np.intp)
        np.cumsum(lengths[:-1], out=offsets[1:])
        flat = np.repeat(starts - offsets, lengths) + np.arange(total, dtype=np.intp)
        third = indices[flat]
        wkv = weights[flat]
        duk = np.repeat(d_un, lengths)
        c = relaxation
        if c == 1.0:
            lb_elem = np.abs(duk - wkv)
        else:
            lb_elem = np.maximum(duk / c - wkv, wkv / c - duk)
        ub_elem = duk + wkv
        lb_dense = np.full(n, -math.inf)
        ub_dense = np.full(n, math.inf)
        count = np.zeros(n, dtype=np.int64)
        np.maximum.at(lb_dense, third, lb_elem)
        np.minimum.at(ub_dense, third, ub_elem)
        np.add.at(count, third, 1)
        lb_red = lb_dense[others]
        ub_red = ub_dense[others]
        triangles = int(count[others].sum())
        if c != 1.0:
            ub_red = c * ub_red
        np.maximum(lb_red, 0.0, out=lb_red)
        np.minimum(ub_red, cap, out=ub_red)
        np.minimum(lb_red, ub_red, out=lb_red)
        lbs[:] = lb_red
        ubs[:] = ub_red
    return lbs, ubs, triangles


def sssp(
    indptr: np.ndarray,
    indices: np.ndarray,
    weights: np.ndarray,
    n: int,
    source: int,
) -> np.ndarray:
    """Single-source shortest paths over a CSR adjacency (binary heap).

    Mirrors :func:`repro.bounds.splub.dijkstra_distances` exactly — same
    heap order, same vectorised relaxation arithmetic — so the returned
    array is byte-identical to the mirror-based implementation.
    """
    dist = np.full(n, math.inf)
    dist[source] = 0.0
    heap: list[tuple[float, int]] = [(0.0, source)]
    while heap:
        d, u = heappop(heap)
        if d > dist[u]:
            continue
        s, e = int(indptr[u]), int(indptr[u + 1])
        ids = indices[s:e]
        nd = d + weights[s:e]
        improved = nd < dist[ids]
        if improved.any():
            for v, ndv in zip(ids[improved].tolist(), nd[improved].tolist()):
                dist[v] = ndv
                heappush(heap, (ndv, v))
    return dist


def splub_sweep(
    sp_i: np.ndarray,
    sp_j: np.ndarray,
    e_i: np.ndarray,
    e_j: np.ndarray,
    e_w: np.ndarray,
) -> float:
    """SPLUB TLB sweep: best ``w(k,l) − min-detour`` over the known edges.

    Returns ``-inf`` for an empty edge set; unreachable detours contribute
    ``-inf`` per edge and never win the max.
    """
    if e_w.size == 0:
        return -math.inf
    detour = np.minimum(sp_i[e_i] + sp_j[e_j], sp_i[e_j] + sp_j[e_i])
    return float((e_w - detour).max())


def laesa_sweep(
    matrix: np.ndarray,
    ii: np.ndarray,
    jj: np.ndarray,
) -> Tuple[np.ndarray, np.ndarray]:
    """Landmark-matrix reduction: raw ``(lowers, uppers)`` per pair.

    ``lowers[b] = max_l |D[l, ii[b]] − D[l, jj[b]]|`` and
    ``uppers[b] = min_l D[l, ii[b]] + D[l, jj[b]]`` — uncapped; callers
    clamp against their ``max_distance``.
    """
    cols_i = matrix[:, ii]
    cols_j = matrix[:, jj]
    lowers = np.max(np.abs(cols_i - cols_j), axis=0)
    uppers = np.min(cols_i + cols_j, axis=0)
    return lowers, uppers
