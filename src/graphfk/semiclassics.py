"""Semiclassical trace sweeps and Dyson strata.

The quantum partition function tr(e^{-beta hbar H_{Phi, V/hbar}}) is
squeezed, in the scalar nonmagnetic case, between

    sum_x e^{-deg_m(x) beta hbar} e^{-beta w(x)}   (lower)
    sum_x e^{-beta w(x)}                           (upper),

so it converges to the classical partition sum as hbar -> 0+.  For
magnetic and covariant operators only the upper bound is available; the
lower column is still reported (with the fiberwise classical terms
tr_x e^{-beta V(x)} in place of e^{-beta w(x)}) but never asserted.

The lower bound is the no-jump term Z_0 of the Dyson series of the
trace.  ``jump_terms`` gives the strata Z_k, k >= 2, per vertex,
exactly: each closed walk of k jumps contributes its hops times t^k
times a divided difference of exp over the k + 1 values deg_m + lam it
holds at (Hermite-Genocchi).  Every closed k-walk is joined from a path
of ceil(k/2) jumps and the reverse of a path of floor(k/2) jumps with
the same ends.  Where the values within floor(k/2) jumps of a start
spread little, t (max - min) at most ``_DD_SERIES`` (16), the divided
difference is a series of complete homogeneous polynomials about the
smallest value, and that of a joined walk is the Cauchy product of its
halves': so the start's walks are weighed as sums of half-walks per
pair of ends, not one by one.  Where they spread widely, each walk is
weighed on its own by scaling and squaring the bidiagonal Opitz matrix
(``_divided_exp``).  Either way the closed walks, times nu^k, are
counted against the caller's budget before any is weighed.  In the
scalar case every term of the
series is nonnegative, so Z_0 + Z_2 <= trace is a sharper lower bound,
and the sweep asserts it.  The Monte Carlo trace estimator adds the
higher strata; the sweep does not.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .bundles import Connection, Potential
from .errors import GraphFKError, NumericalFailure
from .graphs import WeightedGraph, degrees
from .operators import Problem, _coupling, assemble, resolve, symmetrize
from .spectral import finite, hermitian_eigenvalues, partition_function
# not called here; kept because perfbench/tracer.py rebinds it
from .spectral import eigendecompose  # noqa: F401


@dataclass
class SweepRow:
    hbar: float
    trace: float
    lower: float
    upper: float
    gap: float


@dataclass
class SweepResult:
    rows: list = field(default_factory=list)
    classical_value: float = 0.0
    converged: bool = False


def _classical_terms(V: Potential, beta: float) -> np.ndarray:
    """Per-vertex terms tr_x e^{-beta V(x)} (scalar: e^{-beta w(x)});
    NumericalFailure where their sum overflows a float."""
    with np.errstate(over="ignore"):  # refused by ``finite``
        terms = np.exp(-beta * np.linalg.eigvalsh(V.values)).sum(axis=1)
        finite(terms.sum(), f"the classical sum at beta = {beta:.6g}")
    return terms


def _spectra(problem: Problem, schedule):
    """The ascending eigenvalues of H_{Phi, V/hbar}, symmetrized, for each
    hbar of ``schedule``.

    The hops do not depend on hbar, so the free operator is assembled and
    symmetrized once; each hbar then writes the diagonal blocks
    0.5 (B + B^H), B = deg_m + V/hbar, in place, as ``symmetrize`` of the
    assembled H_{Phi, V/hbar} holds them (its scale ratio is exactly 1
    there), and solves for the eigenvalues.  V / hbar is taken in the
    arithmetic of V's values.
    """
    g, nu = problem.graph, problem.rank
    S = symmetrize(assemble(g, problem.connection,
                            Potential(nu, np.zeros((g.n, nu, nu)))))
    # complex as soon as the hops or V are, as the assembled matrix is
    S = S.astype(np.result_type(S, problem.potential.values), copy=False)
    blocks = S.reshape(g.n, nu, g.n, nu)
    deg = degrees(g).deg_m[:, None, None] * np.eye(nu)
    diag = np.arange(g.n)
    for hbar in schedule:
        B = deg + problem.potential.scaled(hbar).values
        blocks[diag, :, diag, :] = 0.5 * (B + B.conj().swapaxes(1, 2))
        yield hermitian_eigenvalues(S)


def _eigenbasis(problem: Problem, hbar: float):
    """(lam, W): the eigenvalues of V(x)/hbar = Q_x diag(lam_x) Q_x^H,
    shape (n, nu), and per arc x -> y the factor W = Q_x^H Phi_{y,x} Q_y,
    shape (2E, nu, nu), that a jump along it puts into a Dyson weight
    taken in the eigenbases.  V / hbar is taken in the arithmetic of V's
    values; at rank 1 lam is that value and W is Phi (``eigh`` would
    round a magnetic rank 1 differently)."""
    nu = problem.rank
    values = problem.potential.scaled(hbar).values
    back = _coupling(problem)  # Phi_{y,x} on the arc x -> y
    if nu == 1:
        return values[:, :, 0].real, back
    lam, Q = np.linalg.eigh(values)
    return lam, Q[problem.src].conj().swapaxes(1, 2) @ back @ Q[problem.dst]


# The node spread, t (max - min) of deg_m + lam over the vertices within
# floor(k/2) jumps of a start, up to which ``jump_terms`` sums its walks'
# divided differences as a series about their smallest node, in a number
# of terms that grows as the spread (72 at 16); past about 700 the
# series' powers overflow.  A wider start's walks scale and square
# (``_divided_exp``), at a cost that grows as the logarithm of the spread
_DD_SERIES = 16.0
# The Taylor terms beyond the order k, and the size to which
# ``_divided_exp`` scales the nodes before it sums them: each entry's tail
# is then below (1/4)^12 / 12! = 1.3e-16 of it
_DD_TERMS, _DD_NORM = 11, 0.25
# Divided differences per piece of the pair route, and h-paths per block
# of starts of the series route at rank 1 (nu^2 times fewer at rank nu):
# pieces and blocks bound the memory of ``jump_terms`` whatever the number
# of walks
_PIECE = 2048
_BLOCK = 16384


def _divided_exp(z):
    """e[z_0, ..., z_k], the divided difference of exp, per column of z,
    shape (k + 1, B) -> (B,), by scaling and squaring.

    It is entry (0, k) of the exponential of the Opitz matrix Z = diag(z)
    + N, N the ones above the diagonal (Opitz, ZAMM 44 (1964); McCurdy,
    Ng & Parlett, Math. Comp. 43 (1984) 501).  Entry (i, j) of e^Z is
    e[z_i, ..., z_j] > 0, by Hermite-Genocchi.  Each column is shifted by
    its largest node top: the nodes of Z - top are at most 0, so no entry
    of e^{u (Z - top)}, u >= 0, exceeds 1, and none overflows, whatever
    the spread.

    With mu the midpoint of the nodes, the Taylor series of e^B, B = 2^-s
    (Z - mu), is summed by Horner's rule, s the least with the nodes of B
    at most ``_DD_NORM`` in size; every entry's terms are bounded by
    those of e^{|b|}, so they cancel at most by a factor e^{2 |b|}.
    Times e^{-2^-s (top - mu)}, e^B becomes e^{2^-s (Z - top)}, and s
    squarings bring that back to e^{Z - top}.  The upper triangle of
    every power is nonnegative, so they add only products of nonnegative
    numbers and nothing cancels there (the last forms entry (0, k)
    alone); each doubles the relative rounding, which ends near 2^s eps,
    below 4 spread eps.  One s serves the whole batch: that of its widest
    column.  The upper triangle is kept entry-major, its diagonals one
    after the other, flat, shape ((k+1)(k+2)/2, B), so every operation
    runs over the batch.
    """
    top, bottom = z.max(axis=0), z.min(axis=0)
    spread = float((top - bottom).max(initial=0.0))
    n = z.shape[0]
    mid = 0.5 * (top + bottom)
    half = 0.5 * spread
    s = math.ceil(math.log2(half / _DD_NORM)) if half > _DD_NORM else 0
    b = (z - mid) * 2.0 ** -s
    # diagonal l of the triangle holds the entries (i, i + l), i < n - l
    off = np.r_[0, np.cumsum(np.arange(n, 0, -1))]
    diag = [slice(off[l], off[l + 1]) for l in range(n)]
    rows = np.concatenate([b[:n - l] for l in range(n)])
    X = np.empty((off[-1], z.shape[1]))
    X[:n], X[n:] = 1.0, 0.0
    tmp = np.empty_like(X)
    # Horner's rule on B1 = diag(b) + N, without divisions: after step m,
    # X holds M!/(m - 1)! times the partial result, M the number of terms
    c = 1.0
    for m in range(_DD_TERMS + n - 1, 0, -1):
        c *= m
        np.multiply(rows, X, out=tmp)
        for l in range(1, n):
            tmp[diag[l]] += X[off[l - 1] + 1:off[l]]
        tmp[:n] += c
        X, tmp = tmp, X
    # e^B = D e^{B1} D^-1, D = diag(2^-s i): diagonal l scales by 2^-s l;
    # the shift from mid to top scales it all
    X *= np.exp((mid - top) * 2.0 ** -s) / c
    for l in range(1, n):
        X[diag[l]] *= 2.0 ** (-s * l)
    for _ in range(s - 1):
        for l in range(n):
            out = tmp[diag[l]]
            np.multiply(X[:n - l], X[diag[l]], out=out)
            for j in range(1, l + 1):
                out += (X[off[j]:off[j] + n - l]
                        * X[off[l - j] + j:off[l - j + 1]])
        X, tmp = tmp, X
    if s:
        # the last squaring needs entry (0, k) only: sum_j (0, j) (j, k)
        corner = X[off[n - 1]] * X[0]
        for j in range(1, n):
            corner += X[off[j]] * X[off[n - 1 - j] + j]
        return np.exp(top) * corner
    return np.exp(top) * X[-1]


def _walk_terms(arcs, seq, factors, t):
    """The weight of each closed walk along ``arcs``, shape (k, B), in the
    Dyson term of e^{-tH} with k hops, real part.

    The walk x_0 -> x_1 -> ... -> x_0 takes, with (a, W, hop) =
    ``factors`` (``jump_terms``), its hops times the sum over the index
    sequences i_0 ... i_{k-1}, the columns of ``seq``, shape (k, nu^k), of
    prod_j W_j[i_j, i_{j+1}] (i_k = i_0) times the integral over the
    holds s_0 + ... + s_k = t of e^{-sum_j s_j a_j}, the last hold at x_0
    again: t^k e[-t a_0, ..., -t a_{k-1}, -t a_0] by Hermite-Genocchi.
    The index sequences run along the batch, B nu^k divided differences
    in one ``_divided_exp`` call.
    """
    a, W, hop = factors
    k, nu = seq.shape[0], a.shape[1]
    # W_j[i_j, i_{j+1}] and a at the start of hop j, as flat indices
    i, j = seq[:, None], np.roll(seq, -1, axis=0)[:, None]
    F = np.take(W, arcs[:, :, None] * nu * nu + i * nu + j).prod(axis=0)
    z = np.empty((k + 1,) + F.shape)
    z[:k] = np.take(a, arcs[:, :, None] * nu + i)
    z[:k] *= -t
    z[k] = z[0]
    dd = _divided_exp(z.reshape(k + 1, -1)).reshape(F.shape)
    return t ** k * hop[arcs].prod(axis=0) * np.einsum("bs,bs->b",
                                                         F.real, dd)


def _fan(csr, ends):
    """(r, e): the arcs e out of each ends[r], r ascending, the arcs out
    of one end in arc order; ``csr`` = (order, out, ptr) lists the arcs
    out of y as order[ptr[y]:ptr[y] + out[y]]."""
    order, out, ptr = csr
    fan = out[ends]
    r = np.repeat(np.arange(ends.size), fan)
    return r, order[np.arange(r.size) + (ptr[ends] - np.cumsum(fan) + fan)[r]]


def _h_paths(problem: Problem, csr, starts, h: int):
    """The h-paths x -> ... -> z (z = x too) from each x of ``starts``, as
    their h arcs, shape (h, P), and their keys x n + z, both sorted by
    key.  Each path of h - 1 arcs is extended by the arcs out of its end,
    in arc order."""
    arcs, ends = np.empty((0, starts.size), dtype=np.int64), starts
    for _ in range(h):
        r, e = _fan(csr, ends)
        arcs = np.concatenate([arcs[:, r], e[None]])
        ends = problem.dst[e]
    key = problem.src[arcs[0]] * problem.graph.n + ends
    by = np.argsort(key, kind="stable")
    return arcs[:, by], key[by]


def _levels(problem: Problem, csr, starts, k: int):
    """The keys of the series route from ``starts``: per jump m = 1 ...
    ceil(k/2), the keys s n + y of the m-paths from starts[s] to y,
    sorted and each once, and per pair of a key r of jump m - 1 and an
    arc e out of its end, r ascending, the index q of the key it reaches.
    For odd k the last jump keeps and indexes the keys of the jump
    before: no other closes a walk."""
    n, j = problem.graph.n, k // 2
    keys, levels = np.arange(starts.size) * n + starts, []
    for m in range((k + 1) // 2):
        r, e = _fan(csr, keys % n)
        new = keys[r] - keys[r] % n + problem.dst[e]
        if m < j:
            # np.unique, without the numpy.ma it imports
            by = np.argsort(new, kind="stable")
            fresh = np.diff(new[by], prepend=-1) != 0
            keys, q = new[by][fresh], np.empty_like(by)
            q[by] = np.cumsum(fresh) - 1
        else:
            # a key past the last of the jump before reads -1
            q = np.searchsorted(keys, new)
            hit = np.append(keys, -1)[q] == new
            r, e, q = r[hit], e[hit], q[hit]
        levels.append((keys, r, e, q))
    return levels


def _series_length(spread):
    """The terms j = 0 ... M - 1 of sum_j c_j h_j(b), the least M with
    spread^M / M! < 2^-56: the term j is at most spread^j / j! of the
    sum for nodes b in [0, spread]."""
    m, term = 1, spread
    while term >= 2.0 ** -56:
        m += 1
        term *= spread / m
    return m


def _node(U, b):
    """U(u) diag(1 / (1 - b_c u)) in place, U(u) = sum_i U[i] u^i stored
    as U, shape (M, S, nu, keys, nu), for b broadcast to (S, nu, keys,
    nu): each i in turn takes U_i + b U_{i-1}."""
    tmp = np.empty_like(U[0])
    for i in range(1, U.shape[0]):
        np.multiply(b, U[i - 1], out=tmp)
        U[i] += tmp
    return U


def _series_block(problem: Problem, levels, xs, k, t, hold, top, C, HW):
    """Z_k at each start of ``xs`` by the series route of ``jump_terms``,
    from the ``_levels`` of ``xs``, with C = [c_{i+l}], shape (M, M).

    The table of a jump holds, per start s, key x -> y of the jump and
    fibre indices a (at x) and c (at y), the coefficients of u^0 ...
    u^{M-1} in the half-walk sum from x to y, shape (M, S, nu, keys, nu),
    each start's keys padded to the block's widest.  A jump multiplies
    the table of the jump before by the hop W of each arc, per start one
    dense matrix over the keys (``_jump``), and then takes the node at
    each key's end (``_node``).  The Hankel matrix C acts on the
    coefficients and a jump on the keys, so R = C Hf is C times the table
    of jump j - 1, which has fewer keys, taken through jump j."""
    n, nu, S, M = problem.graph.n, problem.rank, xs.size, C.shape[0]
    # jump 0: the key x -> x, the identity, then the node at x; b = t
    # (top_x - a) >= 0
    T = np.zeros((M, S, nu, 1, nu))
    T[0, :, range(nu), 0, range(nu)] = 1.0
    T = _node(T, (t * (top[xs, None] - hold[xs]))[:, None, None])
    off = np.arange(S + 1)
    for m, (keys, r, e, q) in enumerate(levels, 1):
        before, off = off, np.searchsorted(keys, np.arange(S + 1) * n)
        width = int(np.diff(off).max(initial=0))
        if not width:
            return np.zeros(S)
        s = keys[q] // n
        A = np.zeros((S, T.shape[3], nu, width, nu), dtype=HW.dtype)
        A[s, r - before[s], :, q - off[s], :] = HW[e]
        if m == k // 2:
            # C T rides along with T through the jump
            X = np.empty((2 * M,) + T.shape[1:], dtype=T.dtype)
            X[:M] = T
            _hankel(C, T, out=X[M:])
            U = _jump(X, A)
            U, R = U[:M], U[M:]
        else:
            U = _jump(T, A)
        # per padded key: b = t (top_x - a_y), x its start and y its end
        s = keys // n
        slot = (s, np.arange(keys.size) - off[s])
        b = np.zeros((S, 1, width, nu))
        b[slot[0], 0, slot[1]] = t * (top[xs[s], None] - hold[keys % n])
        T = _node(U, b)
    # Z_k(x) = t^k e^{-t top_x} sum_z (m_x / m_z)
    #          sum_{i,l} c_{i+l} Re tr(HP_xz(i) Hf_xz(l)^H)
    P, R = T.reshape(M, -1), R.reshape(M, -1)
    walk = np.einsum("ix,ix->x", P.real, R.real)
    if np.iscomplexobj(P):
        walk += np.einsum("ix,ix->x", P.imag, R.imag)
    measure = problem.graph.measure
    ratio = np.zeros((S, width))
    ratio[slot] = measure[xs[s]] / measure[keys % n]
    walk = walk.reshape(S, nu, width, nu).sum(axis=(1, 3)) * ratio
    return t ** k * np.exp(-t * top[xs]) * walk.sum(axis=1)


def _jump(T, A):
    """The table T, shape (M, S, nu, keys, nu), times A, shape (S, keys
    nu, keys' nu): per start and fibre index a, the M x (keys nu) matrix
    of T times A, written in the table's layout."""
    M, S, nu = T.shape[:3]
    dtype = np.result_type(T, A)
    if T.shape[3] * nu == 1:
        # one key of rank 1 per start: an outer product
        width = A.shape[3]
        U = np.repeat(T.reshape(M, S).astype(dtype, copy=False), width,
                      axis=1)
        U *= A.reshape(-1)
        return U.reshape(M, S, 1, width, 1)
    U = np.empty((M, S, nu, A.shape[3], nu), dtype=dtype)
    np.matmul(T.reshape(M, S, nu, -1).transpose(1, 2, 0, 3),
              A.reshape(S, 1, T.shape[3] * nu, -1),
              out=U.reshape(M, S, nu, -1).transpose(1, 2, 0, 3))
    return U


def _hankel(C, T, out):
    """C applied to the coefficients of the table T, into ``out``, in
    products of at most 2^18 multiply-adds: a BLAS that would share a
    larger one among threads can wait on a busy core far longer than the
    product takes."""
    F, R = T.reshape(T.shape[0], -1), out.reshape(T.shape[0], -1)
    step = max(1, 2 ** 18 // C.size)
    for c0 in range(0, F.shape[1], step):
        np.matmul(C, F[:, c0:c0 + step], out=R[:, c0:c0 + step])


def _pair_terms(problem: Problem, arcs, back, lo, hi, k, t, factors):
    """Z_k per vertex by the pair route of ``jump_terms``: the h-paths
    ``arcs`` and the j-paths ``back``, each h-path p with its partners
    lo[p] ... hi[p] - 1."""
    g, nu, src = problem.graph, problem.rank, problem.src
    h, j = (k + 1) // 2, k // 2
    if h == j:
        lo = np.arange(arcs.shape[1])  # the pairs p <= q
    seq = np.indices((nu,) * k).reshape(k, -1)
    # the pairs in order of p, then q
    after = hi - lo
    end = np.cumsum(after)
    total = int(end[-1]) if end.size else 0
    out = np.zeros(g.n)
    step = max(1, _PIECE // nu ** k)
    for first in range(0, total, step):
        idx = np.arange(first, min(first + step, total))
        p = np.searchsorted(end, idx, side="right")
        q = lo[p] + idx - (end[p] - after[p])
        # p's arcs, then q's reversed, last first
        weight = _walk_terms(np.concatenate([arcs[:, p], back[::-1, q] ^ 1]),
                             seq, factors, t)
        if h == j:
            weight *= np.where(p < q, 2.0, 1.0)
        out += np.bincount(src[arcs[0, p]], weights=weight, minlength=g.n)
    return out


def _ball(values, csr, dst, radius, reduce):
    """``reduce`` (np.maximum or np.minimum) of ``values`` over the
    vertices within ``radius`` jumps of each vertex."""
    order, out, ptr = csr
    has = out > 0
    for _ in range(radius):
        values = values.copy()
        values[has] = reduce(values[has],
                             reduce.reduceat(values[dst[order]], ptr[has]))
    return values


def jump_terms(problem: Problem, t: float, hbar: float, k: int,
               budget=None):
    """Per vertex x, the k-jump term Z_k(x) of tr e^{-t H_{Phi, V/hbar}},
    k >= 2, or None when its closed k-walks times nu^k exceed ``budget``.

    H = D - K splits into its diagonal blocks D_x = deg_m(x) + V(x)/hbar
    and the hops K_xy = b(x,y)/m_x Phi_{y,x}.  Z_k(x) is the trace at x of
    the term of the Dyson series of e^{-tH} with k factors K: the sum of
    the weights of the closed k-walks from x.  A jump along the arc x ->
    y puts hop = b(x,y)/m_x and W (``_eigenbasis``) into the weight of a
    walk, and a hold at x the values a = deg_m(x) + lam_x, with a divided
    difference of exp over the k + 1 values -t a it holds at, t^k e[z_0,
    ..., z_k] (``_walk_terms``).  Z_0(x) = sum_a e^{-t a_xa}, Z_1 = 0
    without self-loops, and in the scalar case every term is nonnegative.

    A closed k-walk from x is an h-path p from x to z, h = ceil(k/2),
    followed by the reverse of a j-path q from x to z, j = floor(k/2),
    and it stays within j jumps of x.  The route is picked per start x by
    the spread t (max - min) of a over those vertices and every fibre
    eigenvalue:

    - up to ``_DD_SERIES``, the series route.  With s_x = -t max a and b
      = -t a - s_x >= 0 there, e[z_0, ..., z_k] = e^{s_x} sum_m c_m
      h_m(b_0, ..., b_k), c_m = 1/(m + k)! and h_m the complete
      homogeneous polynomial, and h_m of a joined walk is sum_{i+l=m}
      h_i(p's nodes) h_l(q's nodes but z), a Cauchy product.  So Z_k(x)
      = t^k e^{s_x} sum_z sum_{i,l} c_{i+l} Re tr(HP_xz(i) HQ_xz(l)):
      HP_xz sums over the h-paths x -> z their hops, their products of W
      and h_i over their nodes, z included (a nu x nu matrix per i), and
      HQ_xz = (m_x / m_z) Hf_xz^H, Hf the same sum over the j-paths with
      z left out, since a reversed path's W product is the adjoint and
      its hops differ by m_x / m_z.  The half-walk sums are taken jump by
      jump over the keys x n + y (``_levels``, ``_series_block``), in
      blocks of starts of about ``_BLOCK`` / nu^2 h-paths, and the
      series keeps ``_series_length`` terms of the block's widest start.
      Every term is nonnegative in the scalar case.
    - wider, the pair route (``_pair_terms``): each pair (p, q) with the
      same key is weighed on its own (``_walk_terms``) by scaling and
      squaring, in pieces of about ``_PIECE`` divided differences.  For
      even k, (p, q) and (q, p) are each other's reverse and weigh
      complex conjugates, so the pairs p <= q are weighed, those with p
      < q twice, real part; for odd k every pair is.  Past a spread of
      about 700 the series would overflow.

    The budget meets the closed walks times nu^k, and they are counted
    per key, on both routes, before any is weighed; for even k every
    h-path makes a walk with itself, so their count 1^T A^h is checked
    against it before any key is listed, one pass over the arcs per
    jump.  Where no walk closes, as Z_3 on a graph without a triangle,
    the result is 0 with nothing weighed.
    """
    g, nu, src, dst = problem.graph, problem.rank, problem.src, problem.dst
    h, j = (k + 1) // 2, k // 2
    per_walk = nu ** k
    # the h-paths from each vertex, 1^T A^h
    paths = np.ones(g.n)
    for _ in range(h):
        paths = np.bincount(src, weights=paths[dst], minlength=g.n)
    if budget is not None and h == j and paths.sum() * per_walk > budget:
        return None
    fan = np.bincount(src, minlength=g.n)
    csr = (np.argsort(src, kind="stable"), fan, np.cumsum(fan) - fan)
    lam, W = _eigenbasis(problem, hbar)
    hold = degrees(g).deg_m[:, None] + lam
    top = _ball(hold.max(axis=1), csr, dst, j, np.maximum)
    spread = t * (top - _ball(hold.min(axis=1), csr, dst, j, np.minimum))
    wide = spread > _DD_SERIES
    # the series starts in blocks of about ``_BLOCK`` / nu^2 h-paths, in
    # order of their h-paths, so that each block pads its keys little; a
    # start counts at least 16, so that starts with few (Z_2) do not
    # make a block of many keys: on the 64 x 64 box Z_2 took 16-21 ms in
    # one block of 4096 starts, 5-8 ms in four (2-core machine)
    series = np.flatnonzero(~wide & (fan > 0))
    series = series[np.argsort(paths[series], kind="stable")]
    cum = np.cumsum(np.maximum(paths[series], 16.0))
    size = max(1, _BLOCK // nu ** 2)
    bounds = np.r_[0, np.searchsorted(
        cum, np.arange(size, cum[-1:].sum(), size), side="right"),
                   series.size]
    blocks = [series[b0:b1] for b0, b1 in zip(bounds[:-1], bounds[1:])
              if b1 > b0]
    levels = [_levels(problem, csr, xs, k) for xs in blocks]
    # the closed walks per key of the last jump: its h-paths times the
    # j-paths with its key (for odd k the last jump indexes the keys of
    # jump j)
    walks = 0.0
    for xs, block in zip(blocks, levels):
        count, counts = np.ones(xs.size), []
        for keys, r, _e, q in block:
            count = np.bincount(q, weights=count[r], minlength=keys.size)
            counts.append(count)
        walks += float(counts[-1] @ counts[j - 1])
    pairs = np.flatnonzero(wide)
    if pairs.size:
        arcs, key = _h_paths(problem, csr, pairs, h)
        back, back_key = (arcs, key) if h == j else _h_paths(
            problem, csr, pairs, j)
        # the partners of p: the j-paths lo[p] ... hi[p] - 1, with its key
        lo = np.searchsorted(back_key, key)
        hi = np.searchsorted(back_key, key, side="right")
        walks += float((hi - lo).sum())
    if budget is not None and walks * per_walk > budget:
        return None
    out = np.zeros(g.n)
    if not walks:
        return out
    hop = problem.w / g.measure[src]
    HW = hop[:, None, None] * W
    for xs, block in zip(blocks, levels):
        M = _series_length(float(spread[xs].max()))
        # c_{i+l} = 1/(i + l + k)!
        inverse = 1.0 / np.cumprod(np.r_[1.0, np.arange(1.0, k + 2 * M)])
        C = inverse[k + np.add.outer(np.arange(M), np.arange(M))]
        out[xs] = _series_block(problem, block, xs, k, t, hold, top, C, HW)
    if pairs.size:
        out += _pair_terms(problem, arcs, back, lo, hi, k, t,
                           (hold[src], W, hop))
    return out


def sweep(g: WeightedGraph, c: Connection, V, beta: float,
          hbar_schedule) -> SweepResult:
    """Semiclassical sweep over a strictly decreasing hbar schedule.

    ``c`` and ``V`` are resolved as by ``operators.resolve``, and the mode
    follows from them.  Each row carries (hbar, trace, lower, upper, gap =
    upper - trace).  The scalar sandwich lower <= trace <= upper is
    asserted when the problem is scalar, sharpened below to lower + Z_2
    <= trace with the two-jump term of ``jump_terms``; only the upper
    bound is asserted otherwise.  The problem is resolved, and the free
    operator assembled and symmetrized, once for the whole schedule
    (``_spectra``).  A bound counts as violated only by more than the
    rounding of the trace, 16 ulps of it times t ||S||, t = beta hbar and
    ||S|| the largest |eigenvalue|, and at least by 1e-9; a violation
    raises NumericalFailure.
    """
    if not beta > 0:  # NaN fails it too
        raise GraphFKError("beta must be positive")
    schedule = tuple(float(h) for h in hbar_schedule)
    if not schedule or any(not h > 0 for h in schedule):
        raise GraphFKError("hbar schedule entries must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise GraphFKError("hbar schedule must be strictly decreasing")
    problem = resolve(g, c, V)
    deg_m = degrees(g).deg_m
    terms = _classical_terms(problem.potential, beta)
    classical = float(terms.sum())
    result = SweepResult(classical_value=classical)
    for hbar, lam in zip(schedule, _spectra(problem, schedule)):
        trace = partition_function(lam, beta * hbar)
        # eigvalsh is backward stable: each eigenvalue lies within a small
        # multiple of eps ||S|| of the exact one, so the trace within that
        # multiple of eps t ||S|| relatively, ||S|| the largest |lam|.  16
        # ulps of the trace per unit of t ||S|| allow for the multiple and
        # for the rounding of the exponentials and the sums
        slack = max(1e-9, 16 * np.spacing(trace) * beta * hbar * abs(lam).max())
        lower = float((np.exp(-deg_m * beta * hbar) * terms).sum())
        gap = classical - trace
        if trace > classical + slack:
            raise NumericalFailure(
                f"upper bound violated at hbar={hbar}: {trace} > {classical}")
        if problem.mode == "scalar":
            two_jump = float(jump_terms(problem, beta * hbar, hbar, 2).sum())
            if lower + two_jump > trace + slack:
                raise NumericalFailure(
                    f"sandwich lower bound violated at hbar={hbar}: "
                    f"{lower} + {two_jump} > {trace}")
        result.rows.append(SweepRow(hbar, trace, lower, classical, gap))
    final_gap = result.rows[-1].gap
    result.converged = final_gap < max(1e-6, 1e-3 * classical)
    return result

