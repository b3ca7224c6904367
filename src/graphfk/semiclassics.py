"""Semiclassical trace sweeps, a certified trace bracket and Dyson strata.

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
the same ends, and its divided difference factors over the two halves:
so each start's walks are weighed as sums of half-walks per pair of
ends, not one by one, in one kind of table whatever the spread.  Where
the values within floor(k/2) jumps of a start spread little, t (max -
min) at most ``_DD_SERIES`` (32), the divided difference is a series of
complete homogeneous polynomials about the smallest value, and that of
a joined walk is the Cauchy product of its halves'; where they spread
more, it is a contour integral of e^s times a product of 1 / (s - z)
over the walk's values, taken by the trapezoid rule on a Talbot
contour, which nothing overflows at any spread.  The closed walks,
times nu^k, are counted against the caller's budget before any is
weighed.  In the scalar case every term of the series is nonnegative,
so Z_0 + Z_2 <= trace is a sharper lower bound, and the sweep asserts
it.  The Monte Carlo trace estimator adds the higher strata; the sweep
does not.

The sweep's trace itself needs no eigensolve where t = beta hbar is
small.  As hbar -> 0 the diagonal entry of e^{-tS} at x, S the
symmetrized operator, is fixed by a small ball about x (the entries of
f(S) decay with the distance: Benzi & Razouk, ETNA 28 (2007) 16), and
``trace_bracket`` certifies it from m Lanczos steps run from every
e_{x,a} at once, each start on the ball its steps reach: the Gauss rule
lies below it and the Gauss-Radau rule, with a node below the spectrum,
above.  ``sweep`` takes a row's trace from the bracket, its midpoint,
where the bracket closes to ``BRACKET_WIDTH`` of the trace within the
predicted cost of the dense solve; the balls serve the whole schedule.
Every other row solves densely, for the eigenvalues of the assembled
operator, which no row assembles unless one of them needs it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .bundles import Connection, Potential
from .errors import GraphFKError, NumericalFailure
from .graphs import WeightedGraph, degrees
from .operators import (Problem, _coupling, assemble, check_dimension,
                        resolve, symmetrize)
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
    # the bracket's Lanczos steps and its width relative to the trace; 0
    # and 0.0 for a dense row
    steps: int = 0
    width: float = 0.0


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


def _spectra(problem: Problem):
    """A function hbar -> the ascending eigenvalues of H_{Phi, V/hbar},
    symmetrized.

    The hops do not depend on hbar, so the free operator is assembled and
    symmetrized once, at the first call; each hbar then writes the diagonal
    blocks 0.5 (B + B^H), B = deg_m + V/hbar, in place, as ``symmetrize``
    of the assembled H_{Phi, V/hbar} holds them (its scale ratio is
    exactly 1 there), and solves for the eigenvalues.  V / hbar is taken in
    the arithmetic of V's values.
    """
    g, nu = problem.graph, problem.rank
    deg = degrees(g).deg_m[:, None, None] * np.eye(nu)
    diag = np.arange(g.n)
    S = None

    def solve(hbar):
        nonlocal S
        if S is None:
            S = symmetrize(assemble(g, problem.connection,
                                    Potential(nu, np.zeros((g.n, nu, nu)))))
            # complex as soon as the hops or V are, as the assembled
            # matrix is
            S = S.astype(np.result_type(S, problem.potential.values),
                         copy=False)
        B = deg + problem.potential.scaled(hbar).values
        S.reshape(g.n, nu, g.n, nu)[diag, :, diag, :] = 0.5 * (
            B + B.conj().swapaxes(1, 2))
        return hermitian_eigenvalues(S)

    return solve


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
# of terms that grows as the spread (72 at 16, 118 at 32); it held Z_2
# of two vertices to 9e-16 at spreads 30 and 48, but past about 50 its
# powers overflow where its factorials underflow (NaN at 64).  A wider
# start's walks take the contour (``_talbot``), which holds a walk only
# to about 3e-14 (BENCH_27.json)
_DD_SERIES = 32.0
# Pieces of ``_has_triangle``, and h-paths per block of starts of
# ``jump_terms`` at rank 1 (nu^2 times fewer at rank nu): the blocks
# bound the memory of ``jump_terms`` whatever the number of walks
_PIECE = 2048
_BLOCK = 16384


def _talbot(N, scale):
    """The nodes s_j and weights w_j of the trapezoid rule, (1 / 2 pi i)
    int e^s f(s) ds ~ sum_j w_j f(s_j), on the Talbot contour s(theta) =
    scale (-0.6122 + 0.5017 theta cot(0.6407 theta) + 0.2645 i theta) at
    the midpoints theta_j of N equal pieces of (-pi, pi), w_j = e^{s_j}
    s'(theta_j) / (i N); with scale = N it is the contour of Weideman &
    Trefethen (Math. Comp. 76 (2007) 1341).  The nodes come in conjugate
    pairs, s_{N-1-j} = conj(s_j).

    They are taken in long double where the platform has it: a weight
    rounds off as e^{s_j} does, by the ulps of s_j, and a walk whose
    values all lie 10 above the start's lowest was held to 7e-12 so,
    5e-11 in double (BENCH_27.json)."""
    f = np.longdouble
    theta = np.pi * np.arange(1 - N, N, 2, dtype=f) / N
    c = f(0.6407) * theta
    s = scale * (f(-0.6122) + f(0.5017) * theta / np.tan(c)
                 + 1j * f(0.2645) * theta)
    ds = scale * (f(0.5017) * (1 / np.tan(c) - c / np.sin(c) ** 2)
                  + 1j * f(0.2645))
    return s.astype(complex), (np.exp(s) * ds / (1j * N)).astype(complex)


# The contour crosses the real axis at 0.171 scale, where e^s is largest,
# so the rule rounds off as e^{0.171 scale} times eps: relative to a walk
# whose nodes all lie at or below -c, whose size is about e^{-c}, as
# e^{0.171 scale + c}.  At scale 28 the crossing is 4.8 and e^s falls to
# 4e-16 at the last node; 48 nodes then hold e[z_0, ..., z_k], z in
# [-spread, 0] with 0 among them, within 2.7e-14 over spreads 0.5-5000
# and k = 2 ... 8, and a walk whose nodes lie at or below -10 within
# 7e-12.  Weideman & Trefethen's scale 48 held these to 1.4e-13 and 2e-10
# (BENCH_27.json)
_NODES, _WEIGHTS = _talbot(48, 28)


def _csr(src, n):
    """(order, out, ptr) of the arcs from ``src``: the arcs out of y are
    order[ptr[y]:ptr[y] + out[y]], in arc order."""
    out = np.bincount(src, minlength=n)
    return np.argsort(src, kind="stable"), out, np.cumsum(out) - out


def _fan(csr, ends):
    """(r, e): the arcs e out of each ends[r], r ascending, the arcs out
    of one end in arc order; ``csr`` = (order, out, ptr) lists the arcs
    out of y as order[ptr[y]:ptr[y] + out[y]]."""
    order, out, ptr = csr
    fan = out[ends]
    r = np.repeat(np.arange(ends.size), fan)
    return r, order[np.arange(r.size) + (ptr[ends] - np.cumsum(fan) + fan)[r]]


def _levels(problem: Problem, csr, starts, k: int):
    """The keys of the half-walk tables from ``starts``: per jump m = 1 ...
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


def _pole(U, b):
    """U(s) diag(1 / (s - b_c)) in place at each node s = s_j of the
    contour, U(s_j) stored as U[j], shape (N, S, nu, keys, nu), for b
    broadcast to (S, nu, keys, nu)."""
    U /= _NODES[:, None, None, None, None] - b
    return U


def _mirror(T, out):
    """conj(w_j) T(s_{N-1-j}) = conj(w_j) T(conj(s_j)) into ``out``: the
    adjoint of a table at s_j, node factors unconjugated, is conj of this
    table at the mirror node, so that Re sum_j w_j tr(P(s_j) Hf(s_j)^H),
    Hf's nodes taken at s_j, is Re sum_j tr(P_j out_j^H)."""
    np.multiply(_WEIGHTS.conj()[:, None, None, None, None], T[::-1], out=out)


def _half_walks(problem: Problem, levels, xs, k, t, hold, shift, route,
                HW):
    """Z_k at each start of ``xs``, from the ``_levels`` of ``xs``, by a
    route of ``jump_terms``: ``route`` = (first, node, close), the jump-0
    table's entries along the leading axis, the node step and the closing
    sum's map on that axis.

    The table of a jump holds, per start s, key x -> y of the jump and
    fibre indices a (at x) and c (at y), the half-walk sum from x to y
    along a leading axis of the route's, shape (L, S, nu, keys, nu), each
    start's keys padded to the block's widest.  A jump multiplies the
    table of the jump before by the hop W of each arc, per start one
    dense matrix over the keys (``_jump``), and then takes the node at
    each key's end: node(U, b) with b = t (shift_x - a_y), x the key's
    start and y its end.  ``close`` acts on the leading axis and a jump
    on the keys, so R = close(Hf) is ``close`` of the table of jump j -
    1, which has fewer keys, taken through jump j; Z_k(x) = t^k e^{-t
    shift_x} sum_z (m_x / m_z) Re sum_i tr(HP_xz[i] R_xz[i]^H)."""
    n, nu, S = problem.graph.n, problem.rank, xs.size
    first, node, close = route
    L = first.size
    # jump 0: the key x -> x, the identity, then the node at x
    T = np.zeros((L, S, nu, 1, nu), dtype=first.dtype)
    T[:, :, range(nu), 0, range(nu)] = first[:, None, None]
    T = node(T, (t * (shift[xs, None] - hold[xs]))[:, None, None])
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
            # close(T) rides along with T through the jump
            X = np.empty((2 * L,) + T.shape[1:], dtype=T.dtype)
            X[:L] = T
            close(T, out=X[L:])
            U = _jump(X, A)
            U, R = U[:L], U[L:]
        else:
            U = _jump(T, A)
        s = keys // n
        slot = (s, np.arange(keys.size) - off[s])
        b = np.zeros((S, 1, width, nu))
        b[slot[0], 0, slot[1]] = t * (shift[xs[s], None] - hold[keys % n])
        T = node(U, b)
    P, R = T.reshape(L, -1), R.reshape(L, -1)
    walk = np.einsum("ix,ix->x", P.real, R.real)
    if np.iscomplexobj(P):
        walk += np.einsum("ix,ix->x", P.imag, R.imag)
    measure = problem.graph.measure
    ratio = np.zeros((S, width))
    ratio[slot] = measure[xs[s]] / measure[keys % n]
    walk = walk.reshape(S, nu, width, nu).sum(axis=(1, 3)) * ratio
    return t ** k * np.exp(-t * shift[xs]) * walk.sum(axis=1)


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


def _has_triangle(g: WeightedGraph):
    """Whether some three vertices x < y < z are pairwise adjacent: the
    paths x -> y -> z up the vertex order are listed by their first edge,
    ``_PIECE`` edges at a time, up to the first piece with one whose ends
    are an edge."""
    (i, j), n = g.edges.T, g.n
    keys = np.sort(i * n + j)
    up = _csr(i, n)
    for lo in range(0, i.size, _PIECE):
        r, e = _fan(up, j[lo:lo + _PIECE])
        ends = i[lo + r] * n + j[e]
        pos = np.searchsorted(keys, ends).clip(max=keys.size - 1)
        if (keys[pos] == ends).any():
            return True
    return False


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
    difference of exp over the k + 1 values z = -t a it holds at, t^k
    e[z_0, ..., z_k].  Z_0(x) = sum_a e^{-t a_xa}, Z_1 = 0 without
    self-loops, and in the scalar case every term is nonnegative.

    A closed k-walk from x is an h-path p from x to z, h = ceil(k/2),
    followed by the reverse of a j-path q from x to z, j = floor(k/2),
    and it stays within j jumps of x.  Both routes shift the values by
    sigma_x, z' = z - sigma_x, and write e[z_0, ..., z_k] = e^{sigma_x}
    B(F(p's nodes), F(q's nodes but z)): F is a product of one factor per
    node, held along an axis, and B a bilinear form on that axis.  So
    Z_k(x) = t^k e^{sigma_x} sum_z Re B(HP_xz, HQ_xz), B taken with tr
    of the product: HP_xz sums over the h-paths x -> z their hops, their
    products of W and F over their nodes, z included (a nu x nu matrix
    per entry of the axis), and HQ_xz = (m_x / m_z) Hf_xz^H, Hf the same
    sum over the j-paths with z left out, since a reversed path's W
    product is the adjoint and its hops differ by m_x / m_z.  The
    half-walk sums are taken jump by jump over the keys x n +
    y (``_levels``, ``_half_walks``), in blocks of starts of about
    ``_BLOCK`` / nu^2 h-paths.  The route is picked per start x by the
    spread t (max - min) of a over the vertices within j jumps of x and
    every fibre eigenvalue:

    - up to ``_DD_SERIES``, the series.  With sigma_x = -t max a, z' >=
      0 and e[z'] = sum_m c_m h_m(z'), c_m = 1/(m + k)! and h_m the
      complete homogeneous polynomial, whose generating function is
      prod_i 1 / (1 - z'_i u); so F is that product, the axis holds its
      coefficients (``_node``), and the closing sum weighs the
      coefficients i of HP and l of Hf by c_{i+l}, the Hankel matrix C
      (``_hankel``).  The block keeps ``_series_length`` terms of its
      widest start.  Every term is nonnegative in the scalar case.
    - wider, the contour.  With sigma_x = -t min a, z' <= 0, and e[z'] =
      (1 / 2 pi i) int e^s prod_i 1 / (s - z'_i) ds over a Talbot contour
      about [-spread, 0] (Trefethen, Weideman & Schmelzer, BIT 46 (2006)
      653); so F(s) is that product, the axis holds it at the contour's
      nodes s_j (``_pole``), and the closing sum weighs them by w_j
      (``_talbot``, ``_mirror``).  Nothing overflows at any spread.  The
      rule's rounding is relative to e^{sigma_x}: a walk whose values all
      lie above min a by c / t, which weighs about e^{-c} of that, is
      held about e^c times less closely (7e-12 at c = 10).

    The budget meets the closed walks times nu^k, and they are counted
    per key before any is weighed; for even k every h-path makes a walk
    with itself, so their count 1^T A^h is checked against it before any
    key is listed, one pass over the arcs per jump.  Where no walk closes
    the result is 0 with nothing weighed; Z_3 asks first whether the
    graph holds a triangle (``_has_triangle``), before any key is listed.
    """
    g, nu, src, dst = problem.graph, problem.rank, problem.src, problem.dst
    j = k // 2
    per_walk = nu ** k
    # the h-paths from each vertex, 1^T A^h
    paths = np.ones(g.n)
    for _ in range((k + 1) // 2):
        paths = np.bincount(src, weights=paths[dst], minlength=g.n)
    if budget is not None and k % 2 == 0 and paths.sum() * per_walk > budget:
        return None
    csr = _csr(src, g.n)
    fan = csr[1]
    if k == 3 and not _has_triangle(g):
        return np.zeros(g.n)
    lam, W = _eigenbasis(problem, hbar)
    hold = degrees(g).deg_m[:, None] + lam
    top = _ball(hold.max(axis=1), csr, dst, j, np.maximum)
    low = _ball(hold.min(axis=1), csr, dst, j, np.minimum)
    narrow = t * (top - low) <= _DD_SERIES
    # each route's starts in blocks of about ``_BLOCK`` / nu^2 h-paths, in
    # order of their h-paths, so that each block pads its keys little; a
    # start counts at least 16, so that starts with few (Z_2) do not
    # make a block of many keys: on the 64 x 64 box Z_2 took 16-21 ms in
    # one block of 4096 starts, 5-8 ms in four (2-core machine)
    blocks = []
    size = max(1, _BLOCK // nu ** 2)
    for route in (narrow, ~narrow):
        xs = np.flatnonzero(route & (fan > 0))
        xs = xs[np.argsort(paths[xs], kind="stable")]
        cum = np.cumsum(np.maximum(paths[xs], 16.0))
        bounds = np.r_[0, np.searchsorted(
            cum, np.arange(size, cum[-1:].sum(), size), side="right"),
                       xs.size]
        blocks += [xs[b0:b1] for b0, b1 in zip(bounds[:-1], bounds[1:])
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
    if budget is not None and walks * per_walk > budget:
        return None
    out = np.zeros(g.n)
    if not walks:
        return out
    HW = (problem.w / g.measure[src])[:, None, None] * W
    for xs, block in zip(blocks, levels):
        if narrow[xs[0]]:
            M = _series_length(float(t * (top - low)[xs].max()))
            # c_{i+l} = 1/(i + l + k)!, 0 past 170!, which overflows: the
            # terms it drops, m = i + l >= 171 - k, are below 32^m / m! of
            # the sum, 1e-37 for k up to 20
            with np.errstate(over="ignore"):
                inverse = 1.0 / np.cumprod(
                    np.r_[1.0, np.arange(1.0, k + 2 * M)])
            C = inverse[k + np.add.outer(np.arange(M), np.arange(M))]
            route, shift = (np.eye(1, M)[0], _node, partial(_hankel, C)), top
        else:
            route, shift = (np.ones(_NODES.size, complex), _pole, _mirror), low
        out[xs] = _half_walks(problem, block, xs, k, t, hold, shift, route,
                              HW)
    return out


@dataclass(frozen=True)
class Bracket:
    """Per vertex x, lower <= sum_a (e^{-tS})_{xa,xa} <= upper, from
    ``steps`` Lanczos steps; ``ritz`` is the largest |Ritz value|, at most
    ||S||."""

    lower: np.ndarray
    upper: np.ndarray
    steps: int
    ritz: float


# The relative width, (upper - lower) / trace, within which ``sweep``
# takes a row's trace from ``trace_bracket`` in place of the dense solve
BRACKET_WIDTH = 1e-13
# Predicted seconds per unit of work (2-core machine, BENCH_26.json): a
# dense row's eigenvalue solve per (n nu)^3, a complex one ``_COMPLEX``
# times that, and the assembly, once per sweep, per (n nu)^2; a
# bracket's growth per arc out of the level it completes, its steps per
# slot, start and arc times nu^3 and a fixed price per step, and its two
# rules per start and (m + 1)^2
_DENSE_S, _COMPLEX, _ASSEMBLE_S = 7e-11, 3.5, 1.3e-8
_BALL_S, _STEP_S, _CALL_S, _RULE_S = 1.5e-7, 1.2e-8, 3e-4, 2e-7
# The slots, about, per piece of rows in which a step of
# ``trace_bracket`` gathers
_GATHER = 16384


class _Balls:
    """The balls B_r(x) about every vertex x, grown a radius at a time, for
    ``trace_bracket``; the hops do not depend on hbar, so one serves every
    row of a sweep.

    Slot i of x holds a vertex of B_r(x), x's slots in order of level (the
    distance from x) and by vertex within a level, so that B_r(x) fills the
    first |B_r(x)| slots of x.  The tables are slot-major, row i holding
    slot i of every start: the slots within radius r of every start are the
    first ``width(r)`` rows, and ``rows`` hold a slot at all.  A vector on
    the balls is flat, shape (1 + rows n, nu, nu): a block of zeros, then
    slot i of x at 1 + i n + x.  Per slot, ``verts`` holds its vertex y +
    1, or 0, and ``nbr`` points into a vector at the slot itself and at the
    far end of each arc out of y, in arc order, or at the zeros: so that
    the block row of S at y, ``hops[y + 1]`` with its diagonal block
    written in, times the vector at ``nbr`` is S times the vector there.
    The tables double their capacity as they fill, so that they seldom
    copy.

    Listing level r + 1 sets the arcs of level r within it and out to the
    new level, and the reverse of each of the latter, so that the arcs of
    the new level back into r are set too: its other arcs can meet only
    slots outside B_r, where a vector that lives on B_r is zero.  A level
    that would make some ball wider than asked is listed but not placed;
    ``reach`` is the width of the next level, or one it reaches at least,
    so that a level refused once is not listed again for a narrower ask.
    """

    def __init__(self, problem: Problem):
        g, nu = problem.graph, problem.rank
        n, src, dst = g.n, problem.src, problem.dst
        self.csr = order, fan, ptr = _csr(src, n)
        self.problem, self.fan = problem, int(fan.max(initial=0))
        # the place of each arc among those out of its source
        self.rank = np.empty(src.size, dtype=np.int64)
        self.rank[order] = np.arange(src.size) - ptr[src[order]]
        # per vertex + 1 its block row of S: its diagonal block (written per
        # hbar) and -b / sqrt(m_x m_y) times the transport of each arc
        hop = problem.w / np.sqrt(g.measure[src] * g.measure[dst])
        arcs = -hop[:, None, None] * _coupling(problem)
        self.hops = np.zeros((n + 1, nu, 1 + self.fan, nu), np.result_type(
            arcs, problem.potential.values))
        self.hops[1 + src, :, 1 + self.rank] = arcs
        # the keys x n + y of the last level, sorted, and their slots; per
        # radius the sizes |B_r(x)|
        self.last = (np.arange(n) * (n + 1), np.zeros(n, dtype=np.int64))
        self.sizes = [np.ones(n, dtype=np.int64)]
        self.verts = np.zeros((0, n), dtype=np.int64)
        self.nbr = np.zeros((0, n, 1 + self.fan), dtype=np.int64)
        self.rows = 0
        self._place(*self.last)
        self.reach = 1

    @property
    def radius(self):
        return len(self.sizes) - 1

    def width(self, r):
        return int(self.sizes[r].max())

    def _place(self, keys, slots):
        """Put the vertices of ``keys`` into their ``slots``."""
        n, used = self.problem.graph.n, self.rows
        self.rows = self.width(-1)
        if self.rows > self.nbr.shape[0]:
            cap = max(self.rows, 2 * self.nbr.shape[0])
            for name in ("verts", "nbr"):
                old = getattr(self, name)
                new = np.zeros((cap,) + old.shape[1:], old.dtype)
                new[:used] = old[:used]
                setattr(self, name, new)
        x = keys // n
        at = slots * n + x
        self.verts.reshape(-1)[at] = keys - x * n + 1
        self.nbr.reshape(-1)[at * (1 + self.fan)] = 1 + at

    def grow(self, limit=math.inf):
        """List the next level and, unless it makes some ball wider than
        ``limit``, place it and set the arcs of the last not yet set: each
        ends in it or in the new level.  Returns whether it did."""
        if self.reach > limit:
            return False
        p, n = self.problem, self.problem.graph.n
        keys, slots = self.last
        r, e = _fan(self.csr, keys % n)
        x = keys[r] // n
        at = slots[r] * n + x
        # arc k of the slot at the flat row f is entry f (1 + fan) + 1 + k
        # of nbr, flat; the arcs back into the level before are set
        arc = at * (1 + self.fan) + 1 + self.rank[e]
        todo = self.nbr.reshape(-1)[arc] == 0
        e, x, at, arc = e[todo], x[todo], at[todo], arc[todo]
        ends = x * n + p.dst[e]
        pos = np.searchsorted(keys, ends).clip(max=keys.size - 1)
        out = keys[pos] != ends
        end = slots[pos]
        # the new keys, sorted and each once, and their slots
        new = np.sort(ends[out])
        new = new[np.diff(new, prepend=-1) != 0]
        s = new // n
        count = np.bincount(s, minlength=n)
        size = self.sizes[-1]
        self.reach = int((size + count).max())
        if self.reach > limit:
            return False
        slot = size[s] + np.arange(new.size) - (np.cumsum(count) - count)[s]
        end[out] = slot[np.searchsorted(new, ends[out])]
        self.last = (new, slot)
        self.sizes.append(size + count)
        self._place(new, slot)
        end = end * n + x
        nbr = self.nbr.reshape(-1)
        nbr[arc] = 1 + end
        nbr[end[out] * (1 + self.fan) + 1 + self.rank[e[out] ^ 1]] = (
            1 + at[out])
        return True


def _rule(alpha, beta, t):
    """(e^{-tT})_{11} per row of the Jacobi matrices T with diagonals
    ``alpha`` and off-diagonals ``beta``, shape (N, m) and (N, m - 1), and
    the eigenvalues of T."""
    N, m = alpha.shape
    T = np.zeros((N, m, m))
    i = np.arange(m)
    T[:, i, i] = alpha
    T[:, i[1:], i[:-1]] = T[:, i[:-1], i[1:]] = beta
    theta, U = np.linalg.eigh(T)
    with np.errstate(over="ignore"):  # an overflow fails the width test
        return np.einsum("ij,ij->i", np.exp(-t * theta), U[:, 0] ** 2), theta


def trace_bracket(problem: Problem, t: float, hbar: float) -> Bracket:
    """The ``Bracket`` of the diagonal of e^{-tS} per vertex, S the
    symmetrized H_{Phi, V/hbar}.

    From each e_{x,a} it runs m Lanczos steps on S, at once for every
    start, on the ball B_m(x) that the m-th step reaches (``_Balls``,
    grown as the steps need it).  Step k reads the first max_x
    |B_{k+1}(x)| slots only, padded to 1 + the most neighbours of a
    vertex.  The steps give the Jacobi matrix T_m, the diagonal alpha
    and the off-diagonal beta.  The Gauss rule (e^{-tT_m})_{11} lies
    below (e^{-tS})_{xa,xa}, and the Gauss-Radau rule, T_m extended by
    one row that fixes a node at a = min_x lambda_min(V(x)) / hbar <=
    lambda_min(S) (the connection Laplacian is >= 0), above it: the even
    derivatives of e^{-t lambda} are positive and the odd negative (Golub
    & Meurant, Matrices, Moments and Quadrature with Applications, 2010,
    ch. 6-7).

    The steps stop once the a-priori error of the two rules is within
    half ``BRACKET_WIDTH`` of the trace: the Gauss error is at most t^{2m}
    e^{-ta} (beta_1 ... beta_m)^2 / (2m)!, the Gauss-Radau error at most
    t (G - a) / (2m + 1) times that, G Gershgorin's bound on lambda_max(S),
    and the trace is at least sum e^{-t alpha_1} (Jensen).  The two rules
    are then taken once, by batched eigensolves of size m and m + 1.  A
    start whose beta falls to rounding (its Krylov space is exhausted)
    stops there, exactly.
    """
    return _bracket(problem, t, hbar, _Balls(problem))


def _bracket(problem: Problem, t: float, hbar: float, balls: _Balls,
             budget=None, share=1):
    """``trace_bracket`` on ``balls``, grown as far as it needs them, or
    None where its predicted seconds would pass ``budget`` before it
    closes; each growth is charged 1 / ``share`` of its price, since the
    balls serve later calls too.

    Within a budget it keeps the padded tables of the balls, rows n (1 +
    fan) entries, within the (n nu)^2 of the dense operator, and it
    gives up as soon as the steps it is likely to take would cost more
    than is left: likely, as many as the error bound needs if every later
    beta stays at the last step's largest, each step past the balls'
    radius as much wider as the last level was.
    """
    g, nu = problem.graph, problem.rank
    n = g.n
    values = problem.potential.scaled(hbar).values
    B = degrees(g).deg_m[:, None, None] * np.eye(nu) + values
    D = 0.5 * (B + B.conj().swapaxes(1, 2))
    a = float(np.linalg.eigvalsh(values)[:, 0].min())
    # Gershgorin: per row of S its diagonal entry and its absolute
    # off-diagonal sum, within its block and over its hops
    diag = np.diagonal(D, axis1=1, axis2=2).real
    top = float((diag + np.abs(D).sum(axis=2) - np.abs(diag) + np.abs(
        balls.hops[1:, :, 1:]).sum(axis=(2, 3))).max())
    scale = max(abs(top), abs(a))
    # the trace is at least sum e^{-t alpha_1}, alpha_1 = diag: e^{-ta}
    # times this
    floor = float(np.exp(-t * (diag - a)).sum())
    limit, likely = math.inf, 0
    per_slot = _STEP_S * n * nu ** 3 * (1 + balls.fan)
    if budget is not None:
        limit = n * nu ** 2 / (1 + balls.fan)

    def short(m):
        """Whether what is spent, the steps likely left after the m-th,
        the levels they need past the balls' radius r and the two rules
        pass the budget; each level past r adds as many keys and slots
        as the r-th did."""
        steps, r = max(likely, m), balls.radius
        w, past = balls.width(r), max(0, steps - r)
        slots = (steps - m) * w + past * (past + 1) // 2 * (
            w - balls.width(r - 1) if r else 0)
        return budget is not None and (
            spent + (steps - m) * _CALL_S + per_slot * slots
            + _BALL_S * balls.fan * balls.last[0].size * past / share
            + _RULE_S * n * nu * (steps + 1) ** 2 > budget)

    balls.hops[1:, :, 0] = D
    spent, rows, m = 0.0, 1, 0
    # the vectors q_m and q_{m-1}: q_0 = e_{x,a}, in slot 0 of x
    Q = np.zeros((1 + n, nu, nu), balls.hops.dtype)
    Q[1:] = np.eye(nu)
    prev = np.zeros_like(Q)
    alphas, betas = [], []
    beta = np.zeros((n, nu))
    # (t beta_1)^2 ... (t beta_m)^2 / (2m)! per start
    error = np.ones((n, nu))
    alive = np.ones((n, nu), dtype=bool)
    while True:
        # step m reads the slots within m + 1 of each start
        while balls.radius < m + 1:
            spent += _BALL_S * balls.fan * balls.last[0].size / share
            if short(m) or not balls.grow(limit):
                return None
        w = balls.width(m + 1)
        spent += _CALL_S + per_slot * w
        if short(m + 1):
            return None
        if balls.rows > rows:
            # zeros in the vectors for the new slots
            Q, prev = (np.concatenate([old, np.zeros(
                ((balls.rows - rows) * n, nu, nu), Q.dtype)])
                for old in (Q, prev))
            rows = balls.rows
        # the matrix-vector product a piece of rows at a time, so that
        # the gathers stay small
        Y = np.empty((w, n, nu, nu), Q.dtype)
        piece = max(1, _GATHER // n)
        for lo in range(0, w, piece):
            hi = min(w, lo + piece)
            H = np.take(balls.hops, balls.verts[lo:hi], axis=0)
            G = np.take(Q, balls.nbr[lo:hi], axis=0)
            np.matmul(H.reshape(hi - lo, n, nu, -1),
                      G.reshape(hi - lo, n, -1, nu), out=Y[lo:hi])
        q = Q[1:1 + w * n].reshape(w, n, nu, nu)
        alpha = np.einsum("ixca,ixca->xa", q.conj(), Y).real
        Y -= alpha[:, None, :] * q
        Y -= beta[:, None, :] * prev[1:1 + w * n].reshape(w, n, nu, nu)
        beta = np.sqrt(np.einsum("ixca,ixca->xa", Y.conj(), Y).real)
        # a stopped start holds q = 0; its alpha_1 stands in, decoupled
        alphas.append(np.where(alive, alpha, diag))
        alive &= beta > 2.0 ** -46 * scale
        beta = np.where(alive, beta, 0.0)
        betas.append(beta)
        m += 1
        error *= (t * beta) ** 2 / ((2 * m - 1) * (2 * m))
        bound = float(error.sum()) * (1 + t * (top - a) / (2 * m + 1))
        if bound <= 0.5 * BRACKET_WIDTH * floor:
            break
        # the steps likely in all: as many as the error bound needs if
        # every beta stays at this step's largest (none past the budget)
        likely, left, ratio = m, bound, (t * float(beta.max())) ** 2
        while budget is not None and likely * _CALL_S <= budget and (
                left > 0.5 * BRACKET_WIDTH * floor):
            likely += 1
            left *= ratio / ((2 * likely - 1) * (2 * likely))
        Y *= np.divide(1.0, beta, out=np.zeros_like(beta),
                       where=alive)[:, None, :]
        prev, Q = Q, prev
        Q[1:1 + w * n] = Y.reshape(-1, nu, nu)
    alpha = np.stack(alphas, axis=-1).reshape(n * nu, m)
    beta = np.stack(betas, axis=-1).reshape(n * nu, m)
    lower, theta = _rule(alpha, beta[:, :-1], t)
    # the Gauss-Radau row: alpha_{m+1} = a + beta_m^2 / d_m, d the pivots
    # of T_m - a
    d = alpha[:, 0] - a
    for j in range(1, m):
        d = alpha[:, j] - a - _ratio(beta[:, j - 1] ** 2, d)
    radau = np.concatenate([alpha, a + _ratio(beta[:, -1:] ** 2, d[:, None])],
                           axis=1)
    upper, _ = _rule(radau, beta, t)
    return Bracket(lower.reshape(n, nu).sum(axis=1),
                   upper.reshape(n, nu).sum(axis=1), m,
                   float(np.abs(theta).max(initial=0.0)))


def _ratio(num, den):
    """num / den, and 0 where num is 0 (the beta of a stopped start)."""
    out = np.zeros_like(num)
    np.divide(num, den, out=out, where=num > 0)
    return out


def sweep(g: WeightedGraph, c: Connection, V, beta: float,
          hbar_schedule) -> SweepResult:
    """Semiclassical sweep over a strictly decreasing hbar schedule.

    ``c`` and ``V`` are resolved as by ``operators.resolve``, and the mode
    follows from them; a dimension n nu above ``DIMENSION_CAP`` is refused
    first.  Each row carries (hbar, trace, lower, upper, gap = upper -
    trace) and its route.  The scalar sandwich lower <= trace <= upper is
    asserted when the problem is scalar, sharpened below to lower + Z_2
    <= trace with the two-jump term of ``jump_terms``; only the upper
    bound is asserted otherwise.

    A row takes its trace from ``trace_bracket`` where the bracket closes
    to ``BRACKET_WIDTH`` of the trace within the predicted seconds of the
    dense solve (the first dense row's assembly included); it reports the
    bracket's midpoint, its steps m and its width.  The balls of the
    bracket are grown once for the whole schedule, and never hold more
    entries than the dense operator: a graph with a vertex of more than
    about sqrt(n) nu neighbours builds none.  Every other row solves
    for the eigenvalues of the dense operator, which is assembled and
    symmetrized at most once, and only for dense rows (``_spectra``).  The
    bounds are checked against the bracket's ends, its lower end below the
    classical sum and Z_0 + Z_2 below its upper end; a dense row's ends
    are its trace.  A bound counts as violated only by more than the
    rounding of the trace, 16 ulps of it times t ||S||, t = beta hbar and
    ||S|| the largest |eigenvalue| or |Ritz value|, and at least by 1e-9;
    a violation raises NumericalFailure.
    """
    if not beta > 0:  # NaN fails it too
        raise GraphFKError("beta must be positive")
    schedule = tuple(float(h) for h in hbar_schedule)
    if not schedule or any(not h > 0 for h in schedule):
        raise GraphFKError("hbar schedule entries must be positive")
    if any(b >= a for a, b in zip(schedule, schedule[1:])):
        raise GraphFKError("hbar schedule must be strictly decreasing")
    problem = resolve(g, c, V)
    check_dimension(g.n, problem.rank)
    deg_m = degrees(g).deg_m
    terms = _classical_terms(problem.potential, beta)
    classical = float(terms.sum())
    result = SweepResult(classical_value=classical)
    dense, balls = _spectra(problem), None
    dim = g.n * problem.rank
    solve = _DENSE_S * dim ** 3 * (
        _COMPLEX if np.iscomplexobj(problem.phi)
        or np.iscomplexobj(problem.potential.values) else 1.0)
    assembly = _ASSEMBLE_S * dim ** 2
    # the balls' padded tables may hold no more entries than the dense
    # operator (``_bracket``), and the ball of radius 1 about a vertex of
    # most neighbours holds 1 + that many slots (no edge is doubled)
    fan = int(np.bincount(problem.src, minlength=g.n).max(initial=0))
    hub = (1 + fan) ** 2 > dim * problem.rank
    for i, hbar in enumerate(schedule):
        t = beta * hbar
        bracket = None
        # no bracket is cheaper than one step's fixed price; the balls
        # serve this row and the rest
        if solve + assembly > _CALL_S and not hub:
            balls = _Balls(problem) if balls is None else balls
            bracket = _bracket(problem, t, hbar, balls, solve + assembly,
                               len(schedule) - i)
        if bracket is not None:
            low, high = math.fsum(bracket.lower), math.fsum(bracket.upper)
            trace = 0.5 * (low + high)
            # a width that is not finite, or wider than asked, falls back
            if not high - low <= BRACKET_WIDTH * trace:
                bracket = None
        if bracket is None:
            lam = dense(hbar)
            assembly = 0.0
            trace = partition_function(lam, t)
            low = high = trace
            route, norm = (0, 0.0), abs(lam).max()
        else:
            # both ends 0 where e^{-tS} underflows
            width = (high - low) / trace if trace else 0.0
            route, norm = (bracket.steps, width), bracket.ritz
        # eigvalsh is backward stable: each eigenvalue lies within a small
        # multiple of eps ||S|| of the exact one, so the trace within that
        # multiple of eps t ||S|| relatively, ||S|| the largest |lam|.  16
        # ulps of the trace per unit of t ||S|| allow for the multiple and
        # for the rounding of the exponentials and the sums; the Lanczos
        # rules round alike, and their Ritz values are at most ||S||
        slack = max(1e-9, 16 * np.spacing(trace) * beta * hbar * norm)
        lower = float((np.exp(-deg_m * beta * hbar) * terms).sum())
        gap = classical - trace
        # written so that NaN fails them too
        if not low <= classical + slack:
            raise NumericalFailure(
                f"upper bound violated at hbar={hbar}: {low} > {classical}")
        if problem.mode == "scalar":
            two_jump = float(jump_terms(problem, t, hbar, 2).sum())
            if not lower + two_jump <= high + slack:
                raise NumericalFailure(
                    f"sandwich lower bound violated at hbar={hbar}: "
                    f"{lower} + {two_jump} > {high}")
        result.rows.append(SweepRow(hbar, trace, lower, classical, gap,
                                    *route))
    final_gap = result.rows[-1].gap
    result.converged = final_gap < max(1e-6, 1e-3 * classical)
    return result
