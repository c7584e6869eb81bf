"""Dense 64-bit matrix kernels: one-sided Jacobi SVD and least squares.

Matrices are plain 2-D C-order float64 numpy arrays; :func:`as_matrix` is
the single entry point that enforces shape and finiteness.  The SVD is a
hand-rolled one-sided Jacobi iteration rather than a LAPACK call because
everything downstream (rank decisions, null-space energies, pseudoinverse
solves) must be deterministic and auditable at desk scale.  Each step of a
sweep rotates a whole anti-diagonal of disjoint column pairs with one set
of array operations: the columns are rows of a working matrix, a step's
two sides are two runs of consecutive rows, and they are rotated in place
through row views, with the column norms of both sides taken in one pass.
Each call builds every step's views and scratch buffers once, so a step
makes no array: it runs its array operations into those buffers, and
rotates its q rows through a contiguous copy; its two norm passes call
numpy's C einsum kernel directly, without ``np.einsum``'s Python dispatch.
The step order depends on the matrix shape alone and reproduces the
classic row-cyclic pair order, so results are repeatable bit for bit,
signed zeros included.
All routines are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass

import numpy as np
# the C kernel that np.einsum calls when optimize is False (its default):
# the same bytes without about 1.6 us of Python dispatch per call, which a
# Jacobi step pays twice; tests/test_linalg.py checks that np.einsum still
# calls this very object
from numpy._core.multiarray import c_einsum as _c_einsum
from numpy.typing import NDArray

Mat = NDArray[np.float64]

# Sweep cap for the Jacobi iteration; hitting it raises, never truncates.
JACOBI_MAX_SWEEPS = 60
# A column pair counts as orthogonal once |<a_i,a_j>| <= tol*||a_i||*||a_j||.
JACOBI_TOL = 1e-14
# Numerical rank: sigma_i > max(m,n) * sigma_1 * RANK_REL_TOL.
RANK_REL_TOL = 1e-12


class JacobiNonConvergence(RuntimeError):
    """The Jacobi sweep cap was reached before meeting the tolerance."""


def as_matrix(values) -> Mat:
    """Validate and return ``values`` as a 2-D float64 matrix.

    Parameters
    ----------
    values : array-like
        Anything ``np.asarray`` accepts, already two-dimensional.

    Returns
    -------
    numpy.ndarray
        C-order float64 view or copy of the input.

    Raises
    ------
    ValueError
        If the input is not 2-D, is empty, or contains NaN/Inf.
    """
    a = np.ascontiguousarray(values, dtype=np.float64)
    if a.ndim != 2:
        raise ValueError(f"expected a 2-D matrix, got ndim={a.ndim}")
    if a.shape[0] == 0 or a.shape[1] == 0:
        raise ValueError(f"matrix dimensions must be positive, got {a.shape}")
    if not np.isfinite(a).all():
        raise ValueError("matrix entries must be finite (no NaN/Inf)")
    return a


def append_bias_column(w, b) -> Mat:
    """Return ``[W b]``: the weight matrix with the bias, a length-``rows``
    vector, as an extra column."""
    w = as_matrix(w)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim != 1 or b.shape[0] != w.shape[0]:
        raise ValueError(
            f"bias must have one entry per row: W is {w.shape}, b has shape {b.shape}"
        )
    if not np.isfinite(b).all():
        raise ValueError("bias entries must be finite")
    return np.hstack([w, b[:, None]])


@dataclass(frozen=True)
class SvdResult:
    """Full SVD ``a = U diag(sigma) Vt`` of an m x n matrix.

    ``u`` is m x m orthogonal, ``sigma`` holds the min(m, n) singular
    values sorted descending, ``vt`` is n x n with right singular vectors
    as rows, and ``rank`` counts singular values above the relative
    tolerance ``max(m, n) * sigma_1 * 1e-12``.
    """

    u: Mat
    sigma: NDArray[np.float64]
    vt: Mat
    rank: int


def svd(a) -> SvdResult:
    """Full singular value decomposition via one-sided Jacobi rotations.

    Columns of a working copy are rotated pairwise until all pairs are
    mutually orthogonal to ``JACOBI_TOL`` (relative); column norms then
    give the singular values.  Left singular vectors for (near-)zero
    singular values are filled in by Gram-Schmidt completion so that
    ``u`` is always a full orthogonal basis.

    A sweep visits the pairs ``p < q`` in anti-diagonal steps: step ``s``
    rotates every pair with ``p + q = s`` at once.  These pairs share no
    column, so a step is one set of array operations, and every pair that
    shares a column with ``(p, q)`` and precedes it in row-cyclic order
    ``(0,1), (0,2), ..., (1,2), ...`` falls in an earlier step.  Each
    rotation therefore sees the same two columns as in the row-cyclic
    sweep, which keeps that order's convergence.  The steps are fixed by
    the shape alone, so equal inputs give bitwise-equal results.

    The p columns of a step are consecutive rows of the working matrix
    and its q columns the following rows in reverse, so a step rotates two
    row views in place, and alpha and beta (the squared norms of the p and
    q columns) come from one pass over the rows that span both.  A call
    builds the views and scratch buffers of every step once (a plan of the
    sweep), and each step writes into them: it copies its reversed q rows
    into a contiguous buffer, forms s*P and s*Q into two more, updates P
    and the copy in place and copies the copy back.  Every product and sum
    is the one ``c*P + s*Q`` and ``c*Q - s*P`` would form, so the result
    is the same to the byte, signed zeros included.

    Raises
    ------
    ValueError
        If ``sigma_1`` exceeds the float64 range, although every entry of
        ``a`` is finite.
    JacobiNonConvergence
        If the pair tolerance is not met within ``JACOBI_MAX_SWEEPS``.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        flipped = _svd_tall(a.T, (m, n))
        return SvdResult(
            u=np.ascontiguousarray(flipped.vt.T),
            sigma=flipped.sigma,
            vt=np.ascontiguousarray(flipped.u.T),
            rank=flipped.rank,
        )
    return _svd_tall(a, (m, n))


def _sweep_steps(n: int) -> list[tuple[NDArray[np.intp], NDArray[np.intp]]]:
    """The ``(p, q)`` index arrays of each anti-diagonal step of one sweep."""
    steps = []
    for s in range(1, 2 * n - 2):
        p = np.arange(max(0, s - n + 1), (s + 1) // 2)
        steps.append((p, s - p))
    return steps


def _step_slices(n: int) -> list[tuple[slice, slice, slice]]:
    """Each step of :func:`_sweep_steps` as row slices ``(p, q, span)``.

    Step ``s`` rotates the rows ``p = lo .. hi - 1`` against
    ``q = s - p = s - lo`` down to ``s - hi + 1``: both are runs of
    consecutive rows, q in descending order.  ``span`` is rows ``lo`` to
    ``s - lo``: p, then row ``s / 2`` when ``s`` is even, then q reversed.
    """
    slices = []
    for p, q in _sweep_steps(n):
        lo, hi = int(p[0]), int(p[-1]) + 1
        top = int(q[0])
        # q[-1] = s - hi + 1 >= 1, so the descending stop never wraps to -1
        slices.append((slice(lo, hi), slice(top, int(q[-1]) - 1, -1), slice(lo, top + 1)))
    return slices


def _step_plan(work: Mat, m: int) -> list[tuple]:
    """Every view the steps of one sweep read and write, built once per call.

    For each step of :func:`_step_slices` the tuple holds the p and q row
    views of ``work`` and the first ``m`` columns of the span, of p and of
    q; then the span's squared norms and their alpha and beta ends; then
    k-length views of per-call scratch: gamma, rel, a pair mask, theta, c
    and s, c and s as (k, 1) columns, and (k, m + n) rows of three buffers
    for q's rows copied contiguous, s*P and s*Q.  Steps with the same span
    length share these views.
    """
    n, width = work.shape
    half = n // 2  # a step has at most n // 2 pairs
    norms = np.empty(n)
    gamma, rel, theta, c, s = np.empty((5, half))
    mask = np.empty(half, dtype=bool)
    q_rows, sp, sq = np.empty((3, half, width))
    by_k = [(gamma[:k], rel[:k], mask[:k], theta[:k], c[:k], s[:k], c[:k, None],
             s[:k, None], q_rows[:k], sp[:k], sq[:k]) for k in range(half + 1)]
    # a span of j = 2k or 2k + 1 rows: p, the middle row of an even step, q reversed
    by_span = [(norms[:j], norms[:j // 2], norms[:j][::-1][:j // 2], *by_k[j // 2])
               for j in range(n + 1)]
    plan = []
    for p, q, span in _step_slices(n):
        cols_p, cols_q = work[p], work[q]
        plan.append((cols_p, cols_q, work[span, :m], cols_p[:, :m], cols_q[:, :m],
                     *by_span[span.stop - span.start]))
    return plan


def _jacobi_sweeps(work: Mat, m: int, shape: tuple[int, int]) -> None:
    """Rotate the rows of ``work`` in place until every pair of their first
    ``m`` columns meets ``JACOBI_TOL``; raise JacobiNonConvergence otherwise."""
    plan = _step_plan(work, m)
    worst = math.inf
    # A norm can be subnormal although nonzero (rank deficiency, say a zero
    # or repeated row of the input, leaves such columns); alpha * beta then
    # underflows to 0 while the mask holds, rel = |gamma| / 0 = inf, and the
    # pair is rotated, as it should be, with no warning.
    with np.errstate(divide="ignore"):
        for _ in range(JACOBI_MAX_SWEEPS):
            worst = 0.0
            for (cols_p, cols_q, span_m, p_m, q_m, norms, alpha, beta, gamma, rel,
                 mask, theta, c, s, c_col, s_col, q_rows, sp, sq) in plan:
                _c_einsum("ij,ij->i", span_m, span_m, out=norms)
                _c_einsum("ij,ij->i", p_m, q_m, out=gamma)
                # rel = |gamma| / sqrt(alpha * beta), with theta and c as scratch;
                # pairs with a zero column are skipped and do not count as worst
                # (norms are >= 0, so the smaller is 0 exactly when either is)
                np.minimum(alpha, beta, out=theta)
                np.not_equal(theta, 0.0, out=mask)
                np.multiply(alpha, beta, out=theta)
                np.sqrt(theta, out=theta)
                np.absolute(gamma, out=c)
                rel.fill(0.0)
                np.divide(c, theta, out=rel, where=mask)
                top = float(np.maximum.reduce(rel))
                worst = max(worst, top)
                if top <= JACOBI_TOL:
                    continue
                # theta = atan2(2 gamma, alpha - beta) / 2, with c and s as
                # scratch; theta = 0 leaves a pair that meets the tolerance as it is
                np.multiply(gamma, 2.0, out=c)
                np.subtract(alpha, beta, out=s)
                np.arctan2(c, s, out=c)
                np.greater(rel, JACOBI_TOL, out=mask)
                theta.fill(0.0)
                np.multiply(c, 0.5, out=theta, where=mask)
                np.cos(theta, out=c)
                np.sin(theta, out=s)
                # P <- c*P + s*Q and Q <- c*Q - s*P, with Q's reversed rows
                # rotated in a contiguous copy
                np.copyto(q_rows, cols_q)
                np.multiply(s_col, cols_p, out=sp)
                np.multiply(s_col, q_rows, out=sq)
                np.multiply(cols_p, c_col, out=cols_p)
                np.add(cols_p, sq, out=cols_p)
                np.multiply(q_rows, c_col, out=q_rows)
                np.subtract(q_rows, sp, out=q_rows)
                np.copyto(cols_q, q_rows)
            if worst <= JACOBI_TOL:
                return
    raise JacobiNonConvergence(
        f"one-sided Jacobi did not converge on a {shape[0]}x{shape[1]} matrix "
        f"within {JACOBI_MAX_SWEEPS} sweeps (worst pair at {worst:.3e})"
    )


def _svd_tall(a: Mat, shape: tuple[int, int]) -> SvdResult:
    """SVD of ``a`` with ``m >= n``; ``shape`` is the caller's, for messages."""
    m, n = a.shape
    # Scaling by a power of two is exact and keeps the squared column norms
    # clear of underflow and overflow; sigma is scaled back at the end.
    exp = math.frexp(float(np.max(np.abs(a))))[1]
    # Row i holds column i of the working matrix, then column i of V: one
    # rotation acts on both, and a step's p and q rows are row views.
    work = np.hstack([np.ldexp(a.T, -exp), np.eye(n)])
    _jacobi_sweeps(work, m, shape)

    b = work[:, :m]
    norms = np.sqrt(np.einsum("ij,ij->i", b, b))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    # the scale-back is exact unless it leaves the float64 range
    if math.frexp(float(sigma[0]))[1] + exp > sys.float_info.max_exp:
        raise ValueError(
            f"the largest singular value of a {shape[0]}x{shape[1]} matrix exceeds "
            f"the float64 range (sigma_1 = {float(sigma[0])!r} * 2**{exp})"
        )

    # Columns with sigma well above underflow noise define U directly;
    # the rest of the orthogonal basis is completed from identity vectors.
    keep_tol = sigma[0] * max(m, n) * 1e-15
    kept = int(np.count_nonzero((sigma > keep_tol) & (sigma > 0.0)))  # a prefix: sigma descends
    u = np.zeros((m, m))
    u[:, :kept] = (b[order[:kept]] / sigma[:kept, None]).T
    if kept < m:
        u[:, kept:] = _complete_basis(u[:, :kept])

    vt = work[order, m:]
    rank = int((sigma > sigma[0] * max(m, n) * RANK_REL_TOL).sum()) if sigma[0] > 0 else 0
    return SvdResult(u=u, sigma=np.ldexp(sigma, exp), vt=vt, rank=rank)


def _complete_basis(u_part: Mat) -> Mat:
    """Extend orthonormal columns to a full basis of R^m.

    Greedy choice: at each step take the identity vector with the largest
    residual against the current basis (deterministic, and the residual
    norm is bounded below by sqrt((m - k) / m), so normalization is safe).
    The residuals come from the basis's squared row norms, which each new
    column updates by its own squares, and ``current.T @ e_i`` is row i of
    the basis, so a step makes three passes over the basis, not five.
    """
    m, k = u_part.shape
    basis = np.zeros((m, m))
    basis[:, :k] = u_part
    taken = np.zeros(m, dtype=bool)
    # squared row norms of the basis so far, one rank-one update per column
    row_sq = np.einsum("ij,ij->i", u_part, u_part)
    for j in range(k, m):
        current = basis[:, :j]
        # residual norm^2 of e_i against an orthonormal basis is 1 - ||row_i||^2
        scores = 1.0 - row_sq
        scores[taken] = -math.inf
        pick = int(np.argmax(scores))
        taken[pick] = True
        e = np.zeros(m)
        e[pick] = 1.0
        r = e - current @ current[pick]  # current.T @ e is row pick, exactly
        r -= current @ (current.T @ r)  # re-orthogonalize once
        r /= math.sqrt(float(r @ r))
        basis[:, j] = r
        row_sq += r * r
    return basis[:, k:]


def least_squares(a, y, decomposition: SvdResult | None = None) -> Mat:
    """Minimize ``||Y - A X||_F``; minimum-norm solution via SVD pseudoinverse.

    Parameters
    ----------
    a : matrix, m x n
    y : matrix, m x d
    decomposition : SvdResult, optional
        ``svd(a)``, when the caller already has it; ``a`` is not decomposed
        again.

    Returns
    -------
    numpy.ndarray
        The n x d minimizer; unique even for rank-deficient ``a`` because
        the pseudoinverse picks the smallest-norm solution.
    """
    a = as_matrix(a)
    y = as_matrix(y)
    if a.shape[0] != y.shape[0]:
        raise ValueError(
            f"row mismatch: A has {a.shape[0]} rows, Y has {y.shape[0]}"
        )
    res = svd(a) if decomposition is None else decomposition
    if (res.u.shape[0], res.vt.shape[0]) != a.shape:
        raise ValueError(
            f"decomposition of a {res.u.shape[0]}x{res.vt.shape[0]} matrix "
            f"given for a {a.shape[0]}x{a.shape[1]} one"
        )
    r = res.rank
    if r == 0:
        return np.zeros((a.shape[1], y.shape[1]))
    uty = res.u[:, :r].T @ y
    return res.vt[:r, :].T @ (uty / res.sigma[:r, None])
