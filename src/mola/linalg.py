"""Dense 64-bit matrix kernels: one-sided Jacobi SVD and least squares.

Matrices are plain 2-D C-order float64 numpy arrays; :func:`as_matrix` is
the single entry point that enforces shape and finiteness.  The SVD is a
hand-rolled one-sided Jacobi iteration rather than a LAPACK call because
everything downstream (rank decisions, null-space energies, pseudoinverse
solves) must be deterministic and auditable at desk scale.  Each step of a
sweep rotates a whole anti-diagonal of disjoint column pairs with one set
of array operations; the step order depends on the matrix shape alone and
reproduces the classic row-cyclic pair order, so results are repeatable
bit for bit.  All routines are pure functions over immutable inputs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
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
    """Return ``[W b]``: the weight matrix with the bias as an extra column.

    ``b`` may be a length-``rows`` vector or a ``rows x 1`` matrix.
    """
    w = as_matrix(w)
    b = np.asarray(b, dtype=np.float64)
    if b.ndim == 2 and b.shape[1] == 1:
        b = b[:, 0]
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

    Raises
    ------
    JacobiNonConvergence
        If the pair tolerance is not met within ``JACOBI_MAX_SWEEPS``.
    """
    a = as_matrix(a)
    m, n = a.shape
    if m < n:
        flipped = _svd_tall(a.T)
        return SvdResult(
            u=np.ascontiguousarray(flipped.vt.T),
            sigma=flipped.sigma,
            vt=np.ascontiguousarray(flipped.u.T),
            rank=flipped.rank,
        )
    return _svd_tall(a)


def _sweep_steps(n: int) -> list[tuple[NDArray[np.intp], NDArray[np.intp]]]:
    """The ``(p, q)`` index arrays of each anti-diagonal step of one sweep."""
    steps = []
    for s in range(1, 2 * n - 2):
        p = np.arange(max(0, s - n + 1), (s + 1) // 2)
        steps.append((p, s - p))
    return steps


def _svd_tall(a: Mat) -> SvdResult:
    m, n = a.shape
    # Scaling by a power of two is exact and keeps the squared column norms
    # clear of underflow and overflow; sigma is scaled back at the end.
    exp = math.frexp(float(np.max(np.abs(a))))[1]
    # Row i holds column i of the working matrix, then column i of V: one
    # rotation acts on both, and a gather of rows reads contiguous memory.
    work = np.hstack([np.ldexp(a.T, -exp), np.eye(n)])
    steps = _sweep_steps(n)
    converged = False
    worst = math.inf
    for _ in range(JACOBI_MAX_SWEEPS):
        worst = 0.0
        for p, q in steps:
            cols_p, cols_q = work[p], work[q]
            bp, bq = cols_p[:, :m], cols_q[:, :m]
            alpha = np.einsum("ij,ij->i", bp, bp)
            beta = np.einsum("ij,ij->i", bq, bq)
            gamma = np.einsum("ij,ij->i", bp, bq)
            # pairs with a zero column are skipped and do not count as worst
            live = (alpha != 0.0) & (beta != 0.0)
            rel = np.zeros_like(gamma)
            np.divide(np.abs(gamma), np.sqrt(alpha * beta), out=rel, where=live)
            top = float(rel.max())
            worst = max(worst, top)
            if top <= JACOBI_TOL:
                continue
            # theta = 0 leaves a pair that already meets the tolerance as it is
            theta = np.where(rel > JACOBI_TOL,
                             0.5 * np.arctan2(2.0 * gamma, alpha - beta), 0.0)
            c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
            work[p] = c * cols_p + s * cols_q
            work[q] = c * cols_q - s * cols_p
        if worst <= JACOBI_TOL:
            converged = True
            break
    if not converged:
        raise JacobiNonConvergence(
            f"one-sided Jacobi did not converge on a {m}x{n} matrix within "
            f"{JACOBI_MAX_SWEEPS} sweeps (worst pair at {worst:.3e})"
        )

    b = work[:, :m]
    norms = np.sqrt(np.einsum("ij,ij->i", b, b))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]

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
    """
    m, k = u_part.shape
    basis = np.zeros((m, m))
    basis[:, :k] = u_part
    taken = np.zeros(m, dtype=bool)
    for j in range(k, m):
        current = basis[:, :j]
        # residual norm^2 of e_i against an orthonormal basis is 1 - ||row_i||^2
        scores = 1.0 - np.einsum("ij,ij->i", current, current)
        scores[taken] = -math.inf
        pick = int(np.argmax(scores))
        taken[pick] = True
        e = np.zeros(m)
        e[pick] = 1.0
        r = e - current @ (current.T @ e)
        r -= current @ (current.T @ r)  # re-orthogonalize once
        basis[:, j] = r / math.sqrt(float(r @ r))
    return basis[:, k:]


def least_squares(a, y) -> Mat:
    """Minimize ``||Y - A X||_F``; minimum-norm solution via SVD pseudoinverse.

    Parameters
    ----------
    a : matrix, m x n
    y : matrix, m x d

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
    res = svd(a)
    r = res.rank
    if r == 0:
        return np.zeros((a.shape[1], y.shape[1]))
    uty = res.u[:, :r].T @ y
    return res.vt[:r, :].T @ (uty / res.sigma[:r, None])
