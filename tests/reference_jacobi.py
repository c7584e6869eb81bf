"""Gather/scatter one-sided Jacobi SVD: the step that `linalg.svd` replaced.

Each anti-diagonal step gathers its p and q rows with fancy indexing,
takes alpha, beta and gamma from three separate norm passes and scatters
the rotated rows back.  The rotations, their order and every tolerance
are those of `linalg.svd`, which rotates row views in place into buffers
built once per call instead, so the two must agree byte for byte in u,
sigma and vt, signed zeros included, and in the rank.

Shares only the substrate with the package: input checks, the sweep
order, the result type and the tolerances.  The basis completion is its
own: each step recomputes the squared row norms of the whole basis with an
einsum and forms ``current.T @ e`` as a matrix-vector product, where
`linalg` updates the norms by one rank-one term and reads a row.
"""

import math

import numpy as np

from mola import linalg


def svd(a):
    a = linalg.as_matrix(a)
    m, n = a.shape
    if m < n:
        flipped = svd_tall(a.T)
        return linalg.SvdResult(
            u=np.ascontiguousarray(flipped.vt.T),
            sigma=flipped.sigma,
            vt=np.ascontiguousarray(flipped.u.T),
            rank=flipped.rank,
        )
    return svd_tall(a)


def svd_tall(a):
    m, n = a.shape
    exp = math.frexp(float(np.max(np.abs(a))))[1]
    work = np.hstack([np.ldexp(a.T, -exp), np.eye(n)])
    steps = linalg._sweep_steps(n)
    # a subnormal norm can make alpha * beta underflow to 0 although neither
    # is 0: that pair's rel is inf and it is rotated, with no warning
    with np.errstate(divide="ignore"):
        for _ in range(linalg.JACOBI_MAX_SWEEPS):
            worst = 0.0
            for p, q in steps:
                cols_p, cols_q = work[p], work[q]
                bp, bq = cols_p[:, :m], cols_q[:, :m]
                alpha = np.einsum("ij,ij->i", bp, bp)
                beta = np.einsum("ij,ij->i", bq, bq)
                gamma = np.einsum("ij,ij->i", bp, bq)
                live = (alpha != 0.0) & (beta != 0.0)
                rel = np.zeros_like(gamma)
                np.divide(np.abs(gamma), np.sqrt(alpha * beta), out=rel, where=live)
                top = float(rel.max())
                worst = max(worst, top)
                if top <= linalg.JACOBI_TOL:
                    continue
                theta = np.where(rel > linalg.JACOBI_TOL,
                                 0.5 * np.arctan2(2.0 * gamma, alpha - beta), 0.0)
                c, s = np.cos(theta)[:, None], np.sin(theta)[:, None]
                work[p] = c * cols_p + s * cols_q
                work[q] = c * cols_q - s * cols_p
            if worst <= linalg.JACOBI_TOL:
                break
        else:
            raise linalg.JacobiNonConvergence(f"reference did not converge on {m}x{n}")

    b = work[:, :m]
    norms = np.sqrt(np.einsum("ij,ij->i", b, b))
    order = np.argsort(-norms, kind="stable")
    sigma = norms[order]
    keep_tol = sigma[0] * max(m, n) * 1e-15
    kept = int(np.count_nonzero((sigma > keep_tol) & (sigma > 0.0)))
    u = np.zeros((m, m))
    u[:, :kept] = (b[order[:kept]] / sigma[:kept, None]).T
    if kept < m:
        u[:, kept:] = complete_basis(u[:, :kept])
    vt = work[order, m:]
    rank = (int((sigma > sigma[0] * max(m, n) * linalg.RANK_REL_TOL).sum())
            if sigma[0] > 0 else 0)
    return linalg.SvdResult(u=u, sigma=np.ldexp(sigma, exp), vt=vt, rank=rank)


def complete_basis(u_part):
    m, k = u_part.shape
    basis = np.zeros((m, m))
    basis[:, :k] = u_part
    taken = np.zeros(m, dtype=bool)
    for j in range(k, m):
        current = basis[:, :j]
        scores = 1.0 - np.einsum("ij,ij->i", current, current)
        scores[taken] = -math.inf
        pick = int(np.argmax(scores))
        taken[pick] = True
        e = np.zeros(m)
        e[pick] = 1.0
        r = e - current @ (current.T @ e)
        r -= current @ (current.T @ r)
        basis[:, j] = r / math.sqrt(float(r @ r))
    return basis[:, k:]
