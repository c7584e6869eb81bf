"""Gather/scatter one-sided Jacobi SVD: the step that `linalg.svd` replaced.

Each anti-diagonal step gathers its p and q rows with fancy indexing,
takes alpha, beta and gamma from three separate norm passes and scatters
the rotated rows back.  The rotations, their order and every tolerance
are those of `linalg.svd`, which rotates row views in place into buffers
built once per call instead, so the two must agree byte for byte in u,
sigma and vt, signed zeros included, and in the rank.

Shares only the substrate with the package: input checks, the sweep
order, the basis completion, the result type and the tolerances.
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
        u[:, kept:] = linalg._complete_basis(u[:, :kept])
    vt = work[order, m:]
    rank = (int((sigma > sigma[0] * max(m, n) * linalg.RANK_REL_TOL).sum())
            if sigma[0] > 0 else 0)
    return linalg.SvdResult(u=u, sigma=np.ldexp(sigma, exp), vt=vt, rank=rank)
