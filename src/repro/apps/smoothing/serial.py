"""Serial reference for the smoothing computation.

Smoothing is posed as solving ``(I + λL) u = f`` where ``L`` is the
5-point graph Laplacian with replicated boundaries — i.e. implicit
(backward-Euler) diffusion.  The Jacobi update is

    u_i ← (f_i + λ Σ_{j∈N(i)} u_j) / (1 + λ |N(i)|)

which is a strictly diagonally dominant stencil iteration: exactly the
"image smoothing" iterative-convergence workload of the paper, with the
local dependency structure its Section VI-B analysis calls out.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


def _neighbor_sum(u: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Sum of available N/S/E/W neighbours and their count, vectorized."""
    h, w = u.shape
    total = np.zeros_like(u)
    count = np.zeros_like(u)
    total[1:, :] += u[:-1, :]
    count[1:, :] += 1
    total[:-1, :] += u[1:, :]
    count[:-1, :] += 1
    total[:, 1:] += u[:, :-1]
    count[:, 1:] += 1
    total[:, :-1] += u[:, 1:]
    count[:, :-1] += 1
    return total, count


def jacobi_smooth_step(u: np.ndarray, f: np.ndarray, lam: float) -> np.ndarray:
    """One Jacobi sweep of (I + λL) u = f."""
    total, count = _neighbor_sum(u)
    return (f + lam * total) / (1.0 + lam * count)


@dataclass
class SmoothResult:
    """Outcome of a serial Jacobi smoothing run."""

    u: np.ndarray
    iterations: int
    change_trace: list[float] = field(default_factory=list)


def jacobi_smooth(
    f: np.ndarray,
    lam: float = 2.0,
    threshold: float = 1e-4,
    max_iterations: int = 2000,
    u0: np.ndarray | None = None,
) -> SmoothResult:
    """Iterate until max pixel change < threshold."""
    f = np.asarray(f, dtype=float)
    if lam <= 0:
        raise ValueError(f"lam must be positive, got {lam}")
    u = f.copy() if u0 is None else np.asarray(u0, dtype=float).copy()
    trace: list[float] = []
    for _ in range(max_iterations):
        u_new = jacobi_smooth_step(u, f, lam)
        change = float(np.max(np.abs(u_new - u)))
        trace.append(change)
        u = u_new
        if change < threshold:
            break
    return SmoothResult(u=u, iterations=len(trace), change_trace=trace)


def smooth_reference(f: np.ndarray, lam: float = 2.0, tol: float = 1e-10) -> np.ndarray:
    """Golden solution of (I + λL) u = f via conjugate gradients.

    ``I + λL`` is symmetric positive definite for λ > 0, so plain CG from
    u = 0 converges: it stops once the residual falls below ``tol``·‖f‖
    and raises ``RuntimeError`` if 20,000 iterations do not get there.  A
    non-2-D or non-finite image, or a non-positive ``lam`` or ``tol``,
    raises ``ValueError`` before iterating.
    """
    f = np.asarray(f, dtype=float)
    if f.ndim != 2:
        raise ValueError(f"image must be 2-D, got shape {f.shape}")
    if not np.isfinite(f).all():
        raise ValueError("image must be finite (found NaN or inf)")
    if not lam > 0:
        raise ValueError(f"lam must be positive, got {lam}")
    if not tol > 0:
        raise ValueError(f"tol must be positive, got {tol}")
    h, w = f.shape

    def matvec(vec: np.ndarray) -> np.ndarray:
        u = vec.reshape(h, w)
        total, count = _neighbor_sum(u)
        return (u + lam * (count * u - total)).ravel()

    b = f.ravel()
    stop = tol * float(np.linalg.norm(b))
    x = np.zeros_like(b)
    if stop == 0.0:  # f = 0, which u = 0 solves exactly
        return x.reshape(h, w)
    r = b.copy()
    p = np.zeros_like(b)
    rho_prev = np.inf  # so the first direction is r itself
    for _ in range(20_000):
        if np.linalg.norm(r) < stop:
            return x.reshape(h, w)
        rho = np.dot(r, r)
        p = p * (rho / rho_prev) + r
        q = matvec(p)
        alpha = rho / np.dot(p, q)
        x += alpha * p
        r -= alpha * q
        rho_prev = rho
    raise RuntimeError("CG did not converge in 20000 iterations")
