"""Small dense linear-algebra helpers used across the package."""

from __future__ import annotations

import numpy as np

from .errors import NotPsdError, NotSymmetricError

# Asymmetry beyond this (relative to the largest entry, floored at 1) is an error.
SYMMETRY_TOL = 1e-10
# Eigenvalues below -EIG_CLAMP_TOL mean the input is not PSD; values in
# [-EIG_CLAMP_TOL, 0] are treated as rounding noise and clamped to zero.
EIG_CLAMP_TOL = 1e-10


def sym_sqrt(s: np.ndarray) -> np.ndarray:
    """Symmetric square root of a positive semidefinite matrix.

    Uses a symmetric eigendecomposition: S = V diag(w) V', so the root is
    M = V diag(sqrt(w)) V'.  The result satisfies M @ M ~= S to within a
    small relative Frobenius error and is itself symmetric.

    Parameters
    ----------
    s : ndarray, shape (p, p)
        Symmetric positive semidefinite matrix.

    Raises
    ------
    NotSymmetricError
        If ``s`` is not square or not symmetric within tolerance.
    NotPsdError
        If an eigenvalue falls below ``-EIG_CLAMP_TOL``.
    """
    s = np.asarray(s, dtype=np.float64)
    if s.ndim != 2 or s.shape[0] != s.shape[1]:
        raise NotSymmetricError(f"expected a square matrix, got shape {s.shape}")
    scale = max(1.0, float(np.abs(s).max())) if s.size else 1.0
    asym = float(np.abs(s - s.T).max()) if s.size else 0.0
    if asym > SYMMETRY_TOL * scale:
        raise NotSymmetricError(
            f"matrix is not symmetric: max |S - S'| = {asym:.3e} exceeds tolerance"
        )
    w, v = np.linalg.eigh(s)
    if w.size and float(w[0]) < -EIG_CLAMP_TOL:
        raise NotPsdError(
            f"matrix is not positive semidefinite: smallest eigenvalue {float(w[0]):.3e}"
        )
    return _eigen_root(w, v)


def psd_projection_root(sigma: np.ndarray) -> np.ndarray:
    """Square root of the nearest positive semidefinite matrix.

    Eigendecomposes, floors every eigenvalue at zero, and roots the
    result.  Unlike sym_sqrt this never rejects an indefinite input; the
    product M @ M equals the PSD projection of ``sigma``, not ``sigma``
    itself, whenever negative eigenvalues were present.
    """
    sigma = np.asarray(sigma, dtype=np.float64)
    return _eigen_root(*np.linalg.eigh((sigma + sigma.T) / 2.0))


def _eigen_root(w: np.ndarray, v: np.ndarray) -> np.ndarray:
    """V diag(sqrt(max(w, 0))) V' from the eigendecomposition V diag(w) V'."""
    root = (v * np.sqrt(np.clip(w, 0.0, None))) @ v.T
    # Symmetrize away rounding asymmetry from the two matrix products.
    return (root + root.T) / 2.0
