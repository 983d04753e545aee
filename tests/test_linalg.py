"""Symmetric square roots."""

import numpy as np
import pytest

from hdwhite.errors import NotPsdError, NotSymmetricError
from hdwhite.linalg import sym_sqrt


class TestSymSqrt:
    def test_identity(self):
        assert np.allclose(sym_sqrt(np.eye(4)), np.eye(4), atol=1e-14)

    def test_diagonal(self):
        got = sym_sqrt(np.diag([4.0, 9.0]))
        assert np.allclose(got, np.diag([2.0, 3.0]), atol=1e-14)

    def test_two_by_two(self):
        s = np.array([[2.0, 1.0], [1.0, 2.0]])
        m = sym_sqrt(s)
        err = np.linalg.norm(m @ m - s)
        assert err <= 1e-10, f"M^2 differs from S by Frobenius {err}"

    def test_random_psd_roundtrip_up_to_200(self):
        rng = np.random.default_rng(42)
        for p in (2, 17, 60, 200):
            b = rng.standard_normal((p, p))
            s = b @ b.T
            m = sym_sqrt(s)
            rel = np.linalg.norm(m @ m - s) / np.linalg.norm(s)
            assert rel <= 1e-8, f"p={p}: relative Frobenius error {rel}"
            assert np.array_equal(m, m.T), "root must be exactly symmetric"

    def test_rank_deficient(self):
        # Rank-1 PSD matrix: the zero eigenvalue must clamp cleanly.
        v = np.array([[3.0], [4.0]])
        s = v @ v.T
        m = sym_sqrt(s)
        assert np.allclose(m @ m, s, atol=1e-12)

    def test_tiny_negative_eigenvalue_clamped(self):
        s = np.diag([1.0, -1e-12])
        m = sym_sqrt(s)
        assert m[1, 1] == 0.0, "round-off negatives clamp to zero"

    def test_not_psd_rejected(self):
        with pytest.raises(NotPsdError, match="eigenvalue"):
            sym_sqrt(np.diag([1.0, -0.5]))

    def test_asymmetric_rejected(self):
        with pytest.raises(NotSymmetricError):
            sym_sqrt(np.array([[1.0, 0.5], [0.0, 1.0]]))

    def test_non_square_rejected(self):
        with pytest.raises(NotSymmetricError):
            sym_sqrt(np.zeros((2, 3)))

