"""Cayley-Dickson arithmetic: multiplication tables and composition norms."""

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submersion_lab import algebra


def quaternion_units():
    return np.eye(4)


class TestQuaternions:
    def test_multiplication_table(self):
        one, i, j, k = quaternion_units()
        npt.assert_allclose(algebra.multiply(i, j), k, atol=0)
        npt.assert_allclose(algebra.multiply(j, i), -k, atol=0)
        npt.assert_allclose(algebra.multiply(j, k), i, atol=0)
        npt.assert_allclose(algebra.multiply(k, i), j, atol=0)
        npt.assert_allclose(algebra.multiply(i, i), -one, atol=0)
        npt.assert_allclose(algebra.multiply(j, j), -one, atol=0)
        npt.assert_allclose(algebra.multiply(k, k), -one, atol=0)

    def test_conjugation_reverses_products(self):
        rng = np.random.default_rng(0)
        x = rng.standard_normal(4)
        y = rng.standard_normal(4)
        npt.assert_allclose(algebra.conj(algebra.multiply(x, y)),
                            algebra.multiply(algebra.conj(y), algebra.conj(x)),
                            atol=1e-14)


class TestOctonions:
    def test_norm_composition_large_sample(self):
        # 1e5 random pairs, |xy| = |x||y| to 1e-12
        rng = np.random.default_rng(42)
        x = rng.standard_normal((100_000, 8))
        y = rng.standard_normal((100_000, 8))
        lhs = np.linalg.norm(algebra.multiply(x, y), axis=-1)
        rhs = np.linalg.norm(x, axis=-1) * np.linalg.norm(y, axis=-1)
        assert np.max(np.abs(lhs - rhs) / np.maximum(rhs, 1e-12)) <= 1e-12

    def test_alternativity(self):
        # x(xy) = (xx)y and (yx)x = y(xx)
        rng = np.random.default_rng(3)
        for _ in range(50):
            x = rng.standard_normal(8)
            y = rng.standard_normal(8)
            npt.assert_allclose(
                algebra.multiply(x, algebra.multiply(x, y)),
                algebra.multiply(algebra.multiply(x, x), y), atol=1e-12)
            npt.assert_allclose(
                algebra.multiply(algebra.multiply(y, x), x),
                algebra.multiply(y, algebra.multiply(x, x)), atol=1e-12)

    def test_not_associative(self):
        e = np.eye(8)
        lhs = algebra.multiply(e[1], algebra.multiply(e[2], e[4]))
        rhs = algebra.multiply(algebra.multiply(e[1], e[2]), e[4])
        assert np.linalg.norm(lhs - rhs) > 1.0

    def test_real_trace_form_associates(self):
        # Re((xy)z) = Re(x(yz)): the identity behind the closed-form fiber
        # alignment in the octonionic chart.
        rng = np.random.default_rng(4)
        for _ in range(50):
            x, y, z = rng.standard_normal((3, 8))
            lhs = algebra.multiply(algebra.multiply(x, y), z)[0]
            rhs = algebra.multiply(x, algebra.multiply(y, z))[0]
            assert abs(lhs - rhs) <= 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 4, 8]))
def test_norm_composition_every_dimension(seed, dim):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    y = rng.standard_normal(dim)
    assert abs(np.linalg.norm(algebra.multiply(x, y))
               - np.linalg.norm(x) * np.linalg.norm(y)) <= 1e-11


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([2, 4, 8]))
def test_multiplication_matrices(seed, dim):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal(dim)
    v = rng.standard_normal(dim)
    npt.assert_allclose(algebra.left_multiplication_matrix(x) @ v,
                        algebra.multiply(x, v), atol=1e-12)
    npt.assert_allclose(algebra.right_multiplication_matrix(x) @ v,
                        algebra.multiply(v, x), atol=1e-12)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([1, 2, 4, 8]))
def test_structure_constants_match_recursion(seed, dim):
    # The Cayley-Dickson recursion is the definition; the contraction
    # against the cached structure constants must reproduce it.
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((3, 5, dim))
    y = rng.standard_normal((5, dim))
    npt.assert_allclose(algebra.multiply(x, y),
                        algebra._multiply_recursive(x, np.broadcast_to(y, x.shape)),
                        atol=1e-12)
    e = np.eye(dim)
    for v in x[0]:
        npt.assert_allclose(algebra.left_multiplication_matrix(v),
                            algebra._multiply_recursive(v[None, :], e).T, atol=1e-12)
        npt.assert_allclose(algebra.right_multiplication_matrix(v),
                            algebra._multiply_recursive(e, v[None, :]).T, atol=1e-12)


def test_structure_constants_cached_read_only():
    table = algebra._structure_constants(8)
    assert algebra._structure_constants(8) is table
    with pytest.raises(ValueError):
        table[0, 0, 0] = 2.0


def test_dimension_mismatch_rejected():
    with pytest.raises(ValueError):
        algebra.multiply(np.ones(4), np.ones(8))
    for d in (3, 5, 6):
        with pytest.raises(ValueError,
                           match=rf"dimension {d}; expected one of \(1, 2, 4, 8\)"):
            algebra.multiply(np.ones(d), np.ones(d))
        with pytest.raises(ValueError, match=rf"dimension {d}"):
            algebra.left_multiplication_matrix(np.ones(d))
