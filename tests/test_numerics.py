"""Seeded blocks of normals, deterministic orthonormal bases of projector ranges,
the SVD nullspace / row-space split and its one rank rule."""

import dataclasses

import numpy as np
import numpy.testing as npt
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from submersion_lab import core, geometries, graph, numerics
from submersion_lab.core import RankDeficiencyError
from submersion_lab.numerics import first_extreme, nullspace_basis, orthonormal_basis, rng_blocks

from conftest import draw_point, rng_for


def random_projector(n, rank, rng):
    q, _ = np.linalg.qr(rng.standard_normal((n, rank)))
    return q @ q.T


def assert_sign_convention(basis):
    pivots = basis[np.argmax(np.abs(basis), axis=0), np.arange(basis.shape[1])]
    assert np.all(pivots > 0)


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(2, 1), (3, 2), (8, 7),
                                                     (16, 9), (16, 15), (24, 20)]))
def test_orthonormal_basis_of_range(seed, shape):
    n, rank = shape
    p = random_projector(n, rank, np.random.default_rng(seed))
    for dim in (rank, n):
        basis = orthonormal_basis(p, dim=dim)
        assert basis.shape == (n, rank)
        npt.assert_allclose(basis.T @ basis, np.eye(rank), atol=1e-12)
        npt.assert_allclose(p @ basis, basis, atol=1e-12)
        assert_sign_convention(basis)


def test_tangent_bases_repeatable_and_sign_normalised():
    for manifold in (geometries.sphere(7), geometries.hopf_fibration("octonionic").total):
        rng = rng_for(manifold.ambient_dim)
        for _ in range(5):
            x = draw_point(manifold, rng)
            basis = core.tangent_basis(manifold, x)
            assert np.array_equal(basis, core.tangent_basis(manifold, x.copy()))
            assert np.array_equal(basis, orthonormal_basis(manifold.projector_field(x),
                                                           dim=manifold.intrinsic_dim))
            npt.assert_allclose(basis.T @ basis, np.eye(manifold.intrinsic_dim), atol=1e-12)
            assert_sign_convention(basis)


def test_rank_short_projector_gives_fewer_columns():
    p = random_projector(6, 2, rng_for(0))
    assert orthonormal_basis(p, dim=3).shape == (6, 2)
    assert orthonormal_basis(1e-8 * p, dim=2).shape == (6, 0)
    overstated = dataclasses.replace(geometries.sphere(3), intrinsic_dim=4)
    with pytest.raises(RankDeficiencyError, match="rank 3, expected 4"):
        core.tangent_basis(overstated, np.array([1.0, 0.0, 0.0, 0.0]))


def test_rng_blocks_pinned():
    # Every report depends on this seeding policy; these draws were recorded
    # from one PCG64 generator of SeedSequence(7).
    (block,) = rng_blocks(7, 3, 2)
    npt.assert_allclose(block, [[0.00123015, 0.29874554], [-0.27413786, -0.89059184],
                                [-0.45467079, -0.99164655]], atol=1e-8)


@pytest.mark.parametrize("largest", [False, True])
def test_first_extreme_ignores_rounding_ties(largest):
    # values tied at the extreme up to rounding: the lowest tied index wins,
    # whichever of them a 1e-14 perturbation makes the exact extreme
    tied = np.array([3.0, 1.0, 2.0, 1.0, 1.0]) * (-1.0 if largest else 1.0)
    assert first_extreme(tied, largest) == 1
    for k in (1, 3, 4):
        nudged = tied.copy()
        nudged[k] += 1e-14 if largest else -1e-14
        assert first_extreme(nudged, largest) == 1
    # a gap beyond the tolerance still decides
    nudged = tied.copy()
    nudged[4] += 1e-3 if largest else -1e-3
    assert first_extreme(nudged, largest) == 4


def test_nullspace_and_row_space_split():
    rng = rng_for(5)
    a = rng.standard_normal((3, 2)) @ rng.standard_normal((2, 5))  # rank 2
    vectors, s = nullspace_basis(a)
    # every right-singular vector, n of them; the leading kernel_rank span the
    # rows and the rest the nullspace
    assert vectors.shape == (5, 5) and s.shape == (5,) and numerics.kernel_rank(s) == 2
    npt.assert_allclose(vectors.T @ vectors, np.eye(5), atol=1e-12)
    rows = vectors[:, :2]
    npt.assert_allclose(a @ vectors[:, 2:], 0.0, atol=1e-12)
    # the nullspace is the orthogonal complement: a projector of rank 3 that a kills
    complement = np.eye(5) - rows @ rows.T
    npt.assert_allclose(complement @ complement, complement, atol=1e-12)
    assert np.trace(complement) == pytest.approx(3.0, abs=1e-12)
    npt.assert_allclose(a @ complement, 0.0, atol=1e-12)
    # the zero matrix has rank 0
    assert numerics.kernel_rank(nullspace_basis(np.zeros((3, 5)))[1]) == 0


def test_one_rank_rule_for_nullspace_and_kernel_frame():
    # singular values (1, 1e-7, 0): the second lies below KERNEL_RTOL, so the
    # basis routine and the kernel frame of the linear map both say rank 1
    rng = rng_for(6)
    u, _ = np.linalg.qr(rng.standard_normal((3, 3)))
    v, _ = np.linalg.qr(rng.standard_normal((5, 5)))
    a = u @ np.diag([1.0, 1e-7, 0.0]) @ v[:, :3].T
    f = graph.SmoothMapBetweenManifolds(
        source=geometries.flat_space(5), target=geometries.flat_space(3),
        ambient_map=lambda x: x @ a.T, jacobian=numerics.constant_field(a))
    rank = numerics.kernel_rank(nullspace_basis(a)[1])
    frame = graph.KernelFrame(f, np.zeros(5))
    assert rank == frame.rank == 1
    assert a.shape[1] - rank == frame.kernel_basis.shape[1] == 4
    assert graph.KERNEL_RTOL is numerics.KERNEL_RTOL
