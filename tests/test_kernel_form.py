"""The kernel form of a kernel frame, dK[u] W on kernel columns W, against
the full projector derivative `KernelFrame.derivative` sandwiched the way
`check` used to read it; and the closed-form second fundamental form of the
sphere, flat space and product against `core.second_fundamental_form`."""

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import core, geometries, scenarios
from submersion_lab.numerics import per_point, rng_streams
from submersion_lab.pullback import PointData
from submersion_lab.submersion import splitting

RTOL, ATOL = 1e-12, 1e-14
BUNDLES = ["hopf_complex", "hopf_quaternionic", "hopf_octonionic", "trivial_bundle_spheres"]
MAPS = ["hopf", "compose(hopf, perturbed(0.3, e1))"]


def block_on(manifold, n, seed):
    return np.array([manifold.random_point(rng) for rng in rng_streams(seed, n)])


@pytest.mark.parametrize("fixture", BUNDLES)
def test_vertical_kernel_form_matches_the_derivative(fixture, request):
    # on a block of 3 points: V^T dV[h_k] H, the A tensor's sandwich, and
    # H H^T dV[v_a] V, the fiber check's
    bundle = request.getfixturevalue(fixture)
    p = block_on(bundle.total, 3, seed=41)
    sp = splitting(bundle, p)
    h, v = sp.coimage_basis, sp.kernel_basis
    h_t, v_t = h.swapaxes(-1, -2), v.swapaxes(-1, -2)
    a_old = per_point(v_t, p, 1) @ sp.derivative(h_t) @ per_point(h, p, 1)
    a_new = (per_point(h_t, p, 1) @ sp.kernel_derivative(h_t, v)).swapaxes(-1, -2)
    npt.assert_allclose(a_new, a_old, rtol=RTOL, atol=ATOL)
    hh = per_point(h @ h_t, p, 1)
    t_old = hh @ sp.derivative(v_t) @ per_point(v, p, 1)
    npt.assert_allclose(hh @ sp.kernel_derivative(v_t, v), t_old, rtol=RTOL, atol=ATOL)


@pytest.mark.parametrize("base_map", MAPS)
@pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_quaternionic", "hopf_octonionic"])
def test_pullback_kernel_form_matches_the_derivative(bundle, base_map):
    # Q^T dT[row a] row b of `lifted_bases` at a block of 3 points of f*P
    pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "kernel-form", "bundle": bundle, "base_map": base_map})).pullback
    x, p = pb.split_point(block_on(pb.total_manifold, 3, seed=43))
    pt = PointData(pb, x, p)
    rows, ii, _ = pt.lifted_bases
    frame = pt.frame
    q = np.linalg.eigh(frame.normal)[1][..., pb.intrinsic_dim:]
    q_t, rows_t = per_point(q.swapaxes(-1, -2), x, 1), per_point(rows.swapaxes(-1, -2), x, 1)
    old = (q_t @ frame.derivative(rows) @ rows_t).swapaxes(-1, -2)
    npt.assert_allclose(ii, old, rtol=RTOL, atol=ATOL)
    new = frame.kernel_derivative(rows, rows.swapaxes(-1, -2))
    npt.assert_allclose(new, frame.derivative(rows) @ rows_t, rtol=RTOL, atol=ATOL)


def tangent_block(manifold, z, k, seed):
    """k tangent columns at each point of the block z, (b, d, k)."""
    g = np.random.default_rng(seed).standard_normal(z.shape + (k,))
    return manifold.projector(z) @ g


@pytest.mark.parametrize("manifold", [
    geometries.sphere(2), geometries.sphere(3, 0.5), geometries.flat_space(3),
    geometries.product_manifold(geometries.sphere(2), geometries.sphere(3, 0.5)),
    geometries.product_manifold(geometries.flat_space(2), geometries.sphere(2)),
], ids=["S2", "S3(r=0.5)", "R3", "S2xS3", "R2xS2"])
def test_closed_form_second_fundamental_form(manifold):
    # II(u, W) column by column against (I - P) dP[u] w, at a block of 4
    # points with 3 directions and 2 columns each, and at one point
    assert manifold.analytic_second_fundamental_form is not None
    z = block_on(manifold, 4, seed=47)
    u = tangent_block(manifold, z, 3, seed=48).swapaxes(-1, -2)   # (b, r, d)
    w = tangent_block(manifold, z, 2, seed=49)                    # (b, d, k)
    ii = core.tangent_second_fundamental_form(manifold, z, u, w[:, None])
    assert ii.shape == u.shape + (2,)
    for r in range(3):
        for j in range(2):
            npt.assert_allclose(ii[:, r, :, j],
                                core.second_fundamental_form(manifold, z, u[:, r], w[..., j]),
                                rtol=RTOL, atol=ATOL)
    npt.assert_allclose(core.tangent_second_fundamental_form(manifold, z[0], u[0], w[0]),
                        ii[0], rtol=RTOL, atol=ATOL)


def test_a_manifold_without_closed_form_takes_the_fallback(monkeypatch):
    # the f*P manifold has a closed-form projector derivative but no closed
    # II: dP[u] W, which P dP P = 0 makes normal
    pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "fallback", "bundle": "hopf_complex",
        "base_map": "compose(hopf, perturbed(0.3, e1))"})).pullback
    m = pb.total_manifold
    assert m.analytic_second_fundamental_form is None
    z = block_on(m, 3, seed=53)
    u = tangent_block(m, z, 2, seed=54).swapaxes(-1, -2)
    w = tangent_block(m, z, 2, seed=55)
    calls = []
    derivative = core.projector_derivative
    monkeypatch.setattr(core, "projector_derivative",
                        lambda *args: calls.append(args[0]) or derivative(*args))
    ii = core.tangent_second_fundamental_form(m, z, u, w[:, None])
    # one derivative of m itself (its frame then differentiates M x P)
    assert calls[0] is m and m not in calls[1:]
    for r in range(2):
        for j in range(2):
            npt.assert_allclose(ii[:, r, :, j],
                                core.second_fundamental_form(m, z, u[:, r], w[..., j]),
                                rtol=RTOL, atol=ATOL)
