"""The kernel form of a kernel frame, dK[u] W on kernel columns W, against
the full projector derivative `KernelFrame.derivative` sandwiched the way
`check` used to read it; the closed-form second fundamental form of the
sphere, flat space and product against `core.second_fundamental_form`; and
d2f and `core.riemann`, which read II on tangent columns, against the full
projector-derivative formulas they replaced."""

import numpy as np
import numpy.testing as npt
import pytest

from submersion_lab import core, geometries, graph, scenarios
from submersion_lab.numerics import per_point
from submersion_lab.pullback import PointData
from submersion_lab.submersion import splitting

from conftest import draw_block

RTOL, ATOL = 1e-12, 1e-14
BUNDLES = ["hopf_complex", "hopf_quaternionic", "hopf_octonionic", "trivial_bundle_spheres"]
MAPS = ["hopf", "compose(hopf, perturbed(0.3, e1))"]


@pytest.mark.parametrize("fixture", BUNDLES)
def test_vertical_kernel_form_matches_the_derivative(fixture, request):
    # on a block of 3 points: V^T dV[h_k] H, the A tensor's sandwich, and
    # H H^T dV[v_a] V, the fiber check's
    bundle = request.getfixturevalue(fixture)
    p = draw_block(bundle.total, 41, 3)
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
    # dT[row a] row b of `lifted_bases`, in ambient coordinates, at a block
    # of 3 points of f*P
    pb = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "kernel-form", "bundle": bundle, "base_map": base_map})).pullback
    x, p = pb.split_point(draw_block(pb.total_manifold, 43, 3))
    pt = PointData(pb, x, p)
    rows, ii, _ = pt.lifted_bases
    frame = pt.frame
    rows_t = per_point(rows.swapaxes(-1, -2), x, 1)
    old = (frame.derivative(rows) @ rows_t).swapaxes(-1, -2)
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
    z = draw_block(manifold, 47, 4)
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
    z = draw_block(m, 53, 3)
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


# The largest |new - old| of the two tests below, as a share of max(1, the
# largest |old|) of a config (numpy 2.4.6): 2.1e-15 for d2f and 6.2e-16 for
# riemann, whose values reach 30 and 20. Each tolerance is 10x that.
D2F_RTOL = 2.1e-14
RIEMANN_RTOL = 6.2e-15


def canonical_extension_d2f(f, x, X, Xp):
    """d2f as it was: P_N (dJ[X] P_M Xp + J dP[X] Xp) - J P_M dP[X] Xp, from
    the full (m, m) projector derivative of M along X."""
    axes = max(X.ndim, Xp.ndim) - x.ndim
    p_n, jac, p_m = (per_point(a, x, axes) for a in (
        f.target.projector(f(x)), f.jac(x), f.source.projector(x)))
    xp = Xp[..., None]
    dp_xp = core.projector_derivative(f.source, x, X) @ xp
    return (p_n @ (f.jac_derivative(x, X) @ (p_m @ xp) + jac @ dp_xp)
            - jac @ (p_m @ dp_xp))[..., 0]


@pytest.mark.parametrize("base_map", [
    "hopf", "identity", "constant", "geodesic_fold(3)", "perturbed(0.3, e1)",
    "compose(hopf, perturbed(0.3, e1))", "compose(geodesic_fold(2), hopf)"])
@pytest.mark.parametrize("bundle", ["hopf_complex", "hopf_quaternionic", "hopf_octonionic"])
def test_d2f_matches_the_canonical_extension_formula(bundle, base_map):
    # every map head at a block of 4 points, 3 x 3 pairs of tangents each
    f = scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "d2f", "bundle": bundle, "base_map": base_map})).base_map
    x = draw_block(f.source, 61, 4)
    X = tangent_block(f.source, x, 3, seed=62).swapaxes(-1, -2)
    Y = tangent_block(f.source, x, 3, seed=63).swapaxes(-1, -2)
    old = canonical_extension_d2f(f, x, X[:, :, None], Y[:, None])
    new = graph.d2f(f, x, X[:, :, None], Y[:, None])
    assert new.shape == old.shape == (4, 3, 3, f.target.ambient_dim)
    npt.assert_allclose(new, old, rtol=0.0, atol=D2F_RTOL * max(1.0, np.max(np.abs(old))))


def projector_sandwich_riemann(m, x, X, Y, Z, W):
    """riemann as it was: II(A, V) = (I - P) dP[A] V."""
    q = np.eye(m.ambient_dim) - m.projector(x)
    dn_x, dn_y = (q @ core.projector_derivative(m, x, a) for a in (X, Y))
    return (np.vecdot(np.matvec(dn_x, W), np.matvec(dn_y, Z))
            - np.vecdot(np.matvec(dn_x, Z), np.matvec(dn_y, W)))


@pytest.mark.parametrize("manifold", [
    geometries.sphere(3, 0.5),
    geometries.product_manifold(geometries.sphere(2), geometries.sphere(3, 0.5)),
    scenarios.build_scenario(scenarios.ScenarioConfig.from_dict({
        "name": "riemann", "bundle": "hopf_quaternionic",
        "base_map": "compose(hopf, perturbed(0.3, e1))"})).pullback.total_manifold,
], ids=["S3(r=0.5)", "S2xS3", "f*P"])
def test_riemann_matches_the_projector_sandwich(manifold):
    # at a block of 5 points, 4 random tangents each
    z = draw_block(manifold, 71, 5)
    X, Y, Z, W = np.moveaxis(tangent_block(manifold, z, 4, seed=72), -1, 0)
    old = projector_sandwich_riemann(manifold, z, X, Y, Z, W)
    npt.assert_allclose(core.riemann(manifold, z, X, Y, Z, W), old, rtol=0.0,
                        atol=RIEMANN_RTOL * max(1.0, np.max(np.abs(old))))
