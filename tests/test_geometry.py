import numpy as np
import numpy.testing as npt
import pytest

import polar_derham as pd
from oracles import EPS_LIST, eval_component_basis, probe_engine, smoothness_probe
from polar_derham import SingularityProximityError


# ------------------------------ polar map F ------------------------------------

class TestPolarMap:
    def test_polar_curve_collapse(self, cx443):
        F = cx443.polar_map
        for t in (0.0, 0.1, 0.5, 0.93):
            points = np.stack([F.eval((r, 0.0, t)) for r in (0.0, 1 / 3, 1.0)])
            assert np.abs(points - points[0]).max() <= 1e-13
            assert np.abs(points[:, 2]).max() <= 1e-13  # w = 0

    def test_radius_endpoints(self, cx443):
        data = cx443.polar_map.data
        assert data.rhos[0] == 0.0
        assert data.rhos[-1] == 1.0

    def test_rho_bar_floor(self, cx443):
        with pytest.raises(ValueError, match="exceed 2"):
            pd.build_polar_map(cx443.tensor, 2.0)
        with pytest.raises(ValueError):
            pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3), rho_bar=1.5)

    @pytest.mark.parametrize("rho_bar", [2.0, 1e15, np.inf, np.nan])
    def test_rho_bar_range_is_shared_with_the_spec(self, cx443, rho_bar):
        with pytest.raises(ValueError, match="^rho_bar") as direct:
            pd.build_polar_map(cx443.tensor, rho_bar)
        with pytest.raises(ValueError, match="^rho_bar") as spec:
            pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(4, 4, 3), rho_bar=rho_bar)
        assert str(direct.value) == str(spec.value)
        assert pd.build_polar_map(cx443.tensor, 1e12).data.rho_bar == 1e12

    def test_control_net_formula(self, cx443):
        F = cx443.polar_map
        nr, ns = cx443.tensor.nr, cx443.tensor.ns
        d = F.data
        i, j, k = 2, 3, 2
        expected = np.array([
            (d.rho_bar + d.rhos[j - 1] * np.cos(d.thetas[i - 1])) * np.cos(d.phis[k - 1]),
            (d.rho_bar + d.rhos[j - 1] * np.cos(d.thetas[i - 1])) * np.sin(d.phis[k - 1]),
            d.rhos[j - 1] * np.sin(d.thetas[i - 1]),
        ])
        flat = (i - 1) + (j - 1) * nr + (k - 1) * nr * ns
        npt.assert_allclose(F.control_points[flat], expected)


# ------------------------------- Jacobian --------------------------------------

class TestJacobian:
    def test_singular_at_polar_face(self, cx443):
        for (r, t) in [(0.2, 0.1), (0.7, 0.8)]:
            _, _, det = cx443.polar_map.jacobian((r, 0.0, t))
            assert abs(det) <= 1e-12

    def test_orientation_interior(self, cx443):
        rng = np.random.default_rng(31)
        for _ in range(100):
            point = (rng.uniform(0, 1), rng.uniform(0.1, 1.0), rng.uniform(0, 1))
            assert cx443.polar_map.jacobian(point)[2] > 0.0

    def test_finite_difference_oracle(self, cx443):
        F = cx443.polar_map
        rng = np.random.default_rng(32)
        h = 1e-6
        for _ in range(20):
            p = np.array([rng.uniform(.05, .95), rng.uniform(.15, .9),
                          rng.uniform(.05, .95)])
            _, jac, _ = F.jacobian(p)
            fd = np.empty((3, 3))
            for a in range(3):
                e = np.zeros(3)
                e[a] = h
                fd[:, a] = (F.eval(p + e) - F.eval(p - e)) / (2 * h)
            assert np.abs(jac - fd).max() / np.abs(jac).max() <= 1e-6

    def test_point_domain_check(self, cx443):
        with pytest.raises(ValueError, match="outside"):
            cx443.polar_map.eval((0.1, 1.5, 0.1))


# ---------------------------- geometry map G -----------------------------------

class TestGeometryMap:
    def test_center_points_at_120_degrees(self, cx443):
        G = cx443.geometry_map.reduced_control_points
        c = cx443.counts
        data = cx443.polar_map.data
        rho2 = data.rhos[1]
        for k in range(c.nt):
            triple = G[k * c.nbar0: k * c.nbar0 + 3]
            # meridian-plane coordinates: (radial offset, height)
            radial = np.hypot(triple[:, 0], triple[:, 1]) - data.rho_bar
            planar = np.column_stack([radial, triple[:, 2]])
            npt.assert_allclose(planar[0], [rho2, 0.0], atol=1e-14)
            npt.assert_allclose(planar[1], [-rho2 / 2, np.sqrt(3) / 2 * rho2],
                                atol=1e-14)
            npt.assert_allclose(planar[2], [-rho2 / 2, -np.sqrt(3) / 2 * rho2],
                                atol=1e-14)
            for a in range(3):
                cos = planar[a] @ planar[(a + 1) % 3] / (rho2 ** 2)
                assert abs(cos - np.cos(2 * np.pi / 3)) <= 1e-12

    def test_outer_points_match_polar_net(self, cx443):
        G = cx443.geometry_map.reduced_control_points
        c = cx443.counts
        F = cx443.polar_map.control_points
        for k in range(1, c.nt + 1):
            for j in range(3, c.ns + 1):
                for i in range(1, c.nr + 1):
                    ell = 3 + i + (j - 3) * c.nr + (k - 1) * c.nbar0
                    flat = (i - 1) + (j - 1) * c.nr + (k - 1) * c.nr * c.ns
                    npt.assert_allclose(G[ell - 1], F[flat])

    def test_geometry_map_is_c1_at_polar_curve(self, cx443):
        # the probe on the three coordinates of G at once
        report = probe_engine(cx443.geometry_map.eval, cx443.polar_map,
                              cx443.tensor, 0.2, EPS_LIST)
        assert report.value_discrepancy.shape == (3,)
        assert report.value_discrepancy.max() <= 1e-12
        first = report.c1_table[0][1]
        for _, delta in report.c1_table:
            assert np.all((delta <= 1e-10) | (delta <= first))


# ----------------------------- pushforwards ------------------------------------

class TestPushforward:
    def test_level0_constant(self, cx443):
        ones = np.ones(cx443.counts.n0)
        for point in [(0.0, 0.0, 0.0), (0.3, 0.0, 0.7), (0.9, 0.5, 0.2)]:
            xyz, value = cx443.pushforward(ones, point, level=0)
            assert abs(value - 1.0) <= 1e-12

    def test_gradient_chain_rule(self, cx443):
        rng = np.random.default_rng(33)
        f = rng.standard_normal(cx443.counts.n0)
        g = cx443.grad(f)
        h = 1e-6

        def scalar(pt):
            return f @ cx443.reduced_basis_values(0, pt)

        for _ in range(10):
            p = np.array([rng.uniform(.05, .95), rng.uniform(.15, .9),
                          rng.uniform(.05, .95)])
            xyz, value = cx443.pushforward(g, p)
            fd_grad = np.array([
                (scalar(p + h * e) - scalar(p - h * e)) / (2 * h)
                for e in np.eye(3)
            ])
            _, jac, _ = cx443.polar_map.jacobian(p)
            expected = np.linalg.solve(jac.T, fd_grad)
            err = np.abs(value - expected).max() / max(1.0, np.abs(expected).max())
            assert err <= 1e-4

    def test_covector_pushforward_forms_no_determinant(self, cx443, monkeypatch):
        g = cx443.grad(np.random.default_rng(35).standard_normal(cx443.counts.n0))
        points = np.array([[0.2, 0.3, 0.4], [0.7, 0.9, 0.1]])
        expected = cx443.pushforward(g, points)

        def refuse(*args):
            raise AssertionError("determinant formed")

        monkeypatch.setattr(np.linalg, "det", refuse)
        for got, want in zip(cx443.pushforward(g, points), expected):
            np.testing.assert_array_equal(got, want)
        with pytest.raises(AssertionError, match="determinant"):
            cx443.pushforward(np.zeros(cx443.counts.n2), points, level=2)

    def test_level3_bounded_near_polar_curve(self, cx443):
        rng = np.random.default_rng(34)
        m = rng.standard_normal(cx443.counts.n3)
        sweep = np.logspace(-1, -6, 11)
        values = [cx443.pushforward(m, (0.37, s, 0.44), level=3)[1] for s in sweep]
        assert np.all(np.isfinite(values))
        scale = 1.0 + abs(values[0])
        assert np.abs(values).max() <= 100 * scale
        # the sweep converges to the finite limit the construction guarantees
        assert abs(values[-1] - values[-2]) <= abs(values[1] - values[0]) + 1e-12

    def test_singularity_floor(self, cx443):
        m = np.zeros(cx443.counts.n3)
        with pytest.raises(SingularityProximityError, match="s_min"):
            cx443.pushforward(m, (0.2, 1e-10, 0.4), level=3)
        with pytest.raises(SingularityProximityError):
            cx443.pushforward(np.zeros(cx443.counts.n1), (0.2, 0.0, 0.4), level=1)

    def test_level0_allowed_at_polar_face(self, cx443):
        f = np.zeros(cx443.counts.n0)
        f[0] = 1.0
        xyz, value = cx443.pushforward(f, (0.5, 0.0, 0.25), level=0)
        assert np.isfinite(value)

    def test_coefficient_length_check(self, cx443):
        with pytest.raises(ValueError, match="coefficients"):
            cx443.pushforward(np.zeros(5), (0.3, 0.4, 0.5), level=0)


# --------------------------- smoothness probes ---------------------------------

class TestSmoothnessProbe:
    def test_every_basis_function(self, cx443):
        report = smoothness_probe(cx443, t=0.33, eps_list=EPS_LIST)
        assert report.value_discrepancy.shape == (cx443.counts.n0,)
        assert report.value_discrepancy.max() <= 1e-12
        deltas = [d for _, d in report.c1_table]
        floor = 1e-10
        assert np.all((deltas[1] <= deltas[0]) | (deltas[1] <= floor))
        assert np.all((deltas[2] <= deltas[1]) | (deltas[2] <= floor))

    def test_raw_tensor_negative_control(self, cx443):
        report = smoothness_probe(cx443, t=0.33, eps_list=(1e-2,), space="tensor")
        assert report.value_discrepancy.max() > 1e-3

    def test_probe_on_odd_poloidal_count(self, complex_cache):
        # no antipodal parametric pair exists for odd nr; the weighted
        # three-direction combination must still shrink linearly
        cx = complex_cache(dims=(5, 5, 4))
        report = smoothness_probe(cx, t=0.4, eps_list=EPS_LIST)
        assert report.value_discrepancy.max() <= 1e-12
        deltas = [d for _, d in report.c1_table]
        floor = 1e-10
        assert np.all((deltas[1] <= deltas[0]) | (deltas[1] <= floor))
        assert np.all((deltas[2] <= deltas[1]) | (deltas[2] <= floor))

    @pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (7, 7, 5))])
    @pytest.mark.parametrize("space", ["reduced", "tensor"])
    def test_batched_probe_matches_pointwise_oracle(self, degrees, dims, space,
                                                    complex_cache):
        # the probe recomputed one point at a time from the dense tensor basis
        cx = complex_cache(degrees=degrees, dims=dims)
        t = 0.33
        rep = smoothness_probe(cx, t, EPS_LIST, space=space)

        def dense(r, s):
            b = eval_component_basis(cx.tensor, (0, 0, 0), (r, s, t))
            return cx.extraction.E000 @ b if space == "reduced" else b

        vals0 = np.stack([dense(r, 0.0) for r in rep.r_samples])
        npt.assert_allclose(rep.value_discrepancy, vals0.max(0) - vals0.min(0),
                            rtol=0, atol=1e-15)
        r3 = (0.15 + np.array([0.0, 1.0 / 3.0, 2.0 / 3.0])) % 1.0
        dirs = np.stack([cx.polar_map.jacobian((r, 0.0, t))[1][:, 1] for r in r3], axis=1)
        weights = np.linalg.svd(dirs)[2][-1]
        base = np.stack([dense(r, 0.0) for r in r3])
        for eps, delta in rep.c1_table:
            vals = np.stack([dense(r, eps) for r in r3])
            npt.assert_allclose(delta, np.abs(weights @ (vals - base)) / eps,
                                rtol=0, atol=1e-12)

    def test_unknown_space_rejected(self, cx443):
        with pytest.raises(ValueError, match="unknown space"):
            smoothness_probe(cx443, 0.3, EPS_LIST, space="bogus")
