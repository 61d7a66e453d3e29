import numpy as np
import pytest

import vectorhost as vh
from vectorhost.errors import MeshMismatchError, ValidationError

from helpers import constants_coeffs


class TestMesh:
    def test_five_node_unit_interval(self):
        mesh = vh.build_mesh(0, 1, 5)
        assert mesh.h == 0.25
        assert np.array_equal(mesh.nodes, [0, 0.25, 0.5, 0.75, 1.0])

    def test_pi_interval_spacing(self):
        mesh = vh.build_mesh(0, np.pi, 201)
        assert mesh.h == pytest.approx(np.pi / 200, rel=1e-15)
        assert mesh.nodes[0] == 0.0
        assert mesh.nodes[-1] == np.pi

    def test_spacing_consistency(self):
        mesh = vh.build_mesh(-2.0, 7.0, 97)
        assert mesh.h * (mesh.n - 1) == pytest.approx(mesh.b - mesh.a, rel=1e-15)
        assert np.all(np.diff(mesh.nodes) > 0)
        assert np.allclose(mesh.nodes, mesh.a + mesh.h * np.arange(mesh.n), atol=1e-14)

    @pytest.mark.parametrize("a,b,n", [(1, 0, 5), (0, 0, 5), (0, 1, 2), (0, 1, 3.5)])
    def test_rejects_bad_arguments(self, a, b, n):
        with pytest.raises(ValidationError):
            vh.build_mesh(a, b, n)

    def test_nodes_are_read_only(self):
        mesh = vh.build_mesh(0, 1, 5)
        with pytest.raises(ValueError):
            mesh.nodes[0] = 3.0


class TestScalarField:
    def test_constant_field(self, unit_mesh):
        f = vh.field_from_constant(unit_mesh, 1.0)
        assert np.all(f.values == 1.0)
        g = vh.field_from_constant(unit_mesh, 0.0)
        assert np.all(g.values == 0.0)

    def test_rejects_nan_constant(self, unit_mesh):
        with pytest.raises(ValidationError):
            vh.field_from_constant(unit_mesh, float("nan"))

    def test_rejects_wrong_length(self, unit_mesh):
        with pytest.raises(ValidationError):
            vh.ScalarField(unit_mesh, np.zeros(7))

    def test_rejects_non_finite_values(self, unit_mesh):
        vals = np.zeros(unit_mesh.n)
        vals[3] = np.inf
        with pytest.raises(ValidationError):
            vh.ScalarField(unit_mesh, vals)

    def test_values_are_read_only(self, unit_mesh):
        f = vh.field_from_constant(unit_mesh, 2.0)
        with pytest.raises(ValueError):
            f.values[0] = 5.0


class TestSupNormDistance:
    def test_basic_values(self):
        mesh = vh.build_mesh(0, 1, 3)
        f = vh.ScalarField(mesh, [0.0, 0.0, 0.0])
        g = vh.ScalarField(mesh, [0.0, 1.0, 0.0])
        assert vh.sup_distance(f, f) == 0.0
        assert vh.sup_distance(f, g) == 1.0

    def test_mesh_mismatch(self):
        f = vh.field_from_constant(vh.build_mesh(0, 1, 5), 1.0)
        g = vh.field_from_constant(vh.build_mesh(0, 1, 7), 1.0)
        with pytest.raises(MeshMismatchError):
            vh.sup_distance(f, g)

    def test_metric_axioms_on_random_fields(self, unit_mesh):
        rng = np.random.default_rng(42)
        for _ in range(25):
            f = vh.ScalarField(unit_mesh, rng.normal(size=unit_mesh.n))
            g = vh.ScalarField(unit_mesh, rng.normal(size=unit_mesh.n))
            h = vh.ScalarField(unit_mesh, rng.normal(size=unit_mesh.n))
            dfg = vh.sup_distance(f, g)
            assert dfg == vh.sup_distance(g, f)
            assert dfg <= vh.sup_distance(f, h) + vh.sup_distance(h, g) + 1e-15
            assert vh.sup_distance(f, f) == 0.0
            if dfg == 0.0:
                assert np.array_equal(f.values, g.values)


class TestBoundarySpec:
    def test_kinds(self):
        assert vh.BoundarySpec.neumann().kind == "neumann"
        assert vh.BoundarySpec.dirichlet().kind == "dirichlet"
        rb = vh.BoundarySpec.robin(1.0, 0.5)
        assert rb.robin_b == (1.0, 0.5)

    def test_robin_requires_nonnegative(self):
        with pytest.raises(ValidationError):
            vh.BoundarySpec.robin(-1.0, 0.0)

    def test_robin_b_only_for_robin(self):
        with pytest.raises(ValidationError):
            vh.BoundarySpec("neumann", (1.0, 1.0))

    def test_unknown_kind(self):
        with pytest.raises(ValidationError):
            vh.BoundarySpec("periodic")


class TestCoefficientSet:
    def test_accepts_valid_constants(self, unit_mesh):
        coeffs = constants_coeffs(unit_mesh)
        assert coeffs.mesh == unit_mesh

    @pytest.mark.parametrize("name", ["d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu"])
    def test_rejects_nonpositive_node(self, unit_mesh, name):
        values = np.ones(unit_mesh.n)
        values[4] = 0.0
        fields = {k: vh.field_from_constant(unit_mesh, v) for k, v in
                  dict(d1=1, d2=1, rho=1, sigma1=1, sigma2=1, beta=1, mu=1, h_u=2).items()}
        fields[name] = vh.ScalarField(unit_mesh, values)
        with pytest.raises(ValidationError):
            vh.CoefficientSet(**fields)

    def test_h_u_zero_max_rejected(self, unit_mesh):
        with pytest.raises(ValidationError):
            constants_coeffs(unit_mesh, h_u=0.0)

    def test_h_u_negative_rejected(self, unit_mesh):
        with pytest.raises(ValidationError):
            constants_coeffs(unit_mesh, h_u=-1.0)

    def test_h_u_may_touch_zero(self, unit_mesh):
        hu = np.zeros(unit_mesh.n)
        hu[unit_mesh.n // 2] = 1.0
        fields = {k: vh.field_from_constant(unit_mesh, 1.0)
                  for k in ("d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu")}
        coeffs = vh.CoefficientSet(h_u=vh.ScalarField(unit_mesh, hu), **fields)
        assert coeffs.h_u.values.max() == 1.0

    def test_mesh_mismatch_rejected(self, unit_mesh):
        other = vh.build_mesh(0, 1, 51)
        fields = {k: vh.field_from_constant(unit_mesh, 1.0)
                  for k in ("d1", "d2", "rho", "sigma1", "sigma2", "beta", "mu")}
        with pytest.raises(MeshMismatchError):
            vh.CoefficientSet(h_u=vh.field_from_constant(other, 2.0), **fields)
