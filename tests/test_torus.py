import tracemalloc

import numpy as np
import numpy.testing as npt
import pytest

import polar_derham as pd
from polar_derham.tensor import dims_of_distinct_knots


class TestSpec:
    def test_distinct_knot_round_trip(self):
        spec = pd.TorusComplexSpec(degrees=(3, 2, 3), dims=(5, 6, 4))
        dims = dims_of_distinct_knots((3, 2, 3), spec.distinct_knots)
        again = pd.TorusComplexSpec(degrees=(3, 2, 3), dims=dims)
        assert again.dims == (5, 6, 4)

    @pytest.mark.parametrize("kwargs", [
        dict(degrees=(1, 2, 2), dims=(4, 4, 3)),
        dict(degrees=(2, 2, 2), dims=(2, 4, 3)),
        dict(degrees=(2, 2, 2), dims=(4, 3, 3)),
        dict(degrees=(2, 2, 2), dims=(4, 4, 2)),
        dict(degrees=(2, 2, 2), dims=(4, 4, 3), rho_bar=2.0),
        dict(degrees=(2, 2, 2), dims=(4, 4, 3), lengths=(0.0, 1.0, 1.0)),
    ])
    def test_validation(self, kwargs):
        with pytest.raises(ValueError):
            pd.TorusComplexSpec(**kwargs)

    @pytest.mark.parametrize("field,value", [
        ("degrees", (2.9, 2, 2)),
        ("dims", (4.7, 4, 3)),
        ("degrees", ("2", "2", "2")),
        ("lengths", ("1", "1", "1")),
        ("dims", (4, True, 3)),
        ("dims", (4, float("nan"), 3)),
        ("rho_bar", "3"),
        ("degrees", (2, 2)),
        ("dims", "443"),
    ])
    def test_sizes_are_checked_not_truncated_or_parsed(self, field, value):
        kwargs = {"degrees": (2, 2, 2), "dims": (4, 4, 3), field: value}
        with pytest.raises(ValueError, match=f"^spec '{field}'"):
            pd.TorusComplexSpec(**kwargs)

    def test_integral_python_and_numpy_numbers_are_accepted(self):
        spec = pd.TorusComplexSpec(degrees=(2.0, np.int64(2), 2), dims=np.array([4, 4, 3]),
                                   rho_bar=np.int32(3), lengths=(1, np.float32(2.0), 3.5))
        assert spec == pd.TorusComplexSpec((2, 2, 2), (4, 4, 3), 3.0, (1.0, 2.0, 3.5))
        assert {type(x) for x in spec.degrees + spec.dims} == {int}
        assert {type(x) for x in (spec.rho_bar, *spec.lengths)} == {float}

    def test_lengths_respected(self, complex_cache):
        cx = complex_cache(dims=(4, 4, 3), lengths=(2.0, 3.0, 4.0))
        assert cx.tensor.spaces[0].interval == (0.0, 2.0)
        assert cx.tensor.spaces[1].interval == (0.0, 3.0)
        assert cx.tensor.spaces[2].interval == (0.0, 4.0)


class TestFieldCoefficients:
    def test_validation(self):
        with pytest.raises(ValueError, match="level"):
            pd.FieldCoefficients(level=4, space="reduced", data=np.zeros(3))
        with pytest.raises(ValueError, match="space"):
            pd.FieldCoefficients(level=0, space="weird", data=np.zeros(3))

    def test_complex_checks_length(self, cx443):
        bad = pd.FieldCoefficients(level=0, space="reduced", data=np.zeros(5))
        with pytest.raises(ValueError, match="coefficients"):
            cx443.grad(bad)

    def test_to_tensor_of_a_plain_array_names_the_wrapper(self, cx443):
        c = cx443.counts
        with pytest.raises(ValueError, match="FieldCoefficients") as info:
            cx443.to_tensor(np.ones(c.n0))
        assert f"levels 0..3 take {c.n0}, {c.n1}, {c.n2}, {c.n3} coefficients" in str(info.value)

    @pytest.mark.parametrize("dims", [(4, 4, 3), (32, 32, 16)])
    def test_to_tensor_equals_the_per_component_transposes(self, complex_cache, dims):
        cx = complex_cache(dims=dims)
        rng = np.random.default_rng(46)
        for level in range(4):
            data = rng.standard_normal(cx.counts.level_dim(level))
            per_component = np.concatenate(
                [E.T @ data for _, E in cx.extraction.level_matrices(level)])
            got = cx.to_tensor(pd.FieldCoefficients(level, "reduced", data))
            assert got.space == "tensor" and got.level == level
            np.testing.assert_array_equal(got.data, per_component)

    def test_a_tensor_field_is_its_own_tensor_form_and_has_no_pushforward(self, cx443):
        field = pd.FieldCoefficients(1, "tensor", np.ones(cx443.tensor.level_dim(1)))
        assert cx443.to_tensor(field) is field
        with pytest.raises(ValueError, match="expects a reduced field"):
            cx443.pushforward(field, (0.3, 0.4, 0.5))

    def test_level_mismatch(self, cx443):
        field = pd.FieldCoefficients(level=1, space="reduced",
                                     data=np.zeros(cx443.counts.n1))
        with pytest.raises(ValueError, match="level"):
            cx443.grad(field)


class TestOperators:
    def test_reduced_chain(self, cx443):
        rng = np.random.default_rng(51)
        f = rng.standard_normal(cx443.counts.n0)
        g = cx443.grad(f)
        h = cx443.curl(g)
        m = cx443.div(h)
        assert g.data.shape == (cx443.counts.n1,)
        assert h.data.shape == (cx443.counts.n2,)
        assert np.abs(h.data).max() <= 1e-12          # curl of gradient
        assert np.abs(m.data).max() <= 1e-12

    def test_tensor_chain(self, cx443):
        rng = np.random.default_rng(52)
        f = pd.FieldCoefficients(0, "tensor",
                                 rng.standard_normal(cx443.tensor.level_dim(0)))
        g = cx443.grad(f)
        assert g.space == "tensor"
        assert np.abs(cx443.curl(g).data).max() <= 1e-13

    def test_reduction_commutes_with_differentials(self, cx443):
        # re-expressing on the tensor levels then differentiating equals
        # differentiating on the reduced DOFs then re-expressing
        rng = np.random.default_rng(53)
        f = rng.standard_normal(cx443.counts.n0)
        left = cx443.tensor.apply_grad(cx443.to_tensor(
            pd.FieldCoefficients(0, "reduced", f)).data)
        right = cx443.to_tensor(cx443.grad(f)).data
        npt.assert_allclose(left, right, atol=1e-13)

        g = rng.standard_normal(cx443.counts.n1)
        left = cx443.tensor.apply_curl(cx443.to_tensor(
            pd.FieldCoefficients(1, "reduced", g)).data)
        right = cx443.to_tensor(cx443.curl(g)).data
        npt.assert_allclose(left, right, atol=1e-13)

        h = rng.standard_normal(cx443.counts.n2)
        left = cx443.tensor.apply_div(cx443.to_tensor(
            pd.FieldCoefficients(2, "reduced", h)).data)
        right = cx443.to_tensor(cx443.div(h)).data
        npt.assert_allclose(left, right, atol=1e-13)


def test_dims_record(cx443):
    record = cx443.dims_record()
    assert record["reduced_dims"] == [33, 87, 78, 24]
    assert record["tensor_dims"] == [48, 132, 120, 36]
    assert record["nbar"] == [11, 18, 8]
    assert record["alternating_sum"] == 0
    assert record["distinct_knots"] == [5, 3, 4]


def test_named_matrices(cx443):
    mats = cx443.named_matrices()
    assert len(mats) == 18
    assert mats["D0"].shape == (87, 33)
    assert mats["E000"].shape == (33, 48)
    assert mats["H0_r"].shape == (4, 6)
    assert mats["D100"].shape == (48, 48)


@pytest.mark.parametrize("degrees,dims", [((2, 2, 2), (4, 4, 3)), ((3, 3, 3), (7, 7, 5))])
def test_every_named_matrix_is_float64(degrees, dims, complex_cache):
    mats = complex_cache(degrees=degrees, dims=dims).named_matrices()
    assert {name: m.dtype for name, m in mats.items() if m.dtype != np.float64} == {}


def test_build_allocates_little_beyond_what_it_keeps():
    # the circle lifts write their CSR arrays directly: no COO triplets or
    # key arrays larger than the output are held while a matrix is built.
    # The build lifts nothing, so D0 to D2, which the incidence set keeps
    # once formed, are lifted here in the traced window
    spec = pd.TorusComplexSpec(degrees=(2, 2, 2), dims=(32, 32, 16))
    tracemalloc.start()
    try:
        cx = pd.build_complex(spec)
        for name in cx.incidence.names():
            getattr(cx.incidence, name)
        held, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= 1.1 * held, (peak, held)
    matrices = {**cx.named_matrices(),
                **{f"columns({level})": cx.extraction.columns(level) for level in range(4)}}
    for name, matrix in matrices.items():
        assert matrix.indices.dtype == matrix.indptr.dtype == np.int32, name
