import tracemalloc

import numpy as np
import pytest

from framelab import (
    DegenerateBasisError,
    GaussianBumps,
    InvalidValueError,
    ModelSpace,
    RawSamples,
    SampledMeasureSpace,
    ShapeMismatchError,
    Trigonometric,
    UnsupportedSpaceError,
    counting,
    delta_frame,
    dual_grid,
    fourier_grid,
    from_samples,
    l2_inner,
    make_model,
    orthonormalize,
    periodic_unit_grid,
    symmetric_grid,
    to_samples,
    transform_matrix,
)
from framelab.model import _diagonal, _singular_values


def gram_of(model):
    w = model.space.weights
    return model.on_basis.conj().T @ (w[:, None] * model.on_basis)


class TestMakeModel:
    def test_trigonometric_degree_7_on_n16(self):
        model = make_model(periodic_unit_grid(16), Trigonometric(max_degree=7))
        assert model.dim == 15
        assert np.max(np.abs(gram_of(model) - np.eye(15))) < 1e-12

    def test_full_degree_on_even_grid_reaches_k_equals_n(self):
        model = make_model(periodic_unit_grid(8), Trigonometric(max_degree=4))
        assert model.dim == 8

    def test_raw_samples_on_counting_is_standard_basis(self):
        model = make_model(counting(3), RawSamples())
        assert model.dim == 3
        assert np.allclose(model.on_basis, np.eye(3))

    def test_duplicate_gaussian_centers_degenerate(self):
        space = symmetric_grid(17, 4.0)
        with pytest.raises(DegenerateBasisError, match="column 1"):
            make_model(space, GaussianBumps(centers=(0.0, 0.0), width=1.0))

    def test_gaussian_bumps_orthonormalized(self):
        space = symmetric_grid(33, 4.0)
        model = make_model(space, GaussianBumps(centers=(-2.0, 0.0, 2.0), width=0.7))
        assert model.dim == 3
        assert np.max(np.abs(gram_of(model) - np.eye(3))) < 1e-10

    def test_orthonormalization_idempotent(self):
        model = make_model(periodic_unit_grid(16), Trigonometric(max_degree=7))
        again = orthonormalize(model.on_basis, model.space.weights)
        assert np.max(np.abs(again - model.on_basis)) < 1e-12

    def test_too_many_frequencies_rejected(self):
        with pytest.raises(DegenerateBasisError):
            make_model(periodic_unit_grid(8), Trigonometric(max_degree=6))

    @pytest.mark.parametrize("family", [GaussianBumps(centers=(), width=1.0),
                                        Trigonometric(max_degree=-1)],
                             ids=["no-centers", "negative-degree"])
    def test_a_basis_with_no_columns_is_degenerate(self, family):
        with pytest.raises(DegenerateBasisError, match="no columns"):
            make_model(periodic_unit_grid(8), family)

    def test_a_model_space_with_no_columns_is_degenerate(self):
        with pytest.raises(DegenerateBasisError, match="no columns"):
            ModelSpace(space=counting(3), on_basis=np.zeros((3, 0)),
                       family=RawSamples())

    @pytest.mark.parametrize("on_basis", [2 * np.eye(2), np.full((2, 2), np.nan)])
    def test_non_orthonormal_basis_is_a_typed_error(self, on_basis):
        space = counting(2)
        with pytest.raises(InvalidValueError, match="not H-orthonormal"):
            ModelSpace(space=space, on_basis=on_basis, family=RawSamples())

    @pytest.mark.parametrize("on_basis", [np.eye(2), np.ones(3)], ids=["2x2", "1-d"])
    def test_on_basis_needs_one_row_per_point(self, on_basis):
        with pytest.raises(ShapeMismatchError,
                           match="on_basis must have one row per sample point"):
            ModelSpace(space=counting(3), on_basis=on_basis, family=RawSamples())


class TestReadOnlyBasis:
    @pytest.mark.parametrize("family", [RawSamples(), Trigonometric(max_degree=3),
                                        GaussianBumps(centers=(0.25, 0.5), width=0.2)],
                             ids=["raw", "trigonometric", "gaussian"])
    def test_on_basis_rejects_writes(self, family):
        model = make_model(periodic_unit_grid(8), family)
        with pytest.raises(ValueError, match="read-only"):
            model.on_basis[0, 0] = 2.0

    def test_a_writeable_basis_is_copied(self):
        source = np.eye(3, dtype=complex)
        model = ModelSpace(space=counting(3), on_basis=source, family=RawSamples())
        assert not np.shares_memory(model.on_basis, source)
        source[0, 0] = 5.0
        assert model.on_basis[0, 0] == 1.0

    @pytest.mark.parametrize("family", [RawSamples(), Trigonometric(max_degree=3)],
                             ids=["raw", "trigonometric"])
    def test_the_delta_table_is_the_model_basis(self, family):
        space = periodic_unit_grid(8)
        model = make_model(space, family)
        assert np.shares_memory(delta_frame(model, space).table, model.on_basis)


class TestOrthonormalize:
    @pytest.mark.parametrize("centers, column", [
        ((0.0, 0.0), 1),
        ((-1.0, 0.0, 0.0), 2),
        ((0.0, 1e-12, 1.0), 1),
        ((-1.0, 1.0, -1.0 + 1e-13), 2),
    ])
    def test_dependent_gaussian_columns_name_the_column(self, centers, column):
        space = symmetric_grid(33, 4.0)
        with pytest.raises(DegenerateBasisError, match=f"column {column} "):
            make_model(space, GaussianBumps(centers=centers, width=0.7))

    def test_linear_combination_is_rejected(self, rng):
        weights = rng.uniform(0.5, 2.0, 12)
        cols = rng.standard_normal((12, 3)) + 1j * rng.standard_normal((12, 3))
        cols = np.column_stack([cols, cols[:, 0] - 2j * cols[:, 2]])
        with pytest.raises(DegenerateBasisError, match="column 3 "):
            orthonormalize(cols, weights)

    def test_more_columns_than_points_is_rejected(self, rng):
        cols = rng.standard_normal((4, 5)) + 0j
        with pytest.raises(DegenerateBasisError, match="column 4 "):
            orthonormalize(cols, np.ones(4))

    @pytest.mark.parametrize("space, family, tol", [
        (periodic_unit_grid(64), Trigonometric(max_degree=32), 1e-12),
        (fourier_grid(32), Trigonometric(max_degree=15), 1e-12),
        (symmetric_grid(65, 6.0),
         GaussianBumps(centers=tuple(np.linspace(-4, 4, 9)), width=0.8), 1e-10),
    ])
    def test_bases_are_h_orthonormal(self, space, family, tol):
        model = make_model(space, family)
        assert np.max(np.abs(gram_of(model) - np.eye(model.dim))) < tol

    def test_nested_spans_with_positive_diagonal(self, rng):
        # Column k of the output spans the first k + 1 input columns, with a
        # positive coefficient on column k: the Gram-Schmidt representative.
        weights = rng.uniform(0.5, 2.0, 10)
        cols = rng.standard_normal((10, 4)) + 1j * rng.standard_normal((10, 4))
        on = orthonormalize(cols, weights)
        r = on.conj().T @ (weights[:, None] * cols)
        assert np.max(np.abs(np.tril(r, -1))) < 1e-12
        assert np.all(np.abs(np.diagonal(r).imag) < 1e-12)
        assert np.all(np.diagonal(r).real > 0)


class TestHInner:
    """Coefficients in the orthonormal basis carry the H inner product."""

    def test_orthonormality(self):
        model = make_model(counting(4), RawSamples())
        e0, e1 = np.eye(4, dtype=complex)[:2]
        assert np.vdot(e0, e0) == 1 and np.vdot(e1, e0) == 0
        s0, s1 = to_samples(model, e0), to_samples(model, e1)
        assert l2_inner(model.space, s0, s0) == 1
        assert l2_inner(model.space, s0, s1) == 0

    def test_direct_sum(self, rng):
        model = make_model(periodic_unit_grid(8), Trigonometric(max_degree=3))
        cf, cg = rng.standard_normal((2, model.dim)) + 1j * rng.standard_normal((2, model.dim))
        samples = l2_inner(model.space, to_samples(model, cf), to_samples(model, cg))
        assert abs(np.vdot(cg, cf) - samples) < 1e-12

    def test_positive_definite(self, rng):
        model = make_model(periodic_unit_grid(8), Trigonometric(max_degree=3))
        for _ in range(20):
            c = rng.standard_normal(model.dim) + 1j * rng.standard_normal(model.dim)
            assert np.vdot(c, c).real > 0

    def test_sample_roundtrip_when_basis_spans(self, rng):
        model = make_model(periodic_unit_grid(8), Trigonometric(max_degree=4))
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.max(np.abs(to_samples(model, from_samples(model, values)) - values)) < 1e-12

    def test_a_test_function_is_its_coefficient_vector(self, rng):
        model = make_model(periodic_unit_grid(8), Trigonometric(max_degree=3))
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        coeffs = from_samples(model, values)
        assert type(coeffs) is np.ndarray and coeffs.shape == (model.dim,)
        expected = model.on_basis.conj().T @ (model.space.weights * values)
        assert np.array_equal(coeffs, expected)

    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_samples_rejected(self, bad):
        model = make_model(counting(3), RawSamples())
        with pytest.raises(InvalidValueError, match="sample values must be finite"):
            from_samples(model, [1.0, bad, 2.0])

    def test_samples_need_one_value_per_point(self):
        model = make_model(counting(3), RawSamples())
        with pytest.raises(ShapeMismatchError, match="expected 3 sample values"):
            from_samples(model, [1.0, 2.0])


class TestTransform:
    def test_constant_concentrates_at_zero_frequency(self):
        spectrum = transform_matrix(periodic_unit_grid(4)) @ np.ones(4)
        assert spectrum[0] == pytest.approx(1.0)
        assert np.max(np.abs(spectrum[1:])) < 1e-14

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_roundtrip(self, n, rng):
        space = periodic_unit_grid(n)
        forward = transform_matrix(space)
        inverse = transform_matrix(space, inverse=True)
        x = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        assert np.max(np.abs(forward @ (inverse @ x) - x)) < 1e-12
        assert np.max(np.abs(inverse @ (forward @ x) - x)) < 1e-12

    @pytest.mark.parametrize("n", [4, 8, 16, 64])
    def test_parseval_against_direct_sums(self, n, rng):
        space = periodic_unit_grid(n)
        forward = transform_matrix(space)
        dual = dual_grid(space)
        for _ in range(25):
            f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            lhs = np.sqrt(np.sum(dual.weights * np.abs(forward @ f) ** 2))
            rhs = np.sqrt(np.sum(space.weights * np.abs(f) ** 2))
            assert abs(lhs - rhs) < 1e-12

    def test_self_dual_grid_transforms_onto_itself(self):
        space = fourier_grid(16)
        dual = dual_grid(space)
        assert np.max(np.abs(dual.points - space.points)) < 1e-12
        assert np.max(np.abs(dual.weights - space.weights)) < 1e-12

    def test_non_periodic_grid_rejected(self):
        with pytest.raises(UnsupportedSpaceError):
            transform_matrix(symmetric_grid(9, 4.0))


def _closed_form_spaces() -> dict:
    """The spaces on which the raw-samples closed forms are pinned bit for bit."""
    spaces = {f"periodic-{n}": periodic_unit_grid(n)
              for n in (1, 2, 3, 5, 8, 16, 33, 64, 256, 1024)}
    spaces.update({f"counting-{n}": counting(n) for n in (1, 7, 64)})
    spaces.update({f"fourier-{n}": fourier_grid(n) for n in (3, 16, 50)})
    spaces.update({f"symmetric-{n}": symmetric_grid(n, half_width)
                   for n, half_width in ((2, 1.0), (65, 4.0), (129, 8.0))})
    rng = np.random.default_rng(21)
    for n in (10, 100):  # weights spanning 1e-8 to 1e8
        spaces[f"random-weights-{n}"] = SampledMeasureSpace(
            points=np.arange(n, dtype=float), weights=10.0 ** rng.uniform(-8.0, 8.0, n),
            extent=float(n))
    return spaces


CLOSED_FORM_SPACES = _closed_form_spaces()


class TestRawSamplesClosedForm:
    @pytest.mark.parametrize("space", CLOSED_FORM_SPACES.values(),
                             ids=CLOSED_FORM_SPACES.keys())
    def test_basis_and_condition_match_the_decompositions_bit_for_bit(self, space):
        n = len(space)
        model = make_model(space, RawSamples())
        assert np.array_equal(model.on_basis, orthonormalize(np.eye(n), space.weights))
        root = np.sqrt(space.weights)
        sigma = np.linalg.svd(root[:, None] * np.eye(n, dtype=complex), compute_uv=False)
        condition = float(sigma[0] / sigma[-1])
        assert model.summary()["d_basis_condition"] == condition

    def test_summary_reads_the_condition_without_an_n_by_n_array(self):
        n = 1024
        model = make_model(periodic_unit_grid(n), RawSamples())
        tracemalloc.start()
        try:
            model.summary()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4 * n * np.dtype(float).itemsize, peak  # a few length-N arrays

    def test_make_model_makes_no_qr(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "qr", lambda *args, **kwargs: pytest.fail("qr"))
        model = make_model(periodic_unit_grid(16), RawSamples())
        assert np.array_equal(model.on_basis, np.diag(np.full(16, 4.0 + 0j)))


class TestSingularValues:
    @pytest.mark.parametrize("dtype", [float, complex])
    def test_a_diagonal_reads_its_moduli_within_a_few_ulps(self, rng, dtype):
        for n in (1, 2, 9, 64):
            diagonal = rng.standard_normal(n) * 10.0 ** rng.uniform(-6, 6, n)
            if dtype is complex:
                diagonal = diagonal * np.exp(2j * np.pi * rng.uniform(size=n))
            diagonal[::4] = 0.0  # rank-deficient
            matrix = np.diag(diagonal)
            expected = np.linalg.svd(matrix, compute_uv=False)
            sigma = _singular_values(matrix)
            assert sigma.shape == expected.shape
            assert np.all(np.diff(sigma) <= 0.0)
            np.testing.assert_allclose(sigma, expected, rtol=4 * np.finfo(float).eps,
                                       atol=0.0)

    @pytest.mark.parametrize("matrix", [
        np.eye(3, 4),
        np.eye(4, 3),
        np.eye(4) + np.eye(4, k=1) * 1e-300,
        np.ones((5, 5)),
        np.zeros((1, 3)),
    ], ids=["wide", "tall", "one-off-diagonal", "dense", "zero-row"])
    def test_any_other_matrix_takes_one_svd(self, matrix, monkeypatch):
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        assert np.array_equal(_singular_values(matrix),
                              svd(matrix, compute_uv=False))
        assert len(calls) == 1

    def test_a_diagonal_takes_no_svd(self, monkeypatch):
        monkeypatch.setattr(np.linalg, "svd", lambda *args, **kwargs: pytest.fail("svd"))
        assert np.array_equal(_singular_values(np.diag([1.0, -3.0, 0.0, 2j])),
                              [3.0, 2.0, 1.0, 0.0])


class TestDiagonalRule:
    @pytest.mark.parametrize("matrix, diagonal", [
        (np.array([[2.5 - 1j]]), [2.5 - 1j]),
        (np.diag([0.0, 3.0, 0.0, -1j]), [0.0, 3.0, 0.0, -1j]),
        (np.zeros((3, 3)), [0.0, 0.0, 0.0]),
    ], ids=["1x1", "zeros-on-diagonal", "zero"])
    def test_a_diagonal_matrix_gives_its_diagonal(self, matrix, diagonal):
        assert np.array_equal(_diagonal(matrix), diagonal)

    @pytest.mark.parametrize("entry", [1e-300, -1e-300j])
    @pytest.mark.parametrize("row, col", [(0, 3), (3, 0), (2, 1)])
    def test_one_tiny_entry_off_the_diagonal_takes_the_dense_path(
            self, row, col, entry, monkeypatch):
        matrix = np.diag([1.0, 2.0, 3.0, 4.0]).astype(complex)
        matrix[row, col] = entry
        assert _diagonal(matrix) is None
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        _singular_values(matrix)
        assert len(calls) == 1

    @pytest.mark.parametrize("shape", [(3, 4), (4, 3), (1, 2), (0, 1)])
    def test_a_non_square_matrix_is_not_scanned(self, shape, monkeypatch):
        class Unscannable(np.ndarray):
            def __getitem__(self, key):
                pytest.fail("scanned")

        monkeypatch.setattr(np, "count_nonzero", lambda *args: pytest.fail("counted"))
        assert _diagonal(np.zeros(shape).view(Unscannable)) is None

    def test_a_dense_matrix_is_rejected_at_its_first_row(self, monkeypatch):
        monkeypatch.setattr(np, "count_nonzero", lambda *args: pytest.fail("counted"))
        assert _diagonal(np.ones((64, 64))) is None
