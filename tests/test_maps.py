import tracemalloc

import numpy as np
import pytest

from framelab import (
    Classification,
    DistributionMap,
    GridMismatchError,
    InvalidValueError,
    NotAFrameError,
    PreconditionError,
    RawSamples,
    SampledMeasureSpace,
    Side,
    ShapeMismatchError,
    SingularOperatorError,
    Trigonometric,
    UnsupportedSpaceError,
    band_limited_family,
    build,
    bump_family,
    canonical_dual,
    check_hyper_orthogonal,
    check_pseudo_orthogonal,
    counting,
    delta_frame,
    density_certificate,
    diagnose,
    discrete_sequence_map,
    duality_residual,
    exponential_frame,
    from_samples,
    fourier_grid,
    make_model,
    make_symbol,
    periodic_unit_grid,
    reconstruction_pair,
    riesz_transition,
    scaled_bump_family,
    symmetric_grid,
    to_samples,
    transform_matrix,
    translated_window_frame,
    weighted_delta_frame,
)
from framelab import maps
from framelab.measure import _read_only
from framelab.model import RANK_RTOL, _diagonal
from conftest import random_overcomplete_map, random_riesz_map

C2_VECTORS = [(1, 0), (1, 1), (0, 1)]


def c2_map():
    model = make_model(counting(2), RawSamples())
    return discrete_sequence_map(model, C2_VECTORS)


def unit_grid_setup(n, degree=None):
    space = periodic_unit_grid(n)
    model = make_model(space, Trigonometric(degree if degree is not None else n // 2))
    return model, space


class TestDeltaFrame:
    def test_parseval_gelfand_on_full_trigonometric_regime(self):
        model, space = unit_grid_setup(16)
        diag = diagnose(delta_frame(model, space))
        assert abs(diag.lower - 1.0) < 1e-10
        assert abs(diag.upper - 1.0) < 1e-10
        assert diag.mu_independent
        assert diag.classification is Classification.GELFAND_BASIS

    def test_parseval_but_not_gelfand_on_proper_subspace(self):
        model, space = unit_grid_setup(16, degree=7)  # K = 15 < J = 16
        diag = diagnose(delta_frame(model, space))
        assert diag.classification is Classification.PARSEVAL
        assert not diag.mu_independent

    def test_counting_raw_samples_table_is_identity(self):
        space = counting(3)
        model = make_model(space, RawSamples())
        assert np.allclose(delta_frame(model, space).table, np.eye(3))

    def test_analysis_equals_sample_values(self, rng):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        assert np.max(np.abs(omega.table @ f - to_samples(model, f))) < 1e-12

    def test_grid_mismatch(self):
        model, _ = unit_grid_setup(8)
        with pytest.raises(GridMismatchError):
            delta_frame(model, periodic_unit_grid(16))


class TestExponentialFrame:
    def test_riesz_basis_on_unit_grid(self):
        model, space = unit_grid_setup(8)
        diag = diagnose(exponential_frame(model, space))
        assert diag.classification is Classification.RIESZ_BASIS
        assert diag.condition_number == pytest.approx(1.0, abs=1e-10)
        assert diag.lower == pytest.approx(1 / 8, abs=1e-12)

    def test_gelfand_on_self_dual_grid(self):
        space = fourier_grid(8)
        model = make_model(space, RawSamples())
        diag = diagnose(exponential_frame(model, space))
        assert diag.classification is Classification.GELFAND_BASIS

    def test_analysis_matches_transform_oracle(self, rng):
        model, space = unit_grid_setup(8)
        omega = exponential_frame(model, space)
        f = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        transform = transform_matrix(space) @ to_samples(model, f)
        assert np.max(np.abs(omega.table @ f - transform)) < 1e-12

    def test_constant_function_concentrates_at_zero_frequency(self):
        model, space = unit_grid_setup(8)
        omega = exponential_frame(model, space)
        values = omega.table @ from_samples(model, np.ones(8))
        assert abs(values[0]) > 0.5
        assert np.max(np.abs(values[1:])) < 1e-12

    def test_needs_periodic_grid(self):
        space = symmetric_grid(9, 4.0)
        model = make_model(space, RawSamples())
        with pytest.raises(UnsupportedSpaceError):
            exponential_frame(model, space)


class TestWeightedDeltaFrame:
    def test_unit_weight_equals_delta(self):
        model, space = unit_grid_setup(8)
        assert np.allclose(
            weighted_delta_frame(model, space, lambda x: 1.0).table,
            delta_frame(model, space).table,
        )

    def test_zero_weight_is_the_degenerate_bessel_map(self):
        model, space = unit_grid_setup(8)
        diag = diagnose(weighted_delta_frame(model, space, lambda x: 0.0))
        assert diag.classification is Classification.BESSEL
        assert not diag.total
        assert diag.upper == 0.0

    def test_a_frame_at_a_tiny_scale_keeps_its_class(self):
        model = make_model(counting(2), RawSamples())
        omega = discrete_sequence_map(model, 1e-150 * np.array(C2_VECTORS))
        diag = diagnose(omega)
        assert diag.classification is Classification.FRAME
        assert diag.upper == pytest.approx(3e-300)

    def test_upper_bound_grows_like_l_squared(self):
        uppers = []
        for L in (2.0, 4.0, 8.0):
            space = symmetric_grid(int(8 * L) + 1, L)
            model = make_model(space, RawSamples())
            omega = weighted_delta_frame(model, space, lambda x: x)
            uppers.append(diagnose(omega).upper)
        assert uppers[0] == pytest.approx(4.0, rel=1e-12)
        assert uppers[1] == pytest.approx(16.0, rel=1e-12)
        assert uppers[2] == pytest.approx(64.0, rel=1e-12)


class TestTranslatedWindowFrame:
    def test_point_mass_window_equals_delta(self):
        space = counting(6)
        model = make_model(space, RawSamples())
        window = np.zeros(6)
        window[0] = 1.0
        omega = translated_window_frame(model, space, window)
        assert np.allclose(omega.table, delta_frame(model, space).table)

    def test_truncated_gaussian_window_is_pseudo_orthogonal(self):
        space = counting(16)
        model = make_model(space, RawSamples())
        window = np.exp(-0.5 * np.arange(16.0) ** 2)
        window[np.abs(window) < 1e-3] = 0.0
        omega = translated_window_frame(model, space, window)
        report = check_pseudo_orthogonal(omega, bump_family(model), support_tol=1e-9)
        assert report.passed

    def test_full_support_window_fails_pseudo_orthogonality(self):
        space = counting(8)
        model = make_model(space, RawSamples())
        omega = translated_window_frame(model, space, np.ones(8))
        assert omega.note != ""
        report = check_pseudo_orthogonal(omega, bump_family(model), support_tol=1e-9)
        assert not report.passed
        assert "support" in report.reason


class TestDiscreteSequenceMap:
    def test_c2_frame_bounds(self):
        diag = diagnose(c2_map())
        assert diag.lower == pytest.approx(1.0, abs=1e-12)
        assert diag.upper == pytest.approx(3.0, abs=1e-12)
        assert diag.classification is Classification.FRAME
        assert not diag.mu_independent  # J = 3 > K = 2

    def test_orthonormal_basis_is_parseval(self):
        model = make_model(counting(3), RawSamples())
        diag = diagnose(discrete_sequence_map(model, np.eye(3)))
        assert diag.lower == pytest.approx(1.0)
        assert diag.upper == pytest.approx(1.0)
        assert diag.classification is Classification.GELFAND_BASIS

    def test_repeated_orthonormal_basis_is_tight(self):
        model = make_model(counting(2), RawSamples())
        diag = diagnose(discrete_sequence_map(model, [(1, 0), (0, 1), (1, 0), (0, 1)]))
        assert diag.lower == pytest.approx(2.0)
        assert diag.upper == pytest.approx(2.0)
        assert diag.classification is Classification.TIGHT

    def test_rank_deficient_family_is_not_total(self):
        model = make_model(counting(2), RawSamples())
        diag = diagnose(discrete_sequence_map(model, [(1, 0), (2, 0)]))
        assert not diag.total
        assert diag.classification is Classification.BOUNDED_BESSEL
        assert diag.synthesis_sigma_min == 0.0
        assert diag.condition_number == float("inf")

    def test_size_mismatch(self):
        model = make_model(counting(2), RawSamples())
        with pytest.raises(ShapeMismatchError):
            discrete_sequence_map(model, [(1, 0, 0)])

    @pytest.mark.parametrize("make, message", [
        (lambda model: DistributionMap(table=np.ones((3, 2)), space=model.space,
                                       model=model),
         r"table shape \(3, 2\) does not match 3 points x 3 basis elements"),
        (lambda model: weighted_delta_frame(model, model.space, np.ones(2)),
         "weight values must match the point count"),
        (lambda model: translated_window_frame(model, model.space, np.ones(4)),
         "window must be sampled on the full grid"),
        (lambda model: discrete_sequence_map(model, np.eye(3), counting(4)),
         "space size must match the number of vectors"),
        (lambda model: check_hyper_orthogonal(
            delta_frame(model, model.space), np.ones(2), lambda a: np.eye(3)),
         "alpha must be sampled on the point set"),
    ], ids=["table", "weight", "window", "discrete-space", "alpha"])
    def test_a_length_that_misses_the_point_count_is_a_shape_error(self, make,
                                                                   message):
        model = make_model(counting(3), RawSamples())
        with pytest.raises(ShapeMismatchError, match=message):
            make(model)

    @pytest.mark.parametrize("weight", [1.0 + 1e-6, 1.0 - 1e-6, 2.0])
    def test_weights_other_than_one_are_not_counting_measure(self, weight):
        model = make_model(counting(2), RawSamples())
        space = SampledMeasureSpace(points=[0.0, 1.0, 2.0], weights=[1.0, weight, 1.0],
                                    extent=3.0)
        with pytest.raises(PreconditionError, match="counting measure"):
            discrete_sequence_map(model, C2_VECTORS, space)

    def test_unit_weights_up_to_rounding_are_counting_measure(self):
        model = make_model(counting(2), RawSamples())
        space = SampledMeasureSpace(points=[0.0, 1.0, 2.0],
                                    weights=[1.0, 1.0 + 2e-16, 1.0 - 1e-16], extent=3.0)
        assert discrete_sequence_map(model, C2_VECTORS, space).space is space


class TestDiagnoseProperties:
    def test_frame_inequality_holds_for_random_functions(self, rng):
        omega = random_overcomplete_map(12, 5, rng)
        diag = diagnose(omega)
        w = omega.space.weights
        for _ in range(100):
            c = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            energy = float(np.sum(w * np.abs(omega.table @ c) ** 2))
            norm2 = float(np.vdot(c, c).real)
            assert diag.lower * norm2 <= energy + 1e-9
            assert energy <= diag.upper * norm2 + 1e-9

    def test_riesz_iff_square_and_nonsingular(self, rng):
        omega = random_riesz_map(6, rng)
        diag = diagnose(omega)
        assert diag.classification in (
            Classification.RIESZ_BASIS, Classification.GELFAND_BASIS
        )
        assert diag.total and diag.mu_independent


class TestSpectrumCache:
    def test_repeated_diagnose_decomposes_once(self, rng, monkeypatch):
        # the bounds and the dual both come from SVDs of sqrt(w) * table:
        # one values-only SVD for the cached spectrum, one thin SVD with
        # its vectors for the dual, which keeps them nowhere
        for name in ("eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name, lambda *args, _name=name: pytest.fail(_name))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(kwargs) or svd(*args, **kwargs))
        omega = random_overcomplete_map(12, 5, rng)
        first = diagnose(omega)
        for _ in range(3):
            assert diagnose(omega) == first
        assert calls == [{"compute_uv": False}]
        canonical_dual(omega)
        assert calls == [{"compute_uv": False}, {"full_matrices": False}]

    def test_table_is_read_only_copy(self):
        model = make_model(counting(2), RawSamples())
        source = np.array([[1, 0], [1, 1], [0, 1]], dtype=complex)
        omega = DistributionMap(table=source, space=counting(3), model=model)
        with pytest.raises(ValueError):
            omega.table[0, 0] = 5.0
        source[0, 0] = 5.0  # the caller's array stays writable and unshared
        assert omega.table[0, 0] == 1.0

    def test_non_finite_table_is_a_typed_error(self):
        model = make_model(counting(2), RawSamples())
        table = np.array([[1, 0], [np.nan, 1], [0, 1]], dtype=complex)
        with pytest.raises(InvalidValueError, match="finite entries"):
            DistributionMap(table=table, space=counting(3), model=model)

    def test_overflowing_frame_matrix_is_a_typed_error(self):
        model = make_model(counting(2), RawSamples())
        with pytest.raises(InvalidValueError, match="frame matrix overflows"):
            discrete_sequence_map(model, [(1e155, 0), (0, 1e155), (1e155, 1e155)])

    def test_a_tiny_weight_on_a_huge_entry_is_no_overflow(self):
        # w |t|^2 = 1e100, although |t|^2 = 1e400 alone overflows.
        space = SampledMeasureSpace(points=[0.0, 1.0], weights=[1e-300, 1e-300],
                                    extent=2.0)
        model = make_model(counting(2), RawSamples())
        omega = DistributionMap(table=[[1e200, 0], [0, 1e200]], space=space,
                                model=model)
        diag = diagnose(omega)
        assert diag.lower == diag.upper == pytest.approx(1e100, rel=1e-12)


def c2_table_map(table):
    return DistributionMap(table=table, space=counting(3),
                           model=make_model(counting(2), RawSamples()))


class TestTableAdoption:
    """A map adopts a read-only complex table that owns its memory; it
    copies anything else (a writeable table: test_table_is_read_only_copy)."""

    def test_a_read_only_owning_table_is_shared(self):
        source = _read_only(np.array(C2_VECTORS, dtype=complex))
        omega = c2_table_map(source)
        assert np.shares_memory(omega.table, source)
        assert not omega.table.flags.writeable

    def test_a_read_only_view_is_copied(self):
        base = np.array([[1, 0, 9], [1, 1, 9], [0, 1, 9]], dtype=complex)
        view = _read_only(base[:, :2])
        assert not view.flags.owndata
        omega = c2_table_map(view)
        assert not np.shares_memory(omega.table, base)
        base[0, 0] = 5.0
        assert omega.table[0, 0] == 1.0

    def test_a_read_only_real_table_is_copied_as_complex(self):
        source = _read_only(np.array(C2_VECTORS, dtype=float))
        omega = c2_table_map(source)
        assert omega.table.dtype == complex
        assert not np.shares_memory(omega.table, source)

    @pytest.mark.parametrize("builder", [
        lambda model, space: delta_frame(model, space),
        lambda model, space: exponential_frame(model, space),
        lambda model, space: weighted_delta_frame(model, space, lambda x: 1 + x),
        lambda model, space: translated_window_frame(
            model, space, np.r_[1.0, 0.5, np.zeros(len(space) - 2)]),
        lambda model, space: discrete_sequence_map(model, np.eye(model.dim)),
        lambda model, space: canonical_dual(delta_frame(model, space)),
        lambda model, space: canonical_dual(exponential_frame(model, space)),
        *(lambda model, space, side=side: reconstruction_pair(
            build(make_symbol(space, np.full(len(space), 2.0)),
                  exponential_frame(model, space), delta_frame(model, space)),
            side)[0] for side in Side),
    ], ids=["delta", "exponential", "weighted-delta", "translated-window", "discrete",
            "diagonal-dual", "dense-dual", "reconstruction-left",
            "reconstruction-right"])
    def test_every_builder_hands_its_table_on_uncopied(self, monkeypatch, builder):
        frozen, adopted = maps._frozen_array, []

        def recording(values, dtype):
            arr = frozen(values, dtype)
            adopted.append(arr is values)
            return arr

        space = periodic_unit_grid(8)
        model = make_model(space, RawSamples())
        monkeypatch.setattr(maps, "_frozen_array", recording)
        builder(model, space)
        assert adopted and all(adopted)

    def test_building_a_512_point_map_peaks_below_six_tenths_of_its_table(self):
        # the finiteness checks hold one real J x K array of moduli at most
        model = make_model(counting(512), RawSamples())
        rng = np.random.default_rng(512)
        table = _read_only(rng.standard_normal((512, 512))
                          + 1j * rng.standard_normal((512, 512)))
        tracemalloc.start()
        try:
            DistributionMap(table=table, space=model.space, model=model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 0.6 * table.nbytes, peak / table.nbytes


class TestCanonicalDual:
    def test_c2_dual_vectors(self):
        dual = canonical_dual(c2_map())
        expected = np.array([[2 / 3, -1 / 3], [1 / 3, 1 / 3], [-1 / 3, 2 / 3]])
        assert np.max(np.abs(dual.vectors() - expected)) < 1e-12

    def test_duality_identity(self, rng):
        omega = c2_map()
        assert duality_residual(omega, canonical_dual(omega), trials=100, seed=5) < 1e-10

    def test_dual_bounds_are_reciprocal(self):
        omega = c2_map()
        diag = diagnose(omega)
        dual_diag = diagnose(canonical_dual(omega))
        assert abs(dual_diag.lower - 1 / diag.upper) < 1e-8
        assert abs(dual_diag.upper - 1 / diag.lower) < 1e-8

    def test_parseval_map_is_self_dual(self):
        model, space = unit_grid_setup(16)
        omega = delta_frame(model, space)
        assert np.max(np.abs(canonical_dual(omega).table - omega.table)) < 1e-12

    def test_dual_of_dual_returns_original(self, rng):
        omega = random_riesz_map(6, rng)
        back = canonical_dual(canonical_dual(omega))
        assert np.max(np.abs(back.table - omega.table)) < 1e-12

    def test_non_frame_rejected(self):
        model = make_model(counting(2), RawSamples())
        omega = discrete_sequence_map(model, [(1, 0), (2, 0)])
        with pytest.raises(NotAFrameError):
            canonical_dual(omega)

    @pytest.mark.parametrize("low", [1e-163, 1e-160])
    @pytest.mark.parametrize("dense", [False, True], ids=["diagonal", "dense"])
    def test_a_frame_whose_lower_bound_underflows_is_rejected(self, low, dense):
        # The rank rule calls it a frame, but A = sigma_min^2 underflows, to
        # 0.0 or to a subnormal: one typed error on either dual path, raised
        # before any division.
        vectors = [(low * 1e9, 0), (0, low)] + ([(low * 1e9, low)] if dense else [])
        omega = discrete_sequence_map(make_model(counting(2), RawSamples()), vectors)
        diag = diagnose(omega)
        assert diag.total and diag.lower < np.finfo(float).tiny
        with np.errstate(all="raise"), pytest.raises(
                SingularOperatorError, match=r"A = sigma_min\^2 that does not underflow$"):
            canonical_dual(omega)

    def test_dual_is_solved_once_per_map(self, rng, monkeypatch):
        omega = random_overcomplete_map(9, 4, rng)
        diagnose(omega)  # the values-only spectrum, cached on the map
        root = np.sqrt(omega.space.weights)[:, None]
        u, s, vh = np.linalg.svd(root * omega.table, full_matrices=False)
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(1) or svd(*args, **kwargs))
        dual = canonical_dual(omega)
        assert canonical_dual(omega) is dual
        assert len(calls) == 1
        assert np.array_equal(dual.table, (u / s) @ vh / root)
        gram = omega.table.conj().T @ (omega.space.weights[:, None] * omega.table)
        assert np.allclose(dual.table @ gram, omega.table, rtol=0.0, atol=1e-12)

    @pytest.mark.parametrize("kappa", [1e3, 1e4, 1e5])
    def test_dual_forward_error_is_of_order_kappa_eps(self, kappa):
        # Against a 40-digit dual T (T^H T)^{-1} of a 24 x 16 complex table
        # with condition number kappa, the largest entry error relative to
        # the largest entry reads 0.07-0.17 kappa*eps on this table
        # (0.07-0.27 over seeds 0-9), so the bound kappa*eps leaves a
        # margin of 6.  A dual solved with the frame matrix, which squares
        # kappa, reads 36-2700 kappa*eps and fails it.
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(0)
        u, v = (np.linalg.qr(rng.standard_normal(shape) + 1j * rng.standard_normal(shape))[0]
                for shape in ((24, 16), (16, 16)))
        table = u @ np.diag(np.geomspace(1, 1 / kappa, 16)) @ v
        with mpmath.workdps(40):
            exact = mpmath.matrix(table.tolist())
            exact = exact * mpmath.inverse(exact.H * exact)
            reference = np.array(exact.tolist(), dtype=complex)
        model = make_model(counting(16), RawSamples())
        dual = canonical_dual(discrete_sequence_map(model, np.conj(table)))
        error = np.max(np.abs(dual.table - reference)) / np.max(np.abs(reference))
        assert error <= 1.0 * kappa * np.finfo(float).eps


def _diagonal_maps(spread: float) -> dict:
    """Raw-samples delta maps and real weighted-delta maps with random
    positive weights from 1/spread to spread, whose tables are real
    diagonals.  One space has random weights from 1e-8 to 1e8."""
    rng = np.random.default_rng(23)
    spaces = {f"periodic-{n}": periodic_unit_grid(n) for n in (1, 2, 5, 16, 256)}
    spaces.update({"counting-7": counting(7), "fourier-16": fourier_grid(16),
                   "symmetric-65": symmetric_grid(65, 4.0)})
    spaces["random-weights-40"] = SampledMeasureSpace(
        points=np.arange(40.0), weights=10.0 ** rng.uniform(-8.0, 8.0, 40), extent=40.0)
    maps = {}
    for name, space in spaces.items():
        model = make_model(space, RawSamples())
        maps[f"delta-{name}"] = delta_frame(model, space)
        maps[f"weighted-delta-{name}"] = weighted_delta_frame(
            model, space, spread ** rng.uniform(-1.0, 1.0, len(space)))
    return maps


# Weights from 1e-8 to 1e8 make a weighted delta map too ill-conditioned to
# be a frame (sigma ratio below RANK_RTOL); from 1e-4 to 1e4 it is a Riesz basis.
WIDE_DIAGONAL_MAPS = _diagonal_maps(1e8)
FRAME_DIAGONAL_MAPS = _diagonal_maps(1e4)


def dense_frame_matrix(omega):
    return omega.table.conj().T @ (omega.space.weights[:, None] * omega.table)


def dense_spectrum(omega):
    """The LAPACK singular values of the weighted table, with no diagonal rule."""
    weighted = np.sqrt(omega.space.weights)[:, None] * omega.table
    return np.linalg.svd(weighted, compute_uv=False)


class TestDiagonalTables:
    @pytest.mark.parametrize("omega", WIDE_DIAGONAL_MAPS.values(),
                             ids=WIDE_DIAGONAL_MAPS.keys())
    def test_bounds_are_the_squared_dense_singular_values(self, omega):
        assert omega.diagonal is not None
        sigma = dense_spectrum(omega)
        assert np.array_equal(omega.spectrum, sigma)
        diag = diagnose(omega)
        assert (diag.lower, diag.upper) == (sigma[-1] ** 2, sigma[0] ** 2)
        # and within a few ulps of the frame matrix's diagonal w |t_kk|^2
        eigs = np.sort(np.diagonal(dense_frame_matrix(omega)).real)
        assert np.allclose([diag.lower, diag.upper], eigs[[0, -1]], rtol=4e-16, atol=0.0)

    @pytest.mark.parametrize("omega", FRAME_DIAGONAL_MAPS.values(),
                             ids=FRAME_DIAGONAL_MAPS.keys())
    def test_dual_equals_solve_bit_for_bit(self, omega):
        gram = dense_frame_matrix(omega)
        dual = canonical_dual(omega)
        assert np.array_equal(dual.table, np.linalg.solve(gram.T, omega.table.T).T)
        assert np.array_equal(dual.spectrum, dense_spectrum(dual))

    def test_a_diagonal_table_takes_no_decomposition(self, monkeypatch):
        for name in ("svd", "eigvalsh", "solve"):
            monkeypatch.setattr(np.linalg, name,
                                lambda *args, _name=name, **kwargs: pytest.fail(_name))
        space = periodic_unit_grid(8)
        omega = delta_frame(make_model(space, RawSamples()), space)
        assert diagnose(omega).classification is Classification.GELFAND_BASIS
        assert diagnose(canonical_dual(omega)).classification is Classification.GELFAND_BASIS

    def test_a_complex_diagonal_takes_the_dense_path(self, rng, monkeypatch):
        # a complex product rounds differently from the dense one, so the
        # closed forms stay with real diagonals
        space = periodic_unit_grid(8)
        weights = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        omega = weighted_delta_frame(make_model(space, RawSamples()), space, weights)
        assert omega.diagonal is None
        assert np.array_equal(_diagonal(omega.table), np.diagonal(omega.table))
        calls = []
        svd = np.linalg.svd
        monkeypatch.setattr(np.linalg, "svd",
                            lambda *args, **kwargs: calls.append(kwargs) or svd(*args, **kwargs))
        canonical_dual(omega)
        # its singular values are read from the diagonal; its dual takes the SVD
        assert calls == [{"full_matrices": False}]

    def test_the_diagonal_is_tested_once_per_map(self, monkeypatch):
        space = periodic_unit_grid(8)
        omega = delta_frame(make_model(space, RawSamples()), space)
        calls = []
        monkeypatch.setattr(maps, "_diagonal",
                            lambda matrix: calls.append(1) or np.diagonal(matrix))
        for _ in range(3):
            assert np.array_equal(omega.diagonal, np.diagonal(omega.table))
        dual = canonical_dual(omega)  # diagnoses omega and divides by its diagonal
        assert len(calls) == 1
        for _ in range(2):
            assert np.array_equal(dual.diagonal, np.diagonal(dual.table))
        assert len(calls) == 2


class TestRieszTransition:
    def test_self_transition_is_identity(self):
        model, space = unit_grid_setup(8)
        zeta = delta_frame(model, space)
        report = riesz_transition(zeta, zeta)
        assert np.max(np.abs(report.matrix - np.eye(8))) < 1e-12
        assert report.invertible

    def test_scaling(self):
        model, space = unit_grid_setup(8)
        zeta = delta_frame(model, space)
        omega = weighted_delta_frame(model, space, lambda x: 2.0)
        report = riesz_transition(omega, zeta)
        assert np.max(np.abs(report.matrix - 2 * np.eye(8))) < 1e-12

    def test_exponential_versus_delta_is_perfectly_conditioned(self):
        model, space = unit_grid_setup(8)
        report = riesz_transition(exponential_frame(model, space),
                                  delta_frame(model, space))
        assert report.condition_number == pytest.approx(1.0, abs=1e-10)
        assert report.invertible

    def test_reference_must_be_gelfand(self):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        with pytest.raises(PreconditionError):
            riesz_transition(omega, weighted_delta_frame(model, space, lambda x: 3.0))

    def test_maps_on_different_spaces_are_a_grid_mismatch(self):
        model, space = unit_grid_setup(8)
        small_model, small_space = unit_grid_setup(4)
        with pytest.raises(GridMismatchError,
                           match="analysis and synthesis maps on different spaces"):
            riesz_transition(delta_frame(small_model, small_space),
                             delta_frame(model, space))

    def test_a_zero_weight_makes_a_singular_transition(self):
        # the transition matrix is diagonal, so its spectrum is read from it
        model = make_model(periodic_unit_grid(8), RawSamples())
        space = model.space
        weights = np.ones(8)
        weights[3] = 0.0
        report = riesz_transition(weighted_delta_frame(model, space, weights),
                                  delta_frame(model, space))
        assert report.invertible is False
        assert report.sigma_min == 0.0
        assert report.condition_number == float("inf")


class TestRankRule:
    """Totality, mu-independence, injectivity, transition invertibility and
    witness totality are one rank rule, and decide alike at its threshold."""

    @staticmethod
    def rank_decisions(weights):
        model = make_model(periodic_unit_grid(8), RawSamples())
        space = model.space
        zeta = delta_frame(model, space)
        omega = weighted_delta_frame(model, space, weights)
        diag = diagnose(omega)
        op = build(make_symbol(space, np.ones(8)), omega, zeta)
        return {
            "total": diag.total,
            "mu_independent": diag.mu_independent,
            "injective": op.injective,
            "invertible": riesz_transition(omega, zeta).invertible,
            "witness_total": check_pseudo_orthogonal(
                zeta, bump_family(model, weights)).total,
        }

    @pytest.mark.parametrize("factor, full_rank", [(1 - 1e-6, False), (1 + 1e-6, True)])
    def test_every_decision_agrees_at_the_threshold(self, factor, full_rank):
        weights = np.ones(8)
        weights[5] = RANK_RTOL * factor
        decisions = self.rank_decisions(weights)
        assert decisions == dict.fromkeys(decisions, full_rank)

    def test_the_zero_map_is_nowhere_full_rank(self):
        decisions = self.rank_decisions(np.zeros(8))
        assert decisions == dict.fromkeys(decisions, False)

    @pytest.mark.parametrize("f, rank, total", [
        (5, 5, False), (8, 8, True), (8, 7, False), (12, 8, True), (12, 7, False)])
    def test_witness_totality_needs_k_columns_of_full_rank(self, rng, f, rank, total):
        model = make_model(periodic_unit_grid(8), RawSamples())
        omega = delta_frame(model, model.space)
        family = ((rng.standard_normal((8, rank)) + 1j * rng.standard_normal((8, rank)))
                  @ rng.standard_normal((rank, f)))
        sigma = np.linalg.svd(family, compute_uv=False)
        assert np.sum(sigma > RANK_RTOL * sigma[0]) == min(rank, f)
        assert check_pseudo_orthogonal(omega, family).total is total


class TestPseudoOrthogonality:
    def test_delta_frame_with_bumps_passes(self):
        space = symmetric_grid(17, 4.0)
        model = make_model(space, RawSamples())
        omega = delta_frame(model, space)
        report = check_pseudo_orthogonal(omega, bump_family(model), support_tol=1e-9)
        assert report.passed
        assert all(r.support_size == 1 for r in report.records)

    def test_exponential_frame_with_band_limited_family_passes(self):
        model, space = unit_grid_setup(16)
        omega = exponential_frame(model, space)
        family = band_limited_family(model, space)
        report = check_pseudo_orthogonal(omega, family, support_tol=1e-8)
        assert report.passed

    def test_zero_family_fails_totality(self):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        report = check_pseudo_orthogonal(omega, np.zeros((8, 1)))
        assert not report.passed
        assert not report.total

    def test_off_support_stays_below_tolerance(self):
        space = symmetric_grid(17, 4.0)
        model = make_model(space, RawSamples())
        omega = delta_frame(model, space)
        report = check_pseudo_orthogonal(omega, bump_family(model), support_tol=1e-9)
        assert all(r.max_off_support <= 1e-9 for r in report.records)


def loop_bump_coeffs(model, heights, half_width):
    """The per-center loop that built bump_family, kept as its reference."""
    n = model.ambient_dim
    values = np.zeros((n, n), dtype=complex)
    for c in range(n):
        values[max(0, c - half_width):min(n, c + half_width + 1), c] = heights[c]
    return model.on_basis.conj().T @ (model.space.weights[:, None] * values)


def loop_scaled_heights(alpha_values, n, half_width):
    """The per-center loop that gave scaled_bump_family its heights."""
    return np.array([
        alpha_values[max(0, c - half_width):min(n, c + half_width + 1)].min()
        for c in range(n)
    ])


class TestWitnessFamilies:
    def test_bump_family_equals_per_column_projection(self, rng):
        model, _ = unit_grid_setup(16, degree=5)
        heights = rng.uniform(0.5, 2.0, 16)
        family = bump_family(model, heights=heights)
        assert family.shape == (model.dim, 16)
        for c in range(16):
            values = np.zeros(16, dtype=complex)
            values[c] = heights[c]
            expected = from_samples(model, values)
            assert np.max(np.abs(family[:, c] - expected)) < 1e-14
        assert np.array_equal(family, loop_bump_coeffs(model, heights, 0))
        scaled = scaled_bump_family(model, heights)
        expected = loop_bump_coeffs(model, loop_scaled_heights(heights, 16, 0), 0)
        assert np.array_equal(scaled, expected)

    def test_band_limited_family_equals_per_column_projection(self, rng):
        model, space = unit_grid_setup(16, degree=5)
        alpha = rng.uniform(0.5, 2.0, 16)
        inverse = transform_matrix(space, inverse=True)
        family = band_limited_family(model, space, alpha)
        assert family.shape == (model.dim, 16)
        for u in range(16):
            expected = from_samples(model, inverse[:, u] * alpha[u])
            assert np.max(np.abs(family[:, u] - expected)) < 1e-14


class TestHyperOrthogonality:
    def test_delta_frame_with_unit_envelope(self):
        space = symmetric_grid(17, 4.0)
        model = make_model(space, RawSamples())
        omega = delta_frame(model, space)
        report = check_hyper_orthogonal(
            omega, np.ones(17), lambda a: scaled_bump_family(model, a)
        )
        assert report.passed

    def test_delta_frame_with_decaying_envelope(self):
        space = symmetric_grid(17, 4.0)
        model = make_model(space, RawSamples())
        omega = delta_frame(model, space)
        alpha = 1.0 / (1.0 + space.points ** 2)
        report = check_hyper_orthogonal(
            omega, alpha, lambda a: scaled_bump_family(model, a)
        )
        assert report.passed

    def test_envelope_violation_reports_witness(self):
        space = symmetric_grid(9, 4.0)
        model = make_model(space, RawSamples())
        omega = delta_frame(model, space)
        report = check_hyper_orthogonal(
            omega, np.ones(9),
            lambda a: bump_family(model, heights=np.full(9, 2.0)),
        )
        assert not report.passed
        violating = [r for r in report.records if r.bound_violation]
        assert violating
        j, value, allowed = violating[0].bound_violation
        assert value == pytest.approx(2.0, abs=1e-12)
        assert allowed == 1.0

    def test_empty_builder_fails_with_reason(self):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        report = check_hyper_orthogonal(omega, np.ones(8), lambda a: np.zeros((8, 0)))
        assert not report.passed
        assert "empty" in report.reason

    def test_alpha_must_be_positive(self):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        with pytest.raises(PreconditionError):
            check_hyper_orthogonal(omega, np.zeros(8),
                                   lambda a: bump_family(omega.model))

    def test_a_nan_alpha_is_not_positive(self):
        model, space = unit_grid_setup(8)
        omega = delta_frame(model, space)
        alpha = np.ones(8)
        alpha[3] = np.nan
        with pytest.raises(PreconditionError):
            check_hyper_orthogonal(omega, alpha,
                                   lambda a: scaled_bump_family(omega.model, a))


def raw_delta_setup(n=8):
    space = periodic_unit_grid(n)
    omega = delta_frame(make_model(space, RawSamples()), space)
    return omega, canonical_dual(omega), make_symbol(space, np.linspace(1.0, 2.0, n))


def the_witness_checks(omega, theta, m):
    """Each entry point that takes a K x F witness family, as family -> result."""
    return {
        "pseudo": lambda family: check_pseudo_orthogonal(omega, family),
        "hyper": lambda family: check_hyper_orthogonal(omega, np.ones(omega.n_points),
                                                       lambda a: family),
        "density": lambda family: density_certificate(omega, theta, m, family),
    }


def nan_family():
    family = np.eye(8, dtype=complex)
    family[2, 5] = np.nan
    return family


class TestWitnessInputs:
    @pytest.mark.parametrize("check", ["pseudo", "hyper", "density"])
    @pytest.mark.parametrize("family, error", [
        (np.eye(5, 8), ShapeMismatchError),
        (np.ones(8), ShapeMismatchError),
        (np.zeros((5, 0)), ShapeMismatchError),
        (np.ones((8, 2, 1)), ShapeMismatchError),
        (nan_family(), InvalidValueError),
        (np.diag([1.0] * 7 + [np.inf]), InvalidValueError),
    ], ids=["5x8", "1-d", "5x0", "3-d", "nan", "inf"])
    def test_a_bad_family_is_a_typed_error(self, check, family, error):
        checks = the_witness_checks(*raw_delta_setup())
        with pytest.raises(error):
            checks[check](family)

    @pytest.mark.parametrize("bad", [np.inf, -np.inf, np.nan, 0.0, -1.0])
    def test_alpha_must_be_finite_and_positive(self, bad):
        omega = raw_delta_setup()[0]
        alpha = np.ones(8)
        alpha[3] = bad
        with pytest.raises(PreconditionError, match="finite and strictly positive"):
            check_hyper_orthogonal(omega, alpha,
                                   lambda a: scaled_bump_family(omega.model, a))

    @pytest.mark.parametrize("heights, error", [
        (np.ones(7), ShapeMismatchError),
        (np.ones(9), ShapeMismatchError),
        (np.ones((8, 1)), ShapeMismatchError),
        (np.array([1.0] * 7 + [np.nan]), InvalidValueError),
        (np.array([np.inf] + [1.0] * 7), InvalidValueError),
    ], ids=["short", "long", "2-d", "nan", "inf"])
    def test_bad_spike_heights_are_typed_errors(self, heights, error):
        model = raw_delta_setup()[0].model
        with pytest.raises(error):
            bump_family(model, heights)

    def test_a_short_envelope_is_a_shape_error(self):
        model = raw_delta_setup()[0].model
        with pytest.raises(ShapeMismatchError):
            scaled_bump_family(model, np.ones(7))

    def test_an_empty_family_of_the_right_height_is_still_empty(self):
        for check in the_witness_checks(*raw_delta_setup()).values():
            assert check(np.zeros((8, 0))).reason == "empty witness family"
