import ast
import inspect
import tracemalloc

import numpy as np
import pytest

from framelab import cli, lab
from framelab import (
    GrowthVerdict,
    InconsistencyError,
    PreconditionError,
    RawSamples,
    ScheduleError,
    UnsupportedSpaceError,
    brute_force_pairing,
    build,
    coordinate_multiplier,
    counting,
    delta_frame,
    discrete_reduction_oracle,
    discrete_sequence_map,
    duality_residual,
    exponential_frame,
    fourier_grid,
    fourier_quartet_check,
    make_model,
    make_symbol,
    from_samples,
    symmetric_grid,
    symmetric_grid_family,
    to_samples,
    unboundedness_sweep,
    weighted_delta_sweep,
)
from conftest import (
    TABLE_SHAPES,
    TRIAL_COUNTS,
    agrees_with_loop,
    per_trial_pairing_residual,
    random_bounded_symbol,
    random_map,
    riesz_dual_pair,
    with_dense,
)


def diag_operator(values):
    space = counting(len(values))
    model = make_model(space, RawSamples())
    delta = delta_frame(model, space)
    return build(make_symbol(space, values), delta, delta)


class TestBruteForcePairing:
    def test_diagonal_model_matches_to_machine_precision(self):
        assert brute_force_pairing(diag_operator((2, 3, 5)), trials=50, seed=1) < 1e-13

    def test_random_dense_case(self, rng):
        omega, theta = riesz_dual_pair(6, rng)
        op = build(random_bounded_symbol(omega.space, rng), omega, theta)
        assert brute_force_pairing(op, trials=100, seed=2) < 1e-12

    def test_fault_injection_is_detected(self):
        op = diag_operator((2, 3, 5))
        corrupted_dense = op.dense.copy()
        corrupted_dense[0, 0] += 0.01
        corrupted = with_dense(op, corrupted_dense)
        assert brute_force_pairing(corrupted, trials=50, seed=3) > 1e-3

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            brute_force_pairing(diag_operator((1, 2)), trials=0)


class TestDualityResidual:
    def test_needs_at_least_one_trial(self):
        space = counting(3)
        delta = delta_frame(make_model(space, RawSamples()), space)
        with pytest.raises(ValueError):
            duality_residual(delta, delta, trials=0)


@pytest.mark.parametrize("trials", TRIAL_COUNTS)
@pytest.mark.parametrize("j,k", TABLE_SHAPES)
class TestStackedPairingOracles:
    """The stacked oracles equal the per-trial loop on the same seed."""

    def test_duality_residual_equals_per_trial_loop(self, rng, j, k, trials):
        omega, theta = random_map(j, k, rng), random_map(j, k, rng)
        stacked = duality_residual(omega, theta, trials=trials, seed=11)
        reference = per_trial_pairing_residual(
            omega.space.weights, theta.table, omega.table, lambda f: f, trials, 11)
        assert reference > 1e-3  # not a dual pair
        assert agrees_with_loop(stacked, reference)

    def test_brute_force_pairing_equals_per_trial_loop(self, rng, j, k, trials):
        omega, theta = random_map(j, k, rng), random_map(j, k, rng)
        m = random_bounded_symbol(omega.space, rng)
        op = build(m, omega, theta)
        stray = op.dense + (rng.standard_normal((k, k)) / np.sqrt(k))
        corrupted = with_dense(op, stray)
        stacked = brute_force_pairing(corrupted, trials=trials, seed=5)
        reference = per_trial_pairing_residual(
            omega.space.weights * m.values, omega.table, theta.table,
            lambda f: stray @ f, trials, 5)
        assert reference > 1e-3
        assert agrees_with_loop(stacked, reference)


class TestOneHomePerOracle:
    """The context oracles run once, from the cli's oracle suite, on lab's
    own arithmetic."""

    def test_cli_refers_to_lab_only_in_the_oracle_sweep_and_quartet_code(self):
        tree = ast.parse(inspect.getsource(cli))
        users = {getattr(statement, "name", type(statement).__name__)
                 for statement in tree.body for node in ast.walk(statement)
                 if isinstance(node, ast.Name) and node.id == "lab"}
        assert users == {"_suite_oracle", "_suite_sweep", "_suite_quartet",
                         "_sweep_family"}

    def test_lab_imports_no_private_multiplier_helper_but_its_random_stream(self):
        tree = ast.parse(inspect.getsource(lab))
        private = {alias.name for node in ast.walk(tree)
                   if isinstance(node, ast.ImportFrom) and node.level == 1
                   and node.module == "multiplier"
                   for alias in node.names if alias.name.startswith("_")}
        assert private == {"_complex_normals"}


class TestDiscreteReductionOracle:
    def test_c2_example_agrees_on_both_paths(self):
        comparison = discrete_reduction_oracle([(1, 0), (1, 1), (0, 1)])
        assert comparison.classical_lower == pytest.approx(1.0, abs=1e-14)
        assert comparison.classical_upper == pytest.approx(3.0, abs=1e-14)
        assert comparison.agree
        assert comparison.max_deviation <= 1e-14 * 3

    def test_orthonormal_basis(self):
        comparison = discrete_reduction_oracle(np.eye(3))
        assert comparison.classical_lower == pytest.approx(1.0)
        assert comparison.classical_upper == pytest.approx(1.0)
        assert comparison.agree

    def test_rank_deficient_family_not_total_on_both_paths(self):
        comparison = discrete_reduction_oracle([(1, 0), (2, 0)])
        assert not comparison.classical_total
        assert not comparison.maps_total
        assert comparison.agree

    def test_seeded_families_agree(self, rng):
        for _ in range(50):
            k = int(rng.integers(2, 6))
            j = int(rng.integers(k, 10))
            vecs = rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))
            assert discrete_reduction_oracle(vecs).agree

    def test_a_map_is_compared_as_its_table(self, rng):
        vecs = rng.standard_normal((9, 4)) + 1j * rng.standard_normal((9, 4))
        omega = discrete_sequence_map(make_model(counting(4), RawSamples()), vecs)
        assert discrete_reduction_oracle(omega) == discrete_reduction_oracle(
            omega.vectors())

    def test_a_map_off_counting_measure_is_refused(self):
        space = fourier_grid(4)  # weights 1/2
        with pytest.raises(PreconditionError, match="counting measure"):
            discrete_reduction_oracle(delta_frame(make_model(space, RawSamples()), space))


class TestFourierQuartet:
    def test_unit_symbol_gives_identity_level_maps(self):
        report = fourier_quartet_check(8, np.ones(8), trials=3, seed=0)
        assert report.passed
        # with m = 1 the point/point multiplier is the identity
        space = fourier_grid(8)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        op = build(make_symbol(space, np.ones(8)), delta, delta)
        assert np.max(np.abs(op.dense - np.eye(8))) < 1e-12

    def test_mask_symbol_is_diagonal_multiplication(self):
        mask = np.array([1.0, 0.0, 1.0, 0.0])
        report = fourier_quartet_check(4, mask, trials=3, seed=0)
        assert report.passed
        space = fourier_grid(4)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        op = build(make_symbol(space, mask), delta, delta)
        assert np.max(np.abs(op.dense - np.diag(mask))) < 1e-12

    def test_random_symbol_n16(self, rng):
        values = rng.standard_normal(16) + 1j * rng.standard_normal(16)
        report = fourier_quartet_check(16, values, trials=5, seed=4)
        assert report.passed
        assert all(r < 1e-10 for r in report.residuals.values())

    def test_convention_is_documented_and_unique(self, rng):
        values = rng.standard_normal(8) + 1j * rng.standard_normal(8)
        report = fourier_quartet_check(8, values, trials=3, seed=5)
        assert "forward transform" in report.convention
        # the flipped convention must fail the transform-sensitive members
        assert not report.flipped_passes["ed"]
        assert not report.flipped_passes["de"]

    def test_a_nan_trial_fails_its_member(self, monkeypatch):
        to_samples, calls = lab.to_samples, []

        def nan_on_the_second_call(model, coeffs):  # the "dd" member, trial 1
            calls.append(1)
            samples = to_samples(model, coeffs)
            return samples * np.nan if len(calls) == 2 else samples

        monkeypatch.setattr(lab, "to_samples", nan_on_the_second_call)
        report = fourier_quartet_check(8, np.ones(8), trials=3, seed=0)
        assert np.isnan(report.residuals["dd"])
        assert not report.passed
        assert all(report.residuals[key] <= lab.RESIDUAL_TOL for key in ("de", "ed", "ee"))

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            fourier_quartet_check(8, np.ones(8), trials=0)


# The quartet oracle's defining sums as they were written before they were
# vectorized: a double loop per convolution and a fresh kernel per transform.
# The vectorized oracle must reproduce them bit for bit.

def reference_transform(space, values, inverse=False):
    x = space.points
    sign = 2j if inverse else -2j
    kernel = np.exp(sign * np.pi * np.outer(x, x))
    return kernel @ (space.weights * values)


def reference_convolution(space, a, b):
    n = len(space)
    w = space.weights
    out = np.zeros(n, dtype=complex)
    for j in range(n):
        acc = 0.0 + 0.0j
        for l in range(n):
            acc += w[l] * a[l] * b[(j - l) % n]
        out[j] = acc
    return out


def reference_quartet_residuals(n, m, trials, seed):
    space = fourier_grid(n)
    model = make_model(space, RawSamples())
    sym = make_symbol(space, m)
    delta, exp = delta_frame(model, space), exponential_frame(model, space)
    ops = {"dd": build(sym, delta, delta), "de": build(sym, delta, exp),
           "ed": build(sym, exp, delta), "ee": build(sym, exp, exp)}

    def oracles(f, flip):
        fwd = reference_transform(space, f, inverse=flip)
        inv = reference_transform(space, f, inverse=not flip)
        mi = reference_transform(space, m, inverse=not flip)
        return {"dd": m * f, "de": reference_convolution(space, mi, inv),
                "ed": m * fwd, "ee": reference_convolution(space, mi, f)}

    rng = np.random.default_rng(seed)
    residuals = {key: 0.0 for key in ops}
    flipped = {key: 0.0 for key in ops}
    for _ in range(trials):
        f = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        f = f / np.linalg.norm(f)
        expected, alternate = oracles(f, False), oracles(f, True)
        coeffs = from_samples(model, f)
        for key, op in ops.items():
            got = to_samples(model, op.dense @ coeffs)
            residuals[key] = max(residuals[key],
                                 float(np.max(np.abs(got - expected[key]))))
            flipped[key] = max(flipped[key],
                               float(np.max(np.abs(got - alternate[key]))))
    return residuals, flipped


class TestQuartetDefiningSums:
    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
    def test_convolution_equals_double_loop_bit_for_bit(self, n):
        space = fourier_grid(n)
        rng = np.random.default_rng(n)
        for _ in range(3):
            a = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            b = rng.standard_normal(n) + 1j * rng.standard_normal(n)
            assert np.array_equal(lab._direct_convolution(space, a, b),
                                  reference_convolution(space, a, b))

    @pytest.mark.parametrize("n", [1, 2, 3, 8, 32, 128])
    @pytest.mark.parametrize("rows", [1, 12])
    def test_stacked_convolution_equals_double_loop_row_for_row(self, n, rows):
        space = fourier_grid(n)
        rng = np.random.default_rng(1000 * rows + n)
        a = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        b = rng.standard_normal((rows, n)) + 1j * rng.standard_normal((rows, n))
        stacked = lab._direct_convolution(space, a, b)
        assert stacked.shape == (rows, n)
        for got, a_row, b_row in zip(stacked, a, b):
            assert np.array_equal(got, reference_convolution(space, a_row, b_row))

    @pytest.mark.parametrize("n", [1, 8, 33])
    @pytest.mark.parametrize("inverse", [False, True])
    def test_kernel_transform_equals_defining_sum_bit_for_bit(self, n, inverse):
        space = fourier_grid(n)
        rng = np.random.default_rng(n)
        values = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        kernel = lab._transform_kernel(space, inverse=inverse)
        assert np.array_equal(kernel @ (space.weights * values),
                              reference_transform(space, values, inverse=inverse))

    @pytest.mark.parametrize("n, seed", [(4, 0), (16, 3), (32, 7)])
    def test_quartet_residuals_equal_per_call_oracle_bit_for_bit(self, n, seed):
        rng = np.random.default_rng(100 + n)
        m = rng.standard_normal(n) + 1j * rng.standard_normal(n)
        report = fourier_quartet_check(n, m, trials=3, seed=seed)
        residuals, flipped = reference_quartet_residuals(n, m, trials=3, seed=seed)
        assert report.residuals == residuals
        assert report.flipped_passes == {k: v <= 1e-10 for k, v in flipped.items()}

    def test_oracle_stays_independent_of_fft_and_factored_maps(self):
        source = inspect.getsource(lab)
        assert "fft" not in source
        assert "transform_matrix" not in source


def random_symbols(rng, s, n):
    return rng.standard_normal((s, n)) + 1j * rng.standard_normal((s, n))


def traced_peak(call):
    call()  # first-call allocations are not the oracle's
    tracemalloc.start()
    try:
        call()
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


class TestStackedQuartet:
    @pytest.mark.parametrize("n", [4, 8, 16])
    def test_stack_reports_equal_single_calls(self, n):
        stack = random_symbols(np.random.default_rng(n), 3, n)
        reports = fourier_quartet_check(n, stack, trials=3, seed=n)
        assert isinstance(reports, tuple) and len(reports) == 3
        for report, m in zip(reports, stack):
            alone = fourier_quartet_check(n, m, trials=3, seed=n)
            assert report.n == alone.n == n
            assert report.residuals == alone.residuals
            assert report.flipped_passes == alone.flipped_passes
            assert report.passed == alone.passed

    def test_one_row_stack_is_a_one_report_tuple(self):
        m = random_symbols(np.random.default_rng(1), 1, 8)
        (report,) = fourier_quartet_check(8, m, trials=2, seed=1)
        assert report == fourier_quartet_check(8, m[0], trials=2, seed=1)

    @pytest.mark.parametrize("values", [np.ones((3, 7)), np.ones((2, 3, 8)),
                                        np.ones(7), np.ones(0)],
                             ids=["short-rows", "three-axes", "short-vector", "empty-vector"])
    def test_rows_not_n_long_are_unsupported(self, values):
        with pytest.raises(UnsupportedSpaceError):
            fourier_quartet_check(8, values, trials=1)

    def test_empty_stack_is_rejected(self):
        with pytest.raises(ValueError):
            fourier_quartet_check(8, np.ones((0, 8)), trials=1)

    def test_four_symbols_keep_one_symbols_peak(self):
        stack = random_symbols(np.random.default_rng(128), 4, 128)
        one = traced_peak(lambda: fourier_quartet_check(128, stack[0], trials=3))
        four = traced_peak(lambda: fourier_quartet_check(128, stack, trials=3))
        assert four <= 1.25 * one


class TestUnboundednessSweep:
    def test_weighted_delta_growth(self):
        result = weighted_delta_sweep((2.0, 4.0, 8.0), check=True)
        assert result.verdict is GrowthVerdict.UNBOUNDED
        assert np.allclose(result.norms, (2.0, 4.0, 8.0))
        assert result.fitted_growth == pytest.approx(1.0, abs=1e-6)

    def test_norm_floor_misses_name_each_low_step(self, monkeypatch):
        low = weighted_delta_sweep((2.0, 4.0, 8.0))._replace(norms=(2.0, 3.5, 8.0))
        assert lab.norm_floor_misses(low) == ["norm 3.500e+00 below 0.9*L at L=4.0"]
        monkeypatch.setattr(lab, "unboundedness_sweep", lambda *args: low)
        assert weighted_delta_sweep((2.0, 4.0, 8.0), check=False) is low
        with pytest.raises(InconsistencyError, match="weighted-delta norm 3.500e"):
            weighted_delta_sweep((2.0, 4.0, 8.0))

    def test_a_nan_norm_misses_the_floor(self):
        nan = weighted_delta_sweep((2.0, 4.0, 8.0))._replace(norms=(2.0, float("nan"), 8.0))
        assert lab.norm_floor_misses(nan) == ["norm nan below 0.9*L at L=4.0"]

    def test_bounded_control(self):
        family = symmetric_grid_family([(17, 2.0), (33, 4.0), (65, 8.0)])

        def bounded(space):
            model = make_model(space, RawSamples())
            delta = delta_frame(model, space)
            return build(make_symbol(space, np.ones(len(space))), delta, delta,
                         validate=False)

        result = unboundedness_sweep(family, bounded)
        assert result.verdict is GrowthVerdict.BOUNDED
        assert np.allclose(result.norms, 1.0)

    def test_a_fit_with_fewer_than_two_positive_norms_reads_zero(self):
        family = symmetric_grid_family([(17, 2.0), (33, 4.0), (65, 8.0)])

        def spike(space):  # a nonzero symbol on the coarsest grid alone
            model = make_model(space, RawSamples())
            delta = delta_frame(model, space)
            values = np.full(len(space), float(len(space) == 17))
            return build(make_symbol(space, values), delta, delta, validate=False)

        result = unboundedness_sweep(family, spike)
        assert result.norms == (1.0, 0.0, 0.0)
        assert result.fitted_growth == 0.0
        assert result.verdict is GrowthVerdict.BOUNDED

    def test_coordinate_symbol_equals_weighted_delta_construction(self):
        space = symmetric_grid(33, 4.0)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        via_symbol = build(make_symbol(space, space.points.astype(complex)),
                           delta, delta)
        via_weighting = coordinate_multiplier(space)
        assert np.max(np.abs(via_symbol.dense - via_weighting.dense)) < 1e-12

    def test_verdict_stable_under_doubling_the_schedule(self):
        coarse = weighted_delta_sweep((2.0, 4.0, 8.0, 16.0), check=False)
        fine = weighted_delta_sweep((2.0, 2.83, 4.0, 5.66, 8.0, 11.3, 16.0),
                                    check=False)
        assert coarse.verdict is fine.verdict is GrowthVerdict.UNBOUNDED

    def test_short_schedule_rejected(self):
        family = symmetric_grid_family([(17, 2.0), (33, 4.0)])
        with pytest.raises(ScheduleError):
            unboundedness_sweep(family, coordinate_multiplier)

    def test_csv_format(self):
        result = weighted_delta_sweep((2.0, 4.0, 8.0), check=False)
        lines = result.to_csv().strip().splitlines()
        assert lines[0] == "step,n,L,norm"
        assert lines[1].startswith("0,17,2.0,")
        assert len(lines) == 4
