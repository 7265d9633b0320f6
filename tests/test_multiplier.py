import dataclasses
import gc
import inspect
import math
import warnings
import weakref

import numpy as np
import pytest

from framelab import (
    DistributionMap,
    GaussianBumps,
    GridMismatchError,
    InconsistencyError,
    InvalidValueError,
    RawSamples,
    SampledMeasureSpace,
    ShapeMismatchError,
    Side,
    SingularOperatorError,
    build,
    bump_family,
    canonical_dual,
    compose,
    counting,
    delta_frame,
    density_certificate,
    diagnose,
    duality_defect,
    duality_residual,
    fourier_grid,
    invert,
    is_dual_pair,
    make_model,
    make_symbol,
    norm_bound,
    operator_norm,
    periodic_unit_grid,
    product_symbol,
    reconstruction_pair,
    split_symbol,
    symmetric_grid,
    weighted_delta_frame,
)
from framelab import multiplier
from framelab.multiplier import RESIDUAL_TOL
from conftest import (
    TABLE_SHAPES,
    TRIAL_COUNTS,
    agrees_with_loop,
    per_trial_pairing_residual,
    random_bounded_symbol,
    random_map,
    random_overcomplete_map,
    riesz_dual_pair,
    with_dense,
)


def on_basis_setup(n=3):
    space = counting(n)
    model = make_model(space, RawSamples())
    return space, model, delta_frame(model, space)


def diag_operator(values=(2, 3, 5)):
    space, model, delta = on_basis_setup(len(values))
    return build(make_symbol(space, values), delta, delta)


def swapped_multiplier(op):
    """M_{conj m, theta, omega}: the pairing of op read from the other side."""
    return build(make_symbol(op.space, np.conj(op.symbol.values)), op.theta,
                 op.omega, validate=False)


class TestSymbol:
    @pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0, np.nan)])
    def test_non_finite_values_rejected(self, bad):
        with pytest.raises(InvalidValueError, match="finite"):
            make_symbol(counting(3), [1.0, bad, 2.0])

    def test_values_are_an_array_not_a_callable(self):
        with pytest.raises(TypeError):
            make_symbol(counting(3), lambda x: x)

    @pytest.mark.parametrize("make, error, message", [
        (lambda: make_symbol(counting(3), [1.0, 2.0]),
         ShapeMismatchError, "symbol needs 3 values"),
        (lambda delta=on_basis_setup(3)[2]: build(make_symbol(counting(4), np.ones(4)),
                                                  delta, delta),
         ShapeMismatchError, "symbol not sampled on the shared space"),
        (lambda: multiplier.reciprocal_symbol(counting(2),
                                              make_symbol(counting(2), [1.0, 0.0])),
         SingularOperatorError, "cannot invert a vanishing symbol"),
        (lambda: diag_operator((2, 0, 5)).inverse,
         SingularOperatorError, "multiplier is not injective"),
    ], ids=["length", "off-space", "reciprocal", "inverse"])
    def test_a_symbol_that_does_not_fit_is_a_typed_error(self, make, error, message):
        with pytest.raises(error, match=message):
            make()

    def test_vanishing_is_relative_to_the_essential_supremum(self):
        tiny = make_symbol(counting(3), [1e-13] * 3)
        assert tiny.nonvanishing and tiny.vanishing_points() == ()
        dip = make_symbol(counting(3), [1.0, 5e-11, 1.0])
        assert not dip.nonvanishing and dip.vanishing_points() == (1,)
        assert make_symbol(counting(2), [0.0, 0.0]).vanishing_points() == (0, 1)


class TestBuild:
    def test_diagonal_representation(self):
        op = diag_operator((2, 3, 5))
        assert np.allclose(op.dense, np.diag([2.0, 3.0, 5.0]))

    def test_unit_symbol_on_parseval_pair_is_identity(self):
        space = fourier_grid(8)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        op = build(make_symbol(space, np.ones(8)), delta, delta)
        assert np.max(np.abs(op.dense - np.eye(8))) < 1e-12

    def test_scaled_basis_saturates_the_norm_bound(self):
        space, model, delta = on_basis_setup(3)
        omega = weighted_delta_frame(model, space, lambda x: 2.0)
        op = build(make_symbol(space, np.ones(3)), omega, delta)
        assert np.allclose(op.dense, 2 * np.eye(3))
        b_omega = diagnose(omega).upper
        b_theta = diagnose(delta).upper
        assert b_omega == pytest.approx(4.0)
        assert b_theta == pytest.approx(1.0)
        assert operator_norm(op) == pytest.approx(
            math.sqrt(b_omega * b_theta) * op.symbol.ess_sup, abs=1e-12
        )

    def test_space_mismatch_rejected(self):
        _, _, delta3 = on_basis_setup(3)
        space4, model4, delta4 = on_basis_setup(4)
        with pytest.raises(GridMismatchError):
            build(make_symbol(space4, np.ones(4)), delta4, delta3)

    def test_factorization_invariant_on_random_triples(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 7))
            j = int(rng.integers(k, 10))
            space = counting(j)
            model = make_model(counting(k), RawSamples())
            omega = DistributionMap(
                table=rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k)),
                space=space, model=model)
            theta = DistributionMap(
                table=rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k)),
                space=space, model=model)
            m = random_bounded_symbol(space, rng)
            op = build(m, omega, theta)
            wm = space.weights * m.values
            reference = np.einsum("jl,j,jk->lk", np.conj(theta.table), wm, omega.table)
            assert np.linalg.norm(op.dense - reference) < 1e-12

    @pytest.mark.parametrize("j,k", TABLE_SHAPES)
    def test_validation_rejects_one_corrupted_dense_entry(self, rng, monkeypatch,
                                                          j, k):
        omega, theta = random_map(j, k, rng), random_map(j, k, rng)
        m = random_bounded_symbol(omega.space, rng)
        clean = build(m, omega, theta).dense
        form = multiplier.MultiplierOperator.dense.func

        def corrupted(op):
            dense = form(op).copy()
            dense[k - 1, 0] += 1e-3
            return dense

        monkeypatch.setattr(multiplier.MultiplierOperator, "dense", property(corrupted))
        with pytest.raises(InconsistencyError, match="disagrees with its pairing"):
            build(m, omega, theta)
        unchecked = build(m, omega, theta, validate=False).dense
        assert np.max(np.abs(unchecked - clean)) == pytest.approx(1e-3)

    def test_validation_rejects_an_overflowing_dense_matrix(self):
        model = make_model(counting(2), RawSamples())
        omega = DistributionMap(table=1e5 * np.array([[1, 0], [0, 1], [1, 1]]),
                                space=counting(3), model=model)
        m = make_symbol(omega.space, np.full(3, 1e300))
        with np.errstate(all="ignore"), pytest.raises(InconsistencyError):
            build(m, omega, omega)  # the pairing residual is NaN, which fails

    def test_validated_builds_on_one_k_draw_their_pairs_once(self, rng, monkeypatch):
        multiplier._validation_pairs.cache_clear()
        draws = []
        complex_normals = multiplier._complex_normals
        monkeypatch.setattr(multiplier, "_complex_normals",
                            lambda rng, *shape: draws.append(shape)
                            or complex_normals(rng, *shape))
        omega, theta = riesz_dual_pair(5, rng)
        for _ in range(2):
            build(random_bounded_symbol(omega.space, rng), omega, theta)
        assert draws == [(6, 5)]  # three pairs (f, g) on alternate rows
        f, g = multiplier._validation_pairs(5)
        assert not f.flags.writeable and not g.flags.writeable

    def test_unvalidated_build_forms_no_dense_matrix(self, rng):
        omega, theta = random_map(7, 4, rng), random_map(7, 4, rng)
        m = random_bounded_symbol(omega.space, rng)
        op = build(m, omega, theta, validate=False)
        other = build(random_bounded_symbol(omega.space, rng), omega, theta,
                      validate=False)
        compose(op, other)
        assert "dense" not in vars(op) and "dense" not in vars(other)
        wm = omega.space.weights * m.values
        reference = np.conj(theta.table).T @ (wm[:, None] * omega.table)
        assert np.linalg.norm(op.dense - reference) < 1e-12
        assert op.dense is op.dense  # formed once, on first read
        assert "dense" in vars(build(m, omega, theta))  # validation reads it


class TestOperatorNorm:
    def test_diagonal(self):
        assert operator_norm(diag_operator((2, 3, 5))) == 5.0

    def test_zero_symbol(self):
        assert operator_norm(diag_operator((0, 0, 0))) == 0.0

    def test_bound_holds_on_random_bessel_pairs(self, rng):
        for _ in range(100):
            k = int(rng.integers(2, 6))
            j = int(rng.integers(k, 9))
            space = counting(j)
            model = make_model(counting(k), RawSamples())
            omega = DistributionMap(
                table=rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k)),
                space=space, model=model)
            theta = DistributionMap(
                table=rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k)),
                space=space, model=model)
            op = build(random_bounded_symbol(space, rng), omega, theta,
                       validate=False)
            assert operator_norm(op) <= norm_bound(op) + 1e-10


class TestAdjoint:
    # the adjoint of M_{m, omega, theta} is M_{conj m, theta, omega}
    def test_real_diagonal_is_self_adjoint(self):
        op = diag_operator((2, 3, 5))
        assert np.allclose(swapped_multiplier(op).dense, op.dense)

    def test_symbol_is_conjugated(self):
        op = diag_operator((1j, -1j))
        adj = swapped_multiplier(op)
        assert np.allclose(adj.symbol.values, [-1j, 1j])
        assert np.max(np.abs(adj.dense - op.dense.conj().T)) < 1e-12

    def test_pairing_identity_on_random_pairs(self, rng):
        omega, theta = riesz_dual_pair(5, rng)
        op = build(random_bounded_symbol(omega.space, rng), omega, theta)
        adj = swapped_multiplier(op)
        for _ in range(100):
            f = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            g = rng.standard_normal(5) + 1j * rng.standard_normal(5)
            f, g = f / np.linalg.norm(f), g / np.linalg.norm(g)
            assert abs(np.vdot(g, op.dense @ f)
                       - np.conj(np.vdot(f, adj.dense @ g))) < 1e-12

    def test_involution(self, rng):
        omega, theta = riesz_dual_pair(4, rng)
        op = build(random_bounded_symbol(omega.space, rng), omega, theta)
        assert np.max(np.abs(swapped_multiplier(swapped_multiplier(op)).dense
                             - op.dense)) < 1e-12


class TestCompose:
    def test_diagonal_calculus(self):
        space, model, delta = on_basis_setup(2)
        op1 = build(make_symbol(space, (1, 2)), delta, delta)
        op2 = build(make_symbol(space, (3, 4)), delta, delta)
        report = compose(op1, op2)
        assert report.asserted
        assert np.allclose(op1.dense @ op2.dense, np.diag([3.0, 8.0]))
        assert report.residual < 1e-12

    def test_riesz_dual_pair_calculus(self, rng):
        omega, theta = riesz_dual_pair(6, rng)
        assert is_dual_pair(omega, theta)
        for _ in range(50):
            m1 = random_bounded_symbol(omega.space, rng)
            m2 = random_bounded_symbol(omega.space, rng)
            op1 = build(m1, omega, theta, validate=False)
            op2 = build(m2, omega, theta, validate=False)
            report = compose(op1, op2)
            assert report.asserted
            assert report.residual < 1e-10

    def test_non_dual_pair_reports_without_asserting(self):
        space, model, _ = on_basis_setup(2)
        omega = weighted_delta_frame(model, space, lambda x: 2.0)
        op1 = build(make_symbol(space, (1, 1)), omega, omega)
        op2 = build(make_symbol(space, (1, 1)), omega, omega)
        report = compose(op1, op2)
        assert not report.asserted
        assert report.residual > 1e-3  # 16 vs 4 on the diagonal

    def test_requires_shared_maps(self):
        space, model, delta = on_basis_setup(2)
        omega = weighted_delta_frame(model, space, lambda x: 2.0)
        op1 = build(make_symbol(space, (1, 1)), delta, delta)
        op2 = build(make_symbol(space, (1, 1)), omega, omega)
        with pytest.raises(GridMismatchError):
            compose(op1, op2)

    def test_requires_shared_synthesis_maps(self):
        space, model, delta = on_basis_setup(2)
        theta = weighted_delta_frame(model, space, lambda x: 2.0)
        op1 = build(make_symbol(space, (1, 1)), delta, delta)
        op2 = build(make_symbol(space, (1, 1)), delta, theta)
        with pytest.raises(GridMismatchError,
                           match="composition requires operators on the same maps"):
            compose(op1, op2)

    def test_failing_dual_pair_is_measured_not_raised(self):
        # theta = I + 1e-9 E passes the dual-pair test, but the calculus
        # residual ~7e-9 is above RESIDUAL_TOL; compose reports, the caller
        # judges.
        space, model, delta = on_basis_setup(2)
        theta = DistributionMap(table=np.eye(2) + 1e-9 * np.fliplr(np.eye(2)),
                                space=space, model=model)
        op1 = build(make_symbol(space, (1, 2)), delta, theta, validate=False)
        op2 = build(make_symbol(space, (3, 4)), delta, theta, validate=False)
        assert "tol" not in inspect.signature(compose).parameters
        report = compose(op1, op2)
        assert report.asserted
        assert report.residual > RESIDUAL_TOL

    @pytest.mark.parametrize("j,k", TABLE_SHAPES)
    def test_probe_residual_tracks_the_dense_residual(self, rng, j, k):
        # Over 1000 random tables of each shape the ratio stayed in 0.54-1.36.
        for _ in range(20):
            omega, theta = random_map(j, k, rng), random_map(j, k, rng)
            m1 = random_bounded_symbol(omega.space, rng)
            m2 = random_bounded_symbol(omega.space, rng)
            op1 = build(m1, omega, theta, validate=False)
            op2 = build(m2, omega, theta, validate=False)
            product = build(product_symbol(omega.space, m1, m2), omega, theta,
                            validate=False)
            dense = np.linalg.norm(op1.dense @ op2.dense - product.dense)
            report = compose(op1, op2)
            assert 0.5 * dense <= report.residual <= 2.0 * dense

    def test_probe_block_is_fixed_signs_and_read_only(self):
        block = multiplier._probe_block(6)
        assert block.shape == (6, 8)
        assert set(np.unique(block)) == {-1.0, 1.0}
        assert multiplier._probe_block(6) is block
        assert not block.flags.writeable

    def test_dual_pair_verdict_is_decided_once_per_pair(self, rng, monkeypatch):
        omega, theta = riesz_dual_pair(5, rng)
        ops = [build(random_bounded_symbol(omega.space, rng), omega, theta,
                     validate=False) for _ in range(2)]
        identities = []  # np.eye is called only to compare the mixed matrix
        eye = np.eye
        monkeypatch.setattr(np, "eye", lambda *args: identities.append(1) or eye(*args))
        assert all(compose(*ops).asserted for _ in range(10))
        assert len(identities) == 1

    def test_dual_pair_verdict_does_not_keep_the_synthesis_map_alive(self, rng):
        omega, theta = riesz_dual_pair(4, rng)
        # theta is omega's cached dual; only this test holds the copy
        other = DistributionMap(table=theta.table, space=theta.space,
                                model=theta.model)
        assert is_dual_pair(omega, other)
        assert other in omega._dual_pair_verdicts
        ref = weakref.ref(other)
        del other
        gc.collect()
        assert ref() is None
        assert len(omega._dual_pair_verdicts) == 0

    def test_adjoint_of_product_is_reversed_product_of_adjoints(self, rng):
        omega, theta = riesz_dual_pair(5, rng)
        op1 = build(random_bounded_symbol(omega.space, rng), omega, theta,
                    validate=False)
        op2 = build(random_bounded_symbol(omega.space, rng), omega, theta,
                    validate=False)
        product = op1.dense @ op2.dense
        reversed_product = (swapped_multiplier(op2).dense
                            @ swapped_multiplier(op1).dense)
        assert np.linalg.norm(product.conj().T - reversed_product) < 1e-10


class TestDualityDefect:
    def test_overcomplete_canonical_pair_is_sqrt_of_the_excess(self, rng):
        # ||G - I||_F = sqrt(J - K) exactly; over 1000 random 12 x 4 tables
        # the probe estimate stayed in 0.87-1.11 times it.
        for _ in range(20):
            omega = random_overcomplete_map(12, 4, rng)
            defect = duality_defect(omega, canonical_dual(omega))
            assert math.sqrt(8) / 1.25 <= defect <= 1.25 * math.sqrt(8)

    def test_square_dual_pair_has_none(self, rng):
        space, model, delta = on_basis_setup(5)
        assert duality_defect(delta, canonical_dual(delta)) == 0.0
        omega, theta = riesz_dual_pair(8, rng)
        assert duality_defect(omega, theta) <= 1e-12


def _mismatched_maps(kind):
    """A 3 x 3 map on counting(3) other than the base map, sampled on
    another model, another grid or another measure of the same points."""
    space = counting(3)
    if kind == "3x2":
        model = make_model(space, GaussianBumps((0.0, 2.0), 1.0))
        return DistributionMap(table=np.ones((3, 2)), space=space, model=model)
    if kind == "2x2":
        return on_basis_setup(2)[2]
    heavy = SampledMeasureSpace(points=space.points, weights=np.full(3, 2.0),
                                extent=3.0)
    return DistributionMap(table=np.eye(3), space=heavy,
                           model=make_model(heavy, RawSamples()))


@pytest.mark.parametrize("check", [duality_residual, is_dual_pair, duality_defect])
@pytest.mark.parametrize("kind", ["3x2", "2x2", "weights-2"])
def test_two_map_checks_need_a_shared_space_and_model(check, kind):
    _, _, delta = on_basis_setup(3)
    other = _mismatched_maps(kind)
    with pytest.raises(GridMismatchError, match="analysis and synthesis maps"):
        check(delta, other)
    with pytest.raises(GridMismatchError, match="analysis and synthesis maps"):
        check(other, delta)


class TestBoundednessShadow:
    def test_norm_pinched_between_frame_bound_multiples(self, rng):
        # on a dual pair of Riesz bases the norm sits between
        # sqrt(A A') ||m||_inf and sqrt(B B') ||m||_inf
        for _ in range(20):
            omega, theta = riesz_dual_pair(5, rng)
            m = random_bounded_symbol(omega.space, rng)
            op = build(m, omega, theta, validate=False)
            a = diagnose(omega).lower * diagnose(theta).lower
            norm = operator_norm(op)
            assert norm >= math.sqrt(a) * m.ess_sup - 1e-10
            assert norm <= norm_bound(op) + 1e-10

    def test_adjoint_of_inverse_is_inverse_of_adjoint(self, rng):
        omega, theta = riesz_dual_pair(5, rng)
        m = random_bounded_symbol(omega.space, rng, lo=0.5, hi=2.0)
        op = build(m, omega, theta, validate=False)
        lhs = np.linalg.inv(op.dense).conj().T
        rhs = np.linalg.inv(swapped_multiplier(op).dense)
        assert np.linalg.norm(lhs - rhs) < 1e-10


class TestInvert:
    def test_diagonal_inverse(self):
        report = invert(diag_operator((2, 3, 5)))
        assert report.sigma_min == pytest.approx(2.0)
        assert report.inverse_norm == pytest.approx(0.5)
        assert report.injective
        assert report.reciprocal_residual < 1e-12

    def test_riesz_pair_lower_bound(self, rng):
        for _ in range(50):
            omega, theta = riesz_dual_pair(5, rng)
            phases = np.exp(2j * np.pi * rng.random(5))
            op = build(make_symbol(omega.space, phases), omega, theta,
                       validate=False)
            report = invert(op)
            assert report.lower_bound is not None
            assert report.bound_satisfied
            assert report.sigma_min >= report.lower_bound - 1e-8

    def test_reciprocal_symbol_gives_the_inverse(self, rng):
        omega, theta = riesz_dual_pair(5, rng)
        m = random_bounded_symbol(omega.space, rng, lo=0.5, hi=2.0)
        report = invert(build(m, omega, theta, validate=False))
        assert report.reciprocal_residual is not None
        assert report.reciprocal_residual < 1e-10

    def test_vanishing_symbol_reports_witness(self):
        report = invert(diag_operator((2, 0, 5)))
        assert not report.injective
        assert report.sigma_min == pytest.approx(0.0, abs=1e-14)
        assert report.vanishing_points == (1,)

    def test_corrupted_dense_is_flagged_as_inconsistency(self):
        op = diag_operator((2, 3, 5))
        corrupted = with_dense(op, np.diag([2.0, 0.0, 5.0]))
        with pytest.raises(InconsistencyError):
            invert(corrupted)

    def test_riesz_bound_violation_is_reported_not_raised(self):
        op = diag_operator((2, 3, 5))
        corrupted = with_dense(op, np.diag([2.0, 1.0, 5.0]))
        report = invert(corrupted)
        assert report.lower_bound == pytest.approx(2.0)
        assert report.sigma_min == pytest.approx(1.0)
        assert report.bound_satisfied is False

    def test_tiny_constant_symbol_has_no_vanishing_points(self):
        report = invert(diag_operator((1e-13, 1e-13, 1e-13)))
        assert report.injective
        assert report.vanishing_points == ()
        assert report.reciprocal_residual == 0.0


class TestDecompositionCache:
    def test_norm_invert_and_reconstruction_decompose_once(self, rng, monkeypatch):
        omega, theta = riesz_dual_pair(5, rng)
        diagnose(omega), diagnose(theta)  # the maps' own spectra
        op = build(random_bounded_symbol(omega.space, rng, lo=0.5, hi=2.0),
                   omega, theta)
        calls = {"svd": 0, "inv": 0}
        for name in calls:
            def counted(*args, _fn=getattr(np.linalg, name), _name=name, **kwargs):
                calls[_name] += 1
                return _fn(*args, **kwargs)
            monkeypatch.setattr(np.linalg, name, counted)
        operator_norm(op)
        report = invert(op)
        reconstruction_pair(op, Side.RIGHT)
        reconstruction_pair(op, Side.LEFT)
        assert report.reciprocal_residual < 1e-10
        assert calls == {"svd": 1, "inv": 1}

    def test_dense_is_read_only(self):
        op = diag_operator((2, 3, 5))
        with pytest.raises(ValueError):
            op.dense[0, 0] = 7.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            op.dense = np.eye(3)
        lazy = build(op.symbol, op.omega, op.theta, validate=False)
        with pytest.raises(ValueError):
            lazy.dense[0, 0] = 7.0

    def test_invert_and_reconstruction_share_the_rank_rule(self):
        singular = diag_operator((1, 5e-11, 1))
        assert not invert(singular).injective
        for side in Side:
            with pytest.raises(SingularOperatorError):
                reconstruction_pair(singular, side)
        tiny = diag_operator((1e-13, 2e-13, 3e-13))
        assert invert(tiny).injective
        for side in Side:
            _, residual = reconstruction_pair(tiny, side)
            assert residual < 1e-12


class TestReconstructionPair:
    def delta_pair_operator(self, n=8):
        space = fourier_grid(n)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        m = make_symbol(space, 1.5 + 0.5 * np.cos(2 * np.pi * space.points))
        assert 0 < m.min_modulus <= m.ess_sup < np.inf
        return build(m, delta, delta), delta

    def test_delta_pair_returns_delta_both_sides(self):
        op, delta = self.delta_pair_operator()
        rho, res_right = reconstruction_pair(op, Side.RIGHT)
        tau, res_left = reconstruction_pair(op, Side.LEFT)
        assert np.max(np.abs(rho.table - delta.table)) < 1e-10
        assert np.max(np.abs(tau.table - delta.table)) < 1e-10
        assert res_right < 1e-10
        assert res_left < 1e-10

    def test_unit_symbol_parseval_pair_returns_omega(self):
        space = fourier_grid(8)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        op = build(make_symbol(space, np.ones(8)), delta, delta)
        rho, _ = reconstruction_pair(op, Side.RIGHT)
        assert np.max(np.abs(rho.table - delta.table)) < 1e-12

    def test_random_invertible_diagonal_case(self, rng):
        space, model, delta = on_basis_setup(6)
        m = random_bounded_symbol(space, rng, lo=0.5, hi=2.0)
        op = build(m, delta, delta)
        _, res_right = reconstruction_pair(op, Side.RIGHT)
        _, res_left = reconstruction_pair(op, Side.LEFT)
        assert res_right < 1e-12
        assert res_left < 1e-12

    def test_singular_operator_rejected(self):
        with pytest.raises(SingularOperatorError):
            reconstruction_pair(diag_operator((1, 0, 1)), Side.RIGHT)

    def test_needs_at_least_one_trial(self):
        with pytest.raises(ValueError):
            reconstruction_pair(diag_operator(), Side.RIGHT, trials=0)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("trials", TRIAL_COUNTS)
    @pytest.mark.parametrize("j,k", TABLE_SHAPES)
    def test_residual_equals_per_trial_loop(self, rng, j, k, trials, side):
        omega, theta = random_map(j, k, rng), random_map(j, k, rng)
        op = build(random_bounded_symbol(omega.space, rng), omega, theta,
                   validate=False)
        # A dense matrix that is not the pairing's, so the residual is O(1).
        stray = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                 ) / np.sqrt(2 * k)
        new, stacked = reconstruction_pair(with_dense(op, stray),
                                           side, trials=trials, seed=3)
        left, right = ((new.table, theta.table) if side is Side.RIGHT
                       else (omega.table, new.table))
        reference = per_trial_pairing_residual(omega.space.weights, left, right,
                                               lambda f: f, trials, 3)
        assert reference > 1e-3
        assert agrees_with_loop(stacked, reference)

    @pytest.mark.parametrize("side", list(Side))
    @pytest.mark.parametrize("j,k", TABLE_SHAPES)
    def test_residual_is_the_duality_residual_of_the_pair(self, rng, j, k, side):
        omega, theta = random_map(j, k, rng), random_map(j, k, rng)
        op = build(random_bounded_symbol(omega.space, rng), omega, theta,
                   validate=False)
        stray = (rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k))
                 ) / np.sqrt(2 * k)
        new, residual = reconstruction_pair(with_dense(op, stray), side,
                                            trials=7, seed=3)
        left, right = (new, theta) if side is Side.RIGHT else (omega, new)
        assert residual > 1e-3
        assert agrees_with_loop(residual, duality_residual(right, left, trials=7, seed=3))


class TestComplexNormals:
    """One draw of Re, Im per row is the stream of the loops it replaced."""

    def test_equals_the_per_vector_loop(self):
        rng = np.random.default_rng(5)
        loop = np.array([rng.standard_normal(6) + 1j * rng.standard_normal(6)
                         for _ in range(4)])
        rows = multiplier._complex_normals(np.random.default_rng(5), 4, 6)
        assert rows.tobytes() == loop.tobytes()

    def test_alternate_rows_are_the_pair_layout(self):
        draws = np.random.default_rng(5).standard_normal((3, 4, 6))
        f, g = draws[:, 0] + 1j * draws[:, 1], draws[:, 2] + 1j * draws[:, 3]
        rows = multiplier._complex_normals(np.random.default_rng(5), 6, 6)
        assert rows[0::2].tobytes() == f.tobytes()
        assert rows[1::2].tobytes() == g.tobytes()


class TestSplitSymbol:
    def test_mixed_values(self):
        space = counting(2)
        m1, m2 = split_symbol(make_symbol(space, (0.5, 3)))
        assert np.allclose(m1, [2.5, 0.0])
        assert np.allclose(m2, [-2.0, 3.0])

    def test_already_large(self):
        m1, m2 = split_symbol(make_symbol(counting(3), (5, 5, 5)))
        assert np.allclose(m1, 0.0)
        assert np.allclose(m2, 5.0)

    def test_small_branch(self):
        m1, m2 = split_symbol(make_symbol(counting(2), (0, 0)))
        assert np.allclose(m1, 2.0)
        assert np.allclose(m2, -2.0)

    def test_postconditions_on_random_symbols(self, rng):
        space = counting(16)
        for _ in range(100):
            values = 4.0 * (rng.standard_normal(16) + 1j * rng.standard_normal(16))
            m = make_symbol(space, values)
            m1, m2 = split_symbol(m)
            assert np.max(np.abs(m1 + m2 - values)) < 1e-14
            assert np.min(np.abs(m2)) >= 1.0
            assert np.max(np.abs(m1)) <= 3.0 + 1e-12


class TestDensityCertificate:
    def grid_setup(self):
        space = symmetric_grid(33, 4.0)
        model = make_model(space, RawSamples())
        return space, model, delta_frame(model, space)

    def test_coordinate_symbol_passes_on_bumps(self):
        space, model, delta = self.grid_setup()
        report = density_certificate(
            delta, delta, make_symbol(space, space.points.astype(complex)),
            bump_family(model),
        )
        assert report.passed
        assert all(r.norm_mf <= r.bound + 1e-10 for r in report.records)

    def test_zero_symbol_is_trivially_bounded(self):
        space, model, delta = self.grid_setup()
        report = density_certificate(
            delta, delta, make_symbol(space, np.zeros(33)), bump_family(model)
        )
        assert report.passed
        assert all(r.bound == 0.0 and r.norm_mf <= 1e-10 for r in report.records)

    def test_non_total_family_fails(self):
        space, model, delta = self.grid_setup()
        report = density_certificate(
            delta, delta, make_symbol(space, np.ones(33)),
            bump_family(model)[:, :3],
        )
        assert not report.passed
        assert not report.total


class TestSymbolsWhoseSquaresOverflow:
    """A symbol above about 1.3e154 has squares that overflow; the density
    norms are then taken from the symbol scaled by a power of two, which is
    exact."""

    SCALE = 2.0 ** 40  # takes 1e150 past the square root of the largest float

    def delta_setup(self, rng=None):
        space = periodic_unit_grid(8)
        model = make_model(space, RawSamples())
        delta = delta_frame(model, space)
        return space, delta, delta, bump_family(model)

    def dense_setup(self, rng):
        omega, theta = riesz_dual_pair(6, rng)
        return omega.space, omega, theta, bump_family(omega.model)

    @pytest.mark.parametrize("setup", ["delta_setup", "dense_setup"])
    def test_norms_scale_with_the_symbol_bit_for_bit(self, rng, setup):
        space, omega, theta, family = getattr(self, setup)(rng)
        values = 1e150 * random_bounded_symbol(space, rng).values
        small, large = make_symbol(space, values), make_symbol(space, values * self.SCALE)
        before = density_certificate(omega, theta, small, family)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            after = density_certificate(omega, theta, large, family)
        for a, b in zip(before.records, after.records):
            assert b.symbol_l2_on_support == a.symbol_l2_on_support * self.SCALE
            assert b.bound == a.bound * self.SCALE
            assert b.norm_mf == a.norm_mf * self.SCALE
            assert b.passed == a.passed

    def test_a_symbol_whose_squares_stay_finite_reads_as_before(self):
        space, omega, theta, family = self.delta_setup()
        report = density_certificate(omega, theta, make_symbol(space, np.full(8, 1e150)),
                                     family)
        assert {(r.bound, r.norm_mf) for r in report.records} == {
            (3.5355339059327365e+149, 3.5355339059327365e+149)}

    def test_a_bound_past_the_largest_float_is_an_invalid_value_error(self):
        space = fourier_grid(4)
        model = make_model(space, RawSamples())
        omega = weighted_delta_frame(model, space, [1, 2, 3, 4])
        symbol = make_symbol(space, np.full(4, complex(-1e308, 1e308)))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(InvalidValueError, match="cannot be represented"):
                density_certificate(omega, omega, symbol, bump_family(model))
