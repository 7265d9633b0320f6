"""Witness families are evaluated as one analysis matrix.

The per-witness loops that the orthogonality checks and the density
certificate used before are kept here verbatim as references.  Integers,
booleans, reasons and violation indices must match them exactly; floats
must agree to 1e-12 relative, since a gemm and a loop of gemvs round
differently.  Values that are pure rounding noise, such as the
off-support analysis of the exponential frame (about 1e-15), cannot agree
relatively across BLAS builds; they get an absolute floor of 64 ulps of
these unit-scale tables.
"""

import dataclasses
import math

import numpy as np
import pytest

import framelab.multiplier as multiplier_module
from framelab import (
    DistributionMap,
    RawSamples,
    band_limited_family,
    build,
    bump_family,
    check_hyper_orthogonal,
    check_pseudo_orthogonal,
    counting,
    delta_frame,
    density_certificate,
    diagnose,
    exponential_frame,
    from_samples,
    make_model,
    make_symbol,
    periodic_unit_grid,
    symmetric_grid,
    Trigonometric,
)
from framelab.maps import SupportRecord, WitnessReport
from framelab.multiplier import DensityRecord
from conftest import random_bounded_symbol

REL = 1e-12
NOISE = 64 * np.finfo(float).eps


# -- the per-witness references ------------------------------------------------

def _family_total(model, family, rank_tol):
    if not family.shape[1]:
        return False
    coeffs = family.T
    sigma = np.linalg.svd(coeffs, compute_uv=False)
    rank = int(np.sum(sigma > rank_tol * sigma[0])) if sigma[0] > 0 else 0
    return rank == model.dim


def _support_record(omega, f, index, support_tol, alpha, bound_slack,
                    max_support_fraction):
    values = np.abs(omega.table @ f)
    on = values > support_tol
    support_measure = float(np.sum(omega.space.weights[on]))
    if max_support_fraction is None:
        strict = int(np.sum(on)) < omega.n_points
    else:
        strict = support_measure <= max_support_fraction * omega.space.weights.sum()
    violation = None
    if alpha is not None and np.any(on):
        excess = values[on] - alpha[on]
        worst = int(np.argmax(excess))
        if excess[worst] > bound_slack:
            j = int(np.flatnonzero(on)[worst])
            violation = (j, float(values[j]), float(alpha[j]))
    return SupportRecord(
        index=index,
        support_size=int(np.sum(on)),
        support_measure=support_measure,
        sup_on_support=float(values[on].max()) if np.any(on) else 0.0,
        max_off_support=float(values[~on].max()) if np.any(~on) else 0.0,
        strict_subset=bool(strict),
        bound_violation=violation,
        passed=bool(strict) and violation is None,
    )


def reference_orthogonality(omega, family, alpha=None, support_tol=1e-9):
    """The two checks' loop bodies; alpha None is the pseudo check."""
    if not family.shape[1]:
        return WitnessReport(passed=False, total=False, records=(),
                             reason="empty witness family")
    records = tuple(
        _support_record(omega, f, i, support_tol, alpha, 1e-10, None)
        for i, f in enumerate(family.T)
    )
    total = _family_total(omega.model, family, 1e-10)
    passed = total and all(r.passed for r in records)
    if passed:
        reason = ""
    elif not total:
        reason = "witness family is not total"
    elif any(r.bound_violation for r in records):
        reason = "envelope bound violated"
    else:
        reason = "support is not proper"
    return WitnessReport(passed=passed, total=total, records=records,
                         reason=reason)


def reference_density(omega, theta, m, family, support_tol=1e-9, tol=1e-10):
    if not family.shape[1]:
        return WitnessReport(passed=False, total=False, records=(),
                             reason="empty witness family")
    b_theta = diagnose(theta).upper
    op = build(m, omega, theta, validate=False)
    w = omega.space.weights
    records = []
    for i, f in enumerate(family.T):
        values = np.abs(omega.table @ f)
        on = values > support_tol
        c_f = float(values[on].max()) if np.any(on) else 0.0
        m_l2 = math.sqrt(float(np.sum(w[on] * np.abs(m.values[on]) ** 2)))
        bound = c_f * math.sqrt(b_theta) * m_l2
        norm_mf = float(np.linalg.norm(op.dense @ f))
        records.append(DensityRecord(
            index=i,
            support_size=int(np.sum(on)),
            sup_on_support=c_f,
            symbol_l2_on_support=m_l2,
            bound=bound,
            norm_mf=norm_mf,
            passed=norm_mf <= bound + tol,
        ))
    total = _family_total(omega.model, family, rank_tol=1e-10)
    passed = total and all(r.passed for r in records)
    reason = "" if passed else (
        "witness family is not total" if not total else "bound violated"
    )
    return WitnessReport(passed=passed, total=total, records=tuple(records),
                         reason=reason)


def assert_same_report(new, old):
    assert (new.passed, new.total, new.reason) == (old.passed, old.total, old.reason)
    assert len(new.records) == len(old.records)
    for a, b in zip(new.records, old.records):
        for field in dataclasses.fields(b):
            x, y = getattr(a, field.name), getattr(b, field.name)
            if isinstance(y, float):
                assert x == pytest.approx(y, rel=REL, abs=NOISE), field.name
            elif field.name == "bound_violation" and y is not None:
                assert x[0] == y[0]
                assert x[1:] == pytest.approx(y[1:], rel=REL)
            else:
                assert type(x) is type(y) and x == y, field.name


# -- the cases -------------------------------------------------------------------

def sparse_random_map(j, k, rng):
    """J x K table on counting measure with about 40% nonzero entries."""
    table = rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))
    table *= rng.random((j, k)) < 0.4
    return DistributionMap(table=table, space=counting(j),
                           model=make_model(counting(k), RawSamples()))


def sparse_family(k, count, rng):
    return np.column_stack([(rng.standard_normal(k) + 1j * rng.standard_normal(k))
                            * (rng.random(k) < 0.3)
                            for _ in range(count)])


def banded_bumps(model, heights, half_width):
    """K x N family of bumps over 2 * half_width + 1 points (clipped at the
    grid edges), each projected onto D on its own."""
    n = model.ambient_dim
    columns = []
    for c in range(n):
        values = np.zeros(n)
        values[max(0, c - half_width):c + half_width + 1] = heights[c]
        columns.append(from_samples(model, values))
    return np.column_stack(columns)


def window_minima(alpha, half_width):
    """Each bump's height under an envelope: alpha's minimum over the bump."""
    n = len(alpha)
    return np.array([alpha[max(0, c - half_width):c + half_width + 1].min()
                     for c in range(n)])


def delta_case():
    """(omega, family builder, symbol) of a delta frame with 3-point bumps."""
    space = symmetric_grid(16, 4.0)
    model = make_model(space, RawSamples())
    return (delta_frame(model, space),
            lambda a=None: banded_bumps(model, np.ones(16) if a is None
                                        else window_minima(a, 1), 1),
            make_symbol(space, space.points.astype(complex)))


def exponential_case():
    space = periodic_unit_grid(16)
    model = make_model(space, Trigonometric(8))
    return (exponential_frame(model, space),
            lambda a=None: band_limited_family(model, space, a),
            make_symbol(space, np.exp(2j * np.pi * space.points)))


@pytest.mark.parametrize("j, k", [(6, 9), (8, 8), (12, 8)])
def test_random_tables_match_the_loops(j, k, rng):
    omega = sparse_random_map(j, k, rng)
    theta = sparse_random_map(j, k, rng)
    m = random_bounded_symbol(omega.space, rng)
    alpha = rng.uniform(0.3, 3.0, j)
    for family in (bump_family(omega.model), sparse_family(k, k + 2, rng),
                   sparse_family(k, 3, rng)):
        assert_same_report(check_pseudo_orthogonal(omega, family),
                           reference_orthogonality(omega, family))
        assert_same_report(check_hyper_orthogonal(omega, alpha, lambda a: family),
                           reference_orthogonality(omega, family, alpha))
        assert_same_report(density_certificate(omega, theta, m, family),
                           reference_density(omega, theta, m, family))


@pytest.mark.parametrize("case", [delta_case, exponential_case])
def test_grid_frames_match_the_loops(case):
    omega, builder, m = case()
    alpha = 1.0 / (1.0 + omega.space.points ** 2)
    pseudo = check_pseudo_orthogonal(omega, builder(), support_tol=1e-8)
    assert pseudo.passed
    assert_same_report(pseudo,
                       reference_orthogonality(omega, builder(), support_tol=1e-8))
    hyper = check_hyper_orthogonal(omega, alpha, builder, support_tol=1e-8)
    assert hyper.passed
    assert_same_report(hyper, reference_orthogonality(omega, builder(alpha), alpha,
                                                      support_tol=1e-8))
    for family in (builder(), builder()[:, :3]):
        assert_same_report(density_certificate(omega, omega, m, family),
                           reference_density(omega, omega, m, family))


def test_envelope_violation_and_empty_family_match_the_loops():
    space = symmetric_grid(9, 4.0)
    model = make_model(space, RawSamples())
    omega = delta_frame(model, space)
    tall = banded_bumps(model, np.linspace(0.5, 2.0, 9), 1)
    alpha = np.ones(9)
    report = check_hyper_orthogonal(omega, alpha, lambda a: tall)
    assert report.reason == "envelope bound violated"
    assert_same_report(report, reference_orthogonality(omega, tall, alpha))
    empty = np.zeros((9, 0), dtype=complex)
    assert_same_report(check_hyper_orthogonal(omega, alpha, lambda a: empty),
                       reference_orthogonality(omega, empty, alpha))
    assert_same_report(check_pseudo_orthogonal(omega, empty),
                       reference_orthogonality(omega, empty))
    m = make_symbol(space, np.ones(9))
    assert_same_report(density_certificate(omega, omega, m, empty),
                       reference_density(omega, omega, m, empty))


def test_no_per_witness_analysis_and_no_operator_build(monkeypatch):
    def refuse(*args, **kwargs):
        raise AssertionError("a witness check built an operator")

    monkeypatch.setattr(multiplier_module, "build", refuse)
    omega, builder, m = delta_case()
    alpha = 1.0 / (1.0 + omega.space.points ** 2)
    assert check_pseudo_orthogonal(omega, builder()).passed
    assert check_hyper_orthogonal(omega, alpha, builder).passed
    assert density_certificate(omega, omega, m, builder()).passed

