"""Shared builders for seeded random frames and dual pairs."""

import dataclasses

import numpy as np
import pytest

from framelab import (
    DistributionMap,
    RawSamples,
    canonical_dual,
    counting,
    make_model,
    make_symbol,
)


def random_unitary(k, rng):
    q, r = np.linalg.qr(rng.standard_normal((k, k)) + 1j * rng.standard_normal((k, k)))
    return q * (np.diag(r) / np.abs(np.diag(r)))


def random_riesz_map(k, rng, smin=0.5, smax=2.0):
    """Square map on counting measure with singular values in [smin, smax].

    On counting measure the weighted table equals the table, so the frame
    bounds are exactly (smin^2, smax^2)-conditioned.
    """
    space = counting(k)
    model = make_model(space, RawSamples())
    s = rng.uniform(smin, smax, k)
    table = random_unitary(k, rng) @ np.diag(s) @ random_unitary(k, rng)
    return DistributionMap(table=table, space=space, model=model)


def riesz_dual_pair(k, rng, smin=0.5, smax=2.0):
    omega = random_riesz_map(k, rng, smin, smax)
    return omega, canonical_dual(omega)


def random_overcomplete_map(j, k, rng):
    """Random J > K map on counting measure (a frame, never mu-independent)."""
    space = counting(j)
    model = make_model(counting(k), RawSamples())
    table = rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))
    return DistributionMap(table=table, space=space, model=model)


def random_bounded_symbol(space, rng, lo=0.2, hi=2.0):
    modulus = rng.uniform(lo, hi, len(space))
    phase = np.exp(2j * np.pi * rng.random(len(space)))
    return make_symbol(space, modulus * phase)


def with_dense(op, dense):
    """A copy of ``op`` whose dense matrix is ``dense``, not its factors'
    product: a fault for the oracles to catch.  It fills the cache that
    ``MultiplierOperator.dense`` reads first."""
    faulty = dataclasses.replace(op)
    vars(faulty)["dense"] = np.asarray(dense, dtype=complex)
    return faulty


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def random_map(j, k, rng):
    """Random J x K table on counting measure, with entries of size 1/sqrt(J)."""
    table = (rng.standard_normal((j, k)) + 1j * rng.standard_normal((j, k))) / np.sqrt(2 * j)
    return DistributionMap(table=table, space=counting(j),
                           model=make_model(counting(k), RawSamples()))


# Table shapes J x K with J < K, J = K and J > K, and trial counts, on which
# each stacked randomized oracle is compared with its per-trial loop.
TABLE_SHAPES = [(5, 8), (8, 8), (12, 5)]
TRIAL_COUNTS = [1, 7, 100]


def agrees_with_loop(stacked, reference):
    """Stacked and per-trial residuals agree to 1e-15 relative to max(1, |r|).

    The residuals tested are of order one (the identity is broken on
    purpose), so a different draw order could not pass.
    """
    return abs(stacked - reference) <= 1e-15 * max(1.0, reference)


def per_trial_pairing_residual(weights, left, right, apply, trials, seed):
    """Worst |<apply(f), g> - sum_j weights_j (left f)_j conj((right g)_j)|,
    one trial at a time: four draws of K normals per trial (Re f, Im f,
    Re g, Im g), each vector normalized, one matrix-vector product per side."""
    rng = np.random.default_rng(seed)
    k = left.shape[1]
    worst = 0.0
    for _ in range(trials):
        f = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        g = rng.standard_normal(k) + 1j * rng.standard_normal(k)
        f, g = f / np.linalg.norm(f), g / np.linalg.norm(g)
        direct = np.sum(weights * (left @ f) * np.conj(right @ g))
        worst = max(worst, abs(np.vdot(g, apply(f)) - direct))
    return worst
