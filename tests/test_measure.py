import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import framelab
from framelab import (
    EmptySpaceError,
    InvalidValueError,
    RefinementFamily,
    SampledMeasureSpace,
    ScheduleError,
    ShapeMismatchError,
    UnsupportedSpaceError,
    counting,
    ess_sup,
    fourier_grid,
    l2_inner,
    periodic_unit_grid,
    symmetric_grid,
    symmetric_grid_family,
)


class TestL2Inner:
    def test_orthogonal_coordinates(self):
        space = counting([1, 2])
        assert l2_inner(space, (1, 0), (0, 1)) == 0

    def test_counting_norm(self):
        space = counting([1, 2, 3])
        assert l2_inner(space, (1, 1, 1), (1, 1, 1)) == 3

    def test_uniform_quadrature_of_constant_is_exact(self):
        space = periodic_unit_grid(4)
        assert np.allclose(space.weights, 0.25)
        assert l2_inner(space, np.ones(4), np.ones(4)) == pytest.approx(1.0, abs=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ShapeMismatchError):
            l2_inner(counting(3), (1, 2), (1, 2, 3))

    def test_conjugate_symmetry_and_positivity(self, rng):
        space = periodic_unit_grid(16)
        for _ in range(20):
            x = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            y = rng.standard_normal(16) + 1j * rng.standard_normal(16)
            assert l2_inner(space, x, y) == pytest.approx(
                np.conj(l2_inner(space, y, x)), abs=1e-14
            )
            assert l2_inner(space, x, x).real > 0

    def test_counting_measure_reduces_to_plain_inner_product(self, rng):
        space = counting(5)
        x = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        y = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        assert l2_inner(space, x, y) == pytest.approx(np.vdot(y, x), abs=1e-14)

    def test_values_on_x_are_arrays_not_callables(self):
        with pytest.raises(TypeError):
            l2_inner(counting(2), lambda x: x, (1, 1))


class TestEssSup:
    def test_max_modulus(self):
        assert ess_sup(counting(3), (2, -3, 5)) == 5

    def test_unit_modulus(self):
        assert ess_sup(counting(2), (1j, -1j)) == pytest.approx(1.0)

    def test_coordinate_on_symmetric_grid(self):
        space = symmetric_grid(9, 4.0)
        assert ess_sup(space, space.points) == pytest.approx(4.0)

    def test_submultiplicative(self, rng):
        space = counting(8)
        for _ in range(20):
            x = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            y = rng.standard_normal(8) + 1j * rng.standard_normal(8)
            assert ess_sup(space, x * y) <= ess_sup(space, x) * ess_sup(space, y) + 1e-12


class TestSpaceInvariants:
    def test_empty_space_rejected(self):
        with pytest.raises(EmptySpaceError):
            SampledMeasureSpace(points=[], weights=[], extent=0.0)

    def test_zero_weight_rejected(self):
        with pytest.raises(InvalidValueError, match="strictly positive"):
            SampledMeasureSpace(points=[0.0, 1.0], weights=[1.0, 0.0], extent=2.0)

    @pytest.mark.parametrize("points, weights, what", [
        ([0.0, np.nan], [1.0, 1.0], "points"),
        ([0.0, np.inf], [1.0, 1.0], "points"),
        ([0.0, 1.0], [1.0, np.inf], "weights"),
    ])
    def test_non_finite_entries_rejected(self, points, weights, what):
        with pytest.raises(InvalidValueError, match=f"{what} must be finite"):
            SampledMeasureSpace(points=points, weights=weights, extent=2.0)

    @pytest.mark.parametrize("points, weights, message", [
        ([[0.0, 1.0]], [1.0, 1.0], "points and weights must be 1-d arrays"),
        ([0.0, 1.0], [[1.0, 1.0]], "points and weights must be 1-d arrays"),
        ([0.0, 1.0], [1.0], "2 points but 1 weights"),
    ])
    def test_points_and_weights_are_1d_of_equal_length(self, points, weights,
                                                      message):
        with pytest.raises(ShapeMismatchError, match=message):
            SampledMeasureSpace(points=points, weights=weights, extent=2.0)

    @pytest.mark.parametrize("points", [
        [1.0, 1.0],
        [0.0, -0.0],
        [3.0, 1.0, 2.0, 1.0],
        [-2.0, 5.0, 0.5, 7.0, -2.0],
    ])
    def test_duplicate_points_rejected(self, points):
        with pytest.raises(InvalidValueError, match="distinct"):
            SampledMeasureSpace(points=points, weights=[1.0] * len(points), extent=9.0)

    def test_unsorted_distinct_points_accepted(self):
        space = SampledMeasureSpace(points=[2.0, -1.0, 0.5], weights=[1.0] * 3,
                                    extent=3.0)
        assert list(space.points) == [2.0, -1.0, 0.5]

    def test_building_a_space_does_not_import_numpy_ma(self):
        # importing numpy.ma adds to every cold run, and np.unique imports it
        code = ("import sys, framelab; framelab.measure.counting(3); "
                "print('numpy.ma' in sys.modules)")
        env = {**os.environ, "PYTHONPATH": str(Path(framelab.__file__).parents[1])}
        result = subprocess.run([sys.executable, "-c", code], capture_output=True,
                                text=True, check=True, env=env)
        assert result.stdout.strip() == "False"

    def test_symmetric_grid_values_are_typed_errors(self):
        with pytest.raises(InvalidValueError, match="at least 2 points"):
            symmetric_grid(1, 1.0)
        with pytest.raises(InvalidValueError, match="its span 2L overflows"):
            symmetric_grid(2, 1e308)

    def test_spacing_of_one_point_is_its_extent(self):
        assert SampledMeasureSpace(points=[0.5], weights=[2.0], extent=4.0).spacing == 4.0

    def test_spacing_of_a_non_uniform_grid_is_rejected(self):
        space = SampledMeasureSpace(points=[0.0, 1.0, 3.0], weights=[1.0] * 3,
                                    extent=3.0)
        with pytest.raises(UnsupportedSpaceError, match="grid spacing is not uniform"):
            space.spacing

    def test_counting_weights_are_unit(self):
        assert np.all(counting(7).weights == 1.0)

    def test_total_measure(self):
        assert periodic_unit_grid(8).weights.sum() == pytest.approx(1.0)
        assert fourier_grid(9).weights.sum() == pytest.approx(3.0)


class TestRefinement:
    def test_symmetric_grid_points(self):
        family = symmetric_grid_family([(9, 4.0), (17, 8.0)])
        space = symmetric_grid(*family.schedule[0])
        assert np.allclose(space.points, np.arange(-4, 5))

    def test_schedule_must_increase(self):
        with pytest.raises(ScheduleError, match="strictly increasing"):
            RefinementFamily(schedule=[(8, 1.0), (8, 2.0)])

    def test_every_grid_needs_two_points(self):
        with pytest.raises(ScheduleError, match="at least 2 points"):
            symmetric_grid_family([(1, 0.1), (2, 0.2), (3, 0.3)])
