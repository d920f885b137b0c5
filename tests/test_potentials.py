import numpy as np
import pytest

import snls
from snls.errors import ParameterError
from snls.potentials import (
    PotentialFamily,
    PotentialSpec,
    build_potential,
    build_potential_derivative,
    check_hypotheses,
    load_samples_csv,
)


class TestBuild:
    def test_flat_zero(self, grid_small):
        v = build_potential(PotentialSpec(family=PotentialFamily.FLAT, a_minus=0.0), grid_small)
        assert np.array_equal(v, np.zeros(grid_small.n_points))

    def test_flat_constant(self, grid_small):
        v = build_potential(PotentialSpec(family=PotentialFamily.FLAT, a_minus=1.0), grid_small)
        assert np.array_equal(v, np.ones(grid_small.n_points))

    def test_matched_step_values(self):
        g = snls.Grid(2048, 80.0)
        v = build_potential(PotentialSpec(height=2.0, width=1.0), g)
        i0 = np.argmin(np.abs(g.x))
        assert g.x[i0] == 0.0
        assert v[i0] == 2.0
        i_left = np.argmin(np.abs(g.x + 20.0))
        i_right = np.argmin(np.abs(g.x - 20.0))
        assert v[i_left] < 1e-100
        assert abs(v[i_right] - 1.0) < 1e-100

    def test_matched_step_right_branch_constant_when_h_equals_a_plus(self):
        g = snls.Grid(512, 40.0)
        v = build_potential(PotentialSpec(height=1.0, width=1.0), g)
        i3 = np.argmin(np.abs(g.x - 3.0))
        assert v[i3] == 1.0

    def test_matched_step_continuity(self):
        g = snls.Grid(4096, 40.0)
        v = build_potential(PotentialSpec(height=2.0, width=1.0), g)
        assert np.max(np.abs(np.diff(v))) < 4 * g.dx  # |V'| <= sqrt(2/e) * h < 2

    def test_branch_mirror_symmetry(self):
        # each branch is an even bump around 0 plus its plateau
        g = snls.Grid(1024, 50.0)
        spec = PotentialSpec(height=3.0, width=1.5)
        v = build_potential(spec, g)
        x = g.x
        left = v[x < 0]
        mirrored = spec.a_minus + (spec.height - spec.a_minus) * np.exp(-(x[x < 0] / spec.width) ** 2)
        assert np.allclose(left, mirrored, rtol=0, atol=1e-15)

    def test_height_below_plateau_rejected(self):
        with pytest.raises(ParameterError):
            PotentialSpec(height=0.5, a_plus=1.0)

    def test_logistic(self):
        g = snls.Grid(512, 40.0)
        v = build_potential(PotentialSpec(family=PotentialFamily.LOGISTIC_STEP, height=1.0), g)
        assert v[np.argmin(np.abs(g.x))] == pytest.approx(0.5)
        assert v[0] < 1e-6 and v[-1] > 1 - 1e-6


class TestDerivative:
    def test_analytic_matches_fd(self):
        g = snls.Grid(8192, 80.0)
        spec = PotentialSpec(height=2.0, width=1.0)
        vp = build_potential_derivative(spec, g)
        fd = np.gradient(build_potential(spec, g), g.dx)
        # away from the matching point the centered difference is O(dx^2);
        # at x = 0 the jump in V'' degrades it to O(dx), so exclude 2 cells
        away = np.abs(g.x) > 2 * g.dx
        assert np.max(np.abs(vp - fd)[away]) < 5e-4
        jump = 2.0 * spec.a_plus / spec.width**2
        assert np.max(np.abs(vp - fd)) < jump * g.dx

    def test_flat_derivative_zero(self, grid_small):
        vp = build_potential_derivative(PotentialSpec(family=PotentialFamily.FLAT), grid_small)
        assert np.array_equal(vp, np.zeros(grid_small.n_points))

    @pytest.mark.parametrize(
        "family", [PotentialFamily.GAUSSIAN_MATCHED_STEP, PotentialFamily.LOGISTIC_STEP]
    )
    def test_closed_form_is_the_centered_difference_at_second_order(self, family):
        spec = PotentialSpec(family=family, height=2.0, width=1.5, a_minus=0.25, a_plus=1.0)
        errors = []
        for n in (1024, 2048):
            g = snls.Grid(n, 40.0)
            v = build_potential(spec, g)
            fd = (v[2:] - v[:-2]) / (2.0 * g.dx)
            # |x| >= 1 leaves out the matched point, where the Gaussian's V'' jumps
            away = np.abs(g.x[1:-1]) >= 1.0
            errors.append(np.max(np.abs(build_potential_derivative(spec, g)[1:-1] - fd)[away]))
        # halving dx quarters the error of a centered difference
        assert 3.5 < errors[0] / errors[1] < 4.5
        assert errors[1] < 1e-3

    def test_custom_derivative_is_the_gradient_of_the_samples(self, grid_small):
        spec = PotentialSpec(
            family=PotentialFamily.CUSTOM_SAMPLES,
            custom_x=np.array([-15.0, -2.0, 0.0, 3.0, 15.0]),
            custom_v=np.array([0.0, 0.5, 2.0, 1.25, 1.0]),
        )
        v = build_potential(spec, grid_small)
        vp = build_potential_derivative(spec, grid_small)
        assert np.array_equal(vp, np.gradient(v, grid_small.dx))


class TestHypotheses:
    def test_canonical_family_all_ok(self):
        g = snls.Grid(2048, 80.0)
        spec = PotentialSpec(height=2.0, width=1.0)
        report = check_hypotheses(build_potential(spec, g), g,
                                  dV=build_potential_derivative(spec, g), epsilon=0.5, height=2.0)
        assert report.all_ok(), report.as_dict()
        # super-polynomial decay shows up as a large fitted exponent
        assert report.measured_exponent > 1.5

    @pytest.mark.parametrize("n,length", [(256, 40.0), (512, 60.0), (4096, 200.0)])
    def test_repulsive_across_resolutions(self, n, length):
        g = snls.Grid(n, length)
        for h in (1.0, 2.0, 5.0):
            spec = PotentialSpec(height=h, width=1.0)
            v, dv = build_potential(spec, g), build_potential_derivative(spec, g)
            assert check_hypotheses(v, g, dV=dv, height=h).repulsive

    def test_logistic_not_repulsive(self):
        g = snls.Grid(1024, 60.0)
        spec = PotentialSpec(family=PotentialFamily.LOGISTIC_STEP, height=1.0)
        report = check_hypotheses(build_potential(spec, g), g, dV=build_potential_derivative(spec, g))
        assert not report.repulsive
        # the violation is on the right half where V keeps growing
        assert report.worst_violation[1] > 0

    def test_flat_zero_against_unit_plateau(self, grid_small):
        v = np.zeros(grid_small.n_points)
        report = check_hypotheses(v, grid_small, dV=v, a_minus=0.0, a_plus=1.0)
        assert report.repulsive
        assert report.nonnegative
        assert report.left_limit_ok
        assert not report.right_limit_ok

    def test_epsilon_validation(self, grid_small):
        zeros = np.zeros(grid_small.n_points)
        with pytest.raises(ParameterError):
            check_hypotheses(zeros, grid_small, dV=zeros, epsilon=0.0)

    def test_shape_validation(self, grid_small):
        zeros = np.zeros(grid_small.n_points)
        with pytest.raises(ParameterError):
            check_hypotheses(np.zeros(7), grid_small, dV=np.zeros(7))
        with pytest.raises(ParameterError):
            check_hypotheses(zeros, grid_small, dV=zeros[:-1])
        with pytest.raises(TypeError):  # dV/dx is formed where V is, never here
            check_hypotheses(zeros, grid_small)

    def test_gradient_vanishes_flag(self):
        g = snls.Grid(1024, 60.0)
        spec = PotentialSpec(height=2.0, width=1.0)
        v, dv = build_potential(spec, g), build_potential_derivative(spec, g)
        assert check_hypotheses(v, g, dV=dv).gradient_vanishes
        ramp = 0.05 * g.x  # gradient never vanishes
        assert not check_hypotheses(ramp, g, dV=np.full(g.n_points, 0.05)).gradient_vanishes


class TestCustomSamples:
    def test_csv_round_trip(self, tmp_path):
        g = snls.Grid(256, 20.0)
        xs = np.linspace(-15, 15, 301)
        vs = 1.0 / (1.0 + np.exp(-xs))
        path = tmp_path / "pot.csv"
        with open(path, "w") as fh:
            fh.write("# x, V\n")
            for x, v in zip(xs, vs):
                fh.write(f"{float(x)!r},{float(v)!r}\n")
        spec = load_samples_csv(path)
        built = build_potential(spec, g)
        expected = np.interp(g.x, xs, vs)
        assert np.allclose(built, expected, atol=1e-12)

    def test_csv_trailing_comma_accepted(self, tmp_path):
        path = tmp_path / "pot.csv"
        path.write_text("-10.0,0.0,\n0.0,0.5\n10.0,1.0,\n")
        spec = load_samples_csv(path)
        assert list(spec.custom_x) == [-10.0, 0.0, 10.0]
        assert list(spec.custom_v) == [0.0, 0.5, 1.0]

    @pytest.mark.parametrize("bad_row", ["0.0,0.5,7.0", "0.0,0.5,,", "0.0,0.5,x"])
    def test_csv_extra_cells_rejected(self, tmp_path, bad_row):
        path = tmp_path / "pot.csv"
        path.write_text(f"-10.0,0.0\n{bad_row}\n10.0,1.0\n")
        with pytest.raises(ParameterError, match=r"pot\.csv line 2"):
            load_samples_csv(path)

    def test_custom_validation(self):
        with pytest.raises(ParameterError):
            PotentialSpec(family=PotentialFamily.CUSTOM_SAMPLES)
        with pytest.raises(ParameterError):
            PotentialSpec(
                family=PotentialFamily.CUSTOM_SAMPLES,
                custom_x=np.array([0.0, 0.0, 1.0]),
                custom_v=np.array([1.0, 2.0, 3.0]),
            )
