import numpy as np
import pytest

from mixtrees.dataset import (
    Dataset,
    TableFormatError,
    generate_observations,
    linspace_grid,
    read_table,
    true_system_2d,
    true_system_phi4,
    write_table,
)

SQRT_2PI = 2.5066282746310005

# Frozen from a 40-digit tanh-sinh quadrature oracle run separately.
PHI4_ORACLE = {
    0.05: 2.4885903469042684,
    0.1: 2.4415777793585947,
    0.25: 2.2391157794569004,
    0.5: 1.9352478184967273,
}


class TestTrueSystemPhi4:
    def test_at_zero_is_gaussian_integral(self):
        assert true_system_phi4(0.0) == pytest.approx(SQRT_2PI, abs=1e-10)

    def test_even_in_x(self):
        assert true_system_phi4(0.2) == pytest.approx(true_system_phi4(-0.2), abs=0)

    @pytest.mark.parametrize("x,expected", sorted(PHI4_ORACLE.items()))
    def test_against_independent_quadrature(self, x, expected):
        assert true_system_phi4(x) == pytest.approx(expected, abs=1e-8)

    def test_strictly_decreasing_for_positive_x(self):
        xs = np.linspace(0.01, 2.0, 40)
        vals = [true_system_phi4(x) for x in xs]
        assert np.all(np.diff(vals) < 0)


class TestTrueSystem2d:
    def test_known_points(self):
        assert true_system_2d(np.pi / 2, 0.0) == pytest.approx(2.0)
        assert true_system_2d(0.0, 0.0) == pytest.approx(1.0)
        assert true_system_2d(-np.pi / 2, np.pi) == pytest.approx(-2.0)


class TestLinspaceGrid:
    def test_two_points_are_endpoints(self):
        assert linspace_grid(0.0, 1.0, 2).tolist() == [0.0, 1.0]

    def test_three_points(self):
        assert linspace_grid(0.0, 1.0, 3).tolist() == [0.0, 0.5, 1.0]

    def test_spacing_of_example_grid(self):
        g = linspace_grid(0.03, 0.50, 20)
        assert np.allclose(np.diff(g), (0.50 - 0.03) / 19)
        assert g[0] == 0.03 and g[-1] == 0.50

    def test_rejects_degenerate(self):
        with pytest.raises(ValueError):
            linspace_grid(0.0, 1.0, 1)
        with pytest.raises(ValueError):
            linspace_grid(1.0, 0.0, 5)


class TestGenerateObservations:
    def test_noiseless_equals_system(self):
        grid = linspace_grid(0.0, 1.0, 5)
        ds = generate_observations(lambda x: x ** 2, grid, 0.0, 3)
        assert np.array_equal(ds.outputs, grid ** 2)

    def test_same_seed_bit_identical(self):
        grid = linspace_grid(0.03, 0.50, 20)
        a = generate_observations(true_system_phi4, grid, 0.005, 42)
        b = generate_observations(true_system_phi4, grid, 0.005, 42)
        assert np.array_equal(a.outputs, b.outputs)

    def test_different_seed_differs(self):
        grid = linspace_grid(0.0, 1.0, 5)
        a = generate_observations(lambda x: x, grid, 0.1, 1)
        b = generate_observations(lambda x: x, grid, 0.1, 2)
        assert not np.array_equal(a.outputs, b.outputs)

    def test_noise_scale_matches_requested_sd(self):
        # one point, many draws: empirical sd within 5% of requested
        draws = [
            generate_observations(lambda x: 0.0, [0.5], 0.3, seed).outputs[0]
            for seed in range(10_000)
        ]
        assert np.std(draws) == pytest.approx(0.3, rel=0.05)

    def test_two_dimensional_system(self):
        pts = np.array([[np.pi / 2, 0.0], [0.0, 0.0]])
        ds = generate_observations(true_system_2d, pts, 0.0, 0)
        assert ds.outputs == pytest.approx([2.0, 1.0])
        assert ds.dim == 2

    def test_nonfinite_system_rejected(self):
        with pytest.raises(ValueError, match="finite"):
            generate_observations(lambda x: np.inf, [0.0], 0.0, 0)


class TestTableRoundTrip:
    def test_round_trip_preserves_everything(self, tmp_path):
        grid = linspace_grid(0.03, 0.50, 20)
        ds = generate_observations(true_system_phi4, grid, 0.005, 42)
        path = tmp_path / "data.csv"
        write_table(ds, path)
        back = read_table(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.outputs, ds.outputs)
        assert back.noise_sd == ds.noise_sd
        assert back.seed == ds.seed

    def test_round_trip_2d(self, tmp_path):
        ds = Dataset(
            inputs=np.array([[1.0, 2.0], [3.0, 4.5]]),
            outputs=np.array([0.1, -0.2]),
            noise_sd=0.5,
            seed=9,
        )
        path = tmp_path / "data2.csv"
        write_table(ds, path)
        back = read_table(path)
        assert np.array_equal(back.inputs, ds.inputs)
        assert np.array_equal(back.outputs, ds.outputs)

    def test_wrong_column_count_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,2.0\n1.0,2.0,3.0\n")
        with pytest.raises(TableFormatError, match="line 3"):
            read_table(path)

    def test_non_numeric_cell_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n1.0,oops\n")
        with pytest.raises(TableFormatError, match="line 2"):
            read_table(path)

    def test_non_finite_output_names_line(self, tmp_path):
        path = tmp_path / "bad.csv"
        path.write_text("x1,y\n0.1,1.0\n0.2,nan\n")
        with pytest.raises(TableFormatError, match="line 3"):
            read_table(path)

    def test_empty_file_reports_no_observations(self, tmp_path):
        path = tmp_path / "empty.csv"
        path.write_text("")
        with pytest.raises(TableFormatError, match="no observations"):
            read_table(path)

    def test_header_only_reports_no_observations(self, tmp_path):
        path = tmp_path / "header.csv"
        path.write_text("x1,y\n")
        with pytest.raises(TableFormatError, match="no observations"):
            read_table(path)


class TestDatasetInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[1.0, 2.0], outputs=[1.0])

    def test_negative_noise_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[1.0], outputs=[1.0], noise_sd=-0.1)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[np.nan], outputs=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_output_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite output"):
            Dataset(inputs=[0.1, 0.2], outputs=[1.0, bad])
