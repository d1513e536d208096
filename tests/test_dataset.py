import numpy as np
import pytest

from mixtrees.dataset import (
    Dataset,
    TableFormatError,
    generate_observations,
    linspace_grid,
    read_csv,
    read_table,
    true_system_2d,
    true_system_phi4,
    write_csv,
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
    # The couplings the truth is taken at: a wide log range, and the
    # training and evaluation grids of the shipped configs and benchmark
    # workloads.
    COUPLINGS = np.concatenate(
        [[0.0], np.geomspace(1e-8, 1e3, 200)]
        + [linspace_grid(0.03, 0.50, n) for n in (20, 300, 2000)]
    )

    def test_at_zero_is_gaussian_integral(self):
        assert true_system_phi4(0.0) == pytest.approx(SQRT_2PI, abs=1e-10)

    def test_even_in_x(self):
        for x in self.COUPLINGS:
            assert true_system_phi4(-x) == true_system_phi4(x)

    @pytest.mark.parametrize("x,expected", sorted(PHI4_ORACLE.items()))
    def test_against_independent_quadrature(self, x, expected):
        assert true_system_phi4(x) == pytest.approx(expected, abs=1e-8)

    def test_strictly_decreasing_for_positive_x(self):
        xs = np.linspace(0.01, 2.0, 40)
        vals = [true_system_phi4(x) for x in xs]
        assert np.all(np.diff(vals) < 0)

    def test_tails_beyond_ten_are_below_half_an_ulp(self):
        # The rule's last node is t = 10, at u = 10 / max(1, sqrt|x|); the
        # tail it leaves out is too small to change the rounded integral.
        from scipy.integrate import quad

        for x in np.geomspace(1e-8, 1e3, 60):
            x2 = float(x) ** 2
            u_last = 10.0 / max(1.0, np.sqrt(x))
            tail, _ = quad(
                lambda u: np.exp(-0.5 * u * u - x2 * u ** 4), u_last, np.inf, epsabs=1e-30
            )
            core = true_system_phi4(x)
            assert 0.0 <= tail < np.spacing(core) / 2

    def test_within_four_ulp_of_adaptive_quadrature(self):
        # Reference: adaptive quadrature over [-10, 10].  It is itself up to
        # 4 ulp off the Bessel closed form, the trapezoid rule at most 1.
        from scipy.integrate import quad

        for x in self.COUPLINGS:
            x2 = float(x) ** 2
            ref = quad(
                lambda u: np.exp(-0.5 * u * u - x2 * u ** 4), -10.0, 10.0,
                epsabs=1e-11, epsrel=1e-12, limit=200,
            )[0]
            assert abs(true_system_phi4(x) - ref) <= 4 * np.spacing(ref), x


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

    def test_duplicate_column_names_header_line(self, tmp_path):
        path = tmp_path / "dup.csv"
        path.write_text("# seed = 1\nx1,x1,y\n0.1,0.2,1.0\n")
        with pytest.raises(TableFormatError, match="line 2: duplicate"):
            read_table(path)

    @pytest.mark.parametrize(
        "text, message", [("x1,x2\n0.1,1.0\n", "no column 'y'"), ("y\n1.0\n", "no input")]
    )
    def test_missing_column_named(self, tmp_path, text, message):
        path = tmp_path / "t.csv"
        path.write_text(text)
        with pytest.raises(TableFormatError, match=rf"t\.csv: {message}"):
            read_table(path)


class TestCsv:
    def test_round_trip_keeps_meta_header_and_values(self, tmp_path):
        path = tmp_path / "t.csv"
        values = np.array([0.1, -2.5e-300, 1.0 / 3.0])
        write_csv(path, ["i", "flag", "v"], [np.arange(3), values > 0, values], {"seed": 4})
        lines = path.read_text().splitlines()
        assert lines[:3] == ["# seed = 4", "i,flag,v", "0,1,0.10000000000000001"]
        meta, header, cols = read_csv(path, need=("v",))
        assert meta == {"seed": "4"}
        assert header == ["i", "flag", "v"]
        np.testing.assert_array_equal(cols["v"], values)
        np.testing.assert_array_equal(cols["flag"], [1.0, 0.0, 1.0])

    @pytest.mark.parametrize(
        "header, columns",
        [
            (["a", "b"], [[1.0, 2.0]]),
            (["a"], [[1.0, 2.0], [3.0, 4.0]]),
            (["a", "b"], [[1.0, 2.0], [3.0]]),
            (["a", "b"], [[1.0], [3.0, 4.0]]),
        ],
        ids=["header-longer", "header-shorter", "short-last", "short-first"],
    )
    def test_ragged_input_rejected(self, tmp_path, header, columns):
        # zip would cut every column to the shortest and drop the rest.
        path = tmp_path / "t.csv"
        with pytest.raises(ValueError):
            write_csv(path, header, [np.array(c) for c in columns], {})
        assert not path.exists()

    def test_non_finite_cell_names_line_and_column(self, tmp_path):
        path = tmp_path / "t.csv"
        path.write_text("# k = v\na,b\n1,2\n3,-inf\n")
        with pytest.raises(TableFormatError, match=r"t\.csv, line 4: .* column 'b'"):
            read_csv(path)


class TestDatasetInvariants:
    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[1.0, 2.0], outputs=[1.0])

    def test_negative_noise_rejected(self):
        # NaN passes a `noise_sd < 0` test and then fails `noise_sd > 0`,
        # which would give noiseless data recorded with noise level nan.
        for bad in (-0.1, np.nan, np.inf):
            with pytest.raises(ValueError, match="noise_sd"):
                Dataset(inputs=[1.0], outputs=[1.0], noise_sd=bad)
            with pytest.raises(ValueError, match="noise_sd"):
                generate_observations(true_system_phi4, [0.1], bad, seed=0)

    def test_nonfinite_input_rejected(self):
        with pytest.raises(ValueError):
            Dataset(inputs=[np.nan], outputs=[1.0])

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_nonfinite_output_rejected(self, bad):
        with pytest.raises(ValueError, match="non-finite output"):
            Dataset(inputs=[0.1, 0.2], outputs=[1.0, bad])
