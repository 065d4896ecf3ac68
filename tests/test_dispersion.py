import math
import os

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from casdisp.dispersion import (
    Cauchy,
    Constant,
    Tabulated,
    UnsupportedModelError,
    kappa_lower,
    load_index_table,
    min_separation,
)

finite_xi = st.floats(min_value=0.0, max_value=1e3)


class TestConstruction:
    def test_invalid_parameters(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            Cauchy(-1.0, 0.0)
        with pytest.raises(ValueError):
            Cauchy(1.0, -1e-6)

    def test_tabulated_validation(self):
        with pytest.raises(ValueError):
            Tabulated((0.0, 0.0), (1.0, 1.0))  # not strictly increasing
        with pytest.raises(ValueError):
            Tabulated((0.0, 1.0), (1.0, -0.5))  # non-positive index
        with pytest.raises(ValueError):
            Tabulated((-1.0, 1.0), (1.0, 1.0))  # negative frequency
        with pytest.raises(ValueError):
            Tabulated((1.0,), (1.0,))  # single sample
        with pytest.raises(ValueError, match="xi and n columns differ in length"):
            Tabulated((0.0, 1.0, 2.0), (1.0, 1.0))


class TestIndexOfRealFrequency:
    def test_tabulated_interpolation_hits_samples(self):
        table = Tabulated((0.0, 1.0, 2.0, 5.0), (1.5, 1.4, 1.3, 1.1))
        for x, n in zip(table.xi, table.n):
            assert table.index_at(x) == pytest.approx(n, abs=1e-14)

    def test_tabulated_flat_extrapolation(self):
        table = Tabulated((1.0, 2.0, 3.0), (1.5, 1.3, 1.2))
        assert table.index_at(0.0) == pytest.approx(1.5)
        assert table.index_at(50.0) == pytest.approx(1.2)

    def test_tabulated_no_overshoot(self):
        # shape-preserving interpolation stays inside the sample range
        table = Tabulated((0.0, 1.0, 1.5, 4.0), (2.0, 1.1, 1.05, 1.0))
        queries = [0.1 * k for k in range(41)]
        values = [table.index_at(q) for q in queries]
        assert min(values) >= 1.0 - 1e-12
        assert max(values) <= 2.0 + 1e-12


class TestKappaLower:
    def test_quadratic_model(self):
        assert kappa_lower(Cauchy(1.5, 0.01), 2.0) == pytest.approx(2.92)

    def test_zero_frequency(self):
        assert kappa_lower(Cauchy(1.3, 0.25), 0.0) == 0.0

    def test_clamp_beyond_turnover(self):
        # n0*xi - n1*xi^3 = -6 at xi = 2, past the turnover at xi = 1
        assert kappa_lower(Cauchy(1.0, 1.0), 2.0) == 0.0
        assert kappa_lower(Cauchy(1.0, 1.0), 0.5) == 0.375

    def test_negative_frequency_rejected(self):
        with pytest.raises(ValueError):
            kappa_lower(Constant(1.0), -0.5)

    def test_tabulated(self):
        table = Tabulated((0.0, 1.0, 2.0), (1.5, 1.4, 1.3))
        assert kappa_lower(table, 1.0) == pytest.approx(1.4)

    @given(n0=st.floats(min_value=0.5, max_value=4.0), xi=finite_xi)
    def test_constant_equals_dispersion_free_quadratic_bitwise(self, n0, xi):
        assert kappa_lower(Constant(n0), xi) == kappa_lower(Cauchy(n0, 0.0), xi)

    @given(n0=st.floats(min_value=0.5, max_value=4.0), xi=finite_xi)
    def test_dispersion_free_is_linear(self, n0, xi):
        assert kappa_lower(Cauchy(n0, 0.0), xi) == n0 * xi

    def test_continuity_bound(self):
        model = Cauchy(1.5, 1e-3)
        h = 1e-4
        for xi in (0.0, 0.5, 1.0, 5.0, 10.0):
            step = abs(kappa_lower(model, xi + h) - kappa_lower(model, xi))
            bound = (1.5 + 3e-3 * xi**2 + 3e-3 * xi * h + 1e-3 * h * h) * h
            assert step <= bound * (1.0 + 1e-12)


class TestArrayArguments:
    XI = np.array([0.0, 5e-324, 0.3, 1.0, 1.7, 2.5, 4.0, 10.0, 40.0])

    @pytest.mark.parametrize(
        "model",
        [Constant(1.3), Cauchy(1.5, 0.0), Cauchy(1.5, 0.1), Cauchy(1.0, 1.0),
         Tabulated((0.5, 1.0, 2.0, 3.0), (1.6, 1.5, 1.3, 1.25))],
    )
    def test_kappa_lower_array_matches_scalar_calls(self, model):
        low = kappa_lower(model, self.XI)
        assert low.shape == self.XI.shape
        scalars = [kappa_lower(model, float(x)) for x in self.XI]
        assert list(low) == scalars
        assert all(type(v) is float for v in scalars)

    @pytest.mark.parametrize("n0, n1", [(1.0, 1e-2), (1.5, 0.1), (2.0, 1e-4)])
    def test_clamped_iff_some_node_past_turnover(self, n0, n1):
        # kappa_1 = n0*xi - n1*xi^3 reaches zero at sqrt(n0/n1), and is
        # clamped at zero past it and nowhere before it
        turnover = math.sqrt(n0 / n1)
        model = Cauchy(n0, n1)
        below = np.linspace(0.0, 0.999 * turnover, 50)
        past = np.append(below, [1.001 * turnover, 3.0 * turnover])
        low = kappa_lower(model, past)
        assert np.all(low[:-2] == n0 * below - n1 * below * below * below)
        assert np.all(low[1:-2] > 0.0)
        assert list(low[-2:]) == [0.0, 0.0]

    def test_negative_element_rejected(self):
        with pytest.raises(ValueError):
            kappa_lower(Cauchy(1.0, 0.1), np.array([0.5, -1e-9]))

    def test_index_at_array_matches_scalar_calls(self):
        table = Tabulated((0.5, 1.0, 2.0, 3.0), (1.6, 1.5, 1.3, 1.25))
        values = table.index_at(self.XI)
        assert isinstance(values, np.ndarray) and values.shape == self.XI.shape
        assert list(values) == [table.index_at(float(x)) for x in self.XI]
        # flat past both ends
        assert values[0] == values[1] == 1.6 and values[-1] == 1.25
        assert type(table.index_at(1.5)) is float


def _pchip_table(shape: str, size: int, seed: int) -> tuple[np.ndarray, np.ndarray]:
    rng = np.random.default_rng(seed)
    xi = np.cumsum(rng.uniform(0.05, 2.0, size)) + rng.uniform(0.0, 1.0)
    steps = rng.uniform(0.0, 0.3, size)
    if shape == "increasing":
        n = 1.0 + np.cumsum(steps)
    elif shape == "decreasing":
        n = 1.0 + np.cumsum(steps)[::-1]
    elif shape == "non-monotone":
        n = rng.uniform(0.1, 3.0, size)
    else:  # flat segments: repeated levels, flat secants next to sign changes
        n = rng.integers(1, 4, size).astype(float)
    return xi, n


class TestPchipMatchesScipy:
    """The table interpolant is scipy's PchipInterpolator, clamped at the ends."""

    @staticmethod
    def _expected(xi, n, queries):
        interpolate = pytest.importorskip("scipy.interpolate")
        return interpolate.PchipInterpolator(xi, n)(np.clip(queries, xi[0], xi[-1]))

    @pytest.mark.parametrize("size", [2, 3, 5, 17, 60])
    @pytest.mark.parametrize(
        "shape", ["increasing", "decreasing", "non-monotone", "flat segments"]
    )
    def test_random_tables(self, shape, size):
        for seed in range(4):
            xi, n = _pchip_table(shape, size, seed + 100 * size)
            span = xi[-1] - xi[0]
            rng = np.random.default_rng(seed)
            # every knot, plus queries reaching a third of the span past each end
            queries = np.concatenate(
                (xi, rng.uniform(xi[0] - span / 3, xi[-1] + span / 3, 400))
            )
            values = Tabulated(tuple(xi), tuple(n)).index_at(queries)
            np.testing.assert_allclose(
                values, self._expected(xi, n, queries), rtol=1e-13, atol=0.0
            )

    @pytest.mark.parametrize(
        "xi, n",
        [
            # left three-point slope 6 is cut to 3*m0 (secants change sign)
            ((0.0, 1.0, 1.2), (1.0, 2.0, 1.0)),
            # left three-point slope points against m0 and is set to 0
            ((0.0, 1.0, 2.0), (1.0, 1.1, 3.0)),
            # the same two rules at the right end
            ((0.0, 0.2, 1.2), (1.0, 2.0, 1.0)),
            ((0.0, 1.0, 2.0), (3.0, 1.1, 1.0)),
        ],
    )
    def test_end_slope_rules(self, xi, n):
        queries = np.linspace(-0.5, 2.5, 301)
        values = Tabulated(xi, n).index_at(queries)
        np.testing.assert_allclose(
            values, self._expected(np.array(xi), np.array(n), queries), rtol=1e-13, atol=0.0
        )

    @pytest.mark.parametrize(
        "shape", ["increasing", "decreasing", "non-monotone", "flat segments"]
    )
    def test_slope_is_the_derivative_and_flat_past_the_ends(self, shape):
        interpolate = pytest.importorskip("scipy.interpolate")
        for size in (2, 5, 17):
            xi, n = _pchip_table(shape, size, size)
            table = Tabulated(tuple(xi), tuple(n))
            span = xi[-1] - xi[0]
            inside = np.random.default_rng(size).uniform(xi[0], xi[-1], 400)
            queries = np.concatenate((inside, [xi[0] - span / 3, xi[-1], xi[-1] + span]))
            index, slope = table._index_and_slope(queries)
            assert list(index) == list(table.index_at(queries))
            expected = interpolate.PchipInterpolator(xi, n).derivative()(inside)
            scale = np.abs(expected).max() + np.abs(np.diff(n) / np.diff(xi)).max()
            np.testing.assert_allclose(slope[:-3], expected, rtol=0.0, atol=1e-12 * scale)
            assert list(slope[-3:]) == [0.0, 0.0, 0.0]

    def test_scalar_queries_give_floats(self):
        xi, n = _pchip_table("non-monotone", 12, 7)
        table = Tabulated(tuple(xi), tuple(n))
        for x in (xi[0] - 5.0, xi[0], 0.5 * (xi[3] + xi[4]), xi[6], xi[-1], xi[-1] + 9.0):
            value = table.index_at(float(x))
            assert type(value) is float
            assert value == pytest.approx(float(self._expected(xi, n, x)), rel=1e-13, abs=0.0)


class TestValidity:
    def test_quadratic_model(self):
        model = Cauchy(1.0, 0.01)
        assert min_separation(model) == pytest.approx(2.0 * math.pi * 0.1)
        assert 1.0 > min_separation(model)
        assert not 0.5 > min_separation(model)

    def test_dispersion_free(self):
        assert min_separation(Cauchy(1.0, 0.0)) == 0.0
        assert min_separation(Constant(3.0)) == 0.0

    def test_column_of_media(self):
        n1 = np.array([0.0, 0.01, 0.25])
        expected = [2.0 * math.pi * math.sqrt(v) for v in n1.tolist()]
        assert min_separation(Cauchy(1.0, n1)).tolist() == expected

    def test_tabulated_unsupported(self):
        with pytest.raises(UnsupportedModelError):
            min_separation(Tabulated((0.0, 1.0), (1.5, 1.4)))


class TestLoadIndexTable:
    def test_with_header(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("xi,n\n0.0,1.5\n1.0,1.4\n2.5,1.2\n")
        table = load_index_table(path)
        assert table.xi == (0.0, 1.0, 2.5)
        assert table.n == (1.5, 1.4, 1.2)

    def test_without_header(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("0.0,1.5\n1.0,1.4\n")
        assert load_index_table(path).n == (1.5, 1.4)

    @pytest.mark.parametrize(
        "rows", ["0.0,1.8\n1.0,1.5\n2.0,1.2\n", "0.0,1.8\n40.0,1.1\n"], ids=["three", "two"]
    )
    def test_byte_order_mark_keeps_the_first_sample(self, tmp_path, rows):
        # a UTF-8 byte-order mark is not part of the first cell, so a
        # headerless table keeps its first sample
        plain, marked = tmp_path / "plain.csv", tmp_path / "marked.csv"
        plain.write_text(rows)
        marked.write_bytes(b"\xef\xbb\xbf" + rows.encode())
        table = load_index_table(marked)
        assert len(table.xi) == rows.count("\n")
        assert table == load_index_table(plain)

    def test_bad_row_reported_with_line_number(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("0.0,1.5\noops,1.4\n")
        with pytest.raises(ValueError, match="line 2"):
            load_index_table(path)

    @pytest.mark.parametrize(
        "first", ["0.0,1.8x", "0.0x,1.8", "xi,1.8"], ids=["bad-n", "bad-xi", "half-header"]
    )
    def test_first_row_with_a_number_is_no_header(self, tmp_path, first):
        # a typo in a headerless table's first sample is an error, not a lost sample
        path = tmp_path / "index.csv"
        path.write_text(first + "\n1.0,1.5\n2.0,1.2\n")
        with pytest.raises(ValueError) as caught:
            load_index_table(path)
        assert str(caught.value) == f"{path}: line 1: could not parse {first.split(',')!r}"

    def test_blank_lines_are_skipped(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("xi,n\n\n0.0,1.5\n , \n1.0,1.4\n\n")
        table = load_index_table(path)
        assert (table.xi, table.n) == ((0.0, 1.0), (1.5, 1.4))
        assert all(type(v) is float for v in table.xi + table.n)

    @pytest.mark.parametrize(
        "text, line", [("xi,n\n0,1.5\n1\n", 3), ("xi\n0,1.5\n1,1.4\n", 1)],
        ids=["short-row", "short-header"],
    )
    def test_short_row_reported_with_line_number(self, tmp_path, text, line):
        path = tmp_path / "index.csv"
        path.write_text(text)
        with pytest.raises(ValueError) as caught:
            load_index_table(path)
        assert str(caught.value) == f"{path}: line {line}: expected two columns"

    @pytest.mark.parametrize(
        "rows, rule",
        [
            ("0,1.5\n1,1.4\ninf,1.3\n", "frequency and index samples must be finite"),
            ("0,1.5\n2,1.4\n1,1.3\n", "frequency samples must be strictly increasing"),
        ],
        ids=["non-finite", "non-increasing"],
    )
    def test_rejected_samples_name_the_file(self, tmp_path, rows, rule):
        path = tmp_path / "index.csv"
        path.write_text("xi,n\n" + rows)
        with pytest.raises(ValueError) as caught:
            load_index_table(path)
        assert str(caught.value) == f"{path}: {rule}"

    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_index_table(tmp_path / "absent.csv")

    def test_same_bytes_at_two_paths_give_one_table(self, tmp_path):
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        for path in (first, second):
            path.write_text("xi,n\n0.0,1.5\n1.0,1.4\n2.5,1.2\n")
        table = load_index_table(first)
        assert load_index_table(second) is table
        assert table == Tabulated((0.0, 1.0, 2.5), (1.5, 1.4, 1.2))

    def test_table_rewritten_in_place_is_read_again(self, tmp_path):
        # same length and modification time: only the bytes differ
        path = tmp_path / "index.csv"
        path.write_text("xi,n\n0.0,1.5\n1.0,1.4\n")
        assert load_index_table(path).n == (1.5, 1.4)
        before = os.stat(path)
        path.write_text("xi,n\n0.0,1.7\n1.0,1.3\n")
        os.utime(path, ns=(before.st_atime_ns, before.st_mtime_ns))
        after = os.stat(path)
        assert (after.st_size, after.st_mtime_ns) == (before.st_size, before.st_mtime_ns)
        assert load_index_table(path).n == (1.7, 1.3)

    @pytest.mark.parametrize(
        "rows, message",
        [
            ("0.0,1.5\noops,1.4\n", "line 3: could not parse ['oops', '1.4']"),
            ("0,1.5\n2,1.4\n1,1.3\n", "frequency samples must be strictly increasing"),
        ],
        ids=["parse", "samples"],
    )
    def test_errors_name_the_path_of_every_load(self, tmp_path, rows, message):
        # errors are not kept: the same bad bytes fail again, under each path
        first, second = tmp_path / "first.csv", tmp_path / "second.csv"
        for path in (first, second):
            path.write_text("xi,n\n" + rows)
        for path in (first, first, second):
            with pytest.raises(ValueError) as caught:
                load_index_table(path)
            assert str(caught.value) == f"{path}: {message}"

    def test_shared_interpolator_is_read_only(self, tmp_path):
        path = tmp_path / "index.csv"
        path.write_text("xi,n\n0.0,1.5\n1.0,1.4\n2.5,1.2\n")
        knots, cubics = load_index_table(path)._interpolator
        with pytest.raises(ValueError, match="read-only"):
            knots[0] = 0.5
        with pytest.raises(ValueError, match="read-only"):
            cubics[3, 0] = 1.0
        assert load_index_table(path).index_at(0.0) == 1.5
