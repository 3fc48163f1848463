"""Contingency layer: CSV parsing, Pearson statistic, independence Bayes factor."""

import io
import math
import re
from pathlib import Path

import numpy as np
import pytest

from umpbt import (
    ChiSqTestSpec,
    ContingencyTable,
    DegenerateMarginError,
    ParseError,
    ValidationError,
    chisq_quantile,
    independence_bf,
    match_gamma_to_alpha,
    parse_table,
    pearson_statistic,
)

WHITE_CSV = Path(__file__).resolve().parent.parent / "data" / "white.csv"


def white_table() -> ContingencyTable:
    with open(WHITE_CSV, "rb") as handle:
        return parse_table(handle, has_header=True, has_row_labels=True)


class TestParseTable:
    def test_stomach_cancer_table(self):
        table = white_table()
        assert table.shape == (4, 3)
        assert table.grand_total == 707
        assert table.col_labels == ("O", "A", "B or AB")
        assert table.row_labels[0] == "Pylorus and antrum"
        np.testing.assert_array_equal(table.counts[3], [28, 12, 8])

    def test_minimal_table(self):
        table = parse_table(b"1,2\n3,4")
        np.testing.assert_array_equal(table.counts, [[1, 2], [3, 4]])
        assert table.row_labels is None and table.col_labels is None

    def test_non_numeric_cell_position(self):
        with pytest.raises(ParseError, match=r"row 1, column 2"):
            parse_table(b"1,x\n3,4")

    def test_ragged_rows(self):
        with pytest.raises(ValidationError, match=r"row 2"):
            parse_table(b"1,2\n3\n")

    def test_negative_and_fractional_counts(self):
        with pytest.raises(ValidationError, match="negative"):
            parse_table(b"1,2\n-3,4")
        with pytest.raises(ValidationError, match="not an integer"):
            parse_table(b"1,2\n3.5,4")

    def test_degenerate_margins(self):
        with pytest.raises(DegenerateMarginError):
            parse_table(b"0,0\n3,4")
        with pytest.raises(DegenerateMarginError):
            parse_table(b"0,2\n0,4")

    def test_too_small(self):
        with pytest.raises(ValidationError):
            parse_table(b"1,2\n")
        with pytest.raises(ValidationError):
            parse_table(b"1\n2\n")
        with pytest.raises(ValidationError):
            parse_table(b"")

    def test_invalid_utf8_names_byte_offset(self):
        with pytest.raises(ParseError, match=r"byte offset 6: 0xff is not valid UTF-8"):
            parse_table(b"a,b\n1,\xff\n3,4\n", has_header=True)

    def test_integer_counts_read_exactly(self):
        table = parse_table(b"1,9007199254740993\n1e3,4\n")
        np.testing.assert_array_equal(table.counts, [[1, 9007199254740993], [1000, 4]])
        assert table.grand_total == 9007199254741998

    def test_count_beyond_int64_names_its_cell(self):
        with pytest.raises(ValidationError,
                           match=r"row 2, column 1: count '9223372036854775808' "
                                 r"exceeds the int64 range"):
            parse_table(b"1,2\n9223372036854775808,4\n")

    @pytest.mark.parametrize("corner", [2**62, 5])
    def test_total_beyond_int64_is_rejected(self, corner):
        counts = np.full((2, 2), 2**62, dtype=np.int64)
        counts[1, 1] = corner
        with pytest.raises(ValidationError, match=r"grand total \d+ exceeds the int64 range"):
            ContingencyTable(counts)

    @pytest.mark.parametrize("count, message", [
        (math.inf, "row 2, column 3: count inf exceeds the int64 range"),
        (1e19, "row 2, column 3: count 1e+19 exceeds the int64 range"),
        (2.0**63, "row 2, column 3: count 9.223372036854776e+18 exceeds the int64 range"),
        (-1e19, "counts must be nonnegative"),
    ], ids=["inf", "1e19", "2**63", "-1e19"])
    def test_float_count_beyond_int64_is_rejected(self, count, message):
        # int64 holds none of these, and a cast would wrap them unchecked
        counts = np.ones((2, 3))
        counts[1, 2] = count
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            ContingencyTable(counts)

    def test_text_stream_accepted(self):
        table = parse_table(io.StringIO("5,6\n7,8\n"))
        assert table.grand_total == 26

    def test_text_stream_invalid_utf8_names_byte_offset(self):
        stream = io.TextIOWrapper(io.BytesIO(b"1,\xff\n3,4\n"), encoding="utf-8")
        with pytest.raises(ParseError, match=r"byte offset 2: 0xff is not valid UTF-8"):
            parse_table(stream)


class TestPearsonStatistic:
    def test_stomach_cancer_value(self):
        statistic, df = pearson_statistic(white_table())
        assert statistic == pytest.approx(12.65, abs=0.01)
        assert df == 6

    def test_rank_one_table_is_exactly_independent(self):
        table = ContingencyTable(counts=np.array([[1, 2], [2, 4]]))
        statistic, df = pearson_statistic(table)
        assert statistic == pytest.approx(0.0, abs=1e-12)
        assert df == 1

    def test_diagonal_table(self):
        table = ContingencyTable(counts=np.array([[10, 0], [0, 10]]))
        statistic, df = pearson_statistic(table)
        assert statistic == pytest.approx(20.0, rel=1e-12)
        assert df == 1

    def test_permutation_invariance(self):
        rng = np.random.default_rng(4)
        counts = white_table().counts
        statistic, _ = pearson_statistic(ContingencyTable(counts=counts))
        for _ in range(5):
            rows = rng.permutation(counts.shape[0])
            cols = rng.permutation(counts.shape[1])
            shuffled = ContingencyTable(counts=counts[np.ix_(rows, cols)])
            assert pearson_statistic(shuffled)[0] == pytest.approx(statistic,
                                                                   rel=1e-12)

    def test_count_scaling_scales_statistic(self):
        counts = np.array([[5, 9, 2], [7, 1, 6]])
        base, _ = pearson_statistic(ContingencyTable(counts=counts))
        for k in (2, 3, 10):
            scaled, _ = pearson_statistic(ContingencyTable(counts=k * counts))
            assert scaled == pytest.approx(k * base, rel=1e-12)


class TestIndependenceBf:
    def test_stomach_cancer_full_result(self):
        result = independence_bf(white_table(), alpha=0.05)
        assert result.statistic == pytest.approx(12.65, abs=0.01)
        assert result.df == 6
        assert result.gamma == pytest.approx(3.46, abs=0.01)
        assert result.theta_star == pytest.approx(7.31, abs=0.01)
        assert result.bf == pytest.approx(3.52, abs=0.01)
        assert result.min_expected == pytest.approx(48 * 123 / 707, rel=1e-12)
        assert result.grand_total == 707

    def test_rank_one_table_reports_small_statistic_limit(self):
        table = ContingencyTable(counts=np.array([[1, 2], [2, 4]]))
        result = independence_bf(table, alpha=0.05)
        assert result.statistic == 0.0
        # limit of the Bayes factor as the statistic vanishes: exp(-theta*/2)
        assert result.log_bf == pytest.approx(-result.theta_star / 2.0, abs=1e-9)
        assert result.bf < 1.0

    def test_stricter_alpha_needs_larger_threshold(self):
        table = white_table()
        loose = independence_bf(table, alpha=0.05)
        strict = independence_bf(table, alpha=0.01)
        assert strict.gamma > loose.gamma

    def test_region_equivalence_on_perturbed_tables(self):
        """Evidence exceeds the threshold exactly when the statistic exceeds
        the matched classical critical value."""
        rng = np.random.default_rng(12)
        base = white_table().counts.copy()
        critical = chisq_quantile(0.95, 6.0)
        matched = match_gamma_to_alpha(ChiSqTestSpec(df=6.0, alpha=0.05))
        for _ in range(12):
            noise = rng.integers(-6, 7, size=base.shape)
            counts = np.maximum(base + noise, 1)
            table = ContingencyTable(counts=counts)
            result = independence_bf(table, alpha=0.05)
            assert result.gamma == matched.gamma
            assert (result.bf > result.gamma) == (result.statistic > critical)
