"""Independence testing for contingency tables.

The test statistic is the ordinary Pearson chi-squared statistic; under the
null of independence it is approximately chi-squared with (r-1)(c-1)
degrees of freedom, so the noncentral machinery applies with the statistic
playing the role of the observation.  The reference distribution is an
asymptotic approximation: the result carries the smallest expected count so
users can judge its adequacy, and no exact multinomial computation is
attempted.
"""

from __future__ import annotations

import io
from csv import reader as _csv_reader
from dataclasses import dataclass

import numpy as np

from .bayes import ChiSqTestSpec, log_bf_ncchisq
from .errors import DegenerateMarginError, DomainError, ParseError, ValidationError
from .solver import match_gamma_to_alpha
from .special import LogValue

__all__ = [
    "ContingencyTable",
    "IndependenceResult",
    "parse_table",
    "pearson_statistic",
    "independence_bf",
]

# log_bf_ncchisq needs a positive statistic; a zero statistic is evaluated
# at the y giving sqrt(theta* y) = 1e-12, i.e. on the small-argument Bessel
# branch, which reproduces the analytic y -> 0 limit of the Bayes factor.
_BESSEL_ARG_FLOOR = 1e-12

_INT64_MAX = int(np.iinfo(np.int64).max)


@dataclass(frozen=True)
class ContingencyTable:
    """Validated matrix of cross-classification counts."""

    counts: np.ndarray
    row_labels: tuple[str, ...] | None = None
    col_labels: tuple[str, ...] | None = None

    def __post_init__(self) -> None:
        counts = np.asarray(self.counts)
        if counts.ndim != 2:
            raise ValidationError(f"counts must be a matrix, got shape {counts.shape}")
        if np.any(counts < 0):
            raise ValidationError("counts must be nonnegative")
        if not np.issubdtype(counts.dtype, np.integer):
            if not np.all(counts == np.floor(counts)):
                raise ValidationError("counts must be integers")
            # inf passes the integer test, and the cast would wrap it
            big = np.argwhere(counts >= 2.0**63)
            if big.size:
                i, j = big[0]
                raise ValidationError(f"row {i + 1}, column {j + 1}: count "
                                      f"{float(counts[i, j])!r} exceeds the int64 range")
            counts = counts.astype(np.int64)
        r, c = counts.shape
        if r < 2 or c < 2:
            raise ValidationError(f"need at least a 2x2 table, got {r}x{c}")
        # an exact total; once it fits int64, so does every margin
        total = int(counts.sum(dtype=object))
        if total > _INT64_MAX:
            raise ValidationError(f"grand total {total} exceeds the int64 range")
        if total == 0:
            raise DegenerateMarginError("table has no observations")
        if np.any(counts.sum(axis=1) == 0):
            raise DegenerateMarginError("every row total must be positive")
        if np.any(counts.sum(axis=0) == 0):
            raise DegenerateMarginError("every column total must be positive")
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        if self.row_labels is not None:
            object.__setattr__(self, "row_labels", tuple(self.row_labels))
        if self.col_labels is not None:
            object.__setattr__(self, "col_labels", tuple(self.col_labels))

    @property
    def shape(self) -> tuple[int, int]:
        return self.counts.shape

    @property
    def grand_total(self) -> int:
        return int(self.counts.sum())


@dataclass(frozen=True)
class IndependenceResult:
    """Pearson statistic plus the matched-test Bayes factor against independence."""

    statistic: float
    df: int
    alpha: float
    gamma: float
    theta_star: float
    log_bf: float
    min_expected: float
    grand_total: int

    @property
    def bf(self) -> float:
        """Linear-scale Bayes factor; raises OverflowError beyond double range."""
        return LogValue(self.log_bf).exp()


def parse_table(source, has_header: bool = False,
                has_row_labels: bool = False) -> ContingencyTable:
    """Parse UTF-8 comma-separated counts into a validated table.

    ``source`` may be bytes or a binary/text file object.  Row and column
    positions in error messages are 1-based and count raw file rows and
    columns, header and label cells included.
    """
    if not isinstance(source, bytes) and not hasattr(source, "read"):
        raise ParseError(f"unsupported source type {type(source).__name__}")
    try:
        # a text stream decodes as it reads, so its errors surface here too
        text = source if isinstance(source, bytes) else source.read()
        if isinstance(text, bytes):
            text = text.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ParseError(f"byte offset {exc.start}: 0x{exc.object[exc.start]:02x} "
                         f"is not valid {exc.encoding.upper()}") from None

    rows = [row for row in _csv_reader(io.StringIO(text))]
    # drop trailing blank lines
    while rows and all(cell.strip() == "" for cell in rows[-1]):
        rows.pop()
    if not rows:
        raise ValidationError("empty input")

    col_labels = None
    body_start = 0
    if has_header:
        header = rows[0]
        col_labels = tuple(c.strip() for c in header[1 if has_row_labels else 0:])
        body_start = 1

    row_labels: list[str] = []
    data: list[list[int]] = []
    width = None
    for file_row, row in enumerate(rows[body_start:], start=body_start + 1):
        cells = row
        if has_row_labels:
            if not cells:
                raise ParseError(f"row {file_row}: missing row label")
            row_labels.append(cells[0].strip())
            cells = cells[1:]
        if width is None:
            width = len(cells)
        elif len(cells) != width:
            raise ValidationError(
                f"row {file_row}: expected {width} count cells, found {len(cells)}"
            )
        offset = 2 if has_row_labels else 1
        data.append([_parse_count(cell.strip(), f"row {file_row}, column {j + offset}")
                     for j, cell in enumerate(cells)])

    if not data:
        raise ValidationError("no data rows")
    return ContingencyTable(
        counts=np.array(data, dtype=np.int64),
        row_labels=tuple(row_labels) if has_row_labels else None,
        col_labels=col_labels,
    )


def _parse_count(token: str, where: str) -> int:
    """One count cell: an integer literal read exactly, or a float form
    such as ``1e3`` that holds an integer; it must fit int64."""
    try:
        value = int(token)
    except ValueError:
        try:
            number = float(token)
        except ValueError:
            raise ParseError(f"{where}: {token!r} is not a number") from None
        if not number.is_integer():
            raise ValidationError(f"{where}: count {token!r} is not an integer")
        value = int(number)
    if value < 0:
        raise ValidationError(f"{where}: count {token!r} is negative")
    if value > _INT64_MAX:
        raise ValidationError(f"{where}: count {token!r} exceeds the int64 range")
    return value


def _expected_counts(table: ContingencyTable) -> np.ndarray:
    counts = table.counts.astype(float)
    total = counts.sum()
    if total <= 0:
        raise DegenerateMarginError("table has no observations")
    return np.outer(counts.sum(axis=1), counts.sum(axis=0)) / total


def pearson_statistic(table: ContingencyTable) -> tuple[float, int]:
    """Pearson chi-squared statistic and its degrees of freedom.

    Sum of (observed - expected)^2 / expected with expected counts from the
    product of the margins; no continuity correction.
    """
    expected = _expected_counts(table)
    if np.any(expected == 0):
        raise DegenerateMarginError("expected counts contain zeros")
    observed = table.counts.astype(float)
    statistic = float(((observed - expected) ** 2 / expected).sum())
    r, c = table.shape
    return statistic, (r - 1) * (c - 1)


def independence_bf(table: ContingencyTable, alpha: float = 0.05) -> IndependenceResult:
    """Bayes factor against independence, matched to a size-alpha test.

    Computes the Pearson statistic, derives the matched evidence threshold
    and alternative noncentrality for its degrees of freedom, and evaluates
    the Bayes factor at the observed statistic.  Tables with the same
    degrees of freedom at the same alpha share one matched solve per
    process (see :func:`match_gamma_to_alpha`, keyed on (y_alpha, df) and
    the Bayes-factor evaluator, and bounded at 128 keys).
    """
    statistic, df = pearson_statistic(table)
    solution = match_gamma_to_alpha(ChiSqTestSpec(df=float(df), alpha=alpha))
    y_eval = statistic
    if y_eval <= 0.0:
        y_eval = _BESSEL_ARG_FLOOR**2 / solution.theta_star
    log_bf = log_bf_ncchisq(y_eval, solution.theta_star, float(df))
    expected = _expected_counts(table)
    return IndependenceResult(
        statistic=statistic,
        df=df,
        alpha=float(alpha),
        gamma=solution.gamma,
        theta_star=solution.theta_star,
        log_bf=log_bf,
        min_expected=float(expected.min()),
        grand_total=table.grand_total,
    )
