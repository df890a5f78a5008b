"""Synthetic data generation with oracle effects, plus CSV ingestion.

Observations are generated from a frozen latent-variable process: a latent
Gaussian U feeds a deep ReLU network g to produce covariate means, the two
potential-outcome surfaces are one-layer nets with exponential outputs, and
treatment assignment is a one-layer net with a sigmoid output. The true
effect surface mu1 - mu0 is stored per row so downstream evaluation can
score against it.
"""

from __future__ import annotations

import csv
import math
from dataclasses import dataclass

import numpy as np

from .errors import CsvFormatError, DimensionError, TooFewSamplesError
from .numerics import Mlp, make_rng

_FLOAT_FMT = "%.17g"
_ORACLE = ("tau", "mu0", "mu1", "pi")


@dataclass
class DgpSpec:
    latent_dim: int
    d: int
    seed: int
    g: Mlp
    mu0_w: np.ndarray
    mu0_b: float
    mu1_w: np.ndarray
    mu1_b: float
    pi_w: np.ndarray
    pi_b: float

    def mu0(self, u):
        return np.exp(u @ self.mu0_w + self.mu0_b)

    def mu1(self, u):
        return np.exp(u @ self.mu1_w + self.mu1_b)

    def pi(self, u):
        z = u @ self.pi_w + self.pi_b
        return 1.0 / (1.0 + np.exp(-z))


@dataclass
class Dataset:
    x: np.ndarray
    a: np.ndarray
    y: np.ndarray
    tau: np.ndarray | None = None
    mu0: np.ndarray | None = None
    mu1: np.ndarray | None = None
    pi: np.ndarray | None = None
    u: np.ndarray | None = None

    def __post_init__(self):
        self.x = np.asarray(self.x, dtype=float)
        self.a = np.asarray(self.a, dtype=int)
        self.y = np.asarray(self.y, dtype=float)
        n = self.x.shape[0]
        if self.a.shape[0] != n or self.y.shape[0] != n:
            raise DimensionError("x, a and y must have the same number of rows")
        if not np.all((self.a == 0) | (self.a == 1)):
            raise ValueError("treatment vector must be binary")

    @property
    def n(self) -> int:
        return self.x.shape[0]

    @property
    def d(self) -> int:
        return self.x.shape[1]


def gen_dgp(seed: int, d: int) -> DgpSpec:
    """Frozen generating process with an empirical overlap check.

    Candidate seeds are tried in order until the mean treated probability
    over 10^4 latent draws is strictly inside (margin, 1 - margin).
    """
    if d < 1:
        raise DimensionError("observed dimension must be >= 1")
    latent_dim, overlap_margin, max_tries = 5, 0.05, 50
    for attempt in range(max_tries):
        s = seed + attempt * 1_000_003
        rng = make_rng(s)
        g = Mlp([latent_dim, 16, 16, 16, d], rng=rng)
        scale = 1.0 / np.sqrt(latent_dim)
        spec = DgpSpec(
            latent_dim=latent_dim, d=d, seed=s, g=g,
            mu0_w=rng.standard_normal(latent_dim) * scale,
            mu0_b=float(rng.standard_normal()),
            mu1_w=rng.standard_normal(latent_dim) * scale,
            mu1_b=float(rng.standard_normal()),
            pi_w=rng.standard_normal(latent_dim) * scale,
            pi_b=float(rng.standard_normal()),
        )
        check_u = make_rng(s + 1).standard_normal((10_000, latent_dim))
        mean_pi = float(spec.pi(check_u).mean())
        if overlap_margin < mean_pi < 1.0 - overlap_margin:
            return spec
    raise RuntimeError(f"no seed with acceptable overlap after {max_tries} tries")


def sample(dgp: DgpSpec, n: int, seed: int) -> Dataset:
    """Draw n rows; oracle columns (tau, mu0, mu1, pi, u) ride along.

    Retries up to 5 derived seeds if a draw comes out all-treated or
    all-control, then raises TooFewSamplesError.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    for attempt in range(5):
        rng = make_rng(seed + attempt * 7_919)
        u = rng.standard_normal((n, dgp.latent_dim))
        x = dgp.g.forward(u) + rng.standard_normal((n, dgp.d))
        pi = dgp.pi(u)
        a = (rng.random(n) < pi).astype(int)
        if a.min() == a.max():
            continue
        mu0 = dgp.mu0(u)
        mu1 = dgp.mu1(u)
        y = a * mu1 + (1 - a) * mu0 + rng.standard_normal(n)
        return Dataset(x=x, a=a, y=y, tau=mu1 - mu0, mu0=mu0, mu1=mu1, pi=pi, u=u)
    raise TooFewSamplesError("degenerate draw: one treatment arm empty after 5 attempts")


def write_csv(path, header, columns) -> None:
    """A header line, then one LF-ended line per row of the columns (1-D arrays or
    2-D blocks side by side), every cell %.17g: it round-trips each double
    exactly and prints an integer as str(int) does."""
    row_fmt = ",".join([_FLOAT_FMT] * len(header)) + "\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header) + "\n")
        fh.writelines(row_fmt % tuple(row) for row in np.column_stack(columns).tolist())


def parse_cell(path, cell: str, row: int, column: str) -> float:
    """A finite float from one CSV cell; row is the line number in the file.

    Raises CsvFormatError naming the row and column for a non-numeric cell
    and for nan or inf, which no fit downstream can use.
    """
    try:
        value = float(cell)
    except ValueError:
        raise CsvFormatError(
            f"{path}: non-numeric cell {cell!r} at row {row}, column {column!r}"
        ) from None
    if not math.isfinite(value):
        raise CsvFormatError(f"{path}: non-finite cell {cell!r} at row {row}, column {column!r}")
    return value


def read_csv(path, names):
    """(header, cells, block) of a UTF-8 CSV file with LF or CRLF line ends.

    names(header) lists the columns to parse into block, or raises
    CsvFormatError; cells holds every data cell as text. An empty file, a
    header that repeats a column, a ragged row and the first named cell
    (row-major) that parse_cell rejects raise CsvFormatError."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:  # skips a leading BOM
            rows = list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    repeated = [name for i, name in enumerate(header) if name in header[:i]]
    if repeated:
        raise CsvFormatError(f"{path}: column {repeated[0]!r} appears more than once")
    wanted = names(header)
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
    cells = np.array(rows, dtype=object).reshape(len(rows), len(header))
    col = {name: i for i, name in enumerate(header)}
    named = cells[:, [col[name] for name in wanted]]
    try:
        block = named.astype(float, order="C")  # float() on each cell, as parse_cell
    except ValueError:
        block = None
    if block is None or not np.isfinite(block).all():
        block = np.array([[parse_cell(path, cell, r + 2, name) for name, cell in zip(wanted, row)]
                          for r, row in enumerate(named)])
    return header, cells, block


def _indexed(header, prefix: str) -> int:
    return sum(1 for name in header if name.startswith(prefix) and name[1:].isdigit())


def save_csv(ds: Dataset, path) -> None:
    """Columns x0.., a, y, then tau, mu0, mu1, pi and u0.. if the oracle is known."""
    header = [f"x{i}" for i in range(ds.d)] + ["a", "y"]
    columns = [ds.x, ds.a, ds.y]
    if ds.tau is not None:
        header += _ORACLE
        columns += [ds.tau, ds.mu0, ds.mu1, ds.pi]
        if ds.u is not None:
            header += [f"u{i}" for i in range(ds.u.shape[1])]
            columns.append(ds.u)
    write_csv(path, header, columns)


def load_csv(path) -> Dataset:
    """Strictly typed read of the package CSV schema.

    Covariates are columns x0..x{d-1}; 'a' must be 0/1; every other schema
    cell must be a finite number; oracle columns are optional but
    tau/mu0/mu1/pi must appear together. Other columns are ignored.
    """
    def schema(header):
        col = set(header)
        d = _indexed(header, "x")
        for i in range(d):
            if f"x{i}" not in col:
                raise CsvFormatError(f"{path}: missing covariate column x{i}")
        for name in ("a", "y"):
            if name not in col:
                raise CsvFormatError(f"{path}: missing column '{name}'")
        if d == 0:
            raise CsvFormatError(f"{path}: no covariate columns x0..")
        has_oracle = col.issuperset(_ORACLE)
        if not has_oracle and col.intersection(_ORACLE):
            raise CsvFormatError(f"{path}: partial oracle block (need all of {_ORACLE})")
        names = [f"x{i}" for i in range(d)] + ["y"]
        if has_oracle:
            latent = [f"u{i}" for i in range(_indexed(header, "u"))]
            missing = [name for name in latent if name not in col]
            if missing:
                raise CsvFormatError(f"{path}: missing latent column {missing[0]}")
            names += [*_ORACLE, *latent]
        return names

    header, cells, block = read_csv(path, schema)
    if not len(cells):
        raise CsvFormatError(f"{path}: no data rows")
    col = {name: i for i, name in enumerate(header)}
    a = np.array([cell.strip() for cell in cells[:, col["a"]]], dtype=object)
    bad = np.flatnonzero((a != "0") & (a != "1"))
    if bad.size:
        raise CsvFormatError(f"{path}: non-binary treatment {a[bad[0]]!r} at row {bad[0] + 2}")
    d = _indexed(header, "x")
    x = block[:, :d].copy()
    y, *oracle = block[:, d:d + 5].T.copy()
    tau, mu0, mu1, pi = oracle or (None,) * 4
    u = block[:, d + 5:].copy() if block.shape[1] > d + 5 else None
    return Dataset(x=x, a=a == "1", y=y, tau=tau, mu0=mu0, mu1=mu1, pi=pi, u=u)
