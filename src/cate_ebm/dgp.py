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

from .errors import CsvFormatError, DimensionError
from .numerics import Mlp, make_rng

_FLOAT_FMT = "%.17g"


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
    literal_outcome: bool = False  # attach mu0 to the treated arm (fidelity mode)

    def mu0(self, u):
        return np.exp(u @ self.mu0_w + self.mu0_b)

    def mu1(self, u):
        return np.exp(u @ self.mu1_w + self.mu1_b)

    def pi(self, u):
        z = u @ self.pi_w + self.pi_b
        return 1.0 / (1.0 + np.exp(-z))

    def tau(self, u):
        return self.mu1(u) - self.mu0(u)


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

    @property
    def has_oracle(self) -> bool:
        return self.tau is not None


def gen_dgp(seed: int, d: int, latent_dim: int = 5,
            overlap_margin: float = 0.05, max_tries: int = 50) -> DgpSpec:
    """Frozen generating process with an empirical overlap check.

    Candidate seeds are tried in order until the mean treated probability
    over 10^4 latent draws is strictly inside (margin, 1 - margin).
    """
    if d < 1:
        raise DimensionError("observed dimension must be >= 1")
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


def sample(dgp: DgpSpec, n: int, seed: int, return_noise: bool = False):
    """Draw n rows; oracle columns (tau, mu0, mu1, pi, u) ride along.

    Retries up to 5 derived seeds if a draw comes out all-treated or
    all-control, then raises.
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
        eps = rng.standard_normal(n)
        if dgp.literal_outcome:
            mean = a * mu0 + (1 - a) * mu1
        else:
            mean = a * mu1 + (1 - a) * mu0
        y = mean + eps
        ds = Dataset(x=x, a=a, y=y, tau=mu1 - mu0, mu0=mu0, mu1=mu1, pi=pi, u=u)
        return (ds, eps) if return_noise else ds
    raise RuntimeError("degenerate draw: one treatment arm empty after 5 attempts")


def _header(ds: Dataset) -> list:
    cols = [f"x{i}" for i in range(ds.d)] + ["a", "y"]
    if ds.tau is not None:
        cols += ["tau", "mu0", "mu1", "pi"]
        if ds.u is not None:
            cols += [f"u{i}" for i in range(ds.u.shape[1])]
    return cols


def save_csv(ds: Dataset, path) -> None:
    cols = _header(ds)
    with open(path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(cols)
        for i in range(ds.n):
            row = [(_FLOAT_FMT % v) for v in ds.x[i]]
            row += [str(int(ds.a[i])), _FLOAT_FMT % ds.y[i]]
            if ds.tau is not None:
                row += [_FLOAT_FMT % ds.tau[i], _FLOAT_FMT % ds.mu0[i],
                        _FLOAT_FMT % ds.mu1[i], _FLOAT_FMT % ds.pi[i]]
                if ds.u is not None:
                    row += [(_FLOAT_FMT % v) for v in ds.u[i]]
            w.writerow(row)


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


def read_csv_rows(path) -> list:
    """Every row of a UTF-8 CSV file, header included, as lists of cells."""
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            return list(csv.reader(fh))
    except UnicodeDecodeError as exc:
        raise CsvFormatError(f"{path}: not UTF-8 text ({exc.reason})") from None


def load_csv(path) -> Dataset:
    """Strictly typed read of the package CSV schema.

    Covariates are columns x0..x{d-1}; 'a' must be 0/1; every other cell
    must be a finite number; oracle columns are optional but tau/mu0/mu1/pi
    must appear together.
    """
    rows = read_csv_rows(path)
    if not rows:
        raise CsvFormatError(f"{path}: empty file")
    header, rows = rows[0], rows[1:]
    if not rows:
        raise CsvFormatError(f"{path}: no data rows")

    col = {name: i for i, name in enumerate(header)}
    d = sum(1 for name in header if name.startswith("x") and name[1:].isdigit())
    for i in range(d):
        if f"x{i}" not in col:
            raise CsvFormatError(f"{path}: missing covariate column x{i}")
    for name in ("a", "y"):
        if name not in col:
            raise CsvFormatError(f"{path}: missing column '{name}'")
    if d == 0:
        raise CsvFormatError(f"{path}: no covariate columns x0..")

    oracle_names = ("tau", "mu0", "mu1", "pi")
    has_oracle = all(name in col for name in oracle_names)
    if any(name in col for name in oracle_names) and not has_oracle:
        raise CsvFormatError(f"{path}: partial oracle block (need all of {oracle_names})")
    n_latent = sum(1 for name in header if name.startswith("u") and name[1:].isdigit())

    def parse(row_idx, row, name):
        return parse_cell(path, row[col[name]], row_idx + 2, name)

    n = len(rows)
    x = np.empty((n, d))
    a = np.empty(n, dtype=int)
    y = np.empty(n)
    tau = mu0 = mu1 = pi = u = None
    if has_oracle:
        tau, mu0, mu1, pi = (np.empty(n) for _ in range(4))
        if n_latent:
            u = np.empty((n, n_latent))
    for r, row in enumerate(rows):
        if len(row) != len(header):
            raise CsvFormatError(f"{path}: row {r + 2} has {len(row)} cells, expected {len(header)}")
        for i in range(d):
            x[r, i] = parse(r, row, f"x{i}")
        aval = row[col["a"]].strip()
        if aval not in ("0", "1"):
            raise CsvFormatError(f"{path}: non-binary treatment {aval!r} at row {r + 2}")
        a[r] = int(aval)
        y[r] = parse(r, row, "y")
        if has_oracle:
            tau[r] = parse(r, row, "tau")
            mu0[r] = parse(r, row, "mu0")
            mu1[r] = parse(r, row, "mu1")
            pi[r] = parse(r, row, "pi")
            if u is not None:
                for i in range(n_latent):
                    u[r, i] = parse(r, row, f"u{i}")
    return Dataset(x=x, a=a, y=y, tau=tau, mu0=mu0, mu1=mu1, pi=pi, u=u)
