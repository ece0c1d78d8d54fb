"""Run metrics, the grid KL divergence, and the on-disk record formats.

Three file formats live here, plus ``write_atomic``, which every whole-file
write goes through.  The metrics CSV has the fixed header
``round,phase,forgotten_acc,retained_acc,kl,forgot_loss,wall_ms`` with empty
cells for fields a phase does not produce.  Snapshots are plain text: a
``N d round seed`` header line followed by one whitespace-separated particle
per line at full double precision.  Transcripts are JSON lines, one object
per round.
"""

from __future__ import annotations

import contextlib
import csv
import json
import os
from dataclasses import dataclass, fields
from typing import Callable

import numpy as np

from .kernels import _as_particle_matrix, _softmax
from .rules import at_least

METRIC_FIELDS = ("forgotten_acc", "retained_acc", "kl", "forgot_loss")
METRICS_COLUMNS = ("round", "phase", *METRIC_FIELDS, "wall_ms")

DENSITY_FLOOR = 1e-300
EDGE_MASS_LIMIT = 1e-3


class GridError(ValueError):
    """The evaluation grid cannot support the requested densities."""


class SnapshotFormatError(ValueError):
    """A particle snapshot file failed validation."""


# --- kl on a grid ---------------------------------------------------------------


@dataclass(frozen=True)
class GridConfig:
    """Uniform one-dimensional evaluation grid."""

    lo: float = -10.0
    hi: float = 10.0
    points: int = 2001

    def __post_init__(self) -> None:
        if not self.lo < self.hi:
            raise ValueError(f"grid range [{self.lo}, {self.hi}] is empty")
        if not np.isfinite(self.hi - self.lo):
            raise ValueError(f"grid range [{self.lo}, {self.hi}] is too wide: hi - lo overflows")
        at_least(2, self, "points")

    def linspace(self) -> np.ndarray:
        return np.linspace(self.lo, self.hi, self.points)


def _normalized_density(log_values: np.ndarray, x: np.ndarray, name: str) -> np.ndarray:
    if log_values.shape != x.shape:
        raise GridError(f"{name} evaluator returned shape {log_values.shape}, expected {x.shape}")
    if np.any(np.isnan(log_values)) or np.any(log_values == np.inf):
        raise GridError(f"{name} evaluator produced invalid log values")
    density = _softmax(log_values.copy(), axis=0)
    mass = np.trapezoid(density, x)
    if not mass > 0:
        raise GridError(f"{name} has zero mass on the grid")
    density /= mass
    dx = x[1] - x[0]
    edge_mass = 0.5 * (density[0] + density[-1]) * dx
    if edge_mass > EDGE_MASS_LIMIT:
        raise GridError(
            f"grid too narrow for {name}: edge mass {edge_mass:.3e} exceeds {EDGE_MASS_LIMIT:.0e}"
        )
    return density


@dataclass(frozen=True)
class GridReference:
    """The p side of ``grid_kl``, normalized once for many comparisons against it.

    ``log_density`` is the read-only log of the trapezoid-normalized density
    at ``grid.linspace()``, floored at ``DENSITY_FLOOR`` before the log.
    """

    grid: GridConfig
    log_density: np.ndarray

    @classmethod
    def of(cls, log_p: Callable[[np.ndarray], np.ndarray], grid: GridConfig) -> GridReference:
        x = grid.linspace()
        p = _normalized_density(np.asarray(log_p(x), dtype=float), x, "p")
        log_density = np.log(np.maximum(p, DENSITY_FLOOR, out=p), out=p)
        log_density.setflags(write=False)
        return cls(grid, log_density)


def grid_kl(
    log_q: Callable[[np.ndarray], np.ndarray],
    log_p: Callable[[np.ndarray], np.ndarray] | GridReference,
    grid: GridConfig,
) -> float:
    """KL(q || p) between two unnormalized log densities on a uniform grid.

    Both densities are trapezoid-normalized on the grid first, so the value
    is the KL divergence between the grid-restricted distributions.  It is
    nonnegative and zero only for pointwise-equal normalized densities.
    ``log_p`` may be a ``GridReference`` built on the same grid, which
    skips evaluating and normalizing p again.
    """
    x = grid.linspace()
    q = _normalized_density(np.asarray(log_q(x), dtype=float), x, "q")
    if not isinstance(log_p, GridReference):
        log_p = GridReference.of(log_p, grid)
    elif log_p.grid != grid:
        raise GridError(f"reference was normalized on {log_p.grid}, not on {grid}")
    integrand = np.where(q > 0, q * (np.log(np.maximum(q, DENSITY_FLOOR)) - log_p.log_density), 0.0)
    value = float(np.trapezoid(integrand, x))
    return value if value > 0.0 else 0.0


# --- metric records -------------------------------------------------------------


@dataclass(frozen=True)
class MetricRecord:
    """One metrics CSV row; None marks a field the phase does not produce."""

    round: int
    phase: str
    forgotten_acc: float | None = None
    retained_acc: float | None = None
    kl: float | None = None
    forgot_loss: float | None = None
    wall_ms: float = 0.0

    def row(self) -> list[str]:
        out: list[str] = []
        for f in fields(self):
            value = getattr(self, f.name)
            if value is None:
                out.append("")
            elif isinstance(value, float):
                out.append(repr(float(value)))
            else:
                out.append(str(value))
        return out

    def metrics(self) -> dict[str, float | None]:
        """The measured fields, in ``METRIC_FIELDS`` order."""
        return {name: getattr(self, name) for name in METRIC_FIELDS}


class _LineWriter(contextlib.AbstractContextManager):
    """Append-only text file, truncated on open.

    The file is line-buffered, so each line reaches the operating system as
    soon as it is written and a run that dies keeps every line it wrote.
    """

    def __init__(self, path):
        self.path = str(path)
        self._fh = open(self.path, "w", encoding="utf-8", newline="", buffering=1)

    def close(self) -> None:
        self._fh.close()

    def __exit__(self, *exc) -> None:
        self.close()


class MetricsWriter(_LineWriter):
    """Append-only CSV writer that emits the fixed metrics header."""

    def __init__(self, path):
        super().__init__(path)
        self._writer = csv.writer(self._fh, lineterminator="\n")
        self._writer.writerow(METRICS_COLUMNS)

    def append(self, record: MetricRecord) -> None:
        self._writer.writerow(record.row())


def read_metrics_csv(path) -> list[MetricRecord]:
    with open(str(path), encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != METRICS_COLUMNS:
            raise ValueError(f"{path}: unexpected metrics header {header}")
        records = []
        for row in reader:
            if len(row) != len(METRICS_COLUMNS):
                raise ValueError(f"{path}: row has {len(row)} cells, expected {len(METRICS_COLUMNS)}")
            rnd, phase, *values, wall = row
            records.append(MetricRecord(
                round=int(rnd), phase=phase, wall_ms=float(wall) if wall else 0.0,
                **{name: float(cell) if cell else None for name, cell in zip(METRIC_FIELDS, values)},
            ))
    return records


# --- whole files ----------------------------------------------------------------


def write_atomic(path, text: str) -> None:
    """Replace the file at ``path`` with ``text`` in one step.

    The text goes to a temporary file beside the target, which ``os.replace``
    then moves over it, so a reader or a later run sees either the previous
    file or the complete new one.  A failed write removes the temporary file.
    """
    path = str(path)
    tmp = path + ".tmp"
    try:
        with open(tmp, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        with contextlib.suppress(OSError):
            os.remove(tmp)
        raise


# --- snapshots ------------------------------------------------------------------


def save_snapshot(path, particles: np.ndarray, round_index: int, seed: int) -> None:
    """Write particles as text: a ``N d round seed`` header, one row per line.

    Values use shortest round-trip formatting, so reloading reproduces the
    array bit for bit.
    """
    theta = _as_particle_matrix(particles)
    lines = [f"{theta.shape[0]} {theta.shape[1]} {round_index} {seed}"]
    lines.extend(" ".join(repr(float(v)) for v in row) for row in theta)
    write_atomic(path, "\n".join(lines) + "\n")


def load_snapshot(path) -> tuple[np.ndarray, int, int]:
    """Read a particle snapshot; returns (particles, round, seed)."""
    with open(str(path), encoding="utf-8") as fh:
        lines = [line for line in fh.read().splitlines() if line.strip()]
    if not lines:
        raise SnapshotFormatError(f"{path}: empty snapshot")
    head = lines[0].split()
    if len(head) != 4:
        raise SnapshotFormatError(f"{path}: header has {len(head)} fields, expected 4")
    try:
        n, d, round_index, seed = (int(v) for v in head)
    except ValueError as err:
        raise SnapshotFormatError(f"{path}: non-integer header field ({err})") from None
    if n < 1 or d < 1:
        raise SnapshotFormatError(f"{path}: invalid particle shape {n} x {d}")
    if len(lines) - 1 != n:
        raise SnapshotFormatError(f"{path}: expected {n} particle rows, found {len(lines) - 1}")
    particles = np.empty((n, d))
    for i, line in enumerate(lines[1:]):
        cells = line.split()
        if len(cells) != d:
            raise SnapshotFormatError(f"{path}: row {i} has {len(cells)} values, expected {d}")
        try:
            particles[i] = [float(c) for c in cells]
        except ValueError as err:
            raise SnapshotFormatError(f"{path}: non-numeric value in row {i} ({err})") from None
    return particles, round_index, seed


# --- transcripts ----------------------------------------------------------------


class TranscriptWriter(_LineWriter):
    """Append-only JSON-lines transcript of round events."""

    def append(self, event: dict) -> None:
        self._fh.write(json.dumps(event) + "\n")


def read_transcript(path) -> list[dict]:
    with open(str(path), encoding="utf-8") as fh:
        return [json.loads(line) for line in fh if line.strip()]
