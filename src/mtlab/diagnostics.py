"""Gradient-conflict diagnostics over the encoder gradients.

Cosine similarity is the base quantity; cosine distance is reported as
1 - similarity, and both are emitted so either plotting convention works.
Gradients are captured pre-update (raw backward output for the encoder
group), flattened in sorted parameter-id order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class ConsecutivePair:
    t: int          # the later iteration of the pair
    task_prev: int
    task_curr: int
    similarity: float
    distance: float


@dataclass
class PairwiseCosMatrix:
    """Rolling-mean cosine distance for consecutive task pairs (i then j).

    Cells with no samples hold NaN and a zero count: absent, not zero.
    """

    values: np.ndarray
    counts: np.ndarray


@dataclass
class GradTrace:
    """Per-iteration encoder gradient vectors (or their sketches).

    In sketch mode vectors longer than `sketch_dim` pass through a seeded
    count-sketch (each coordinate hashed to one bucket with a random sign):
    inner products are preserved unbiasedly, so cosine similarities on
    sketches deviate from the exact ones by O(1/sqrt(sketch_dim)), about
    0.016 for the default 4096. Exact mode keeps the full vectors and is
    the reference for tests.
    """

    num_tasks: int
    dim: int
    mode: str = "exact"
    sketch_dim: int = 4096
    sketch_seed: int = 0
    entries: list[tuple[int, int, np.ndarray]] = field(default_factory=list)
    _hash: np.ndarray | None = field(default=None, repr=False)
    _sign: np.ndarray | None = field(default=None, repr=False)

    def __post_init__(self):
        if self.mode not in ("exact", "sketch"):
            raise ValueError(f"trace mode must be exact or sketch, got {self.mode!r}")

    @property
    def stored_dim(self) -> int:
        if self.mode == "sketch" and self.dim > self.sketch_dim:
            return self.sketch_dim
        return self.dim

    def _project(self, vec: np.ndarray) -> np.ndarray:
        if self.mode != "sketch" or self.dim <= self.sketch_dim:
            return vec
        if self._hash is None:
            rng = np.random.Generator(np.random.SFC64(self.sketch_seed))
            self._hash = rng.integers(0, self.sketch_dim, size=self.dim)
            self._sign = rng.integers(0, 2, size=self.dim) * 2.0 - 1.0
        return np.bincount(self._hash, weights=self._sign * vec,
                           minlength=self.sketch_dim)

    def append(self, t: int, task: int, vec: np.ndarray) -> None:
        if self.entries and t <= self.entries[-1][0]:
            raise ValueError(f"iterations must be strictly increasing, got {t} "
                             f"after {self.entries[-1][0]}")
        if vec.shape != (self.dim,):
            raise ValueError(f"gradient vector has dim {vec.shape}, expected ({self.dim},)")
        if not 0 <= task < self.num_tasks:
            raise ValueError(f"task index {task} out of range for {self.num_tasks} tasks")
        self.entries.append((int(t), int(task), self._project(vec)))


def consecutive_trace(trace: GradTrace):
    """Cosine series between each iteration's gradient and its predecessor.

    Pairs touching a zero gradient are skipped; returns (pairs, skipped
    iteration indices). Each pair is aligned to the later iteration. Each
    vector's norm is taken once; a pair's similarity is
    `np.dot(u, v) / (|u| |v|)`.
    """
    entries = trace.entries
    if len(entries) < 2:
        raise ValueError("trace must contain at least two entries")
    norms = [np.linalg.norm(v) for _, _, v in entries]
    pairs: list[ConsecutivePair] = []
    skipped: list[int] = []
    for (_, task0, v0), (t1, task1, v1), n0, n1 in zip(entries, entries[1:],
                                                      norms, norms[1:]):
        if n0 == 0.0 or n1 == 0.0:
            skipped.append(t1)
            continue
        sim = float(np.dot(v0, v1) / (n0 * n1))
        pairs.append(ConsecutivePair(t1, task0, task1, sim, 1.0 - sim))
    return pairs, skipped


def pairwise_matrix(pairs: list[ConsecutivePair], num_tasks: int,
                    window: float) -> PairwiseCosMatrix:
    """Final rolling-mean cosine distance per (previous task, current task) cell.

    `pairs` is a `consecutive_trace` series. Cell (i, j) aggregates the
    pairs where task i was sampled right before task j; the reported value
    is the rolling mean (over `window` samples, math.inf for a plain mean)
    evaluated at the last sample.
    """
    if window < 1:
        raise ValueError(f"window must be >= 1, got {window}")
    cells: dict[tuple[int, int], list[float]] = {}
    for p in pairs:
        cells.setdefault((p.task_prev, p.task_curr), []).append(p.distance)
    values = np.full((num_tasks, num_tasks), np.nan)
    counts = np.zeros((num_tasks, num_tasks), dtype=np.int64)
    for (i, j), dists in cells.items():
        w = len(dists) if math.isinf(window) else min(int(window), len(dists))
        values[i, j] = float(np.mean(dists[-w:]))
        counts[i, j] = len(dists)
    return PairwiseCosMatrix(values, counts)


@dataclass(frozen=True)
class ConcentrationStat:
    dim: int
    mean: float
    std: float
    p05: float
    p95: float


def concentration_sample(d: int, n_pairs: int, rng) -> np.ndarray:
    """Cosine similarities of `n_pairs` independent standard-normal pairs in R^d.

    The standard normal is rotation invariant, so cos(u, v) of an independent
    pair has the law of v[0] / |v| for one normal vector v, and |v|^2 is
    v[0]^2 plus a chi-square with d - 1 degrees of freedom independent of
    v[0]. Each pair therefore draws one normal v0 and one chi-square S and
    records v0 / sqrt(v0^2 + S): the exact law, at a cost independent of d.
    """
    v0 = rng.standard_normal(n_pairs)
    return v0 / np.sqrt(v0 * v0 + rng.chisquare(d - 1, n_pairs))


def _percentile(ordered: np.ndarray, q: float) -> float:
    """np.percentile(x, q) of x sorted into `ordered`, by np.percentile's
    arithmetic (its default "linear" method). np.percentile imports numpy.ma on
    first use, through np.unique: about 13 ms on a 2-vCPU Xeon VM, a third of
    `diagnose` plus `concentration` on the two-conv encoder's run."""
    at = (len(ordered) - 1) * (q / 100)
    below = math.floor(at)
    gamma = at - below
    a, b = ordered[below], ordered[min(below + 1, len(ordered) - 1)]
    step = b - a
    return float(b - step * (1 - gamma) if gamma >= 0.5 else a + step * gamma)


MIN_DIM, MIN_PAIRS = 2, 1000  # the least dim and pairs per dim concentration_experiment takes


def concentration_experiment(dims, n_pairs: int, rng) -> list[ConcentrationStat]:
    """Cosine similarity of independent standard-normal vector pairs per dim.

    The similarity concentrates around 0 with std 1/sqrt(d), so the
    distribution narrows as dimensionality grows. Each dim's pairs come from
    `concentration_sample`, in the order of `dims`.
    """
    dims = [int(d) for d in dims]
    if any(d < MIN_DIM for d in dims):
        raise ValueError(f"dimensions must be >= {MIN_DIM}")
    if n_pairs < MIN_PAIRS:
        raise ValueError(f"need at least {MIN_PAIRS} pairs per dimension")
    out = []
    for d in dims:
        sims = concentration_sample(d, n_pairs, rng)
        ordered = np.sort(sims)
        out.append(ConcentrationStat(
            dim=d, mean=float(sims.mean()), std=float(sims.std()),
            p05=_percentile(ordered, 5), p95=_percentile(ordered, 95)))
    return out
