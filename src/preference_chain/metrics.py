"""Joint group-by-choice distributions and the KLD / MAE metrics.

Both metrics compare a true joint distribution P(group, choice) against a
predicted one Q. KLD uses the natural logarithm and epsilon-smooths both
matrices (add epsilon to every cell, renormalize) so zero predicted cells
stay finite; MAE is the mean absolute cell difference.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from .errors import AxisMismatch, EmptySamples, UnknownKey
from .schema import SUM_TOLERANCE, ChoiceCategorySet


@dataclass
class JointDistribution:
    """Dense joint probability matrix, groups on rows, choices on columns."""

    groups: tuple[str, ...]
    choices: ChoiceCategorySet
    cells: np.ndarray

    def __post_init__(self):
        self.cells = np.asarray(self.cells, dtype=float)
        expected = (len(self.groups), len(self.choices))
        if self.cells.shape != expected:
            raise ValueError(f"cell matrix shape {self.cells.shape}, expected {expected}")
        if (self.cells < 0).any():
            raise ValueError("negative cell")
        total = float(self.cells.sum())
        if abs(total - 1.0) > SUM_TOLERANCE:
            raise ValueError(f"joint cells sum to {total}, not 1")

    def same_axes(self, other: "JointDistribution") -> bool:
        return self.groups == other.groups and self.choices.options == other.choices.options


def joint_from_samples(
    samples: Sequence[tuple[str, str]],
    groups: Sequence[str],
    choices: ChoiceCategorySet,
) -> JointDistribution:
    """Counting estimator: cell(i, j) = count(i, j) / total.

    Pairs are counted in a dict, which keeps them in order of first
    occurrence, so an unknown group or choice is reported for the first
    sample that has one.
    """
    if not samples:
        raise EmptySamples("cannot estimate a joint from zero samples")
    group_index = {g: i for i, g in enumerate(groups)}
    choice_index = {c: j for j, c in enumerate(choices.options)}
    pair_counts = Counter(samples)
    rows, cols = [], []
    for group, choice in pair_counts:
        if group not in group_index:
            raise UnknownKey(f"group {group!r} not on the declared axis")
        if choice not in choice_index:
            raise UnknownKey(f"choice {choice!r} not in choice set {choices.name!r}")
        rows.append(group_index[group])
        cols.append(choice_index[choice])
    counts = np.zeros((len(groups), len(choices)), dtype=float)
    counts[rows, cols] = list(pair_counts.values())
    return JointDistribution(tuple(groups), choices, counts / counts.sum())


def _smooth(cells: np.ndarray, epsilon: float) -> np.ndarray:
    smoothed = cells + epsilon
    return smoothed / smoothed.sum()


def kld(p: JointDistribution, q: JointDistribution, epsilon: float = 1e-9) -> float:
    """Kullback-Leibler divergence sum_ij P(i,j) ln(P(i,j)/Q(i,j)).

    Both joints are epsilon-smoothed first; cells where the smoothed P is
    zero contribute nothing (only possible with epsilon = 0).
    """
    if not p.same_axes(q):
        raise AxisMismatch("joint distributions have different axes")
    ps = _smooth(p.cells, epsilon)
    qs = _smooth(q.cells, epsilon)
    mask = ps > 0
    with np.errstate(divide="ignore"):
        terms = ps[mask] * np.log(ps[mask] / qs[mask])
    return float(terms.sum())


def mae(p: JointDistribution, q: JointDistribution) -> float:
    """Mean absolute cell difference (1/N) sum_ij |P(i,j) - Q(i,j)|."""
    if not p.same_axes(q):
        raise AxisMismatch("joint distributions have different axes")
    return float(np.abs(p.cells - q.cells).mean())


@dataclass
class EvaluationReport:
    """Per-dimension KLD/MAE rows plus their means across dimensions."""

    entries: list[tuple[str, float, float]] = field(default_factory=list)

    def add(self, dimension: str, kld_value: float, mae_value: float) -> None:
        self.entries.append((dimension, kld_value, mae_value))

    @property
    def mean_kld(self) -> float:
        return float(np.mean([e[1] for e in self.entries])) if self.entries else float("nan")

    @property
    def mean_mae(self) -> float:
        return float(np.mean([e[2] for e in self.entries])) if self.entries else float("nan")

    def summary(self) -> dict:
        return {
            "dimensions": {
                dimension: {"kld": kld_value, "mae": mae_value}
                for dimension, kld_value, mae_value in self.entries
            },
            "mean": {"kld": self.mean_kld, "mae": self.mean_mae},
        }
