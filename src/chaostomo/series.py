"""Shared container for time-indexed metric series, and ensemble averaging."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

METRIC_NAMES = ("fidelity", "loschmidt", "rel_entropy", "otoc")


@dataclass
class MetricSeries:
    """A scalar metric sampled on integer time steps, plus run metadata.

    ``stderr`` is populated for ensemble-averaged metrics and left ``None``
    for deterministic ones. ``params`` carries the configuration needed to
    reproduce the series (seed, spin, kick strengths, ...).
    """

    metric_name: str
    times: np.ndarray
    values: np.ndarray
    stderr: np.ndarray | None = None
    params: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.metric_name not in METRIC_NAMES:
            raise ValueError(f"unknown metric name {self.metric_name!r}")
        self.times = np.asarray(self.times, dtype=int)
        self.values = np.asarray(self.values, dtype=float)
        if self.times.shape != self.values.shape:
            raise ValueError("times and values must have equal length")
        if self.stderr is not None:
            self.stderr = np.asarray(self.stderr, dtype=float)
            if self.stderr.shape != self.values.shape:
                raise ValueError("stderr must match values in length")

    def __len__(self) -> int:
        return self.values.size


def mean_and_stderr(matrix: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Column means of a (samples, times) matrix, with standard errors (0 for one sample)."""
    mean = matrix.mean(axis=0)
    if matrix.shape[0] > 1:
        stderr = matrix.std(axis=0, ddof=1) / np.sqrt(matrix.shape[0])
    else:
        stderr = np.zeros_like(mean)
    return mean, stderr
