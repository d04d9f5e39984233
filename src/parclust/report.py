"""Run reports shared by the algorithm drivers and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .core import Partition


@dataclass
class ClusterReport:
    """Everything one clustering run produced, ready for JSON emission."""

    algo: str
    p: int
    params: dict
    n: int
    d: int
    labels: np.ndarray
    centroids: np.ndarray | None = None
    j: float | None = None
    iterations: int | None = None
    seed_j: float | None = None
    timings_ms: dict = field(default_factory=lambda: {"split": 0.0,
                                                      "compute": 0.0,
                                                      "comm": 0.0})
    model: dict | None = None
    converged: bool | None = None  # whether the tolerance test ended the loop

    @property
    def partition(self) -> Partition:
        return Partition(self.labels)

    def to_json_dict(self) -> dict:
        out = {
            "algo": self.algo,
            "p": int(self.p),
            "params": self.params,
            "n": int(self.n),
            "d": int(self.d),
            "labels": self.labels.tolist(),
        }
        if self.centroids is not None:
            out["centroids"] = self.centroids.tolist()
        if self.j is not None:
            out["j"] = float(self.j)
        if self.iterations is not None:
            out["iterations"] = int(self.iterations)
        if self.converged is not None:
            out["converged"] = bool(self.converged)
        if self.seed_j is not None:
            out["seed_j"] = float(self.seed_j)
        out["timings_ms"] = {k: float(v) for k, v in self.timings_ms.items()}
        if self.model is not None:
            out["model"] = self.model
        return out


#: JSON schema for ClusterReport.to_json_dict(), kept stable across releases.
REPORT_SCHEMA = {
    "type": "object",
    "required": ["algo", "p", "params", "n", "d", "labels", "timings_ms"],
    "additionalProperties": False,
    "properties": {
        "algo": {"type": "string"},
        "p": {"type": "integer", "minimum": 1},
        "params": {"type": "object"},
        "n": {"type": "integer", "minimum": 0},
        "d": {"type": "integer", "minimum": 1},
        "labels": {"type": "array", "items": {"type": "integer", "minimum": -1}},
        "centroids": {
            "type": "array",
            "items": {"type": "array", "items": {"type": "number"}},
        },
        "j": {"type": "number", "minimum": 0},
        "iterations": {"type": "integer", "minimum": 1},
        "converged": {"type": "boolean"},
        "seed_j": {"type": "number", "minimum": 0},
        "timings_ms": {
            "type": "object",
            "required": ["split", "compute", "comm"],
            "additionalProperties": False,
            "properties": {
                "split": {"type": "number", "minimum": 0},
                "compute": {"type": "number"},
                "comm": {"type": "number", "minimum": 0},
            },
        },
        "model": {"type": "object"},
    },
}
