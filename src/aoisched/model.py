"""Domain types, instance validation, and config ingestion.

A problem instance is n users split into classes, each class k with a
transmission success probability p_k and a population fraction gamma_k.
Each slot a fraction alpha of the users may be scheduled, and per-user
age is truncated at l.

Config files are JSON documents with keys ``n``, ``alpha``, ``l`` and
``classes: [{"p": ..., "gamma": ...}, ...]``. Unknown keys are rejected.
"""
from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .errors import (
    FractionError,
    IntegralityError,
    ParseError,
    RangeError,
)

GAMMA_SUM_TOL = 1e-12
INTEGRALITY_TOL = 1e-9


@dataclass(frozen=True)
class ClassSpec:
    """One channel class: success probability p and population fraction gamma."""

    p: float
    gamma: float


@dataclass(frozen=True)
class NetworkConfig:
    """Full problem instance.

    Fields
    ------
    n : total number of users.
    alpha : per-slot scheduling fraction; the slot budget is m = alpha*n.
    l : age truncation bound, an integer >= 2.
    classes : ordered tuple of ClassSpec; the order is the canonical
        tie-break order everywhere downstream.
    """

    n: int
    alpha: float
    l: int
    classes: tuple[ClassSpec, ...]

    @property
    def k(self) -> int:
        return len(self.classes)

    @property
    def m(self) -> int:
        return int(round(self.alpha * self.n))

    def class_sizes(self) -> tuple[int, ...]:
        return tuple(int(round(c.gamma * self.n)) for c in self.classes)

    def p_vector(self) -> np.ndarray:
        return np.array([c.p for c in self.classes], dtype=float)

    def gamma_vector(self) -> np.ndarray:
        return np.array([c.gamma for c in self.classes], dtype=float)


@dataclass(frozen=True, eq=False)
class OccupancyVector:
    """Per-class, per-age population fractions, shape (k, l), read-only.

    z[k][i-1] is the fraction of all n users that belong to class k and
    currently have age i.
    """

    z: np.ndarray

    def __post_init__(self) -> None:
        z = np.array(self.z, dtype=float)
        z.setflags(write=False)
        object.__setattr__(self, "z", z)


def validate_config(cfg: NetworkConfig) -> NetworkConfig:
    """Check all instance invariants and return the config unchanged.

    Raises RangeError for out-of-domain scalars, FractionError when the
    gamma_k do not sum to 1, IntegralityError when alpha*n or gamma_k*n
    is not an integer.
    """
    if not isinstance(cfg.n, int) or isinstance(cfg.n, bool) or cfg.n < 1:
        raise RangeError(f"n must be a positive integer, got {cfg.n!r}")
    if not isinstance(cfg.l, int) or isinstance(cfg.l, bool) or cfg.l < 2:
        raise RangeError(f"l must be an integer >= 2, got {cfg.l!r}")
    if not 0.0 < cfg.alpha < 1.0:
        raise RangeError(f"alpha must lie in (0, 1), got {cfg.alpha!r}")
    if len(cfg.classes) == 0:
        raise RangeError("at least one class is required")
    for idx, cls in enumerate(cfg.classes):
        if not 0.0 < cls.p <= 1.0:
            raise RangeError(f"class {idx}: p must lie in (0, 1], got {cls.p!r}")
        if not 0.0 < cls.gamma <= 1.0:
            raise RangeError(
                f"class {idx}: gamma must lie in (0, 1], got {cls.gamma!r}"
            )
    gamma_sum = sum(cls.gamma for cls in cfg.classes)
    if abs(gamma_sum - 1.0) > GAMMA_SUM_TOL:
        raise FractionError(f"class fractions sum to {gamma_sum!r}, expected 1")
    budget = cfg.alpha * cfg.n
    if abs(budget - round(budget)) > INTEGRALITY_TOL:
        raise IntegralityError(f"alpha*n = {budget!r} is not an integer")
    for idx, cls in enumerate(cfg.classes):
        size = cls.gamma * cfg.n
        if abs(size - round(size)) > INTEGRALITY_TOL:
            raise IntegralityError(
                f"class {idx}: gamma*n = {size!r} is not an integer"
            )
    m = int(round(budget))
    if not 0 < m < cfg.n:
        raise RangeError(f"slot budget m={m} must satisfy 0 < m < n={cfg.n}")
    return cfg


def config_from_dict(doc: dict) -> NetworkConfig:
    """Build and validate a NetworkConfig from a parsed JSON document."""
    if not isinstance(doc, dict):
        raise ParseError(f"config root must be an object, got {type(doc).__name__}")
    expected = {"n", "alpha", "l", "classes"}
    keys = set(doc)
    if keys != expected:
        unknown = sorted(keys - expected)
        missing = sorted(expected - keys)
        raise ParseError(f"config keys mismatch: unknown={unknown} missing={missing}")
    n, l = doc["n"], doc["l"]
    if isinstance(n, bool) or not isinstance(n, int):
        raise ParseError(f"n must be an integer, got {n!r}")
    if isinstance(l, bool) or not isinstance(l, int):
        raise ParseError(f"l must be an integer, got {l!r}")
    alpha = doc["alpha"]
    if isinstance(alpha, bool) or not isinstance(alpha, (int, float)):
        raise ParseError(f"alpha must be a number, got {alpha!r}")
    raw_classes = doc["classes"]
    if not isinstance(raw_classes, list) or not raw_classes:
        raise ParseError("classes must be a non-empty list")
    classes = []
    for idx, item in enumerate(raw_classes):
        if not isinstance(item, dict) or set(item) != {"p", "gamma"}:
            raise ParseError(f"class {idx}: expected exactly the keys p, gamma")
        p, gamma = item["p"], item["gamma"]
        for name, val in (("p", p), ("gamma", gamma)):
            if isinstance(val, bool) or not isinstance(val, (int, float)):
                raise ParseError(f"class {idx}: {name} must be a number, got {val!r}")
        classes.append(ClassSpec(p=float(p), gamma=float(gamma)))
    cfg = NetworkConfig(n=n, alpha=float(alpha), l=l, classes=tuple(classes))
    return validate_config(cfg)


def load_config(path) -> NetworkConfig:
    """Read and validate a JSON config file."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ParseError(f"cannot read config {path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"invalid JSON in {path}: {exc}") from exc
    return config_from_dict(doc)
