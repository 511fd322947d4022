"""Decreasing rearrangements and the norms built on them.

A measurable function is represented by :class:`WeightedSamples`, a list of
(value, cell measure) pairs, optionally with planar cell positions.  All
rearrangement-based quantities (the Zygmund norm ``int f* ln(|X|/t) dt``, the
modular ``int |f| max(0, ln|f|)``, the Hardy-Littlewood pairing bound) are
evaluated exactly on the resulting step functions.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CHUNK = 2**16  # elements per temporary in the chunked reductions


@dataclass(frozen=True)
class WeightedSamples:
    """Cell values with positive cell measures; positions are planar chart
    coordinates (x, y) and are required only for support/ball queries."""

    values: np.ndarray
    measures: np.ndarray
    positions: np.ndarray | None = None

    def __post_init__(self):
        values = np.asarray(self.values, dtype=float).ravel()
        measures = np.asarray(self.measures, dtype=float).ravel()
        object.__setattr__(self, "values", values)
        object.__setattr__(self, "measures", measures)
        if values.size == 0:
            raise ValueError("empty domain")
        if values.shape != measures.shape:
            raise ValueError("values and measures must have the same length")
        if not np.all(np.isfinite(values)):
            raise ValueError("values must be finite")
        if not (np.all(np.isfinite(measures)) and np.all(measures > 0)):
            raise ValueError("measures must be positive and finite")
        if self.positions is not None:
            pos = np.asarray(self.positions, dtype=float)
            if pos.shape != (values.size, 2):
                raise ValueError("positions must have shape (n, 2)")
            object.__setattr__(self, "positions", pos)

    @property
    def total_measure(self) -> float:
        return float(self.measures.sum())

    def distances(self, center) -> np.ndarray:
        """Planar distance of each cell position from center (x, y)."""
        if self.positions is None:
            raise ValueError("samples carry no positions")
        cx, cy = center
        return np.hypot(self.positions[:, 0] - cx, self.positions[:, 1] - cy)


@dataclass(frozen=True)
class StepProfile:
    """Non-increasing rearrangement as a right-open step function: value
    ``values[i]`` on ``[breakpoints[i], breakpoints[i+1])``, zero beyond."""

    breakpoints: np.ndarray
    values: np.ndarray

    def __call__(self, t):
        t = np.asarray(t, dtype=float)
        if self.values.size == 0:
            return np.zeros_like(t)
        idx = np.searchsorted(self.breakpoints[1:], t, side="right")
        return np.where(idx < self.values.size, self.values[np.minimum(idx, self.values.size - 1)], 0.0)

    @property
    def support_measure(self) -> float:
        return float(self.breakpoints[-1])

    def zygmund_norm(self, domain_measure: float) -> float:
        """int_0^inf f*(t) ln(domain_measure / t) dt via the exact per-step
        antiderivative t ln(|X|/t) + t, which is 0 at t = 0 (the first
        breakpoint; the later ones are positive), summed in chunks of CHUNK steps."""
        if not (np.isfinite(domain_measure) and domain_measure > 0):
            raise ValueError(f"domain measure must be finite and positive, got {domain_measure}")
        if self.support_measure > domain_measure * (1 + 1e-12):
            raise ValueError("domain smaller than support")
        total, left = 0.0, 0.0
        for a in range(0, self.values.size, CHUNK):  # one chunk is one plain sum
            t = self.breakpoints[a + 1:a + 1 + CHUNK]
            ft = np.concatenate([[left], t * (np.log(domain_measure / t) + 1.0)])
            total += np.sum(self.values[a:a + CHUNK] * np.diff(ft))
            left = ft[-1]
        return float(total)

    def pairing(self, other: "StepProfile") -> float:
        """int_0^inf self(t) other(t) dt, exact on the merged breakpoint grid."""
        end = min(self.support_measure, other.support_measure)
        if end == 0.0:
            return 0.0
        knots = np.union1d(self.breakpoints, other.breakpoints)
        knots = knots[knots <= end]  # end is the last breakpoint of one of the two
        mids = 0.5 * (knots[:-1] + knots[1:])
        return float(np.sum(self(mids) * other(mids) * np.diff(knots)))


@dataclass(frozen=True)
class AtomVerdict:
    support_ok: bool
    mean: float
    size_bound: float
    ball: tuple
    min_radius: float


def rearrange(f: WeightedSamples) -> StepProfile:
    """Sort cells by |value| descending (ties by cell index) and accumulate
    measures.  Zero cells are dropped; the last breakpoint is the support
    measure of |f|."""
    absval = np.abs(f.values)
    keep = absval > 0.0
    absval = absval[keep]
    meas = f.measures[keep]
    order = np.argsort(-absval, kind="stable")
    vals = absval[order]
    cum = np.concatenate([[0.0], np.cumsum(meas[order])])
    return StepProfile(cum, vals)


def zygmund_norm(f: WeightedSamples, domain_measure: float) -> float:
    """int_0^inf f*(t) ln(domain_measure / t) dt (see StepProfile.zygmund_norm)."""
    return rearrange(f).zygmund_norm(domain_measure)


def zygmund_modular(f: WeightedSamples) -> float:
    """int |f| max(0, ln|f|)."""
    absval = np.abs(f.values)
    with np.errstate(divide="ignore"):
        lg = np.where(absval > 0, np.log(np.maximum(absval, 1e-300)), 0.0)
    return float(np.sum(absval * np.maximum(lg, 0.0) * f.measures))


def direct_pairing(f: WeightedSamples, h: WeightedSamples) -> float:
    """int |f h| for samples sharing the same cells."""
    if f.values.size != h.values.size or not np.allclose(f.measures, h.measures):
        raise ValueError("samples must share cells")
    return float(np.sum(np.abs(f.values * h.values) * f.measures))


def bmo_norm(f: WeightedSamples, ball_family) -> float:
    """Sup of mean oscillation over a finite ball family; a lower bound of the
    true BMO norm.  Needs cell positions."""
    balls = list(ball_family)
    if not balls:
        raise ValueError("empty ball family")
    best = 0.0
    for center, radius in balls:
        mask = f.distances(center) <= radius
        if not np.any(mask):
            continue
        w = f.measures[mask]
        v = f.values[mask]
        vol = w.sum()
        mean = np.sum(v * w) / vol
        osc = float(np.sum(np.abs(v - mean) * w) / vol)
        best = max(best, osc)
    return best


def atom_check(f: WeightedSamples, ball) -> AtomVerdict:
    """Check the three atom properties against a candidate ball: support
    containment, zero mean, and sup|f| * |B| <= 1."""
    center, radius = ball
    d = f.distances(center)
    supp = f.values != 0.0
    min_radius = float(d[supp].max()) if np.any(supp) else 0.0
    support_ok = bool(min_radius <= radius)
    mean = float(np.sum(f.values * f.measures))
    size_bound = float(np.max(np.abs(f.values)) * np.pi * radius**2)
    return AtomVerdict(support_ok, mean, size_bound, (tuple(center), radius), min_radius)
