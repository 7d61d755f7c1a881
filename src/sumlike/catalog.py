"""Counterexample modulus builder and a catalog of named presets.

The builder assembles the steepening piecewise-linear modulus from a concave
gauge g (g(0) = 0, slope decreasing and diverging at 0) and a decreasing
anchor sequence a_n: slopes k_n = g(a_n)/a_n, joins where consecutive linear
pieces intersect.  Its tooth ratios f(a_{n+1})/f(b_n) = (1 + k_{n+1}/k_n)/2
grow without bound when k_{n+1}/k_n does, which is exactly what breaks the
domination condition for linearity of the summability class.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    FamilyDescription,
    IndicatorModulus,
    PiecewiseModulus,
    PowerModulus,
    ToleranceConfig,
)


def _resolve_gauge(name: str, alpha: float | None):
    if name == "sqrt":
        return math.sqrt
    if name == "power":
        if alpha is None or not (0.0 < alpha < 1.0):
            raise ValueError("power gauge needs an exponent alpha in (0, 1)")
        return lambda x: x ** alpha
    raise ValueError(f"unknown gauge {name!r} (catalog: 'sqrt', 'power')")


@dataclass(frozen=True)
class Example4Spec:
    """Gauge choice plus the decreasing anchor sequence a_0 > a_1 > ... > 0."""

    a: tuple[float, ...]
    g_name: str = "sqrt"
    alpha: float | None = None

    def __post_init__(self):
        a = tuple(float(v) for v in self.a)
        object.__setattr__(self, "a", a)
        if len(a) < 2:
            raise ValueError("need at least two anchors")
        if any(v <= 0.0 for v in a) or any(x >= y for x, y in zip(a[1:], a[:-1])):
            raise ValueError("anchors must be strictly decreasing and positive")
        _resolve_gauge(self.g_name, self.alpha)  # validates the gauge choice
        k = self.slopes
        if any(x >= y for x, y in zip(k[:-1], k[1:])):
            raise ValueError("gauge does not produce strictly increasing slopes")
        for n, b in enumerate(self.joins):
            if not (a[n + 1] < b < a[n]):
                raise ValueError(f"join {n} falls outside its anchor interval")

    def gauge(self, x: float) -> float:
        return _resolve_gauge(self.g_name, self.alpha)(x)

    @property
    def slopes(self) -> tuple[float, ...]:
        return tuple(self.gauge(v) / v for v in self.a)

    @property
    def joins(self) -> tuple[float, ...]:
        k = self.slopes
        return tuple(
            2.0 * k[n + 1] * self.a[n + 1] / (k[n] + k[n + 1]) for n in range(len(self.a) - 1)
        )

    def to_dict(self) -> dict:
        out: dict = {"g": self.g_name, "a": list(self.a)}
        if self.alpha is not None:
            out["alpha"] = self.alpha
        return out

    @classmethod
    def from_dict(cls, obj: dict) -> "Example4Spec":
        if not isinstance(obj, dict):
            raise ValueError("spec must be a JSON object")
        unknown = set(obj) - {"g", "alpha", "a"}
        if unknown:
            raise ValueError(f"unknown field(s) in spec: {sorted(unknown)}")
        if "a" not in obj:
            raise ValueError("spec needs the anchor list 'a'")
        return cls(tuple(obj["a"]), obj.get("g", "sqrt"), obj.get("alpha"))


def build_example4(spec: Example4Spec) -> PiecewiseModulus:
    """The four-branch piecewise modulus determined by the spec.

    Value g(a_0) above a_0, slope-k_n rise on [b_n, a_n), descent into each
    join from the peak g(a_{n+1}), last slope continued below the smallest
    anchor, and 0 at 0.  PiecewiseModulus re-verifies continuity at every
    breakpoint and join.
    """
    return PiecewiseModulus(
        breakpoints=spec.a,
        slopes=spec.slopes,
        joins=spec.joins,
        cap=spec.gauge(spec.a[0]),
    )


@dataclass(frozen=True)
class RatioCheck:
    """Tooth ratio computed two ways, and whether they agree under the caller's tolerance."""

    index: int
    direct: float
    closed_form: float
    agree: bool

    def to_dict(self) -> dict:
        return asdict(self)


def example4_ratio(f: PiecewiseModulus, n: int, tol: ToleranceConfig = DEFAULT_TOL) -> RatioCheck:
    """f(a_{n+1}) / f(b_n) against the closed form (1 + k_{n+1}/k_n) / 2."""
    if not (0 <= n < f.tooth_count):
        raise ValueError(f"tooth index {n} out of range [0, {f.tooth_count})")
    denom = f.value(f.joins[n])
    # deep teeth have genuinely tiny join values, so only an exact zero makes
    # the ratio undefined
    if denom <= 0.0:
        raise ValueError(f"f vanishes at join {n}; ratio undefined")
    direct = f.value(f.breakpoints[n + 1]) / denom
    closed = 0.5 * (1.0 + f.slopes[n + 1] / f.slopes[n])
    agree = tol.close(direct, closed)
    if not agree:
        raise ValueError(f"ratio identity violated at tooth {n}: {direct} vs {closed}")
    return RatioCheck(n, direct, closed, agree)


@dataclass(frozen=True)
class InequalityReport:
    """Worst violations of f(s+t) <= f(s)+f(t) and f(s) <= f(s+t)+f(t) on a grid."""

    max_subadd_violation: float
    max_reverse_violation: float
    worst_subadd_pair: tuple[float, float]
    worst_reverse_pair: tuple[float, float]
    pair_count: int
    eps_abs: float

    @property
    def ok(self) -> bool:
        return (
            self.max_subadd_violation <= self.eps_abs
            and self.max_reverse_violation <= self.eps_abs
        )

    def to_dict(self) -> dict:
        return {
            "max_subadd_violation": self.max_subadd_violation,
            "max_reverse_violation": self.max_reverse_violation,
            "worst_subadd_pair": list(self.worst_subadd_pair),
            "worst_reverse_pair": list(self.worst_reverse_pair),
            "pair_count": self.pair_count,
            "ok": self.ok,
        }


def verify_example4_inequalities(
    f: PiecewiseModulus, grid, tol: ToleranceConfig = DEFAULT_TOL
) -> InequalityReport:
    """Exhaustive scan of both group inequalities over all grid pairs."""
    points = sorted(set(float(t) for t in grid))
    hi = 2.0 * f.breakpoints[0]
    if not points or points[0] <= 0.0 or points[-1] > hi * (1.0 + tol.eps_rel):
        raise ValueError(f"grid must lie in (0, {hi}]")
    x = np.array(points)
    fx = f.values(x)
    worst_sub = (-math.inf, (points[0], points[0]))
    worst_rev = (-math.inf, (points[0], points[0]))
    # one row s at a time; np.argmax takes the first maximum within a row and
    # rows are compared with a strict >, so ties go to the first (s, t)
    for i, s in enumerate(points):
        fst = f.values(s + x)
        sub = fst - (fx[i] + fx)
        rev = fx[i] - (fst + fx)
        j, k = int(np.argmax(sub)), int(np.argmax(rev))
        if sub[j] > worst_sub[0]:
            worst_sub = (float(sub[j]), (s, points[j]))
        if rev[k] > worst_rev[0]:
            worst_rev = (float(rev[k]), (s, points[k]))
    return InequalityReport(
        max_subadd_violation=worst_sub[0],
        max_reverse_violation=worst_rev[0],
        worst_subadd_pair=worst_sub[1],
        worst_reverse_pair=worst_rev[1],
        pair_count=len(points) ** 2,
        eps_abs=tol.eps_abs,
    )


def log_grid(lo: float, hi: float, count: int):
    """Log-spaced scan grid, endpoints included."""
    if not (0.0 < lo < hi):
        raise ValueError("need 0 < lo < hi")
    return [float(t) for t in np.geomspace(lo, hi, count)]


def modulus_scan_grid(f: PiecewiseModulus, count: int = 160):
    """Scan grid adapted to f: breakpoints, joins, and log-spaced filler.

    The filler reaches ``max(1, 2 * a_0)``, past the ``(0, 2 * a_0]`` domain
    of ``verify_example4_inequalities``, so the grid feeds only the
    Mazur-Orlicz scan (``mazur_orlicz_check``).
    """
    top = max(1.0, 2.0 * f.breakpoints[0])
    pts = set(f.breakpoints) | set(f.joins)
    pts.update(log_grid(f.breakpoints[-1] * 0.5, top, count))
    return sorted(pts)


# --- named presets --------------------------------------------------------------

def _steep_spec(teeth: int = 8) -> Example4Spec:
    # anchors 4**-(n+1)**2 make consecutive slope ratios 2**(2n+3) -> infinity
    return Example4Spec(tuple(4.0 ** (-((n + 1) ** 2)) for n in range(teeth + 1)), "sqrt")


EXAMPLE4_PRESETS = {
    "steep": lambda: _steep_spec(),
    "two-term": lambda: Example4Spec((0.25, 1.0 / 64.0), "sqrt"),
}

FUNCTION_PRESETS = {
    "linear": lambda t: t,
    "capped-linear": lambda t: min(t, 1.0),
}


def preset_names() -> tuple[str, ...]:
    return tuple(sorted((*EXAMPLE4_PRESETS, *FUNCTION_PRESETS)))


def load_preset(name: str):
    """Return ('spec', Example4Spec) or ('function', callable) for a preset name."""
    if name in EXAMPLE4_PRESETS:
        return "spec", EXAMPLE4_PRESETS[name]()
    if name in FUNCTION_PRESETS:
        return "function", FUNCTION_PRESETS[name]
    raise ValueError(f"unknown preset {name!r}; available: {', '.join(preset_names())}")


# --- standard families for tests and the classifier -----------------------------

def power_family(n_coords: int, p: float = 1.0, domain=(0.0, 1.0), name: str = "") -> FamilyDescription:
    spec = PowerModulus(p, tuple(domain))
    return FamilyDescription((spec,) * n_coords, name=name or f"power(p={p:g})x{n_coords}")


def uniform_indicator_family(n_coords: int, n_blocks: int, name: str = "") -> FamilyDescription:
    blocks = tuple((f"b{i}",) for i in range(n_blocks))
    spec = IndicatorModulus(blocks)
    return FamilyDescription((spec,) * n_coords, name=name or f"indicator({n_blocks})x{n_coords}")


def growing_indicator_family(n_coords: int, max_blocks: int, name: str = "") -> FamilyDescription:
    coords = []
    for n in range(n_coords):
        m = min(n + 2, max_blocks)
        coords.append(IndicatorModulus(tuple((f"b{i}",) for i in range(m))))
    return FamilyDescription(tuple(coords), name=name or f"growing-indicator x{n_coords}")
