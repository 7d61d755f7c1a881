"""Shared data model for sum-like relations.

A sum-like relation on a finite product of coordinate spaces is declared by
per-coordinate modulus functions psi_n >= 0: two points are related when the
sum of psi_n over the coordinates where they differ is small.  This module
holds the finite descriptions everything else works on: explicit modulus
tables, closed-form coordinate moduli, family containers, the piecewise-linear
modulus used by the counterexample builder, and their JSON round trip.

Infinite families are represented by finite truncations; an optional symbolic
``tail`` annotation survives the round trip but is never consumed by numeric
sums (only by classifier narratives).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Union

import numpy as np

Point = Union[str, float]


@dataclass(frozen=True)
class ToleranceConfig:
    """Absolute and relative slack governing every numeric comparison."""

    eps_abs: float = 1e-12
    eps_rel: float = 1e-9

    def __post_init__(self):
        if not (0.0 < self.eps_abs < math.inf and 0.0 < self.eps_rel < math.inf):
            raise ValueError("tolerances must be finite and strictly positive")

    def is_zero(self, value: float) -> bool:
        return abs(value) <= self.eps_abs

    def close(self, a: float, b: float) -> bool:
        return abs(a - b) <= self.eps_abs + self.eps_rel * max(abs(a), abs(b))

    def to_dict(self) -> dict:
        return {"eps_abs": self.eps_abs, "eps_rel": self.eps_rel}


DEFAULT_TOL = ToleranceConfig()


def as_real(point: Point) -> float:
    """Parse a point of a real-valued coordinate (labels are decimal strings)."""
    if isinstance(point, str):
        try:
            return float(point)
        except ValueError:
            raise ValueError(f"expected a real-valued point, got {point!r}") from None
    return float(point)


@dataclass(frozen=True, eq=False)
class ModulusSample:
    """A finite point set with the full table psi[u][v] of modulus values.

    ``psi`` is a read-only square float64 array indexed like ``points``, with
    finite non-negative entries; it is made once here and read in place by
    every layer.  Immutable after construction.
    """

    points: tuple[str, ...]
    psi: np.ndarray
    name: str = ""

    def __post_init__(self):
        pts = tuple(str(p) for p in self.points)
        object.__setattr__(self, "points", pts)
        if not pts:
            raise ValueError("sample needs at least one point")
        if len(set(pts)) != len(pts):
            raise ValueError("point labels must be unique")
        m = len(pts)
        rows = self.psi
        # a ragged table cannot become an array, so its row lengths are read first
        if not isinstance(rows, np.ndarray) and (len(rows) != m or any(len(r) != m for r in rows)):
            raise ValueError("psi table must be square with one row per point")
        table = np.array(rows, dtype=np.float64)
        if table.shape != (m, m):
            raise ValueError("psi table must be square with one row per point")
        if not (np.isfinite(table).all() and (table >= 0.0).all()):
            raise ValueError("psi entries must be finite and non-negative")
        table.flags.writeable = False
        object.__setattr__(self, "psi", table)
        object.__setattr__(self, "_index", {p: i for i, p in enumerate(pts)})

    def __eq__(self, other):
        if not isinstance(other, ModulusSample):
            return NotImplemented
        return (self.points, self.name) == (other.points, other.name) and np.array_equal(
            self.psi, other.psi
        )

    def __hash__(self):
        return hash((self.points, self.name, self.psi.tobytes()))

    @property
    def size(self) -> int:
        return len(self.points)

    def index(self, label: str) -> int:
        try:
            return self._index[label]
        except KeyError:
            raise KeyError(f"unknown point label {label!r}") from None

    def value(self, u: str, v: str) -> float:
        return float(self.psi[self.index(u), self.index(v)])

    def matrix(self) -> np.ndarray:
        """A writable copy of the table."""
        return self.psi.copy()

    def to_dict(self) -> dict:
        out = {"points": list(self.points), "psi": self.psi.tolist()}
        if self.name:
            out["name"] = self.name
        return out


@dataclass(frozen=True)
class PiecewiseModulus:
    """Continuous piecewise-linear modulus with descending teeth.

    Rising pieces of slope ``slopes[n]`` on ``[joins[n], breakpoints[n])``
    alternate with descending pieces that peak at each breakpoint; the value
    is capped at ``cap`` above the largest breakpoint and continues the last
    rising slope below the smallest one.  Slopes increase strictly along the
    teeth, breakpoints decrease strictly, and each join sits where the two
    adjacent pieces meet, so the function is continuous on (0, inf) with
    value 0 at 0.
    """

    breakpoints: tuple[float, ...]  # a_0 > a_1 > ... > a_M > 0
    slopes: tuple[float, ...]       # k_0 < k_1 < ... < k_M, all > 0
    joins: tuple[float, ...]        # a_{n+1} < b_n < a_n
    cap: float

    def __post_init__(self):
        a = tuple(float(v) for v in self.breakpoints)
        k = tuple(float(v) for v in self.slopes)
        b = tuple(float(v) for v in self.joins)
        object.__setattr__(self, "breakpoints", a)
        object.__setattr__(self, "slopes", k)
        object.__setattr__(self, "joins", b)
        object.__setattr__(self, "cap", float(self.cap))
        tol = DEFAULT_TOL
        if not a:
            raise ValueError("need at least one breakpoint")
        if len(k) != len(a):
            raise ValueError("one slope per breakpoint required")
        if len(b) != len(a) - 1:
            raise ValueError("one join per consecutive breakpoint pair required")
        if any(v <= 0.0 for v in a) or any(x >= y for x, y in zip(a[1:], a[:-1])):
            raise ValueError("breakpoints must be strictly decreasing and positive")
        if any(v <= 0.0 for v in k) or any(x <= y for x, y in zip(k[1:], k[:-1])):
            raise ValueError("slopes must be strictly increasing and positive")
        for n, bn in enumerate(b):
            if not (a[n + 1] < bn < a[n]):
                raise ValueError(f"join {n} must lie strictly between breakpoints {n + 1} and {n}")
            rising = k[n] * bn
            descending = k[n + 1] * a[n + 1] - k[n + 1] * (bn - a[n + 1])
            if not tol.close(rising, descending):
                raise ValueError(f"pieces disagree at join {n}: {rising} vs {descending}")
        if not tol.close(self.cap, k[0] * a[0]):
            raise ValueError("cap must equal the rising piece value at the largest breakpoint")

    @property
    def tooth_count(self) -> int:
        return len(self.joins)

    def peak(self, n: int) -> float:
        """Value attained at breakpoint n (top of the n-th tooth)."""
        return self.slopes[n] * self.breakpoints[n]

    def values(self, t) -> np.ndarray:
        """Elementwise value on an array of non-negative arguments.

        Each branch is one ``+ - *`` expression on the stored floats, so an
        entry is the same bits as a scalar evaluation of that branch.
        """
        t = np.asarray(t, dtype=np.float64)
        if (t < 0.0).any():
            raise ValueError("modulus argument must be non-negative")
        a, k = np.array(self.breakpoints), np.array(self.slopes)
        # every branch is evaluated everywhere; np.where discards the
        # products that overflow on arguments outside their branch
        with np.errstate(over="ignore"):
            out = k[-1] * t
            if self.joins:
                b = np.array(self.joins)
                # n with a[n+1] <= t < a[n], clipped where t lies outside [a[-1], a[0])
                n = np.clip(np.searchsorted(-a, -t) - 1, 0, len(b) - 1)
                descending = k[n + 1] * a[n + 1] - k[n + 1] * (t - a[n + 1])
                out = np.where(t < a[-1], out, np.where(t < b[n], descending, k[n] * t))
        out = np.where(t >= a[0], self.cap, out)
        return np.where(t == 0.0, 0.0, out)

    def value(self, t: float) -> float:
        return float(self.values(t))

    __call__ = value

    def continuity_report(self, tol: ToleranceConfig = DEFAULT_TOL) -> dict:
        """Largest one-sided jump at every breakpoint and join."""
        jumps = {}
        for n, bn in enumerate(self.joins):
            rising = self.slopes[n] * bn
            descending = self.peak(n + 1) - self.slopes[n + 1] * (bn - self.breakpoints[n + 1])
            jumps[f"join:{n}"] = abs(rising - descending)
        for n, an in enumerate(self.breakpoints):
            below = self.slopes[n] * an  # rising piece limit from below
            at = self.cap if n == 0 else self.peak(n)
            jumps[f"breakpoint:{n}"] = abs(at - below)
        worst = max(jumps.values()) if jumps else 0.0
        return {"jumps": jumps, "max_jump": worst, "continuous": worst <= tol.eps_abs}

    def to_dict(self) -> dict:
        return {
            "breakpoints": list(self.breakpoints),
            "slopes": list(self.slopes),
            "joins": list(self.joins),
            "cap": self.cap,
        }

    @classmethod
    def from_dict(cls, obj: dict) -> "PiecewiseModulus":
        _reject_unknown(obj, {"breakpoints", "slopes", "joins", "cap"}, "piecewise modulus")
        for key in ("breakpoints", "slopes", "joins", "cap"):
            if key not in obj:
                raise ValueError(f"piecewise modulus is missing field {key!r}")
        return cls(tuple(obj["breakpoints"]), tuple(obj["slopes"]), tuple(obj["joins"]), obj["cap"])


@dataclass(frozen=True)
class TableModulus:
    """Coordinate modulus given by an explicit finite table."""

    sample: ModulusSample
    kind = "table"

    def labels(self) -> tuple[str, ...]:
        return self.sample.points

    def psi(self, u: Point, v: Point) -> float:
        return self.sample.value(str(u), str(v))

    def same_point(self, u: Point, v: Point) -> bool:
        return str(u) == str(v)

    def as_sample(self, grid=None) -> ModulusSample:
        return self.sample

    def to_dict(self) -> dict:
        return {"kind": "table", **self.sample.to_dict()}


@dataclass(frozen=True)
class PowerModulus:
    """psi(u, v) = |u - v|**p for real points in a closed interval."""

    p: float
    domain: tuple[float, float] = (0.0, 1.0)
    kind = "power"

    def __post_init__(self):
        object.__setattr__(self, "p", float(self.p))
        lo, hi = self.domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        if not self.p > 0.0:
            raise ValueError("power exponent must be positive")
        lo, hi = self.domain
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("domain must be a finite non-degenerate interval")

    @property
    def diameter(self) -> float:
        return self.domain[1] - self.domain[0]

    def contains(self, t: float) -> bool:
        return self.domain[0] <= t <= self.domain[1]

    def psi(self, u: Point, v: Point) -> float:
        su, sv = as_real(u), as_real(v)
        for t in (su, sv):
            if not self.contains(t):
                raise ValueError(f"point {t} outside domain {self.domain}")
        return abs(su - sv) ** self.p

    def same_point(self, u: Point, v: Point) -> bool:
        return as_real(u) == as_real(v)

    def as_sample(self, grid=None) -> ModulusSample:
        if grid is None:
            raise ValueError("a grid of real points is required to sample a power modulus")
        return _sample_from_reals(
            self, grid, lambda dist: [[t ** self.p for t in row] for row in dist.tolist()], self.contains
        )

    def to_dict(self) -> dict:
        return {"kind": "power", "p": self.p, "domain": [self.domain[0], self.domain[1]]}


@dataclass(frozen=True)
class IndicatorModulus:
    """psi(u, v) = 0 when u, v share a block of the partition, else 1."""

    blocks: tuple[tuple[str, ...], ...]
    kind = "indicator"

    def __post_init__(self):
        blocks = tuple(tuple(str(p) for p in blk) for blk in self.blocks)
        object.__setattr__(self, "blocks", blocks)
        if not blocks or any(not blk for blk in blocks):
            raise ValueError("partition needs at least one non-empty block")
        seen: dict[str, int] = {}
        for i, blk in enumerate(blocks):
            for label in blk:
                if label in seen:
                    raise ValueError(f"blocks overlap at label {label!r}")
                seen[label] = i
        object.__setattr__(self, "_block_of", seen)

    def labels(self) -> tuple[str, ...]:
        return tuple(label for blk in self.blocks for label in blk)

    def block_index(self, label: str) -> int:
        try:
            return self._block_of[str(label)]
        except KeyError:
            raise KeyError(f"unknown point label {label!r}") from None

    def psi(self, u: Point, v: Point) -> float:
        return 0.0 if self.block_index(str(u)) == self.block_index(str(v)) else 1.0

    def same_point(self, u: Point, v: Point) -> bool:
        return str(u) == str(v)

    def as_sample(self, grid=None) -> ModulusSample:
        block = np.repeat(np.arange(len(self.blocks)), [len(blk) for blk in self.blocks])
        table = (block[:, None] != block[None, :]).astype(np.float64)
        return ModulusSample(self.labels(), table, name="indicator")

    def to_dict(self) -> dict:
        return {"kind": "indicator", "blocks": [list(blk) for blk in self.blocks]}


@dataclass(frozen=True)
class FunctionModulus:
    """psi(u, v) = f(|u - v|) for real points, f a piecewise-linear modulus."""

    f: PiecewiseModulus
    domain: tuple[float, float] = (0.0, 1.0)
    kind = "f"

    def __post_init__(self):
        lo, hi = self.domain
        object.__setattr__(self, "domain", (float(lo), float(hi)))
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ValueError("domain must be a finite non-degenerate interval")

    @property
    def diameter(self) -> float:
        return self.domain[1] - self.domain[0]

    def psi(self, u: Point, v: Point) -> float:
        return self.f.value(abs(as_real(u) - as_real(v)))

    def same_point(self, u: Point, v: Point) -> bool:
        return as_real(u) == as_real(v)

    def as_sample(self, grid=None) -> ModulusSample:
        if grid is None:
            raise ValueError("a grid of real points is required to sample a function modulus")
        return _sample_from_reals(self, grid, self.f.values, None)

    def to_dict(self) -> dict:
        return {
            "kind": "f",
            "f": self.f.to_dict(),
            "domain": [self.domain[0], self.domain[1]],
        }


ModulusSpec = Union[TableModulus, PowerModulus, IndicatorModulus, FunctionModulus]


def _sample_from_reals(spec, grid, table, inside) -> ModulusSample:
    """Table ``table(|u - v|)`` over distinct grid points, each tested by ``inside`` if given.

    ``table`` maps the distance array to the modulus table.  A power table
    applies Python's ``**`` one float at a time: NumPy's power can differ in
    the last bit and so move a first-maximum witness.
    """
    values = [float(t) for t in grid]
    if len(set(values)) != len(values):
        raise ValueError("grid points must be distinct")
    if inside is not None:
        for t in values:
            if not inside(t):
                raise ValueError(f"point {t} outside domain {spec.domain}")
    x = np.array(values)
    dist = np.abs(x[:, None] - x[None, :])
    return ModulusSample([repr(v) for v in values], table(dist), name=f"{spec.kind} grid")


@dataclass(frozen=True)
class FamilyDescription:
    """Ordered finite list of coordinate moduli (truncation of an infinite family)."""

    coords: tuple[ModulusSpec, ...]
    name: str = ""
    notes: str = ""
    tail: str | None = None

    def __post_init__(self):
        object.__setattr__(self, "coords", tuple(self.coords))
        if not self.coords:
            raise ValueError("family needs at least one coordinate")

    @property
    def size(self) -> int:
        return len(self.coords)


@dataclass(frozen=True)
class SumSplit:
    """finite_sum result: total plus the diagonal/off-diagonal decomposition."""

    total: float
    diagonal: float
    off_diagonal: float
    terms: tuple[float, ...]

    def to_dict(self) -> dict:
        return {
            "total": self.total,
            "diagonal": self.diagonal,
            "off_diagonal": self.off_diagonal,
            "terms": list(self.terms),
        }


def finite_sum(x, y, fam: FamilyDescription, tol: ToleranceConfig = DEFAULT_TOL) -> SumSplit:
    """Sum psi_n(x(n), y(n)) over all coordinates, split by x(n) == y(n).

    The off-diagonal part is the sum that decides membership in the relation;
    the diagonal part collects psi_n(u, u) terms (zero for any modulus that
    vanishes on the diagonal).
    """
    if len(x) != fam.size or len(y) != fam.size:
        raise ValueError(f"point vectors must have length {fam.size}")
    terms = []
    diagonal = []
    off_diagonal = []
    for n, spec in enumerate(fam.coords):
        value = spec.psi(x[n], y[n])
        terms.append(value)
        if spec.same_point(x[n], y[n]):
            diagonal.append(value)
        else:
            off_diagonal.append(value)
    return SumSplit(
        total=math.fsum(terms),
        diagonal=math.fsum(diagonal),
        off_diagonal=math.fsum(off_diagonal),
        terms=tuple(terms),
    )


# --- JSON round trip ---------------------------------------------------------

def _reject_unknown(obj: dict, known: set[str], where: str) -> None:
    unknown = set(obj) - known
    if unknown:
        raise ValueError(f"unknown field(s) in {where}: {sorted(unknown)}")


def spec_from_dict(obj: dict) -> ModulusSpec:
    if not isinstance(obj, dict):
        raise ValueError("coordinate spec must be a JSON object")
    kind = obj.get("kind")
    if kind == "power":
        _reject_unknown(obj, {"kind", "p", "domain"}, "power spec")
        if "p" not in obj:
            raise ValueError("power spec is missing field 'p'")
        domain = tuple(obj.get("domain", (0.0, 1.0)))
        if len(domain) != 2:
            raise ValueError("power domain must be a two-element interval")
        return PowerModulus(obj["p"], domain)
    if kind == "table":
        _reject_unknown(obj, {"kind", "points", "psi", "name"}, "table spec")
        if "points" not in obj or "psi" not in obj:
            raise ValueError("table spec needs 'points' and 'psi'")
        return TableModulus(ModulusSample(obj["points"], obj["psi"], obj.get("name", "")))
    if kind == "indicator":
        _reject_unknown(obj, {"kind", "blocks"}, "indicator spec")
        if "blocks" not in obj:
            raise ValueError("indicator spec needs 'blocks'")
        return IndicatorModulus(tuple(tuple(b) for b in obj["blocks"]))
    if kind == "f":
        _reject_unknown(obj, {"kind", "f", "domain"}, "function spec")
        if "f" not in obj:
            raise ValueError("function spec needs 'f'")
        domain = tuple(obj.get("domain", (0.0, 1.0)))
        return FunctionModulus(PiecewiseModulus.from_dict(obj["f"]), domain)
    raise ValueError(f"unknown coordinate kind {kind!r}")


def family_to_dict(fam: FamilyDescription) -> dict:
    out: dict = {"name": fam.name, "coords": [spec.to_dict() for spec in fam.coords]}
    if fam.notes:
        out["notes"] = fam.notes
    if fam.tail is not None:
        out["tail"] = fam.tail
    return out


def family_from_dict(obj: dict) -> FamilyDescription:
    if not isinstance(obj, dict):
        raise ValueError("family must be a JSON object")
    _reject_unknown(obj, {"name", "notes", "tail", "coords"}, "family")
    if "coords" not in obj or not isinstance(obj["coords"], list):
        raise ValueError("family needs a 'coords' list")
    coords = tuple(spec_from_dict(c) for c in obj["coords"])
    return FamilyDescription(
        coords,
        name=obj.get("name", ""),
        notes=obj.get("notes", ""),
        tail=obj.get("tail"),
    )


def family_to_json(fam: FamilyDescription, indent: int | None = 2) -> str:
    return json.dumps(family_to_dict(fam), indent=indent, sort_keys=True)


def family_from_json(text: str) -> FamilyDescription:
    return family_from_dict(json.loads(text))


def sample_from_dict(obj: dict) -> ModulusSample:
    """Accept a bare {points, psi} object or a finite coordinate spec."""
    if not isinstance(obj, dict):
        raise ValueError("sample must be a JSON object")
    if "kind" in obj:
        spec = spec_from_dict(obj)
        if isinstance(spec, (TableModulus, IndicatorModulus)):
            return spec.as_sample()
        raise ValueError(f"a {spec.kind!r} spec is not finite; supply a table or indicator")
    _reject_unknown(obj, {"points", "psi", "name"}, "sample")
    if "points" not in obj or "psi" not in obj:
        raise ValueError("sample needs 'points' and 'psi'")
    return ModulusSample(obj["points"], obj["psi"], obj.get("name", ""))


def sample_from_json(text: str) -> ModulusSample:
    return sample_from_dict(json.loads(text))
