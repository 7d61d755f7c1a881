"""Explicit reduction maps with quantitative finite-scale verification.

Contains the clamp decomposition of a real sequence into unit windows, the
greedy block selector and the block transfer map it feeds (with the two-sided
per-level margin check), metric normalization, the indicator embedding with
its product placement map, and the Cesaro-Koch curve used for the exponent
p -> q interleaving together with two-sided Holder estimation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .conditions import best_admissible
from .core import (
    DEFAULT_TOL,
    FamilyDescription,
    IndicatorModulus,
    ModulusSample,
    Point,
    ToleranceConfig,
)


# --- clamp decomposition -------------------------------------------------------

def clamp_reduce(z, window: tuple[int, int]):
    """Clamp each z(m) into unit windows indexed by k.

    Entry (m, k) is 0 below the window, z(m) - k inside it, and 1 above it.
    Rows are nonincreasing in k, and the row differences of two inputs sum to
    |z(m) - w(m)| once the window covers both values.
    """
    k_lo, k_hi = int(window[0]), int(window[1])
    if k_lo > k_hi:
        raise ValueError("window is empty")
    rows = []
    for value in z:
        value = float(value)
        row = []
        for k in range(k_lo, k_hi + 1):
            if value < k:
                row.append(0.0)
            elif value < k + 1:
                row.append(value - k)
            else:
                row.append(1.0)
        rows.append(row)
    return rows


def clamp_window_for(*values: float) -> tuple[int, int]:
    """Smallest safe window covering all given values, padded by one unit."""
    lo = math.floor(min(values)) - 1
    hi = math.ceil(max(values)) + 1
    return lo, hi


# --- pairing functions ---------------------------------------------------------

def pair_nn(i: int, j: int) -> int:
    """Cantor diagonal enumeration of N x N."""
    if i < 0 or j < 0:
        raise ValueError("pairing is defined on non-negative integers")
    return (i + j) * (i + j + 1) // 2 + j


def unpair_nn(n: int) -> tuple[int, int]:
    if n < 0:
        raise ValueError("pairing index must be non-negative")
    w = (math.isqrt(8 * n + 1) - 1) // 2
    j = n - w * (w + 1) // 2
    return w - j, j


def _z_index(k: int) -> int:
    # enumerate Z as 0, -1, 1, -2, 2, ...
    if k == 0:
        return 0
    return 2 * k if k > 0 else -2 * k - 1


def _z_value(index: int) -> int:
    if index % 2 == 0:
        return index // 2
    return -(index + 1) // 2


def pair_nz(m: int, k: int) -> int:
    """Enumeration of N x Z via the Cantor pairing and 0, -1, 1, -2, 2, ..."""
    return pair_nn(m, _z_index(k))


def unpair_nz(n: int) -> tuple[int, int]:
    m, idx = unpair_nn(n)
    return m, _z_value(idx)


def indicator_modulus(blocks) -> IndicatorModulus:
    """Indicator spec of a partition: 0 inside a block, 1 across blocks."""
    return IndicatorModulus(tuple(tuple(b) for b in blocks))


def product_placement(u: Point, i: int, length: int, filler=None):
    """Place u at every product position (i, j) under the Cantor pairing.

    Positions decoding to a different first index get the filler point for
    that index (default ``a<k>``).
    """
    if filler is None:
        filler = lambda k: f"a{k}"
    out = []
    for n in range(length):
        k, _ = unpair_nn(n)
        out.append(u if k == i else filler(k))
    return out


# --- block machinery -----------------------------------------------------------

class BlockSelectionError(ValueError):
    """A level's stream ran out before its block sum reached 1."""


@dataclass(frozen=True)
class BlockLevel:
    """One level's contiguous coordinate block with its weights.

    ``pairs`` optionally carries the concrete per-coordinate point pair the
    weight was measured on; plans built from bare weight streams leave it None.
    """

    level: int
    start: int
    end: int
    weights: tuple[float, ...]
    pairs: tuple[tuple[Point, Point], ...] | None = None

    @property
    def total(self) -> float:
        acc = 0.0
        for w in self.weights:
            acc += w
        return acc

    def to_dict(self) -> dict:
        out = {
            "level": self.level,
            "start": self.start,
            "end": self.end,
            "weights": list(self.weights),
            "sum": self.total,
        }
        if self.pairs is not None:
            out["pairs"] = [list(p) for p in self.pairs]
        return out


@dataclass(frozen=True)
class BlockPlan:
    """Strictly ordered blocks, one per level, satisfying the selection rules:
    every weight < 2**-level and the block sum lies in [1, 1 + 2**-level)."""

    levels: tuple[BlockLevel, ...]

    def __post_init__(self):
        object.__setattr__(self, "levels", tuple(self.levels))
        if not self.levels:
            raise ValueError("plan needs at least one level")
        prev_end = -1
        for l, blk in enumerate(self.levels):
            if blk.level != l:
                raise ValueError(f"levels must be consecutive from 0, got {blk.level} at {l}")
            if not (prev_end < blk.start < blk.end):
                raise ValueError(f"level {l}: blocks must satisfy start < end and strict ordering")
            if blk.end - blk.start + 1 != len(blk.weights):
                raise ValueError(f"level {l}: weight count does not match block bounds")
            if blk.pairs is not None and len(blk.pairs) != len(blk.weights):
                raise ValueError(f"level {l}: pair count does not match block bounds")
            cap = 2.0 ** (-l)
            if any(not (0.0 <= w < cap) for w in blk.weights):
                raise ValueError(f"level {l}: every weight must lie in [0, 2**-{l})")
            total = blk.total
            if not (1.0 <= total < 1.0 + cap):
                raise ValueError(f"level {l}: block sum {total} outside [1, 1 + 2**-{l})")
            prev_end = blk.end

    @property
    def length(self) -> int:
        """Number of coordinates the plan's widest vector needs."""
        return self.levels[-1].end + 1

    def to_dict(self) -> dict:
        return {"levels": [blk.to_dict() for blk in self.levels]}


def select_blocks(weight_streams, L_max: int, pairs_streams=None) -> BlockPlan:
    """Greedy per-level block selection over a shared coordinate axis.

    Level l consumes coordinates left to right starting after the previous
    block.  A weight >= 2**-l interrupts the run (the block must be a
    contiguous run of admissible weights), so accumulation restarts after it.
    The block closes at the first crossing of 1, which lands below 1 + 2**-l
    automatically since the crossing term is < 2**-l.
    """
    if L_max < 1:
        raise ValueError("need at least one level")
    if len(weight_streams) < L_max:
        raise ValueError(f"need {L_max} weight streams, got {len(weight_streams)}")
    levels = []
    cursor = 0
    for l in range(L_max):
        stream = weight_streams[l]
        cap = 2.0 ** (-l)
        run_start = cursor
        acc = 0.0
        block = None
        for n in range(cursor, len(stream)):
            w = float(stream[n])
            if w < 0.0:
                raise ValueError(f"level {l}: negative weight at coordinate {n}")
            if w >= cap:
                run_start = n + 1
                acc = 0.0
                continue
            acc += w
            if acc >= 1.0:
                block = (run_start, n)
                break
        if block is None:
            raise BlockSelectionError(
                f"level {l}: stream exhausted before the block sum reached 1 "
                "(this truncation cannot realize the construction)"
            )
        start, end = block
        weights = tuple(float(stream[n]) for n in range(start, end + 1))
        pairs = None
        if pairs_streams is not None:
            pairs = tuple(tuple(pairs_streams[l][n]) for n in range(start, end + 1))
        levels.append(BlockLevel(l, start, end, weights, pairs))
        cursor = end + 1
    return BlockPlan(tuple(levels))


def _x_tag(level: int) -> str:
    return f"x{level}"


def _y_tag(level: int) -> str:
    return f"y{level}"


def block_reduce(z, plan: BlockPlan, filler: Point = "a"):
    """Transfer z in [0,1]^L to a point vector along the plan's coordinates.

    Entries outside [0, 1] are clamped.  Within block l the vector carries the
    level's x-stream while the running partial weight sum stays <= z(l), then
    switches permanently to the y-stream; coordinates outside every block take
    the filler point.
    """
    if len(z) != len(plan.levels):
        raise ValueError(f"z must have one entry per level ({len(plan.levels)})")
    out: list[Point] = [filler] * plan.length
    for blk in plan.levels:
        threshold = min(max(float(z[blk.level]), 0.0), 1.0)
        partial = 0.0
        for offset, n in enumerate(range(blk.start, blk.end + 1)):
            partial += blk.weights[offset]
            out[n] = _x_tag(blk.level) if partial <= threshold else _y_tag(blk.level)
    return out


@dataclass(frozen=True)
class LevelMargin:
    """Per-level disagreement sum against the two-sided bound |z-w| +- 2**-l."""

    level: int
    gap: float
    disagreement_sum: float
    bound: float

    @property
    def lower(self) -> float:
        return self.gap - self.bound

    @property
    def upper(self) -> float:
        return self.gap + self.bound

    @property
    def within(self) -> bool:
        return self.lower < self.disagreement_sum < self.upper

    def to_dict(self) -> dict:
        return {
            "level": self.level,
            "gap": self.gap,
            "disagreement_sum": self.disagreement_sum,
            "bound": self.bound,
            "lower": self.lower,
            "upper": self.upper,
            "within": self.within,
        }


def verify_block_inequality(
    z,
    w,
    plan: BlockPlan,
    fam: FamilyDescription | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> tuple[LevelMargin, ...]:
    """Disagreement-coordinate modulus sums per level, with margins.

    Without a family the stream weights stand in for the modulus values
    (exact for symmetric moduli); with a family and recorded pairs the actual
    value in transfer order is used.  Violations are reported in the margins,
    never raised.
    """
    vz = block_reduce(z, plan)
    vw = block_reduce(w, plan)

    def clamp(v):
        return min(max(float(v), 0.0), 1.0)

    margins = []
    for blk in plan.levels:
        dis = 0.0
        for offset, n in enumerate(range(blk.start, blk.end + 1)):
            if vz[n] == vw[n]:
                continue
            if fam is not None and blk.pairs is not None:
                pu, pv = blk.pairs[offset]
                z_point = pu if vz[n] == _x_tag(blk.level) else pv
                w_point = pu if vw[n] == _x_tag(blk.level) else pv
                dis += fam.coords[n].psi(z_point, w_point)
            else:
                dis += blk.weights[offset]
        gap = abs(clamp(z[blk.level]) - clamp(w[blk.level]))
        margins.append(LevelMargin(blk.level, gap, dis, 2.0 ** (-blk.level)))
    return tuple(margins)


def family_weight_streams(fam: FamilyDescription, L_max: int, tol: ToleranceConfig = DEFAULT_TOL):
    """Per-level weight and pair streams from a family, greedy below 2**-l."""
    weight_streams = []
    pairs_streams = []
    for l in range(L_max):
        cap = 2.0 ** (-l)
        weights = []
        pairs = []
        for spec in fam.coords:
            found = best_admissible(spec, cap, tol)
            if found is None:
                # inadmissible coordinate; the selector will skip over it
                weights.append(cap)
                pairs.append(("", ""))
            else:
                u, v, value = found
                weights.append(value)
                pairs.append((u, v))
        weight_streams.append(weights)
        pairs_streams.append(pairs)
    return weight_streams, pairs_streams


# --- metric normalization ------------------------------------------------------

def normalize_metric(d_values: ModulusSample, n: int) -> ModulusSample:
    """Lift a pseudo-metric to a metric: distinct points at distance >= 2**-n.

    Zero on the diagonal, 2**-n for distinct points closer than 2**-n, the
    original distance otherwise.
    """
    floor = 2.0 ** (-n)
    table = np.where(d_values.psi <= floor, floor, d_values.psi)
    np.fill_diagonal(table, 0.0)
    return ModulusSample(d_values.points, table, d_values.name)


# --- Cesaro-Koch curve ---------------------------------------------------------

@dataclass(frozen=True)
class KochParams:
    """Cesaro-Koch curve with four similitudes of ratio r = 4**-rho.

    The generator runs through (0,0), (r,0), (1/2,h), (1-r,0), (1,0) with
    h = sqrt(r**2 - (1/2 - r)**2); r = 1/4 degenerates to the straight
    segment and r = 1/2 fills the lens.  Points are evaluated by base-4 digit
    expansion to ``depth``; unit intervals [i, i+1] are translated by
    interval_offset * i along the x axis.
    """

    rho: float
    r: float
    depth: int = 12
    interval_offset: float = 2.0

    def __post_init__(self):
        object.__setattr__(self, "rho", float(self.rho))
        object.__setattr__(self, "r", float(self.r))
        object.__setattr__(self, "depth", int(self.depth))
        object.__setattr__(self, "interval_offset", float(self.interval_offset))
        if self.depth < 1:
            raise ValueError("depth must be at least 1")
        if not (0.25 <= self.r <= 0.5):
            raise ValueError("contraction ratio r must lie in [1/4, 1/2]")
        if not DEFAULT_TOL.close(self.r, 4.0 ** (-self.rho)):
            raise ValueError("r and rho must satisfy r = 4**-rho")

    @classmethod
    def from_rho(cls, rho: float, depth: int = 12, interval_offset: float = 2.0) -> "KochParams":
        return cls(rho, 4.0 ** (-float(rho)), depth, interval_offset)

    @classmethod
    def from_r(cls, r: float, depth: int = 12, interval_offset: float = 2.0) -> "KochParams":
        return cls(-math.log(float(r)) / math.log(4.0), r, depth, interval_offset)

    @property
    def height(self) -> float:
        gap = self.r * self.r - (0.5 - self.r) ** 2
        return math.sqrt(max(gap, 0.0))

    def generator(self) -> tuple[complex, ...]:
        r, h = self.r, self.height
        return (0.0 + 0.0j, complex(r, 0.0), complex(0.5, h), complex(1.0 - r, 0.0), 1.0 + 0.0j)

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "r": self.r,
            "depth": self.depth,
            "interval_offset": self.interval_offset,
        }


def koch_point(params: KochParams, s: float) -> tuple[float, float]:
    """Curve point at parameter s, by base-4 digit expansion to the set depth."""
    s = float(s)
    i = math.floor(s)
    frac = s - i
    if frac == 0.0 and i > 0:
        # integer parameters close the interval on the left
        i -= 1
        frac = 1.0
    vertices = params.generator()
    anchors = vertices[:4]
    deltas = tuple(vertices[k + 1] - vertices[k] for k in range(4))
    t = frac
    digits = []
    for _ in range(params.depth):
        t *= 4.0
        dig = min(int(t), 3)
        t -= dig
        digits.append(dig)
    z = complex(t, 0.0)
    for dig in reversed(digits):
        z = anchors[dig] + deltas[dig] * z
    return (z.real + params.interval_offset * i, z.imag)


def koch_interleave(x, params: KochParams):
    """Map x(k) to coordinates (2k, 2k+1) of the curve image."""
    out = []
    for value in x:
        px, py = koch_point(params, float(value))
        out.append(px)
        out.append(py)
    return out


@dataclass(frozen=True)
class HolderEstimate:
    """Two-sided Holder ratio scan plus the plane norm-chain verification."""

    rho: float
    q: float
    m_prime: float
    M_prime: float
    min_pair: tuple[float, float]
    max_pair: tuple[float, float]
    pair_count: int
    norm_chain_ok: bool
    norm_chain_max_violation: float

    def to_dict(self) -> dict:
        return {
            "rho": self.rho,
            "q": self.q,
            "m_prime": self.m_prime,
            "M_prime": self.M_prime,
            "min_pair": list(self.min_pair),
            "max_pair": list(self.max_pair),
            "pair_count": self.pair_count,
            "norm_chain_ok": self.norm_chain_ok,
            "norm_chain_max_violation": self.norm_chain_max_violation,
        }


def estimate_holder(
    params: KochParams,
    sample_pairs,
    q: float = 1.0,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> HolderEstimate:
    """Min and max of ||K(s) - K(t)|| / |s - t|**rho over the sampled pairs.

    Every pair must be distinct, fit inside one window [i-1, i+1], and be
    coarser than the evaluation resolution 4**-depth.  The difference vectors
    are also run through the plane norm chain
    ||w||_2 / sqrt(2) <= ||w||_inf <= ||w||_q <= 2**(1/q) ||w||_inf
    <= 2**(1/q) ||w||_2.
    """
    pairs = [(float(s), float(t)) for s, t in sample_pairs]
    if not pairs:
        raise ValueError("need at least one sample pair")
    if q <= 0.0:
        raise ValueError("q must be positive")
    try:
        lift = 2.0 ** (1.0 / q)
    except OverflowError:
        lift = math.inf
    if not math.isfinite(lift):
        raise ValueError(f"2**(1/q) is not a finite float for q = {q!r}")
    resolution = 4.0 ** (-params.depth)
    ratios = []
    worst_violation = 0.0
    for s, t in pairs:
        if s == t:
            raise ValueError(f"pair ({s}, {t}) is not distinct")
        if math.ceil(max(s, t)) - math.floor(min(s, t)) > 2:
            raise ValueError(f"pair ({s}, {t}) does not fit a single window [i-1, i+1]")
        if abs(s - t) <= resolution:
            raise ValueError(
                f"pair ({s}, {t}) is finer than the evaluation resolution 4**-{params.depth}"
            )
        xs, ys = koch_point(params, s)
        xt, yt = koch_point(params, t)
        dx, dy = xs - xt, ys - yt
        n2 = math.hypot(dx, dy)
        ratios.append(n2 / abs(s - t) ** params.rho)
        n_inf = max(abs(dx), abs(dy))
        n_q = (abs(dx) ** q + abs(dy) ** q) ** (1.0 / q)
        chain = (
            n2 / math.sqrt(2.0) - n_inf,
            n_inf - n_q,
            n_q - lift * n_inf,
            lift * n_inf - lift * n2,
        )
        worst_violation = max(worst_violation, max(chain))
    arr = np.asarray(ratios)
    i_min = int(arr.argmin())
    i_max = int(arr.argmax())
    slack = tol.eps_abs + tol.eps_rel
    return HolderEstimate(
        rho=params.rho,
        q=q,
        m_prime=float(arr[i_min]),
        M_prime=float(arr[i_max]),
        min_pair=pairs[i_min],
        max_pair=pairs[i_max],
        pair_count=len(pairs),
        norm_chain_ok=worst_violation <= slack,
        norm_chain_max_violation=worst_violation,
    )
