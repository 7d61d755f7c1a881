"""Structural conditions decided at finite scale.

Covers the quasi-metric constants of a modulus sample (symmetry and triangle
comparability up to a factor C), pointwise comparison of two moduli, greedy
witnesses for divergence-with-small-terms, threshold relations F = {psi < c}
with validity analysis, the trichotomy classifier built on top of them, and
the Mazur-Orlicz doubling/domination conditions for linearity of the
summability class N_f.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import (
    DEFAULT_TOL,
    FamilyDescription,
    FunctionModulus,
    IndicatorModulus,
    ModulusSample,
    ModulusSpec,
    PiecewiseModulus,
    Point,
    PowerModulus,
    TableModulus,
    ToleranceConfig,
)

INFINITE = math.inf

DEFAULT_C_GRID: tuple[float, ...] = tuple(2.0 ** -k for k in range(11))

BRANCH_L1 = "L1_LIKE"
BRANCH_E1 = "E1_LIKE"
BRANCH_E0 = "E0_LIKE"
BRANCH_TRIVIAL = "TRIVIAL"
BRANCH_UNDECIDED = "UNDECIDED"


# --- quasi-metric constants ---------------------------------------------------

@dataclass(frozen=True)
class RatioWitness:
    """Extremal configuration realizing a reported constant."""

    labels: tuple[str, ...]
    ratio: float

    def to_dict(self) -> dict:
        return {
            "labels": list(self.labels),
            "ratio": self.ratio if math.isfinite(self.ratio) else "INFINITE",
        }


@dataclass(frozen=True)
class QuasiConstants:
    """Minimal constants making a sampled modulus symmetric and triangle-like.

    c_sym is the least C with psi(v,u) <= C*psi(u,v) over all sampled pairs,
    c_tri the least C with psi(u,r) <= C*(psi(u,v)+psi(v,r)) over all sampled
    triples; both are clamped to >= 1 and become INFINITE when a zero
    denominator faces a positive numerator.  c_diag_violation is the largest
    |psi(u,u)| found.
    """

    c_diag_violation: float
    c_sym: float
    c_tri: float
    diag_witness: str | None = None
    sym_witness: RatioWitness | None = None
    tri_witness: RatioWitness | None = None

    @property
    def finite(self) -> bool:
        return math.isfinite(self.c_sym) and math.isfinite(self.c_tri)

    def to_dict(self) -> dict:
        return {
            "c_diag_violation": self.c_diag_violation,
            "c_sym": self.c_sym if math.isfinite(self.c_sym) else "INFINITE",
            "c_tri": self.c_tri if math.isfinite(self.c_tri) else "INFINITE",
            "diag_witness": self.diag_witness,
            "sym_witness": self.sym_witness.to_dict() if self.sym_witness else None,
            "tri_witness": self.tri_witness.to_dict() if self.tri_witness else None,
        }


def _max_ratio(num: np.ndarray, den: np.ndarray, tol: ToleranceConfig):
    """Max of num/den with zero-denominator semantics.

    A denominator <= eps_abs makes the constraint vacuous when the numerator
    is also <= eps_abs and INFINITE otherwise.  Returns (ratio, flat_index)
    with ratio possibly inf and flat_index None when every entry is vacuous.
    """
    bad = (den <= tol.eps_abs) & (num > tol.eps_abs)
    if bad.any():
        return INFINITE, int(np.flatnonzero(bad.ravel())[0])
    live = den > tol.eps_abs
    if not live.any():
        return None, None
    safe_den = np.where(live, den, 1.0)
    ratios = np.where(live, num / safe_den, -np.inf)
    idx = int(np.argmax(ratios.ravel()))
    return float(ratios.ravel()[idx]), idx


def quasi_constants(s: ModulusSample, tol: ToleranceConfig = DEFAULT_TOL) -> QuasiConstants:
    """Exhaustive scan of all ordered pairs and triples of the sample."""
    psi = s.psi
    m = s.size
    diag = np.abs(np.diag(psi))
    c_diag = float(diag.max())
    diag_witness = s.points[int(diag.argmax())] if c_diag > tol.eps_abs else None

    if m == 1:
        return QuasiConstants(c_diag, 1.0, 1.0, diag_witness)

    sym_ratio, idx = _max_ratio(psi.T, psi, tol)
    if sym_ratio is None:
        c_sym, sym_witness = 1.0, None
    else:
        i, j = divmod(idx, m)
        sym_witness = RatioWitness((s.points[i], s.points[j]), sym_ratio)
        c_sym = max(1.0, sym_ratio)

    num3 = np.broadcast_to(psi[:, None, :], (m, m, m))
    den3 = psi[:, :, None] + psi[None, :, :]
    tri_ratio, idx = _max_ratio(num3, den3, tol)
    if tri_ratio is None:
        c_tri, tri_witness = 1.0, None
    else:
        i, rest = divmod(idx, m * m)
        j, k = divmod(rest, m)
        tri_witness = RatioWitness((s.points[i], s.points[j], s.points[k]), tri_ratio)
        c_tri = max(1.0, tri_ratio)

    return QuasiConstants(c_diag, c_sym, c_tri, diag_witness, sym_witness, tri_witness)


def compare_moduli(
    psi: ModulusSample, phi: ModulusSample, tol: ToleranceConfig = DEFAULT_TOL
) -> float | None:
    """Minimal A >= 1 with phi <= A*psi pointwise, or None when no finite A works."""
    if set(psi.points) != set(phi.points):
        raise ValueError("samples must share the same point set")
    perm = [phi.index(p) for p in psi.points]
    ratio, _ = _max_ratio(phi.psi[np.ix_(perm, perm)], psi.psi, tol)
    if ratio is None:
        return 1.0
    if ratio == INFINITE:
        return None
    return max(1.0, ratio)


def compare_moduli_two_sided(
    psi: ModulusSample, phi: ModulusSample, tol: ToleranceConfig = DEFAULT_TOL
) -> float | None:
    """Minimal A >= 1 with A**-1*psi <= phi <= A*psi, or None."""
    fwd = compare_moduli(psi, phi, tol)
    bwd = compare_moduli(phi, psi, tol)
    if fwd is None or bwd is None:
        return None
    return max(fwd, bwd)


# --- divergence-with-small-terms witness --------------------------------------

@dataclass(frozen=True)
class WitnessTerm:
    coord: int
    u: Point
    v: Point
    value: float

    def to_dict(self) -> dict:
        return {"coord": self.coord, "u": self.u, "v": self.v, "value": self.value}


@dataclass(frozen=True)
class L1Witness:
    """Per-coordinate pairs with modulus below c accumulating to >= target."""

    c: float
    target: float
    terms: tuple[WitnessTerm, ...]
    total: float

    def to_dict(self) -> dict:
        return {
            "c": self.c,
            "target": self.target,
            "total": self.total,
            "terms": [t.to_dict() for t in self.terms],
        }


def best_admissible(spec: ModulusSpec, c: float, tol: ToleranceConfig = DEFAULT_TOL):
    """Largest attainable psi value strictly below c for one coordinate.

    Finite coordinates are scanned exhaustively, so the returned value is the
    true per-coordinate maximum and a failed accumulation proves no witness
    exists at this truncation.  Continuous coordinates realize c*(1-eps_rel)
    since the supremum below c is not attained.
    """
    if isinstance(spec, (TableModulus, IndicatorModulus)):
        sample = spec.as_sample()
        vals = sample.psi
        mask = vals < c
        if not mask.any():
            return None
        masked = np.where(mask, vals, -np.inf)
        idx = int(np.argmax(masked.ravel()))
        i, j = divmod(idx, sample.size)
        return sample.points[i], sample.points[j], float(vals[i, j])

    shrink = 1.0 - tol.eps_rel
    if isinstance(spec, PowerModulus):
        lo, hi = spec.domain
        diam = spec.diameter
        vmax = diam ** spec.p
        if vmax < c:
            return lo, hi, vmax
        t = (c * shrink) ** (1.0 / spec.p)
        t = min(t, diam)
        value = t ** spec.p
        for _ in range(64):
            if value < c:
                break
            t *= shrink
            value = t ** spec.p
        else:
            return None
        return lo, min(lo + t, hi), value

    if isinstance(spec, FunctionModulus):
        f = spec.f
        diam = spec.diameter
        candidates = [diam]
        candidates += [t for t in f.breakpoints if 0.0 < t <= diam]
        candidates += [t for t in f.joins if 0.0 < t <= diam]
        lo_t = min(f.breakpoints[-1], diam) * 0.5
        candidates += list(np.geomspace(lo_t, diam, 257))
        # analytic candidate on the final rising piece, value just below c
        v0 = min(c * shrink, f.peak(len(f.breakpoints) - 1))
        t_lin = v0 / f.slopes[-1]
        if 0.0 < t_lin <= diam:
            candidates.append(t_lin)
        best = None
        for t in candidates:
            value = f.value(t)
            if value < c and (best is None or value > best[1]):
                best = (t, value)
        if best is None:
            return None
        lo = spec.domain[0]
        return lo, min(lo + best[0], spec.domain[1]), best[1]

    raise TypeError(f"unsupported coordinate spec {type(spec).__name__}")


def search_l1_witness(
    fam: FamilyDescription,
    c: float,
    target: float,
    budget: int | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> L1Witness | None:
    """Greedy accumulation of per-coordinate maxima below c until >= target.

    Returns None when the truncation cannot accumulate the target; because the
    per-coordinate choice is maximal, absence is conclusive for this family.
    """
    if not c > 0.0:
        raise ValueError("threshold c must be positive")
    if not target > 0.0:
        raise ValueError("target must be positive")
    budget = fam.size if budget is None else budget
    if budget < fam.size:
        raise ValueError("budget must cover every coordinate of the family")
    terms: list[WitnessTerm] = []
    total = 0.0
    for n, spec in enumerate(fam.coords):
        found = best_admissible(spec, c, tol)
        if found is None:
            continue
        u, v, value = found
        terms.append(WitnessTerm(n, u, v, value))
        total += value
        if total >= target:
            return L1Witness(c, target, tuple(terms), total)
    return None


# --- threshold relations ------------------------------------------------------

@dataclass(frozen=True)
class ThresholdRelation:
    """The pairs {psi < c} of one coordinate with equivalence-validity analysis."""

    coord: int
    threshold: float
    points: tuple[str, ...]
    pairs: frozenset[tuple[str, str]]
    reflexive: bool
    symmetric: bool
    transitive: bool
    violations: tuple[tuple, ...]
    classes: tuple[tuple[str, ...], ...] | None
    class_count: int | None

    @property
    def valid(self) -> bool:
        return self.reflexive and self.symmetric and self.transitive

    def to_dict(self) -> dict:
        return {
            "coord": self.coord,
            "threshold": self.threshold,
            "points": list(self.points),
            "pair_count": len(self.pairs),
            "reflexive": self.reflexive,
            "symmetric": self.symmetric,
            "transitive": self.transitive,
            "violations": [list(v) for v in self.violations],
            "classes": [list(c) for c in self.classes] if self.classes is not None else None,
            "class_count": self.class_count,
        }


_VIOLATION_CAP = 20


def _relation_product(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """(a o b)[i, k] iff a[i, j] and b[j, k] for some j, by float32 BLAS matmul.

    Path counts are exact below 2**24, and a rounded sum of 0/1 products is
    still positive, so the boolean result is exact at any size.
    """
    return (a.astype(np.float32) @ b.astype(np.float32)) > 0


def _partition_from_pairs(points: tuple[str, ...], adj: np.ndarray):
    """Union-find over the adjacency matrix of a valid relation."""
    parent = list(range(len(points)))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(adj)
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups: dict[int, list[str]] = {}
    for i, p in enumerate(points):
        groups.setdefault(find(i), []).append(p)
    classes = tuple(tuple(groups[r]) for r in sorted(groups))
    return classes


def build_threshold_relation(
    spec: ModulusSpec,
    c: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    grid=None,
    coord: int = 0,
) -> ThresholdRelation:
    """Pairs below the threshold plus reflexivity/symmetry/transitivity verdicts."""
    sample = spec.as_sample(grid)
    adj = sample.psi < c
    points = sample.points

    violations: list[tuple] = []
    refl = bool(adj.diagonal().all())
    if not refl:
        for i in np.flatnonzero(~adj.diagonal())[:_VIOLATION_CAP]:
            violations.append(("reflexive", points[int(i)]))

    sym_bad = adj & ~adj.T
    sym = not sym_bad.any()
    if not sym:
        for i, j in np.argwhere(sym_bad)[:_VIOLATION_CAP]:
            violations.append(("symmetric", points[int(i)], points[int(j)]))

    trans_bad = _relation_product(adj, adj) & ~adj
    trans = not trans_bad.any()
    if not trans:
        for i, k in np.argwhere(trans_bad)[:_VIOLATION_CAP]:
            j = int(np.flatnonzero(adj[int(i)] & adj[:, int(k)])[0])
            violations.append(("transitive", points[int(i)], points[j], points[int(k)]))

    classes = None
    count = None
    if refl and sym and trans:
        classes = _partition_from_pairs(points, adj)
        count = len(classes)

    pairs = frozenset(
        (points[int(i)], points[int(j)]) for i, j in np.argwhere(adj)
    )
    return ThresholdRelation(
        coord=coord,
        threshold=c,
        points=points,
        pairs=pairs,
        reflexive=refl,
        symmetric=sym,
        transitive=trans,
        violations=tuple(violations),
        classes=classes,
        class_count=count,
    )


# --- trichotomy classifier ----------------------------------------------------

@dataclass(frozen=True)
class ClassifierThresholds:
    """Knobs of the desk-scale classifier.

    class_growth_bound is the finite stand-in for "perfectly many classes";
    grid_points controls how continuous coordinates are sampled when building
    threshold relations.
    """

    target: float = 1.0
    budget: int | None = None
    class_growth_bound: int = 16
    grid_points: int = 33

    def to_dict(self) -> dict:
        return {
            "target": self.target,
            "budget": self.budget,
            "class_growth_bound": self.class_growth_bound,
            "grid_points": self.grid_points,
        }


@dataclass(frozen=True)
class TrichotomyReport:
    branch: str
    l1_witness: L1Witness | None
    fn_reports: tuple[ThresholdRelation, ...]
    c_grid: tuple[float, ...]
    c_star: float | None
    thresholds: ClassifierThresholds
    observed_prefix: int | None
    narrative: tuple[str, ...]

    def to_dict(self) -> dict:
        return {
            "branch": self.branch,
            "l1_witness": self.l1_witness.to_dict() if self.l1_witness else None,
            "fn_reports": [r.to_dict() for r in self.fn_reports],
            "c_grid": list(self.c_grid),
            "c_star": self.c_star,
            "thresholds": self.thresholds.to_dict(),
            "observed_prefix": self.observed_prefix,
            "narrative": list(self.narrative),
        }


def coordinate_grid(spec: ModulusSpec, grid_points: int):
    """Evenly spaced grid over a continuous coordinate's domain; None for a finite one."""
    if isinstance(spec, (PowerModulus, FunctionModulus)):
        lo, hi = spec.domain
        return np.linspace(lo, hi, grid_points)
    return None


def classify_trichotomy(
    fam: FamilyDescription,
    c_grid=None,
    thresholds: ClassifierThresholds | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> TrichotomyReport:
    """Decide which branch of the trichotomy the truncated family exhibits.

    L1_LIKE requires a divergence witness for every threshold in the grid.
    Otherwise threshold relations are built at the smallest failing threshold;
    invalid relations are tolerated only as an initial prefix, and the branch
    is read off the class counts in the trailing half of the valid suffix:
    all counts above the growth bound mean E1_LIKE, all equal to one mean
    TRIVIAL, counts confined to [2, bound] (ones allowed) mean E0_LIKE, and
    anything mixed is reported UNDECIDED.
    """
    if c_grid is None:
        c_grid = DEFAULT_C_GRID
    grid = tuple(sorted(set(float(c) for c in c_grid), reverse=True))
    if not grid or grid[-1] <= 0.0:
        raise ValueError("c_grid must be non-empty with positive thresholds")
    th = thresholds or ClassifierThresholds()

    narrative: list[str] = []
    if fam.tail is not None:
        narrative.append(f"declared tail annotation {fam.tail!r} (reported only, never summed)")
    narrative.append(
        f"growth bound {th.class_growth_bound} is a finite stand-in for "
        "'perfectly many classes'; verdicts describe this truncation only"
    )

    witnesses: dict[float, L1Witness | None] = {}
    for c in grid:
        witnesses[c] = search_l1_witness(fam, c, th.target, th.budget, tol)
        if witnesses[c] is None:
            narrative.append(f"c={c:g}: no witness with sum >= {th.target:g} at this truncation")
        else:
            w = witnesses[c]
            narrative.append(f"c={c:g}: witness total {w.total:.6g} over {len(w.terms)} coordinates")

    failing = [c for c in grid if witnesses[c] is None]
    if not failing:
        narrative.append("small-terms divergence realized for every threshold in the grid")
        return TrichotomyReport(
            branch=BRANCH_L1,
            l1_witness=witnesses[grid[-1]],
            fn_reports=(),
            c_grid=grid,
            c_star=None,
            thresholds=th,
            observed_prefix=None,
            narrative=tuple(narrative),
        )

    c_star = min(failing)
    narrative.append(f"building threshold relations at smallest failing threshold c={c_star:g}")
    reports = tuple(
        build_threshold_relation(spec, c_star, tol, coordinate_grid(spec, th.grid_points), coord=n)
        for n, spec in enumerate(fam.coords)
    )

    invalid = [r.coord for r in reports if not r.valid]
    prefix = 0
    while prefix < len(invalid) and invalid[prefix] == prefix:
        prefix += 1
    if len(invalid) > prefix:
        narrative.append(
            f"threshold relation invalid beyond the initial prefix at coordinate {invalid[prefix]}; "
            "this contradicts cofinite validity, verdict undecided"
        )
        return TrichotomyReport(
            BRANCH_UNDECIDED, None, reports, grid, c_star, th, prefix, tuple(narrative)
        )
    if prefix:
        narrative.append(f"tolerated invalid initial prefix of length {prefix}")

    counts = [r.class_count for r in reports[prefix:]]
    if not counts:
        narrative.append("no valid coordinates beyond the prefix; verdict undecided")
        return TrichotomyReport(
            BRANCH_UNDECIDED, None, reports, grid, c_star, th, prefix, tuple(narrative)
        )

    window = counts[-((len(counts) + 1) // 2):]
    bound = th.class_growth_bound
    narrative.append(
        f"tail window of {len(window)} coordinates, class counts min {min(window)} max {max(window)}"
    )
    if all(k > bound for k in window):
        narrative.append(f"every tail-window count exceeds the growth bound {bound}: E1-like")
        branch = BRANCH_E1
    elif all(k == 1 for k in window):
        narrative.append("single class on the whole tail window: trivial relation")
        branch = BRANCH_TRIVIAL
    elif max(window) <= bound and any(k >= 2 for k in window):
        narrative.append(f"tail-window counts stay within [2, {bound}] infinitely often: E0-like")
        branch = BRANCH_E0
    else:
        narrative.append("tail-window counts mix bounded and unbounded evidence: undecided")
        branch = BRANCH_UNDECIDED
    return TrichotomyReport(branch, None, reports, grid, c_star, th, prefix, tuple(narrative))


# --- Mazur-Orlicz linearity conditions ----------------------------------------

@dataclass(frozen=True)
class MazurOrliczParams:
    """Windows for the unreduced conditions plus the growth detector knobs.

    A finite grid always yields a finite max ratio, so UNBOUNDED is detected
    by scale growth: at least ``growth_min_records`` running-max records over
    the per-dyadic-band maxima, overall growth ``growth_factor``, with the
    last record falling in the final ``recency_fraction`` of the band range.
    """

    epsilon: float = 1.0
    delta: float = 1.0
    rho_list: tuple[float, ...] = (0.5, 1.0, 2.0)
    growth_min_records: int = 3
    growth_factor: float = 8.0
    recency_fraction: float = 0.25


@dataclass(frozen=True)
class ConditionReport:
    """Outcome of one condition scan over the grid.

    status BOUNDED carries the minimal constant over the grid, UNBOUNDED means
    the per-scale maxima keep growing toward small arguments, INFINITE means a
    zero denominator faced a positive numerator, VACUOUS means no eligible
    pair existed.
    """

    name: str
    status: str
    constant: float
    witness: tuple | None

    @property
    def bounded(self) -> bool:
        return self.status in ("BOUNDED", "VACUOUS")

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "status": self.status,
            "constant": self.constant if math.isfinite(self.constant) else "INFINITE",
            "witness": list(self.witness) if self.witness else None,
        }


class _RatioScan:
    """Tracks the max ratio, its witness, and per-dyadic-band maxima."""

    def __init__(self, name: str):
        self.name = name
        self.best = -math.inf
        self.witness: tuple | None = None
        self.infinite: tuple | None = None
        self.bands: dict[int, float] = {}
        self.seen = False

    def add(self, scale: float, num: float, den: float, witness: tuple) -> None:
        if self.infinite is not None:
            return
        # the values are function evaluations, not stored data, so only an
        # exact zero denominator counts as zero (genuine values can sit far
        # below any absolute tolerance at deep scales)
        if den <= 0.0:
            if num > 0.0:
                self.infinite = witness
            return
        self.seen = True
        ratio = num / den
        band = math.floor(-math.log2(scale)) if scale > 0.0 else 0
        if ratio > self.bands.get(band, -math.inf):
            self.bands[band] = ratio
        if ratio > self.best:
            self.best = ratio
            self.witness = witness

    def report(self, params: MazurOrliczParams) -> ConditionReport:
        if self.infinite is not None:
            return ConditionReport(self.name, "INFINITE", INFINITE, self.infinite)
        if not self.seen:
            return ConditionReport(self.name, "VACUOUS", 0.0, None)
        status = "UNBOUNDED" if self._growing(params) else "BOUNDED"
        return ConditionReport(self.name, status, self.best, self.witness)

    def _growing(self, params: MazurOrliczParams) -> bool:
        # coarse-to-fine per-band maxima; the constant is out of sight when
        # running-max records keep appearing toward the finest scales
        ordered = [self.bands[b] for b in sorted(self.bands)]
        records = []
        running = -math.inf
        for pos, value in enumerate(ordered):
            if value > running:
                running = value
                records.append(pos)
        if len(records) < params.growth_min_records:
            return False
        first, last = records[0], records[-1]
        if not ordered[last] >= params.growth_factor * max(ordered[first], 1e-300):
            return False
        return last >= (len(ordered) - 1) * (1.0 - params.recency_fraction)


def _as_callable(f):
    if isinstance(f, PiecewiseModulus):
        return f.value
    if callable(f):
        return f
    raise TypeError("f must be a PiecewiseModulus or a callable on the non-negative reals")


def mazur_orlicz_check(
    f,
    grid,
    params: MazurOrliczParams | None = None,
    tol: ToleranceConfig = DEFAULT_TOL,
):
    """Scan the doubling and domination conditions for linearity of N_f.

    Works on fbar = min(f, 1).  The reduced conditions decide the verdict:
    LINEAR_LIKELY iff fbar(2s) <= C'*fbar(s) and fbar(s) <= D'*fbar(t) for
    s < t both stay bounded over the grid.  The unreduced conditions (with
    their epsilon/delta/rho windows) are reported alongside.
    """
    params = params or MazurOrliczParams()
    fn = _as_callable(f)
    ts = sorted(set(float(t) for t in grid))
    if not ts or ts[0] <= 0.0:
        raise ValueError("grid must be non-empty and strictly positive")

    def fbar(t: float) -> float:
        v = fn(t)
        if v < -tol.eps_abs:
            raise ValueError(f"modulus is negative at {t}: {v}")
        return min(max(v, 0.0), 1.0)

    vals = {t: fbar(t) for t in ts}

    scan_a = _RatioScan("a")
    for s in ts:
        if s >= params.epsilon:
            break
        for t in ts:
            if t >= params.epsilon:
                break
            scan_a.add(min(s, t), fbar(s + t), vals[s] + vals[t], (s, t))

    cond_b = []
    for rho in params.rho_list:
        scan = _RatioScan(f"b(rho={rho:g})")
        for t in ts:
            if t >= params.delta:
                break
            for s in ts:
                if s >= rho * t:
                    break
                scan.add(t, vals[s], vals[t], (s, t))
        cond_b.append((rho, scan.report(params)))

    scan_a2 = _RatioScan("a'")
    for s in ts:
        scan_a2.add(s, fbar(2.0 * s), fbar(s), (s,))

    scan_b2 = _RatioScan("b'")
    for i, s in enumerate(ts):
        for t in ts[i + 1:]:
            scan_b2.add(s, vals[s], vals[t], (s, t))

    a_prime = scan_a2.report(params)
    b_prime = scan_b2.report(params)
    verdict = "LINEAR_LIKELY" if (a_prime.bounded and b_prime.bounded) else "NOT_LINEAR"
    return MazurOrliczVerdict(
        cond_a=scan_a.report(params),
        cond_b=tuple(cond_b),
        cond_a_prime=a_prime,
        cond_b_prime=b_prime,
        verdict=verdict,
    )


@dataclass(frozen=True)
class MazurOrliczVerdict:
    cond_a: ConditionReport
    cond_b: tuple[tuple[float, ConditionReport], ...]
    cond_a_prime: ConditionReport
    cond_b_prime: ConditionReport
    verdict: str

    def to_dict(self) -> dict:
        return {
            "a": self.cond_a.to_dict(),
            "b": [{"rho": rho, **rep.to_dict()} for rho, rep in self.cond_b],
            "a_prime": self.cond_a_prime.to_dict(),
            "b_prime": self.cond_b_prime.to_dict(),
            "verdict": self.verdict,
        }
