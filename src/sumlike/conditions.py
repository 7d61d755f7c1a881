"""Structural conditions decided at finite scale.

Covers the quasi-metric constants of a modulus sample (symmetry and triangle
comparability up to a factor C), pointwise comparison of two moduli, greedy
witnesses for divergence-with-small-terms, threshold relations F = {psi < c}
with validity analysis, the trichotomy classifier built on top of them, and
the Mazur-Orlicz doubling/domination conditions for linearity of the
summability class N_f.

The Mazur-Orlicz scans have fixed windows and fold one grid row at a time
through ``_max_ratio``, the kernel of the quasi-metric constants.
"""

from __future__ import annotations

import math
from bisect import bisect_left
from dataclasses import asdict, dataclass

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


def _max_ratio(num: np.ndarray, den: np.ndarray, zero: float):
    """Max of num/den with zero-denominator semantics.

    A denominator <= zero makes the constraint vacuous when the numerator is
    also <= zero and INFINITE otherwise.  Returns (ratio, flat_index) for the
    first maximum (or the first INFINITE entry) in flat order, and
    (None, None) when every entry is vacuous.
    """
    bad = (den <= zero) & (num > zero)
    if bad.any():
        return INFINITE, int(np.flatnonzero(bad.ravel())[0])
    live = den > zero
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

    sym_ratio, idx = _max_ratio(psi.T, psi, tol.eps_abs)
    if sym_ratio is None:
        c_sym, sym_witness = 1.0, None
    else:
        i, j = divmod(idx, m)
        sym_witness = RatioWitness((s.points[i], s.points[j]), sym_ratio)
        c_sym = max(1.0, sym_ratio)

    num3 = np.broadcast_to(psi[:, None, :], (m, m, m))
    den3 = psi[:, :, None] + psi[None, :, :]
    tri_ratio, idx = _max_ratio(num3, den3, tol.eps_abs)
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
    ratio, _ = _max_ratio(phi.psi[np.ix_(perm, perm)], psi.psi, tol.eps_abs)
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


@dataclass(frozen=True)
class L1Witness:
    """Per-coordinate pairs with modulus below c accumulating to >= target."""

    c: float
    target: float
    terms: tuple[WitnessTerm, ...]
    total: float

    def to_dict(self) -> dict:
        return asdict(self)


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
        values = f.values(candidates)
        below = values < c
        if not below.any():
            return None
        best = int(np.argmax(np.where(below, values, -np.inf)))
        lo = spec.domain[0]
        return lo, min(lo + candidates[best], spec.domain[1]), float(values[best])

    raise TypeError(f"unsupported coordinate spec {type(spec).__name__}")


def _spec_key(spec: ModulusSpec):
    """Dict key of coordinate specs that give bit-identical answers."""
    # tables compare bitwise and partitions hold no floats; a repr shows every
    # float exactly, where -0.0 == 0.0 would let a witness change sign
    return spec if isinstance(spec, (TableModulus, IndicatorModulus)) else repr(spec)


def search_l1_witness(
    fam: FamilyDescription,
    c: float,
    target: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> L1Witness | None:
    """Greedy accumulation of per-coordinate maxima below c until >= target.

    Returns None when the truncation cannot accumulate the target; because the
    per-coordinate choice is maximal, absence is conclusive for this family.
    ``best_admissible`` runs once per distinct coordinate spec in this call.
    """
    if not c > 0.0:
        raise ValueError("threshold c must be positive")
    if not target > 0.0:
        raise ValueError("target must be positive")
    best: dict = {}
    terms: list[WitnessTerm] = []
    total = 0.0
    for n, spec in enumerate(fam.coords):
        key = _spec_key(spec)
        if key not in best:
            best[key] = best_admissible(spec, c, tol)
        found = best[key]
        if found is None:
            continue
        u, v, value = found
        terms.append(WitnessTerm(n, u, v, value))
        total += value
        if total >= target:
            return L1Witness(c, target, tuple(terms), total)
    return None


# --- threshold relations ------------------------------------------------------

@dataclass(frozen=True, eq=False)
class ThresholdRelation:
    """The relation {psi < c} on one coordinate with equivalence-validity analysis."""

    threshold: float
    points: tuple[str, ...]
    adjacency: np.ndarray  # read-only boolean matrix, indexed like points
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
            "threshold": self.threshold,
            "points": list(self.points),
            "pair_count": int(self.adjacency.sum()),
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


def build_threshold_relation(
    spec: ModulusSpec,
    c: float,
    tol: ToleranceConfig = DEFAULT_TOL,
    grid=None,
) -> ThresholdRelation:
    """Pairs below the threshold plus reflexivity/symmetry/transitivity verdicts."""
    sample = spec.as_sample(grid)
    adj = sample.psi < c
    adj.flags.writeable = False
    points = sample.points

    violations: list[tuple] = []
    refl = bool(adj.diagonal().all())
    for i in np.flatnonzero(~adj.diagonal())[:_VIOLATION_CAP]:
        violations.append(("reflexive", points[int(i)]))

    sym_bad = adj & ~adj.T
    sym = not sym_bad.any()
    for i, j in np.argwhere(sym_bad)[:_VIOLATION_CAP]:
        violations.append(("symmetric", points[int(i)], points[int(j)]))

    trans_bad = _relation_product(adj, adj) & ~adj
    trans = not trans_bad.any()
    for i, k in np.argwhere(trans_bad)[:_VIOLATION_CAP]:
        j = int(np.flatnonzero(adj[int(i)] & adj[:, int(k)])[0])
        violations.append(("transitive", points[int(i)], points[j], points[int(k)]))

    classes = None
    count = None
    if refl and sym and trans:
        # a class's first member is the first True of each of its rows, so
        # grouping by it in point order lists the classes by first member
        groups: dict[int, list[str]] = {}
        for i, root in enumerate(adj.argmax(axis=1).tolist()):
            groups.setdefault(root, []).append(points[i])
        classes = tuple(tuple(g) for g in groups.values())
        count = len(classes)

    return ThresholdRelation(
        threshold=c,
        points=points,
        adjacency=adj,
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
    class_growth_bound: int = 16
    grid_points: int = 33

    def to_dict(self) -> dict:
        return asdict(self)


@dataclass(frozen=True)
class TrichotomyReport:
    branch: str
    l1_witness: L1Witness | None
    fn_reports: tuple[ThresholdRelation, ...]
    fn_runs: tuple[tuple[int, int], ...]
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
            "fn_runs": [list(run) for run in self.fn_runs],
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

    Coordinates with equal specs (floats compared by repr, so ``-0.0`` and
    ``0.0`` differ) share one ``best_admissible`` call per threshold and one
    threshold relation.  ``fn_reports`` lists each distinct relation once, in
    order of first appearance; ``fn_runs`` holds runs ``(first_coord,
    relation_index)``, each covering the coordinates up to the next run's
    first one (the last run up to the family's end).  Nothing is cached
    across calls.
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
        witnesses[c] = search_l1_witness(fam, c, th.target, tol)
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
            fn_runs=(),
            c_grid=grid,
            c_star=None,
            thresholds=th,
            observed_prefix=None,
            narrative=tuple(narrative),
        )

    c_star = min(failing)
    narrative.append(f"building threshold relations at smallest failing threshold c={c_star:g}")
    first: dict = {}  # spec key -> (relation index, first spec), in order of first appearance
    rel_of = [first.setdefault(_spec_key(spec), (len(first), spec))[0] for spec in fam.coords]
    relations = tuple(
        build_threshold_relation(spec, c_star, tol, coordinate_grid(spec, th.grid_points))
        for _, spec in first.values()
    )
    runs = tuple((n, k) for n, k in enumerate(rel_of) if n == 0 or rel_of[n - 1] != k)

    def report(branch: str, prefix: int) -> TrichotomyReport:
        return TrichotomyReport(
            branch, None, relations, runs, grid, c_star, th, prefix, tuple(narrative)
        )

    invalid = [n for n, k in enumerate(rel_of) if not relations[k].valid]
    prefix = 0
    while prefix < len(invalid) and invalid[prefix] == prefix:
        prefix += 1
    if len(invalid) > prefix:
        narrative.append(
            f"threshold relation invalid beyond the initial prefix at coordinate {invalid[prefix]}; "
            "this contradicts cofinite validity, verdict undecided"
        )
        return report(BRANCH_UNDECIDED, prefix)
    if prefix:
        narrative.append(f"tolerated invalid initial prefix of length {prefix}")

    counts = [relations[k].class_count for k in rel_of[prefix:]]
    if not counts:
        narrative.append("no valid coordinates beyond the prefix; verdict undecided")
        return report(BRANCH_UNDECIDED, prefix)

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
    return report(branch, prefix)


# --- Mazur-Orlicz linearity conditions ----------------------------------------

# Windows of the unreduced conditions: (a) scans s, t < MO_EPSILON and
# (b, rho) scans s < rho * t < rho * MO_DELTA for each rho in MO_RHOS.
MO_EPSILON = 1.0
MO_DELTA = 1.0
MO_RHOS = (0.5, 1.0, 2.0)

# A finite grid always yields a finite max ratio, so UNBOUNDED is detected by
# scale growth: at least GROWTH_MIN_RECORDS running-max records over the
# per-dyadic-band maxima, overall growth GROWTH_FACTOR, with the last record
# falling in the final GROWTH_RECENCY of the band range.
GROWTH_MIN_RECORDS = 3
GROWTH_FACTOR = 8.0
GROWTH_RECENCY = 0.25


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


def _growing(ordered: list[float]) -> bool:
    """Whether the coarse-to-fine per-band maxima keep setting records toward fine scales."""
    records = []
    running = -math.inf
    for pos, value in enumerate(ordered):
        if value > running:
            running = value
            records.append(pos)
    if len(records) < GROWTH_MIN_RECORDS:
        return False
    first, last = records[0], records[-1]
    if not ordered[last] >= GROWTH_FACTOR * max(ordered[first], 1e-300):
        return False
    return last >= (len(ordered) - 1) * (1.0 - GROWTH_RECENCY)


def _fold_rows(name: str, rows) -> ConditionReport:
    """One condition report from non-empty (scale, num, den array, pair) rows in scan order.

    A row lies in the dyadic band of its scale and ``pair(j)`` names entry j.
    Only an exact zero denominator counts as zero: genuine function values can
    sit far below any absolute tolerance at deep scales.  Rows compare with a
    strict >, so the witness is the first maximum (or INFINITE pair) in order.
    """
    best, witness, infinite = -math.inf, None, None
    bands: dict[int, float] = {}
    for scale, num, den, pair in rows:
        # dividing by a tiny value may overflow to inf, quietly as in Python;
        # only a zero denominator makes the pair INFINITE
        with np.errstate(over="ignore"):
            ratio, j = _max_ratio(num, den, 0.0)
        if ratio is None:
            continue
        if ratio == INFINITE and den[j] <= 0.0:
            if infinite is None:
                infinite = pair(j)
            continue
        band = math.floor(-math.log2(scale))
        bands[band] = max(bands.get(band, -math.inf), ratio)
        if ratio > best:
            best, witness = ratio, pair(j)
    if infinite is not None:
        return ConditionReport(name, "INFINITE", INFINITE, infinite)
    if not bands:
        return ConditionReport(name, "VACUOUS", 0.0, None)
    status = "UNBOUNDED" if _growing([bands[b] for b in sorted(bands)]) else "BOUNDED"
    return ConditionReport(name, status, best, witness)


def mazur_orlicz_check(f, grid, tol: ToleranceConfig = DEFAULT_TOL):
    """Scan the doubling and domination conditions for linearity of N_f.

    Works on fbar = min(f, 1).  The reduced conditions decide the verdict:
    LINEAR_LIKELY iff fbar(2s) <= C'*fbar(s) and fbar(s) <= D'*fbar(t) for
    s < t both stay bounded over the grid.  The unreduced conditions (with
    their MO_EPSILON/MO_DELTA/MO_RHOS windows) are reported alongside.  A
    PiecewiseModulus is evaluated a row at a time with ``values``; a plain
    callable is called on one Python float at a time.
    """
    if isinstance(f, PiecewiseModulus):
        evaluate = f.values
    elif callable(f):
        def evaluate(t: np.ndarray) -> np.ndarray:
            return np.array([f(x) for x in t.tolist()], dtype=np.float64)
    else:
        raise TypeError("f must be a PiecewiseModulus or a callable on the non-negative reals")
    ts = sorted(set(float(t) for t in grid))
    if not ts or ts[0] <= 0.0:
        raise ValueError("grid must be non-empty and strictly positive")
    x = np.array(ts)

    def fbar(t: np.ndarray) -> np.ndarray:
        v = evaluate(t)
        bad = ~(v >= -tol.eps_abs)
        if bad.any():
            i = int(np.argmax(bad))
            what = "NaN" if np.isnan(v[i]) else "negative"
            raise ValueError(f"modulus is {what} at {float(t[i])}: {float(v[i])}")
        # keeps a -0.0 as Python's max(v, 0.0) does; np.maximum need not
        return np.minimum(np.where(v < 0.0, 0.0, v), 1.0)

    # every argument is checked by fbar, in order: the grid, then the (a)
    # sums row by row, then the doubled grid
    vals = fbar(x)

    # (a) is symmetric: float + commutes, so fbar(s + t) and fbar(s) + fbar(t)
    # are the same bits either way round.  Scanning t >= s (band of s) finds the
    # whole square's maximum, band maxima, first witness and first INFINITE
    # pair at half the evaluations.
    e = bisect_left(ts, MO_EPSILON)
    cond_a = _fold_rows("a", (
        (ts[i], fbar(x[i] + x[i:e]), vals[i] + vals[i:e], lambda j, i=i: (ts[i], ts[i + j]))
        for i in range(e)
    ))

    cond_b = []
    for rho in MO_RHOS:
        below = np.searchsorted(x, rho * x)  # the s < rho * t form a prefix of the grid
        rows = (
            (ts[i], vals[:below[i]], np.full(below[i], vals[i]), lambda j, i=i: (ts[j], ts[i]))
            for i in range(bisect_left(ts, MO_DELTA))
            if below[i]
        )
        cond_b.append((rho, _fold_rows(f"b(rho={rho:g})", rows)))

    doubled = fbar(2.0 * x)
    a_prime = _fold_rows("a'", (
        (ts[i], doubled[i:i + 1], vals[i:i + 1], lambda j, i=i: (ts[i],)) for i in range(len(ts))
    ))
    b_prime = _fold_rows("b'", (
        (ts[i], vals[i], vals[i + 1:], lambda j, i=i: (ts[i], ts[i + 1 + j]))
        for i in range(len(ts) - 1)
    ))
    verdict = "LINEAR_LIKELY" if (a_prime.bounded and b_prime.bounded) else "NOT_LINEAR"
    return MazurOrliczVerdict(
        cond_a=cond_a,
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
