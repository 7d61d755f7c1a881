"""Array scans of Example 4 and the Mazur-Orlicz conditions against per-pair references.

The references below are the scalar ``PiecewiseModulus.value``, the
``_RatioScan`` accumulator and the two double loops the array code replaced,
kept verbatim apart from reading the Mazur-Orlicz windows from module
constants.  Every comparison is exact: floats by ``float.hex``, reports by
their ``repr`` or JSON text, errors by their message.
"""

import json
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from sumlike.catalog import (
    EXAMPLE4_PRESETS,
    Example4Spec,
    InequalityReport,
    build_example4,
    modulus_scan_grid,
    verify_example4_inequalities,
)
from sumlike.conditions import (
    GROWTH_FACTOR,
    GROWTH_MIN_RECORDS,
    GROWTH_RECENCY,
    INFINITE,
    MO_DELTA,
    MO_EPSILON,
    MO_RHOS,
    ConditionReport,
    MazurOrliczVerdict,
    best_admissible,
    mazur_orlicz_check,
)
from sumlike.core import DEFAULT_TOL, FunctionModulus, PiecewiseModulus

# --- references -------------------------------------------------------------------


def ref_value(f: PiecewiseModulus, t: float) -> float:
    if t < 0.0:
        raise ValueError("modulus argument must be non-negative")
    if t == 0.0:
        return 0.0
    a, k = f.breakpoints, f.slopes
    if t >= a[0]:
        return f.cap
    if t < a[-1]:
        return k[-1] * t
    n = 0
    while t < a[n + 1]:
        n += 1
    if t < f.joins[n]:
        return f.peak(n + 1) - k[n + 1] * (t - a[n + 1])
    return k[n] * t


def ref_inequalities(f: PiecewiseModulus, grid, tol=DEFAULT_TOL) -> InequalityReport:
    points = sorted(set(float(t) for t in grid))
    values = {t: ref_value(f, t) for t in points}
    worst_sub = (-math.inf, (points[0], points[0]))
    worst_rev = (-math.inf, (points[0], points[0]))
    for s in points:
        fs = values[s]
        for t in points:
            ft = values[t]
            fst = ref_value(f, s + t)
            sub = fst - (fs + ft)
            rev = fs - (fst + ft)
            if sub > worst_sub[0]:
                worst_sub = (sub, (s, t))
            if rev > worst_rev[0]:
                worst_rev = (rev, (s, t))
    return InequalityReport(
        max_subadd_violation=worst_sub[0],
        max_reverse_violation=worst_rev[0],
        worst_subadd_pair=worst_sub[1],
        worst_reverse_pair=worst_rev[1],
        pair_count=len(points) ** 2,
        eps_abs=tol.eps_abs,
    )


def ref_best_admissible(spec: FunctionModulus, c: float, tol=DEFAULT_TOL):
    f = spec.f
    diam = spec.diameter
    candidates = [diam]
    candidates += [t for t in f.breakpoints if 0.0 < t <= diam]
    candidates += [t for t in f.joins if 0.0 < t <= diam]
    lo_t = min(f.breakpoints[-1], diam) * 0.5
    candidates += list(np.geomspace(lo_t, diam, 257))
    v0 = min(c * (1.0 - tol.eps_rel), f.peak(len(f.breakpoints) - 1))
    t_lin = v0 / f.slopes[-1]
    if 0.0 < t_lin <= diam:
        candidates.append(t_lin)
    best = None
    for t in candidates:
        value = ref_value(f, t)
        if value < c and (best is None or value > best[1]):
            best = (t, value)
    if best is None:
        return None
    lo = spec.domain[0]
    return lo, min(lo + best[0], spec.domain[1]), best[1]


class RefRatioScan:
    def __init__(self, name: str):
        self.name = name
        self.best = -math.inf
        self.witness = None
        self.infinite = None
        self.bands: dict[int, float] = {}
        self.seen = False

    def add(self, scale, num, den, witness) -> None:
        if self.infinite is not None:
            return
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

    def report(self) -> ConditionReport:
        if self.infinite is not None:
            return ConditionReport(self.name, "INFINITE", INFINITE, self.infinite)
        if not self.seen:
            return ConditionReport(self.name, "VACUOUS", 0.0, None)
        status = "UNBOUNDED" if self._growing() else "BOUNDED"
        return ConditionReport(self.name, status, self.best, self.witness)

    def _growing(self) -> bool:
        ordered = [self.bands[b] for b in sorted(self.bands)]
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


def ref_mazur_orlicz(f, grid, tol=DEFAULT_TOL) -> MazurOrliczVerdict:
    fn = (lambda t: ref_value(f, t)) if isinstance(f, PiecewiseModulus) else f
    ts = sorted(set(float(t) for t in grid))

    def fbar(t: float) -> float:
        v = fn(t)
        if v < -tol.eps_abs:
            raise ValueError(f"modulus is negative at {t}: {v}")
        return min(max(v, 0.0), 1.0)

    vals = {t: fbar(t) for t in ts}

    scan_a = RefRatioScan("a")
    for s in ts:
        if s >= MO_EPSILON:
            break
        for t in ts:
            if t >= MO_EPSILON:
                break
            scan_a.add(min(s, t), fbar(s + t), vals[s] + vals[t], (s, t))

    cond_b = []
    for rho in MO_RHOS:
        scan = RefRatioScan(f"b(rho={rho:g})")
        for t in ts:
            if t >= MO_DELTA:
                break
            for s in ts:
                if s >= rho * t:
                    break
                scan.add(t, vals[s], vals[t], (s, t))
        cond_b.append((rho, scan.report()))

    scan_a2 = RefRatioScan("a'")
    for s in ts:
        scan_a2.add(s, fbar(2.0 * s), fbar(s), (s,))

    scan_b2 = RefRatioScan("b'")
    for i, s in enumerate(ts):
        for t in ts[i + 1:]:
            scan_b2.add(s, vals[s], vals[t], (s, t))

    a_prime = scan_a2.report()
    b_prime = scan_b2.report()
    verdict = "LINEAR_LIKELY" if (a_prime.bounded and b_prime.bounded) else "NOT_LINEAR"
    return MazurOrliczVerdict(scan_a.report(), tuple(cond_b), a_prime, b_prime, verdict)


# --- inputs -----------------------------------------------------------------------


@st.composite
def moduli(draw):
    """Random Example-4 moduli, a one-breakpoint modulus, or a catalog preset."""
    kind = draw(st.sampled_from(("spec", "spec", "single", "preset")))
    if kind == "preset":
        return build_example4(EXAMPLE4_PRESETS[draw(st.sampled_from(sorted(EXAMPLE4_PRESETS)))]())
    if kind == "single":
        a0 = draw(st.floats(1e-3, 4.0))
        k0 = draw(st.floats(1e-2, 1e3))
        return PiecewiseModulus((a0,), (k0,), (), k0 * a0)
    a0 = draw(st.floats(1e-3, 1.0))
    steps = draw(st.lists(st.floats(0.5, 20.0), min_size=1, max_size=8))
    anchors = [a0]
    for step in steps:
        anchors.append(anchors[-1] * 2.0 ** -step)
    gauge = draw(st.sampled_from(("sqrt", "power")))
    alpha = draw(st.floats(0.05, 0.95)) if gauge == "power" else None
    try:
        spec = Example4Spec(tuple(anchors), gauge, alpha)
        return build_example4(spec)
    except ValueError:
        assume(False)


def special_points(f: PiecewiseModulus) -> list:
    """Breakpoints, joins and their float neighbours."""
    pts = []
    for t in (*f.breakpoints, *f.joins):
        pts += [t, math.nextafter(t, 0.0), math.nextafter(t, math.inf)]
    return pts


@st.composite
def moduli_with_grids(draw, max_size=24, top=None):
    f = draw(moduli())
    hi = top if top is not None else 2.0 * f.breakpoints[0]
    lo = f.breakpoints[-1] * 0.25
    point = st.one_of(
        st.sampled_from([t for t in special_points(f) if 0.0 < t <= hi]),
        st.floats(math.log2(lo), math.log2(hi)).map(lambda e: min(2.0 ** e, hi)),
    )
    grid = draw(st.lists(point, min_size=1, max_size=max_size))
    return f, grid


def _hex(values) -> list:
    return [float(v).hex() for v in values]


def _json(verdict: MazurOrliczVerdict) -> str:
    return json.dumps(verdict.to_dict(), sort_keys=True)


def _outcome(fn, *args):
    """The JSON report of fn(*args), or the message of the ValueError it raised."""
    try:
        return _json(fn(*args))
    except ValueError as exc:
        return f"ValueError: {exc}"


# --- tests ------------------------------------------------------------------------


class TestValues:
    @settings(max_examples=300, deadline=None)
    @given(moduli(), st.lists(st.floats(0.0, 8.0), max_size=20))
    def test_matches_scalar_reference_bit_for_bit(self, f, extra):
        pts = [0.0, -0.0, *special_points(f), *extra, 2.0 * f.breakpoints[0], f.breakpoints[-1] * 1e-6]
        expected = [ref_value(f, t) for t in pts]
        assert _hex(f.values(np.array(pts))) == _hex(expected)
        assert _hex(f.value(t) for t in pts) == _hex(expected)

    def test_keeps_the_shape_and_rejects_negatives(self):
        f = build_example4(EXAMPLE4_PRESETS["two-term"]())
        t = np.array([[0.0, 0.01], [0.1, 1.0]])
        assert f.values(t).shape == (2, 2)
        assert isinstance(f.value(0.1), float)
        with pytest.raises(ValueError, match="non-negative"):
            f.values(np.array([0.1, -1e-300]))

    def test_huge_arguments_stay_capped(self):
        # out-of-branch products overflow there; np.where must discard them quietly
        f = build_example4(EXAMPLE4_PRESETS["steep"]())
        assert _hex(f.values(np.array([1e300, np.inf]))) == _hex([f.cap, f.cap])


class TestBestAdmissible:
    @settings(max_examples=150, deadline=None)
    @given(moduli(), st.floats(-1.0, 1.0), st.floats(0.05, 3.0), st.data())
    def test_function_branch_matches_candidate_loop(self, f, lo, width, data):
        spec = FunctionModulus(f, (lo, lo + width))
        peaks = [f.peak(n) for n in range(len(f.breakpoints))]
        c = data.draw(st.sampled_from(peaks) | st.floats(1e-9, 2.0 * f.cap))
        found, expected = best_admissible(spec, c), ref_best_admissible(spec, c)
        assert (found is None) == (expected is None)
        if found is not None:
            assert _hex(found) == _hex(expected)


class TestInequalityScan:
    @settings(max_examples=150, deadline=None)
    @given(moduli_with_grids())
    def test_matches_double_loop(self, case):
        f, grid = case
        assert repr(verify_example4_inequalities(f, grid)) == repr(ref_inequalities(f, grid))

    @pytest.mark.parametrize("name", sorted(EXAMPLE4_PRESETS))
    def test_presets_on_their_scan_grids(self, name):
        f = build_example4(EXAMPLE4_PRESETS[name]())
        grid = [t for t in modulus_scan_grid(f, 60) if t <= 2.0 * f.breakpoints[0]]
        assert repr(verify_example4_inequalities(f, grid)) == repr(ref_inequalities(f, grid))


def step_function(cuts, levels):
    """Right-continuous step: levels[i] on [cuts[i-1], cuts[i]), levels[-1] beyond."""

    def f(t):
        for c, v in zip(cuts, levels):
            if t < c:
                return v
        return levels[-1]

    return f


@st.composite
def step_callables(draw):
    cuts = sorted(draw(st.lists(st.floats(1e-4, 4.0), min_size=1, max_size=5, unique=True)))
    level = st.sampled_from((0.0, -0.0, -1e-13, 0.25, 0.5, 1.0, 1.5, 3.0))
    levels = draw(st.lists(level | st.floats(1e-6, 2.0), min_size=len(cuts) + 1, max_size=len(cuts) + 1))
    return step_function(cuts, levels)


grids = st.lists(st.floats(-12.0, 2.0).map(lambda e: 2.0 ** e), min_size=1, max_size=20)


class TestMazurOrliczScan:
    @settings(max_examples=150, deadline=None)
    @given(moduli_with_grids(top=4.0))
    def test_piecewise_matches_ratio_scan(self, case):
        f, grid = case
        assert _json(mazur_orlicz_check(f, grid)) == _json(ref_mazur_orlicz(f, grid))

    @settings(max_examples=200, deadline=None)
    @given(step_callables(), grids)
    def test_steps_with_exact_zeros_match(self, f, grid):
        assert _outcome(mazur_orlicz_check, f, grid) == _outcome(ref_mazur_orlicz, f, grid)

    @settings(max_examples=100, deadline=None)
    @given(st.floats(0.1, 6.0), st.floats(0.0, 2.0), grids)
    def test_scaled_powers_match(self, p, scale, grid):
        f = lambda t: scale * t ** p  # noqa: E731
        assert _outcome(mazur_orlicz_check, f, grid) == _outcome(ref_mazur_orlicz, f, grid)

    @pytest.mark.parametrize("name", sorted(EXAMPLE4_PRESETS))
    def test_presets_on_their_scan_grids(self, name):
        f = build_example4(EXAMPLE4_PRESETS[name]())
        grid = modulus_scan_grid(f)
        assert _json(mazur_orlicz_check(f, grid)) == _json(ref_mazur_orlicz(f, grid))

    def test_infinite_and_vacuous_statuses(self):
        grid = [0.1, 0.2, 0.45, 0.5, 0.7]
        zero_tail = step_function([0.3], [0.5, 0.0])
        verdict = mazur_orlicz_check(zero_tail, grid)
        assert _json(verdict) == _json(ref_mazur_orlicz(zero_tail, grid))
        assert verdict.cond_b_prime.status == "INFINITE"
        assert verdict.cond_b_prime.witness == (0.1, 0.45)
        zero = step_function([1.0], [0.0, 0.0])
        verdict = mazur_orlicz_check(zero, grid)
        assert _json(verdict) == _json(ref_mazur_orlicz(zero, grid))
        assert verdict.cond_a_prime.status == verdict.cond_b_prime.status == "VACUOUS"

    def test_overflowing_quotient_is_not_a_zero_denominator(self):
        # 1 / 1e-310 overflows to inf on a live pair: BOUNDED with an infinite
        # constant, as the scalar scan had it, and no RuntimeWarning
        f = step_function([0.5], [1.0, 1e-310])
        grid = [0.25, 0.75]
        verdict = mazur_orlicz_check(f, grid)
        assert _json(verdict) == _json(ref_mazur_orlicz(f, grid))
        assert verdict.cond_b_prime.status == "BOUNDED"

    def test_negative_zero_values_keep_their_sign(self):
        # every a' ratio is -0.0 / 0.5; np.maximum(-0.0, 0.0) would make them +0.0
        f = step_function([0.3], [0.5, -0.0])
        grid = [0.2, 0.25]
        verdict = mazur_orlicz_check(f, grid)
        assert _json(verdict) == _json(ref_mazur_orlicz(f, grid))
        assert math.copysign(1.0, verdict.cond_a_prime.constant) == -1.0

    def test_negative_value_after_an_infinite_pair_still_raises(self):
        def f(t):
            if t <= 0.25:
                return 0.0
            return -1.0 if 0.93 < t < 0.97 else 0.5

        # (a) meets 0.5 / (0 + 0) at (0.1, 0.2) before it reaches 0.45 + 0.5
        grid = [0.1, 0.2, 0.45, 0.5]
        expected = "ValueError: modulus is negative at 0.95: -1.0"
        assert _outcome(ref_mazur_orlicz, f, grid) == expected
        assert _outcome(mazur_orlicz_check, f, grid) == expected

    def test_nan_is_rejected(self):
        with pytest.raises(ValueError, match="NaN at 0.5"):
            mazur_orlicz_check(lambda t: math.nan if t == 0.5 else t, [0.25, 0.5])
