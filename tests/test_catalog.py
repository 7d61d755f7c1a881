from fractions import Fraction

import pytest

from conftest import exact_value
from sumlike.catalog import (
    EXAMPLE4_PRESETS,
    Example4Spec,
    build_example4,
    example4_ratio,
    growing_indicator_family,
    load_preset,
    log_grid,
    modulus_scan_grid,
    power_family,
    uniform_indicator_family,
    verify_example4_inequalities,
)
from sumlike.conditions import mazur_orlicz_check
from sumlike.core import DEFAULT_TOL, PiecewiseModulus, ToleranceConfig


def two_term():
    return Example4Spec((0.25, 1.0 / 64.0), "sqrt")


def steep():
    return EXAMPLE4_PRESETS["steep"]()


class TestExample4Spec:
    def test_two_term_derived_values(self):
        spec = two_term()
        assert spec.slopes == (2.0, 8.0)
        assert spec.joins[0] == pytest.approx(0.025, rel=1e-15)
        assert spec.a[1] < spec.joins[0] < spec.a[0]

    def test_anchors_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            Example4Spec((0.25, 0.5), "sqrt")

    def test_needs_two_anchors(self):
        with pytest.raises(ValueError, match="two anchors"):
            Example4Spec((0.25,), "sqrt")

    def test_power_gauge_alpha_validated(self):
        with pytest.raises(ValueError, match="alpha"):
            Example4Spec((0.25, 0.1), "power")
        spec = Example4Spec((0.25, 0.1), "power", alpha=0.5)
        assert spec.slopes[0] == pytest.approx(0.25 ** -0.5)

    def test_unknown_gauge(self):
        with pytest.raises(ValueError, match="unknown gauge"):
            Example4Spec((0.25, 0.1), "cubic")

    def test_json_round_trip(self):
        spec = Example4Spec((0.25, 0.1), "power", alpha=0.7)
        assert Example4Spec.from_dict(spec.to_dict()) == spec
        with pytest.raises(ValueError, match="unknown field"):
            Example4Spec.from_dict({"a": [0.25, 0.1], "extra": 1})


class TestBuildExample4:
    def test_branch_values(self):
        f = build_example4(two_term())
        assert f.value(0.0) == 0.0
        assert f.value(1.0) == 0.5
        assert f.value(f.joins[0]) == pytest.approx(0.05, rel=1e-12)
        assert f.value(f.breakpoints[1]) == pytest.approx(0.125, rel=1e-15)

    def test_teeth_really_descend(self):
        # the join value sits below the next peak although the join is further out
        f = build_example4(two_term())
        assert f.joins[0] > f.breakpoints[1]
        assert f.value(f.joins[0]) < f.value(f.breakpoints[1])

    def test_continuity_at_all_breakpoints(self):
        for spec in (two_term(), steep()):
            rep = build_example4(spec).continuity_report()
            assert rep["continuous"]
            assert rep["max_jump"] <= 1e-12

    def test_peaks_vanish_toward_zero(self):
        f = build_example4(steep())
        peaks = [f.peak(n) for n in range(len(f.breakpoints))]
        assert all(a > b for a, b in zip(peaks, peaks[1:]))
        assert peaks[-1] > 0.0


class TestRatioIdentity:
    def test_two_term_exact(self):
        f = build_example4(two_term())
        check = example4_ratio(f, 0)
        assert check.closed_form == 2.5
        assert check.direct == pytest.approx(2.5, rel=1e-12)

    def test_steep_growth(self):
        f = build_example4(steep())
        for n in range(f.tooth_count):
            check = example4_ratio(f, n)
            assert check.closed_form == 0.5 * (1.0 + 2.0 ** (2 * n + 3))
            assert check.direct == pytest.approx(check.closed_form, rel=1e-9)

    def test_agree_uses_the_given_tolerance(self):
        # a join 1e-8 (relative) off the exact intersection stays within the
        # modulus's absolute continuity slack, but moves the ratio by 1e-8
        f = PiecewiseModulus((1e-3, 1e-5), (1.0, 4.0), (1.6e-5 * (1.0 + 1e-8),), 1e-3)
        with pytest.raises(ValueError, match="ratio identity"):
            example4_ratio(f, 0)
        check = example4_ratio(f, 0, ToleranceConfig(1e-12, 1e-6))
        assert check.direct != check.closed_form
        assert not DEFAULT_TOL.close(check.direct, check.closed_form)
        assert check.agree is True and check.to_dict()["agree"] is True

    def test_index_out_of_range(self):
        f = build_example4(two_term())
        with pytest.raises(ValueError, match="out of range"):
            example4_ratio(f, 5)


class TestInequalities:
    def test_two_term_grid(self):
        f = build_example4(two_term())
        report = verify_example4_inequalities(f, log_grid(f.breakpoints[-1] / 2, 0.5, 200))
        assert report.ok
        assert report.max_subadd_violation <= 1e-12
        assert report.max_reverse_violation <= 1e-12

    def test_doubling_at_the_join_is_tight(self):
        f = build_example4(two_term())
        b0 = f.joins[0]
        assert f.value(2 * b0) <= 2 * f.value(b0) + 1e-15

    def test_grid_domain_enforced(self):
        f = build_example4(two_term())
        with pytest.raises(ValueError, match="grid"):
            verify_example4_inequalities(f, [0.1, 5.0])

    def test_steep_slope_ratios_break_the_reverse_inequality(self):
        # exact-rational witness: with slopes 2 and 16, s = 1/320 sits on the
        # steep rising branch (f(s) = 1/20) while t = 1/100 and s + t sit on
        # the shallow one, so f(s+t) + f(t) = 37/800 < f(s).  The window is
        # non-empty whenever a slope ratio exceeds 2 + sqrt(5), which growing
        # tooth ratios force eventually; the scanner must report it.
        f = build_example4(steep())
        s, t = 1.0 / 320.0, 1.0 / 100.0
        assert f.value(s) > f.value(s + t) + f.value(t)
        assert f.value(s) - (f.value(s + t) + f.value(t)) == pytest.approx(3.0 / 800.0, rel=1e-12)
        s_q, t_q = Fraction(1, 320), Fraction(1, 100)
        assert exact_value(f, s_q) == Fraction(1, 20)
        assert exact_value(f, s_q + t_q) + exact_value(f, t_q) == Fraction(37, 800)
        report = verify_example4_inequalities(f, [s, t])
        assert not report.ok
        assert report.max_reverse_violation == pytest.approx(3.0 / 800.0, rel=1e-12)
        # subadditivity itself is fine: f stays below every extended slope line
        assert report.max_subadd_violation <= 1e-12


class TestMazurOrliczCoupling:
    def test_steep_breaks_domination(self):
        f = build_example4(steep())
        verdict = mazur_orlicz_check(f, modulus_scan_grid(f))
        assert verdict.cond_a_prime.status == "BOUNDED"
        assert verdict.cond_a_prime.constant <= 2.0 + 1e-9
        assert verdict.cond_b_prime.status == "UNBOUNDED"
        assert verdict.verdict == "NOT_LINEAR"
        # the extremal witness is a (next anchor, join) pair of the deepest tooth
        s, t = verdict.cond_b_prime.witness
        assert s == pytest.approx(f.breakpoints[-1], rel=1e-12)
        assert t == pytest.approx(f.joins[-1], rel=1e-12)

    def test_witnessed_constant_matches_tooth_ratio(self):
        f = build_example4(steep())
        verdict = mazur_orlicz_check(f, modulus_scan_grid(f))
        top = example4_ratio(f, f.tooth_count - 1)
        assert verdict.cond_b_prime.constant == pytest.approx(top.closed_form, rel=1e-9)


class TestPresets:
    def test_loading(self):
        kind, spec = load_preset("steep")
        assert kind == "spec" and spec.a[0] == 0.25
        kind, fn = load_preset("linear")
        assert kind == "function" and fn(0.3) == 0.3
        with pytest.raises(ValueError, match="unknown preset"):
            load_preset("nope")

    def test_steep_preset_depth(self):
        spec = steep()
        assert len(spec.a) == 9  # eight teeth
        assert spec.a[-1] == 4.0 ** (-81)


class TestFamilyBuilders:
    def test_power_family(self):
        fam = power_family(5, p=1.5)
        assert fam.size == 5
        assert all(c.kind == "power" for c in fam.coords)

    def test_uniform_indicator(self):
        fam = uniform_indicator_family(3, 4)
        assert fam.coords[0].psi("b0", "b1") == 1.0

    def test_growing_indicator(self):
        fam = growing_indicator_family(10, 6)
        sizes = [len(c.blocks) for c in fam.coords]
        assert sizes == [min(n + 2, 6) for n in range(10)]
