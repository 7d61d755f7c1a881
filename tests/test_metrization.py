import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import euclidean_sample, indicator_sample, quasi_sample, snowflake_sample
from sumlike.conditions import _relation_product
from sumlike.core import IndicatorModulus, ModulusSample
from sumlike.metrization import (
    LevelSets,
    NotEquivalenceInducingError,
    _compose3_inside,
    build_level_sets,
    certify_sandwich,
    frink_pseudometric,
    matrix_to_csv,
    metrize,
    truncate_modulus,
)


def grid_metric_sample(step=0.1, n=11):
    values = [round(i * step, 10) for i in range(n)]
    labels = [repr(float(v)) for v in values]
    table = [[abs(a - b) for b in values] for a in values]
    return ModulusSample(labels, table, "grid")


class TestTruncate:
    def test_caps_large_entries(self):
        s = ModulusSample(["a", "b"], [[0.0, 3.7], [0.4, 0.0]])
        t = truncate_modulus(s)
        assert t.value("a", "b") == 1.0
        assert t.value("b", "a") == 0.4

    def test_idempotent(self):
        s = ModulusSample(["a", "b"], [[0.0, 3.7], [0.4, 0.0]])
        assert truncate_modulus(truncate_modulus(s)) == truncate_modulus(s)

    def test_zero_table_unchanged(self):
        s = ModulusSample(["a", "b"], [[0.0, 0.0], [0.0, 0.0]])
        assert truncate_modulus(s) == s


class TestBuildLevelSets:
    def test_unit_constant_gives_b_three(self):
        levels = build_level_sets(grid_metric_sample(), C=1.0)
        assert levels.B == 3.0
        assert math.log2(levels.B) == pytest.approx(1.5849625007211562, abs=1e-15)

    def test_depth_bracketing(self):
        # psi = 0.05 on a symmetric pair: inside U_2 (3**-2 > 0.05), outside U_3
        s = ModulusSample(["u", "v"], [[0.0, 0.05], [0.05, 0.0]])
        levels = build_level_sets(s, C=1.0)
        assert levels.masks[2][0, 1] and not levels.masks[3][0, 1]

    def test_zero_pair_in_every_level(self):
        s = ModulusSample(["u", "v", "w"], [[0, 0, 0.5], [0, 0, 0.5], [0.5, 0.5, 0]])
        levels = build_level_sets(s, C=1.0)
        assert levels.masks[levels.L][0, 1]
        assert levels.zero_mask[0, 1]

    def test_requires_zero_diagonal(self):
        with pytest.raises(ValueError, match="diagonal"):
            build_level_sets(ModulusSample(["a"], [[0.5]]), C=1.0)

    def test_requires_c_at_least_one(self):
        with pytest.raises(ValueError, match="C"):
            build_level_sets(grid_metric_sample(), C=0.5)

    def test_composition_verified_for_valid_metric(self):
        levels = build_level_sets(grid_metric_sample(), C=1.0)
        assert all(levels.composition_ok)

    def test_nestedness(self):
        levels = build_level_sets(grid_metric_sample(), C=1.0)
        for n in range(levels.L):
            assert not (levels.masks[n + 1] & ~levels.masks[n]).any()


class TestFrinkPseudometric:
    def test_two_point_gauge(self):
        # pair at deepest level 2 gets the one-step gauge 2**-3
        s = ModulusSample(["u", "v"], [[0.0, 0.05], [0.05, 0.0]])
        levels = build_level_sets(s, C=1.0)
        d = frink_pseudometric(levels)
        assert d[0, 1] == 2.0 ** (-3)

    def test_chain_shortcut(self):
        # gauges sigma(u,v) = sigma(v,r) = 2**-4 and sigma(u,r) = 2**-1:
        # the two-step chain beats the direct edge, d(u,r) = 2**-3
        psi = [[0.0, 0.02, 0.9], [0.02, 0.0, 0.02], [0.9, 0.02, 0.0]]
        s = ModulusSample(["u", "v", "r"], psi)
        levels = build_level_sets(s, C=1.0)
        d = frink_pseudometric(levels)
        sigma_uv = 2.0 ** (-(int(levels.masks[1:, 0, 1].sum()) + 1))
        sigma_ur = 2.0 ** (-(int(levels.masks[1:, 0, 2].sum()) + 1))
        assert sigma_uv == 2.0 ** (-4) and sigma_ur == 2.0 ** (-1)
        assert d[0, 2] == 2.0 ** (-3)

    def test_zero_gauge_gives_zero_distance(self):
        s = ModulusSample(["u", "v"], [[0.0, 0.0], [0.0, 0.0]])
        levels = build_level_sets(s, C=1.0)
        d = frink_pseudometric(levels)
        assert d[0, 1] == 0.0

    def test_rejects_non_nested_levels(self):
        s = ModulusSample(["u", "v"], [[0.0, 0.05], [0.05, 0.0]])
        levels = build_level_sets(s, C=1.0)
        broken = np.array(levels.masks)
        broken[2] = True
        broken[1, 0, 1] = False
        broken[1, 1, 0] = False
        bad = LevelSets(levels.points, levels.B, levels.L, broken, levels.zero_mask, levels.composition_ok)
        with pytest.raises(ValueError, match="nested"):
            frink_pseudometric(bad)

    def test_exact_pseudometric_axioms(self):
        rng = np.random.default_rng(19)
        for _ in range(5):
            sample = truncate_modulus(euclidean_sample(rng, int(rng.integers(3, 25))))
            levels = build_level_sets(sample, C=1.0)
            d = frink_pseudometric(levels)
            assert (np.diag(d) == 0.0).all()
            assert (d == d.T).all()
            m = sample.size
            for k in range(m):
                # dyadic gauge sums are exact, so no tolerance is needed
                assert (d <= d[:, [k]] + d[[k], :]).all()


class TestCertifyAndMetrize:
    def test_metric_grid_all_flags(self):
        cert = metrize(grid_metric_sample())
        assert cert.C == pytest.approx(1.0, abs=1e-12)
        assert cert.B == pytest.approx(3.0, abs=1e-11)
        assert cert.p == pytest.approx(math.log2(3.0), abs=1e-11)
        assert cert.all_ok and not cert.advisory
        assert cert.containment_ok and cert.zero_ok and cert.sandwich_ok and cert.threshold_ok

    def test_single_point_vacuous(self):
        cert = metrize(ModulusSample(["a"], [[0.0]]))
        assert cert.all_ok
        assert cert.sandwich == () and cert.threshold == ()

    def test_zero_pair_equivalence(self):
        s = ModulusSample(["u", "v", "w"], [[0, 0, 0.5], [0, 0, 0.5], [0.5, 0.5, 0]])
        cert = metrize(s)
        assert cert.zero_ok
        assert cert.d[0, 1] == 0.0

    def test_asymmetric_zero_rejected(self):
        s = ModulusSample(["a", "b"], [[0.0, 0.0], [1.0, 0.0]])
        with pytest.raises(NotEquivalenceInducingError, match="symmetry"):
            metrize(s)

    def test_nonzero_diagonal_rejected(self):
        s = ModulusSample(["a", "b"], [[0.5, 1.0], [1.0, 0.0]])
        with pytest.raises(NotEquivalenceInducingError, match="diagonal"):
            metrize(s)

    def test_triangle_zero_chain_rejected(self):
        # psi(u,w) positive while both legs through v vanish
        s = ModulusSample(["u", "v", "w"], [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
        with pytest.raises(NotEquivalenceInducingError, match="triangle"):
            metrize(s)

    def test_indicator_discrete_scaling(self):
        cert = metrize(IndicatorModulus((("a", "b"), ("c",))).as_sample())
        values = sorted(set(float(v) for v in np.asarray(cert.d).ravel()))
        assert values[0] == 0.0
        assert all(2.0 ** (-3) <= v <= 1.0 for v in values[1:])
        assert cert.all_ok

    def test_certify_on_prebuilt_levels(self):
        sample = truncate_modulus(grid_metric_sample())
        levels = build_level_sets(sample, C=1.0)
        d = frink_pseudometric(levels)
        cert = certify_sandwich(sample, d, levels, 1.0)
        assert cert.C == pytest.approx(1.0, rel=1e-12)
        assert cert.all_ok

    def test_sandwich_records_recomputable(self):
        cert = metrize(grid_metric_sample())
        for rec in cert.sandwich:
            assert rec.lower == pytest.approx(cert.B ** -2 * rec.d ** cert.p, rel=1e-12)
            assert rec.upper == pytest.approx(cert.B ** 2 * rec.d ** cert.p, rel=1e-12)
            assert rec.lower <= rec.psi * (1.0 + 1e-9)
            assert rec.psi <= rec.upper * (1.0 + 1e-9)

    def test_scale_coherence(self):
        sample = truncate_modulus(grid_metric_sample())
        cert1 = metrize(sample)
        for lam in (0.5, 0.25, 0.125):
            scaled = ModulusSample(sample.points, (lam * sample.matrix()).tolist())
            cert2 = metrize(scaled)
            assert (np.asarray(cert2.d) <= np.asarray(cert1.d)).all()

    def test_random_families_all_ok(self):
        rng = np.random.default_rng(23)
        for maker in (
            lambda: euclidean_sample(rng, 12),
            lambda: snowflake_sample(rng, 12, 0.6),
            lambda: indicator_sample(rng, 12, 3),
            lambda: quasi_sample(rng, 12),
        ):
            cert = metrize(maker())
            assert cert.all_ok and not cert.advisory

    def test_zero_iff_psi_zero(self):
        rng = np.random.default_rng(29)
        sample = indicator_sample(rng, 15, 4)
        cert = metrize(sample)
        assert cert.zero_ok
        # cross-check the equivalence pair by pair against the raw table
        d = np.asarray(cert.d)
        psi = sample.matrix()
        for i in range(sample.size):
            for j in range(sample.size):
                assert (psi[i, j] == 0.0 and psi[j, i] == 0.0) == (d[i, j] == 0.0)


def reference_compose3_inside(inner, outer):
    """The int64-matmul composition check the float32 kernel replaced."""
    a = inner.astype(np.int64)
    reach2 = (a @ a) > 0
    reach3 = (reach2.astype(np.int64) @ a) > 0
    return not bool((reach3 & ~outer).any())


@st.composite
def relations(draw):
    m = draw(st.integers(1, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    inner = rng.random((m, m)) < draw(st.floats(0.0, 0.5))
    outer = rng.random((m, m)) < draw(st.floats(0.0, 1.0))
    return inner, outer


class TestCompositionKernel:
    @settings(max_examples=200, deadline=None)
    @given(relations())
    def test_matches_int64_reference(self, case):
        inner, outer = case
        a = inner.astype(np.int64)
        assert np.array_equal(_relation_product(inner, outer), (a @ outer.astype(np.int64)) > 0)
        assert _compose3_inside(inner, outer) == reference_compose3_inside(inner, outer)
        reach3 = ((((a @ a) > 0).astype(np.int64) @ a) > 0)
        assert _compose3_inside(inner, reach3) and reference_compose3_inside(inner, reach3)
        if reach3.any():
            i, k = np.argwhere(reach3)[0]
            holed = reach3.copy()
            holed[i, k] = False
            assert not _compose3_inside(inner, holed)

    def test_level_sets_agree_with_reference(self):
        # with C = 1 the quasi sample fails composition at level 1, the metric one nowhere
        rng = np.random.default_rng(31)
        cases = ((quasi_sample(rng, 30, spread=0.9), False), (euclidean_sample(rng, 30), True))
        for sample, passes in cases:
            levels = build_level_sets(truncate_modulus(sample), 1.0)
            want = tuple(
                reference_compose3_inside(levels.masks[n + 1], levels.masks[n])
                for n in range(levels.L)
            )
            assert levels.composition_ok == want
            assert all(want) == passes


class TestCsvExport:
    def test_round_trip_precision(self):
        cert = metrize(grid_metric_sample())
        text = matrix_to_csv(cert.points, cert.d)
        lines = text.strip().splitlines()
        assert lines[0].split(",")[1:] == list(cert.points)
        value = float(lines[1].split(",")[2])
        assert value == float(cert.d[0, 1])
