import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import euclidean_sample, indicator_sample
from sumlike.catalog import (
    growing_indicator_family,
    power_family,
    uniform_indicator_family,
)
from sumlike.conditions import (
    DEFAULT_C_GRID,
    ClassifierThresholds,
    build_threshold_relation,
    classify_trichotomy,
    compare_moduli,
    compare_moduli_two_sided,
    mazur_orlicz_check,
    quasi_constants,
    search_l1_witness,
)
from sumlike.core import (
    DEFAULT_TOL,
    FamilyDescription,
    IndicatorModulus,
    ModulusSample,
    PowerModulus,
    TableModulus,
)


def real_sample(values, power=1.0):
    labels = [repr(float(v)) for v in values]
    table = [[abs(a - b) ** power for b in values] for a in values]
    return ModulusSample(labels, table)


def oracle_quasi(sample, tol=DEFAULT_TOL):
    """Brute-force triple loops, independent of the vectorized implementation."""
    m = sample.size
    psi = sample.psi
    c_diag = max(abs(psi[i][i]) for i in range(m))
    c_sym = 1.0
    c_tri = 1.0
    for i in range(m):
        for j in range(m):
            num, den = psi[j][i], psi[i][j]
            if den <= tol.eps_abs:
                if num > tol.eps_abs:
                    c_sym = math.inf
            else:
                c_sym = max(c_sym, num / den)
    for i in range(m):
        for j in range(m):
            for k in range(m):
                num = psi[i][k]
                den = psi[i][j] + psi[j][k]
                if den <= tol.eps_abs:
                    if num > tol.eps_abs:
                        c_tri = math.inf
                else:
                    c_tri = max(c_tri, num / den)
    return c_diag, c_sym, c_tri


class TestQuasiConstants:
    def test_metric_sample_has_unit_constants(self):
        qc = quasi_constants(real_sample([0.0, 1.0, 2.0]))
        assert qc.c_sym == 1.0
        assert qc.c_tri == pytest.approx(1.0, abs=1e-12)
        assert qc.c_diag_violation == 0.0

    def test_squared_metric_triangle_constant(self):
        # oracle computed first: max over all 27 triples of |u-r|^2/(|u-v|^2+|v-r|^2)
        sample = real_sample([0.0, 1.0, 2.0], power=2.0)
        _, _, oracle_tri = oracle_quasi(sample)
        assert oracle_tri == pytest.approx(2.0, rel=1e-12)
        qc = quasi_constants(sample)
        assert qc.c_tri == pytest.approx(2.0, rel=1e-12)
        assert set(qc.tri_witness.labels) == {"0.0", "1.0", "2.0"}
        assert qc.tri_witness.ratio == pytest.approx(qc.c_tri, rel=1e-9)

    def test_asymmetric_table(self):
        s = ModulusSample(["a", "b"], [[0.0, 0.1], [0.3, 0.0]])
        qc = quasi_constants(s)
        assert qc.c_sym == pytest.approx(3.0, rel=1e-12)
        assert qc.sym_witness.labels == ("a", "b")

    def test_single_point_degenerate(self):
        qc = quasi_constants(ModulusSample(["a"], [[0.0]]))
        assert qc.c_sym == 1.0 and qc.c_tri == 1.0
        assert qc.sym_witness is None

    def test_infinite_symmetry(self):
        s = ModulusSample(["a", "b"], [[0.0, 0.0], [0.5, 0.0]])
        qc = quasi_constants(s)
        assert math.isinf(qc.c_sym)
        assert not qc.finite

    def test_diag_violation_reported(self):
        s = ModulusSample(["a", "b"], [[0.2, 1.0], [1.0, 0.0]])
        qc = quasi_constants(s)
        assert qc.c_diag_violation == 0.2
        assert qc.diag_witness == "a"

    def test_matches_oracle_on_random_tables(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            m = int(rng.integers(2, 7))
            table = rng.random((m, m))
            table[rng.random((m, m)) < 0.2] = 0.0
            np.fill_diagonal(table, 0.0)
            s = ModulusSample([f"p{i}" for i in range(m)], table.tolist())
            qc = quasi_constants(s)
            d0, s0, t0 = oracle_quasi(s)
            assert qc.c_diag_violation == pytest.approx(d0, abs=1e-15)
            if math.isinf(s0):
                assert math.isinf(qc.c_sym)
            else:
                assert qc.c_sym == pytest.approx(s0, rel=1e-12)
            if math.isinf(t0):
                assert math.isinf(qc.c_tri)
            else:
                assert qc.c_tri == pytest.approx(t0, rel=1e-12)

    @given(st.permutations(list(range(5))))
    @settings(max_examples=20, deadline=None)
    def test_relabeling_invariance(self, perm):
        rng = np.random.default_rng(11)
        base = euclidean_sample(rng, 5)
        mat = base.matrix()
        permuted = mat[np.ix_(perm, perm)]
        relabeled = ModulusSample([base.points[i] for i in perm], permuted.tolist())
        a = quasi_constants(base)
        b = quasi_constants(relabeled)
        assert a.c_sym == pytest.approx(b.c_sym, rel=1e-12)
        assert a.c_tri == pytest.approx(b.c_tri, rel=1e-12)

    def test_subadditive_powers_keep_unit_constant(self):
        for p in (0.5, 0.8, 1.0):
            qc = quasi_constants(real_sample(list(np.linspace(0, 1, 12)), power=p))
            assert qc.c_tri == pytest.approx(1.0, abs=1e-12)
            assert qc.c_sym == 1.0

    def test_superadditive_powers_bounded_by_doubling(self):
        for p in (1.5, 2.0):
            qc = quasi_constants(real_sample(list(np.linspace(0, 1, 12)), power=p))
            assert qc.c_tri <= 2.0 ** (p - 1.0) + 1e-9
            # equidistant triples realize the bound
            assert qc.c_tri == pytest.approx(2.0 ** (p - 1.0), rel=1e-6)


class TestCompareModuli:
    def test_identity(self):
        s = real_sample([0.0, 0.5, 1.0])
        assert compare_moduli(s, s) == 1.0

    def test_smaller_clamps_to_one(self):
        psi = real_sample([0.0, 0.5, 1.0])
        phi = ModulusSample(psi.points, (0.5 * psi.matrix()).tolist())
        assert compare_moduli(psi, phi) == 1.0

    def test_absent_when_zero_faces_positive(self):
        psi = ModulusSample(["a", "b"], [[0, 0], [0, 0]])
        phi = ModulusSample(["a", "b"], [[0, 1], [1, 0]])
        assert compare_moduli(psi, phi) is None

    def test_two_sided(self):
        psi = real_sample([0.0, 0.5, 1.0])
        phi = ModulusSample(psi.points, (0.5 * psi.matrix()).tolist())
        assert compare_moduli_two_sided(psi, phi) == pytest.approx(2.0, rel=1e-12)

    def test_point_set_mismatch(self):
        with pytest.raises(ValueError, match="point set"):
            compare_moduli(real_sample([0.0, 1.0]), real_sample([0.0, 2.0]))

    def test_alignment_by_label(self):
        psi = ModulusSample(["a", "b"], [[0.0, 0.2], [0.2, 0.0]])
        phi = ModulusSample(["b", "a"], [[0.0, 0.4], [0.4, 0.0]])
        assert compare_moduli(psi, phi) == pytest.approx(2.0, rel=1e-12)


class TestWitnessSearch:
    def test_power_family_witness(self):
        fam = power_family(100, p=1.0)
        w = search_l1_witness(fam, c=0.1, target=5.0)
        assert w is not None
        assert len(w.terms) == 51  # per-term just below 0.1, so 50 terms fall short
        assert all(t.value < 0.1 for t in w.terms)
        assert min(t.value for t in w.terms) > 0.0999
        assert w.total >= 5.0

    def test_indicator_terms_all_zero(self):
        fam = uniform_indicator_family(50, 3)
        assert search_l1_witness(fam, c=0.5, target=1.0) is None

    def test_geometric_tables_fall_short(self):
        # per-coordinate admissible maximum 2**-n, total < 2 < target
        coords = []
        for n in range(10):
            v = 2.0 ** (-n)
            coords.append(TableModulus(ModulusSample(["u", "v"], [[0.0, v], [v, 0.0]])))
        fam = FamilyDescription(tuple(coords))
        assert search_l1_witness(fam, c=2.0, target=3.0) is None
        # accumulation stops at the first crossing of the target
        w = search_l1_witness(fam, c=2.0, target=1.5)
        assert w is not None and w.total == pytest.approx(1.5) and len(w.terms) == 2

    def test_invalid_thresholds(self):
        with pytest.raises(ValueError):
            search_l1_witness(power_family(3), c=0.0, target=1.0)
        with pytest.raises(ValueError):
            search_l1_witness(power_family(3), c=0.5, target=0.0)


class TestThresholdRelation:
    def test_indicator_partition(self):
        spec = IndicatorModulus((("a", "b"), ("c",)))
        rel = build_threshold_relation(spec, 0.5)
        assert rel.valid
        assert rel.class_count == 2
        assert rel.classes == (("a", "b"), ("c",))
        assert rel.adjacency.tolist() == [[True, True, False], [True, True, False], [False, False, True]]
        assert not rel.adjacency.flags.writeable
        assert rel.to_dict()["pair_count"] == 5

    def test_metric_grid_not_transitive(self):
        spec = PowerModulus(1.0, (0.0, 0.6))
        rel = build_threshold_relation(spec, 0.5, grid=[0.0, 0.3, 0.6])
        assert rel.reflexive and rel.symmetric and not rel.transitive
        kinds = {v[0] for v in rel.violations}
        assert kinds == {"transitive"}
        assert ("transitive", "0.0", "0.3", "0.6") in rel.violations
        assert rel.classes is None

    def test_everything_below_threshold_is_one_class(self):
        spec = TableModulus(ModulusSample(["a", "b", "c"], [[0, 0.2, 0.4], [0.2, 0, 0.2], [0.4, 0.2, 0]]))
        rel = build_threshold_relation(spec, c=10.0)
        assert rel.valid and rel.class_count == 1

    def test_pairs_monotone_in_threshold(self):
        spec = TableModulus(euclidean_sample(np.random.default_rng(3), 8))
        rels = [build_threshold_relation(spec, c) for c in (0.1, 0.3, 0.7, 1.5)]
        for lo, hi in zip(rels, rels[1:]):
            assert not (lo.adjacency & ~hi.adjacency).any()

    def test_class_count_nonincreasing_in_threshold(self):
        rng = np.random.default_rng(5)
        spec = TableModulus(indicator_sample(rng, 10, 4))
        counts = [build_threshold_relation(spec, c).class_count for c in (0.25, 0.5, 1.5)]
        assert counts[0] >= counts[1] >= counts[2]

    def test_grid_required_for_continuous(self):
        with pytest.raises(ValueError, match="grid"):
            build_threshold_relation(PowerModulus(1.0), 0.5)


class TestClassifier:
    def test_power_family_is_l1_like(self):
        report = classify_trichotomy(power_family(2048, p=1.0))
        assert report.branch == "L1_LIKE"
        assert report.l1_witness is not None
        assert report.l1_witness.c == min(DEFAULT_C_GRID)

    def test_one_block_trivial(self):
        report = classify_trichotomy(uniform_indicator_family(32, 1))
        assert report.branch == "TRIVIAL"
        assert report.c_star == min(DEFAULT_C_GRID)

    def test_two_block_e0(self):
        report = classify_trichotomy(uniform_indicator_family(32, 2))
        assert report.branch == "E0_LIKE"

    def test_growing_blocks_e1(self):
        bound = 16
        report = classify_trichotomy(growing_indicator_family(64, bound + 1))
        assert report.branch == "E1_LIKE"

    def test_relabeling_invariance(self):
        fam = uniform_indicator_family(24, 3)
        renamed = FamilyDescription(
            tuple(IndicatorModulus(tuple((f"z{b[0]}",) for b in spec.blocks)) for spec in fam.coords)
        )
        assert classify_trichotomy(fam).branch == classify_trichotomy(renamed).branch

    def invalid_coord(self):
        # symmetric failure below the smallest default threshold
        return TableModulus(ModulusSample(["a", "b"], [[0.0, 0.0005], [0.5, 0.0]]))

    def test_invalid_prefix_tolerated(self):
        block = IndicatorModulus((("u",), ("v",)))
        fam = FamilyDescription((self.invalid_coord(),) + (block,) * 24)
        report = classify_trichotomy(fam)
        assert report.branch == "E0_LIKE"
        assert report.observed_prefix == 1

    def test_invalid_beyond_prefix_undecided(self):
        block = IndicatorModulus((("u",), ("v",)))
        fam = FamilyDescription((block,) * 4 + (self.invalid_coord(),) + (block,) * 4)
        report = classify_trichotomy(fam)
        assert report.branch == "UNDECIDED"
        assert any("invalid beyond" in line for line in report.narrative)

    def test_mixed_tail_window_undecided(self):
        bound = 4
        small = IndicatorModulus((("u",), ("v",)))
        big = IndicatorModulus(tuple((f"b{i}",) for i in range(bound + 2)))
        fam = FamilyDescription((small, big) * 10)
        th = ClassifierThresholds(class_growth_bound=bound)
        report = classify_trichotomy(fam, thresholds=th)
        assert report.branch == "UNDECIDED"

    def test_empty_c_grid_rejected(self):
        with pytest.raises(ValueError):
            classify_trichotomy(power_family(4), c_grid=[])


class TestMazurOrlicz:
    def grid(self):
        return list(np.geomspace(1e-6, 1.0, 200))

    def test_linear(self):
        verdict = mazur_orlicz_check(lambda t: t, self.grid())
        assert verdict.verdict == "LINEAR_LIKELY"
        assert verdict.cond_a_prime.constant == pytest.approx(2.0, rel=1e-12)
        assert verdict.cond_b_prime.constant <= 1.0 + 1e-12

    def test_capped_linear(self):
        verdict = mazur_orlicz_check(lambda t: min(t, 1.0), self.grid())
        assert verdict.verdict == "LINEAR_LIKELY"
        assert verdict.cond_a_prime.constant <= 2.0 + 1e-12

    @pytest.mark.parametrize("p", [0.5, 1.0, 2.0, 4.0])
    def test_powers_stay_bounded(self, p):
        verdict = mazur_orlicz_check(lambda t: t ** p, self.grid())
        assert verdict.cond_a_prime.status == "BOUNDED"
        assert verdict.cond_a_prime.constant <= 2.0 ** p * (1.0 + 1e-9)
        assert verdict.cond_b_prime.status == "BOUNDED"
        assert verdict.cond_b_prime.constant <= 1.0 + 1e-12
        assert verdict.verdict == "LINEAR_LIKELY"

    def test_negative_modulus_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            mazur_orlicz_check(lambda t: -t, self.grid())

    def test_exact_zero_denominator_is_infinite(self):
        # positive below a vanishing tail: f(s) > 0 faces f(t) == 0 for s < t
        step = lambda t: 1.0 if t < 0.01 else 0.0
        verdict = mazur_orlicz_check(step, self.grid())
        assert verdict.cond_b_prime.status == "INFINITE"
        assert verdict.verdict == "NOT_LINEAR"

    def test_full_conditions_reported(self):
        verdict = mazur_orlicz_check(lambda t: t, self.grid())
        assert verdict.cond_a.status == "BOUNDED"
        rhos = [rho for rho, _ in verdict.cond_b]
        assert rhos == [0.5, 1.0, 2.0]
        for _, rep in verdict.cond_b:
            assert rep.status == "BOUNDED"

    def test_grid_must_be_positive(self):
        with pytest.raises(ValueError):
            mazur_orlicz_check(lambda t: t, [0.0, 0.5])
