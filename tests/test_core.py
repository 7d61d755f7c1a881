import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlike.catalog import EXAMPLE4_PRESETS, build_example4
from sumlike.core import (
    FamilyDescription,
    FunctionModulus,
    IndicatorModulus,
    ModulusSample,
    PiecewiseModulus,
    PowerModulus,
    TableModulus,
    ToleranceConfig,
    family_from_dict,
    family_from_json,
    family_to_json,
    finite_sum,
    sample_from_dict,
    spec_from_dict,
)


class TestModulusSample:
    def test_valid(self):
        s = ModulusSample(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        assert s.size == 2
        assert s.value("a", "b") == 1.0

    def test_rejects_non_square(self):
        with pytest.raises(ValueError, match="square"):
            ModulusSample(["a", "b"], [[0.0, 1.0]])
        with pytest.raises(ValueError, match="square"):
            ModulusSample(["a", "b"], [[0.0, 1.0], [1.0]])

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="unique"):
            ModulusSample(["a", "a"], [[0.0, 1.0], [1.0, 0.0]])

    def test_rejects_negative_and_nan(self):
        with pytest.raises(ValueError):
            ModulusSample(["a"], [[-0.5]])
        with pytest.raises(ValueError):
            ModulusSample(["a"], [[math.nan]])

    def test_unknown_label(self):
        s = ModulusSample(["a"], [[0.0]])
        with pytest.raises(KeyError):
            s.value("a", "z")

    def test_table_is_read_only_and_matrix_a_copy(self):
        source = np.array([[0.0, 1.0], [2.0, 0.0]])
        s = ModulusSample(["a", "b"], source)
        source[0, 1] = 5.0
        assert s.value("a", "b") == 1.0 and type(s.value("a", "b")) is float
        assert s.psi.dtype == np.float64
        with pytest.raises(ValueError):
            s.psi[0, 1] = 3.0
        copy = s.matrix()
        copy[0, 1] = 3.0
        assert copy.flags.writeable
        assert s.value("a", "b") == 1.0

    def test_equality_and_round_trip(self):
        s = ModulusSample(["a", "b"], [[0.0, 1.0], [2.0, 0.0]], "t")
        assert s == ModulusSample(("a", "b"), np.array([[0.0, 1.0], [2.0, 0.0]]), "t")
        assert s != ModulusSample(["a", "b"], [[0.0, 1.0], [2.5, 0.0]], "t")
        assert hash(s) == hash(sample_from_dict(s.to_dict()))
        assert s.to_dict()["psi"] == [[0.0, 1.0], [2.0, 0.0]]

    def test_equality_is_bitwise(self):
        # -0.0 == 0.0 entrywise, but the tables hash apart, so they must compare apart
        s = ModulusSample(["a", "b"], [[0.0, 1.0], [1.0, 0.0]])
        t = ModulusSample(["a", "b"], [[-0.0, 1.0], [1.0, 0.0]])
        assert s != t and hash(s) != hash(t)

    @settings(max_examples=50, deadline=None)
    @given(
        table=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=4, max_size=4),
        other=st.lists(st.sampled_from([0.0, -0.0, 0.5, 1.0]), min_size=4, max_size=4),
    )
    def test_equal_samples_hash_equal(self, table, other):
        s = ModulusSample(["a", "b"], np.reshape(table, (2, 2)))
        t = ModulusSample(["a", "b"], np.reshape(other, (2, 2)))
        if s == t:
            assert hash(s) == hash(t)
        bitwise = [(x, math.copysign(1, x)) for x in table] == [(y, math.copysign(1, y)) for y in other]
        assert (s == t) == bitwise


def _bits(table) -> np.ndarray:
    return np.asarray(table, dtype=np.float64).view(np.uint64)


def _assert_table_matches_psi(spec, sample):
    expected = [[spec.psi(u, v) for v in sample.points] for u in sample.points]
    assert np.array_equal(_bits(sample.psi), _bits(expected))


@st.composite
def power_grids(draw):
    p = draw(st.floats(0.05, 8.0))
    lo = draw(st.floats(-10.0, 10.0))
    hi = lo + draw(st.floats(1e-3, 20.0))
    grid = draw(st.lists(st.floats(lo, hi), min_size=1, max_size=12, unique=True))
    return PowerModulus(p, (lo, hi)), grid


@st.composite
def example4_grids(draw):
    f = build_example4(EXAMPLE4_PRESETS[draw(st.sampled_from(sorted(EXAMPLE4_PRESETS)))]())
    point = st.one_of(
        st.sampled_from((0.0, 1.0, *f.breakpoints, *f.joins)),
        st.floats(0.0, 1.0),
        st.floats(-9.0, 0.0).map(lambda e: 10.0 ** e),
    )
    grid = draw(st.lists(point, min_size=1, max_size=12, unique=True))
    return FunctionModulus(f), grid


@st.composite
def partitions(draw):
    assignment = draw(st.lists(st.integers(0, 4), min_size=1, max_size=15))
    blocks = {}
    for i, b in enumerate(assignment):
        blocks.setdefault(b, []).append(f"p{i}")
    return IndicatorModulus(tuple(tuple(blk) for blk in blocks.values()))


class TestSampledTables:
    """``as_sample`` tables equal the pointwise ``psi`` bit for bit."""

    @settings(max_examples=150, deadline=None)
    @given(power_grids())
    def test_power(self, case):
        spec, grid = case
        sample = spec.as_sample(grid)
        assert sample.points == tuple(repr(float(t)) for t in grid)
        _assert_table_matches_psi(spec, sample)

    @settings(max_examples=150, deadline=None)
    @given(example4_grids())
    def test_example4_function(self, case):
        spec, grid = case
        sample = spec.as_sample(grid)
        assert sample.points == tuple(repr(float(t)) for t in grid)
        _assert_table_matches_psi(spec, sample)

    @settings(max_examples=150, deadline=None)
    @given(partitions())
    def test_indicator(self, spec):
        sample = spec.as_sample()
        assert sample.points == spec.labels()
        _assert_table_matches_psi(spec, sample)

    def test_grid_checks(self):
        with pytest.raises(ValueError, match="distinct"):
            PowerModulus(1.0).as_sample([0.5, 0.5, 2.0])
        with pytest.raises(ValueError, match=r"point 2\.0 outside domain"):
            PowerModulus(1.0).as_sample([0.5, 2.0, 3.0])


class TestToleranceConfig:
    def test_defaults(self):
        tol = ToleranceConfig()
        assert tol.eps_abs == 1e-12 and tol.eps_rel == 1e-9

    def test_rejects_nonpositive(self):
        with pytest.raises(ValueError):
            ToleranceConfig(eps_abs=0.0)

    @pytest.mark.parametrize("bad", [math.inf, math.nan])
    def test_rejects_non_finite(self, bad):
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(eps_abs=bad)
        with pytest.raises(ValueError, match="finite"):
            ToleranceConfig(eps_rel=bad)

    def test_comparisons(self):
        tol = ToleranceConfig()
        assert tol.is_zero(5e-13)
        assert tol.close(1.0, 1.0 + 5e-10)
        assert not tol.close(1.0, 1.1)


class TestFiniteSum:
    def test_identity_has_zero_off_diagonal(self):
        fam = FamilyDescription((PowerModulus(1.0),) * 4)
        x = [0.1, 0.5, 0.0, 1.0]
        split = finite_sum(x, x, fam)
        assert split.off_diagonal == 0.0
        assert split.total == split.diagonal == 0.0

    def test_power_direct_sum(self):
        fam = FamilyDescription((PowerModulus(1.0),) * 3)
        split = finite_sum([0.0, 0.0, 0.0], [0.5, 0.25, 0.25], fam)
        assert split.total == pytest.approx(1.0, abs=1e-15)
        assert split.diagonal == 0.0

    def test_indicator_same_block(self):
        spec = IndicatorModulus((("a", "b"), ("c",)))
        fam = FamilyDescription((spec,) * 3)
        split = finite_sum(["a", "b", "a"], ["b", "a", "a"], fam)
        assert split.total == 0.0

    def test_length_mismatch(self):
        fam = FamilyDescription((PowerModulus(1.0),) * 2)
        with pytest.raises(ValueError, match="length"):
            finite_sum([0.0], [0.0, 0.0], fam)

    def test_unknown_table_label(self):
        spec = TableModulus(ModulusSample(["a", "b"], [[0, 1], [1, 0]]))
        fam = FamilyDescription((spec,))
        with pytest.raises(KeyError):
            finite_sum(["a"], ["z"], fam)

    def test_permutation_invariance(self):
        coords = (PowerModulus(1.0), PowerModulus(2.0), IndicatorModulus((("a",), ("b",))))
        fam = FamilyDescription(coords)
        x = [0.1, 0.2, "a"]
        y = [0.9, 0.3, "b"]
        base = finite_sum(x, y, fam).total
        perm = [2, 0, 1]
        fam_p = FamilyDescription(tuple(coords[i] for i in perm))
        x_p = [x[i] for i in perm]
        y_p = [y[i] for i in perm]
        assert finite_sum(x_p, y_p, fam_p).total == pytest.approx(base, rel=1e-12)

    def test_power_domain_enforced(self):
        fam = FamilyDescription((PowerModulus(1.0, (0.0, 1.0)),))
        with pytest.raises(ValueError, match="domain"):
            finite_sum([2.0], [0.5], fam)


class TestPiecewiseModulus:
    def build(self):
        # slopes 2 and 8, join where the pieces intersect
        return PiecewiseModulus((0.25, 1.0 / 64.0), (2.0, 8.0), (0.025,), 0.5)

    def test_branches(self):
        f = self.build()
        assert f.value(0.0) == 0.0
        assert f.value(1.0) == 0.5          # above the top breakpoint
        assert f.value(0.1) == pytest.approx(0.2)   # rising piece
        assert f.value(0.02) == pytest.approx(8.0 * (2.0 / 64.0 - 0.02), rel=1e-12)  # descending
        assert f.value(0.001) == pytest.approx(0.008)  # last slope extension

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            self.build().value(-0.1)

    def test_join_must_sit_on_intersection(self):
        with pytest.raises(ValueError, match="disagree"):
            PiecewiseModulus((0.25, 1.0 / 64.0), (2.0, 8.0), (0.05,), 0.5)

    def test_cap_must_match(self):
        with pytest.raises(ValueError, match="cap"):
            PiecewiseModulus((0.25, 1.0 / 64.0), (2.0, 8.0), (0.025,), 0.7)

    def test_breakpoints_must_decrease(self):
        with pytest.raises(ValueError, match="decreasing"):
            PiecewiseModulus((0.25, 0.5), (2.0, 8.0), (0.3,), 0.5)

    def test_continuity_report(self):
        rep = self.build().continuity_report()
        assert rep["continuous"]
        assert rep["max_jump"] <= 1e-12


class TestJsonRoundTrip:
    def family(self):
        return FamilyDescription(
            (
                PowerModulus(1.0, (0.0, 1.0)),
                TableModulus(ModulusSample(["a", "b"], [[0, 0.1], [0.3, 0]], "t")),
                IndicatorModulus((("a", "b"), ("c",))),
                FunctionModulus(PiecewiseModulus((0.25, 1 / 64), (2.0, 8.0), (0.025,), 0.5)),
            ),
            name="mixed",
            notes="round trip",
            tail="constant tail",
        )

    def test_round_trip(self):
        fam = self.family()
        back = family_from_json(family_to_json(fam))
        assert back.name == fam.name
        assert back.tail == fam.tail
        assert len(back.coords) == 4
        assert [c.kind for c in back.coords] == ["power", "table", "indicator", "f"]
        assert back.coords[0].p == 1.0
        assert back.coords[1].psi("b", "a") == 0.3
        assert back.coords[3].f.value(0.1) == fam.coords[3].f.value(0.1)

    def test_unknown_family_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            family_from_dict({"coords": [], "extra": 1})

    def test_unknown_coord_field_rejected(self):
        with pytest.raises(ValueError, match="unknown field"):
            family_from_dict({"coords": [{"kind": "power", "p": 1.0, "zzz": 2}]})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="kind"):
            spec_from_dict({"kind": "mystery"})

    def test_missing_power_exponent(self):
        with pytest.raises(ValueError, match="'p'"):
            spec_from_dict({"kind": "power"})

    def test_field_order_irrelevant(self):
        a = family_from_json('{"coords": [{"p": 2.0, "kind": "power", "domain": [0, 1]}], "name": "x"}')
        b = family_from_json('{"name": "x", "coords": [{"kind": "power", "domain": [0, 1], "p": 2.0}]}')
        assert a == b

    def test_sample_from_dict_variants(self):
        bare = sample_from_dict({"points": ["a"], "psi": [[0.0]]})
        assert bare.size == 1
        table = sample_from_dict({"kind": "table", "points": ["a"], "psi": [[0.0]]})
        assert table.size == 1
        ind = sample_from_dict({"kind": "indicator", "blocks": [["a", "b"], ["c"]]})
        assert ind.value("a", "c") == 1.0
        with pytest.raises(ValueError, match="not finite"):
            sample_from_dict({"kind": "power", "p": 1.0})

    def test_indicator_blocks_must_be_disjoint(self):
        with pytest.raises(ValueError, match="overlap"):
            IndicatorModulus((("a",), ("a", "b")))


class TestFamilyDescription:
    def test_needs_a_coordinate(self):
        with pytest.raises(ValueError):
            FamilyDescription(())
