import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlike.core import FamilyDescription, ModulusSample, TableModulus
from sumlike.reductions import (
    BlockLevel,
    BlockPlan,
    BlockSelectionError,
    KochParams,
    block_reduce,
    clamp_reduce,
    clamp_window_for,
    estimate_holder,
    family_weight_streams,
    indicator_modulus,
    koch_interleave,
    koch_point,
    normalize_metric,
    pair_nn,
    pair_nz,
    product_placement,
    select_blocks,
    unpair_nn,
    unpair_nz,
    verify_block_inequality,
)


class TestClampReduce:
    def test_branches(self):
        rows = clamp_reduce([2.5], (2, 2))
        assert rows[0] == [0.5]
        assert clamp_reduce([2.5], (5, 5))[0] == [0.0]
        assert clamp_reduce([2.5], (0, 0))[0] == [1.0]

    def test_cli_window(self):
        rows = clamp_reduce([2.5], (-1, 4))
        assert rows[0] == [1.0, 1.0, 1.0, 0.5, 0.0, 0.0]

    def test_rows_nonincreasing(self):
        row = clamp_reduce([1.7], (-3, 5))[0]
        assert all(a >= b for a, b in zip(row, row[1:]))

    def test_empty_window_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            clamp_reduce([0.5], (3, 2))

    def row_difference(self, z, w):
        window = clamp_window_for(z, w)
        rz = clamp_reduce([z], window)[0]
        rw = clamp_reduce([w], window)[0]
        return sum(abs(a - b) for a, b in zip(rz, rw))

    def test_difference_identity_examples(self):
        assert self.row_difference(2.5, 0.25) == pytest.approx(2.25, abs=1e-12)
        assert self.row_difference(-1.2, 1.3) == pytest.approx(2.5, abs=1e-12)
        assert self.row_difference(0.0, 0.0) == 0.0

    @given(
        st.floats(min_value=-5.0, max_value=5.0, allow_nan=False),
        st.floats(min_value=-3.0, max_value=3.0, allow_nan=False),
    )
    @settings(max_examples=200, deadline=None)
    def test_difference_identity_property(self, z, delta):
        w = z + delta
        assert self.row_difference(z, w) == pytest.approx(abs(z - w), abs=1e-12)


class TestPairings:
    def test_cantor_round_trip(self):
        for n in range(300):
            i, j = unpair_nn(n)
            assert pair_nn(i, j) == n

    def test_cantor_is_bijective_on_window(self):
        seen = {pair_nn(i, j) for i in range(20) for j in range(20)}
        assert len(seen) == 400

    def test_z_enumeration_order(self):
        # Z enumerated 0, -1, 1, -2, 2, ...
        assert [unpair_nz(pair_nz(0, k))[1] for k in (0, -1, 1, -2, 2)] == [0, -1, 1, -2, 2]

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            pair_nn(-1, 0)

    def test_placement(self):
        vec = product_placement("u", 2, 30)
        for n, entry in enumerate(vec):
            k, _ = unpair_nn(n)
            if k == 2:
                assert entry == "u"
            else:
                assert entry == f"a{k}"


class TestSelectBlocks:
    def test_constant_stream_level_zero(self):
        plan = select_blocks([[0.3] * 8], 1)
        blk = plan.levels[0]
        assert (blk.start, blk.end) == (0, 3)
        assert blk.total == pytest.approx(1.2)

    def test_inadmissible_weights_error(self):
        with pytest.raises(BlockSelectionError, match="level 1"):
            select_blocks([[0.3] * 8, [0.6] * 8], 2)

    def test_exact_sum_one(self):
        stream = [2.0 ** (-4)] * 32
        plan = select_blocks([[0.9] * 40, [0.3] * 40, stream], 3)
        blk = plan.levels[2]
        assert blk.end - blk.start + 1 == 16
        assert blk.total == 1.0

    def test_spike_resets_the_run(self):
        plan = select_blocks([[0.4, 0.4, 1.5, 0.5, 0.5, 0.5]], 1)
        blk = plan.levels[0]
        assert (blk.start, blk.end) == (3, 4)

    def test_blocks_strictly_ordered(self):
        plan = select_blocks([[0.4] * 10, [0.3] * 30], 2)
        first, second = plan.levels
        assert first.end < second.start

    def test_exhaustion_error(self):
        with pytest.raises(BlockSelectionError, match="exhausted"):
            select_blocks([[0.1] * 5], 1)

    def test_negative_weight_rejected(self):
        with pytest.raises(ValueError, match="negative"):
            select_blocks([[0.3, -0.1, 0.9]], 1)

    def test_plan_invariants_enforced(self):
        with pytest.raises(ValueError, match="sum"):
            BlockPlan((BlockLevel(0, 0, 1, (0.3, 0.3)),))
        with pytest.raises(ValueError, match="weight"):
            BlockPlan((BlockLevel(0, 0, 1, (1.2, 0.3)),))
        with pytest.raises(ValueError, match="ordering|start"):
            BlockPlan(
                (
                    BlockLevel(0, 0, 3, (0.3,) * 4),
                    BlockLevel(1, 3, 8, (0.2,) * 6),
                )
            )

    def test_pairs_streams_recorded(self):
        streams = [[0.3] * 8]
        pairs = [[("u", "v")] * 8]
        plan = select_blocks(streams, 1, pairs)
        assert plan.levels[0].pairs == (("u", "v"),) * 4


class TestBlockReduce:
    def plan(self):
        return select_blocks([[0.3] * 8], 1)

    def test_threshold_walk(self):
        assert block_reduce([1.0], self.plan()) == ["x0", "x0", "x0", "y0"]

    def test_zero_switches_immediately(self):
        assert block_reduce([0.0], self.plan()) == ["y0"] * 4

    def test_intermediate_threshold(self):
        # partials 0.3, 0.6, 0.9, 1.2 against 0.65
        assert block_reduce([0.65], self.plan()) == ["x0", "x0", "y0", "y0"]

    def test_filler_outside_blocks(self):
        plan = BlockPlan((BlockLevel(0, 2, 5, (0.3,) * 4),))
        vec = block_reduce([1.0], plan)
        assert vec[:2] == ["a", "a"]
        assert vec[2:] == ["x0", "x0", "x0", "y0"]

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="level"):
            block_reduce([0.5, 0.5], self.plan())

    def test_entries_outside_unit_interval_clamped(self):
        # 1 + 2**-l behaves as the threshold 1
        assert block_reduce([1.5], self.plan()) == block_reduce([1.0], self.plan())
        assert block_reduce([-0.2], self.plan()) == block_reduce([0.0], self.plan())

    @given(st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=2, max_size=2))
    @settings(max_examples=100, deadline=None)
    def test_switch_index_monotone(self, zs):
        lo, hi = sorted(zs)
        plan = self.plan()
        low_vec = block_reduce([lo], plan)
        high_vec = block_reduce([hi], plan)
        # a larger threshold never moves a coordinate from x back to y
        for a, b in zip(low_vec, high_vec):
            assert not (a.startswith("x") and b.startswith("y"))


class TestVerifyBlockInequality:
    def test_equal_inputs(self):
        plan = select_blocks([[0.3] * 8], 1)
        margins = verify_block_inequality([0.7], [0.7], plan)
        assert margins[0].disagreement_sum == 0.0
        assert margins[0].within

    def test_half_gap_walk(self):
        plan = select_blocks([[0.3] * 8], 1)
        margins = verify_block_inequality([1.0], [0.5], plan)
        assert margins[0].disagreement_sum == pytest.approx(0.6)
        assert margins[0].lower == pytest.approx(-0.5)
        assert margins[0].upper == pytest.approx(1.5)
        assert margins[0].within

    def test_tight_level_five(self):
        rng = np.random.default_rng(31)
        streams = [(rng.random(4000) * 2.0 ** (-l) * 0.999).tolist() for l in range(6)]
        plan = select_blocks(streams, 6)
        z = rng.random(6).tolist()
        w = rng.random(6).tolist()
        for margin in verify_block_inequality(z, w, plan):
            assert margin.within
            assert abs(margin.disagreement_sum - margin.gap) < margin.bound

    def test_family_pairs_used_when_supplied(self):
        table = TableModulus(ModulusSample(["u", "v"], [[0.0, 0.3], [0.3, 0.0]]))
        fam = FamilyDescription((table,) * 8)
        streams, pairs = family_weight_streams(fam, 1)
        plan = select_blocks(streams, 1, pairs)
        margins = verify_block_inequality([1.0], [0.0], plan, fam)
        # walks (x,x,x,y) vs (y,y,y,y): three disagreements of psi(u,v) = 0.3
        assert margins[0].disagreement_sum == pytest.approx(0.9)

    def test_power_family_streams(self):
        from sumlike.catalog import power_family

        fam = power_family(64, p=1.0)
        streams, pairs = family_weight_streams(fam, 3)
        # level l draws per-coordinate values just below 2**-l
        for l, stream in enumerate(streams):
            cap = 2.0 ** (-l)
            assert all(cap * 0.999 < w < cap for w in stream)
        plan = select_blocks(streams, 3, pairs)
        for margin in verify_block_inequality([0.4, 0.8, 0.1], [0.9, 0.2, 0.7], plan, fam):
            assert margin.within


class TestNormalizeMetric:
    def test_branches(self):
        s = ModulusSample(["a", "b", "c"], [[0, 0.001, 0.7], [0.001, 0, 0.7], [0.7, 0.7, 0]])
        out = normalize_metric(s, 3)
        assert out.value("a", "a") == 0.0
        assert out.value("a", "b") == 0.125
        assert out.value("a", "c") == 0.7

    def test_metric_axioms_preserved(self):
        rng = np.random.default_rng(37)
        from conftest import euclidean_sample

        for n in (2, 3, 5):
            base = euclidean_sample(rng, 8)
            out = normalize_metric(base, n).matrix()
            m = out.shape[0]
            assert (np.diag(out) == 0).all()
            assert (out == out.T).all()
            floor = 2.0 ** (-n)
            off = out[~np.eye(m, dtype=bool)]
            assert (off >= floor).all()
            for k in range(m):
                assert (out <= out[:, [k]] + out[[k], :] + 1e-15).all()

    def test_indicator_modulus_helper(self):
        spec = indicator_modulus([["a", "b"], ["c"]])
        assert spec.psi("a", "b") == 0.0
        assert spec.psi("a", "c") == 1.0
        with pytest.raises(ValueError, match="overlap"):
            indicator_modulus([["a"], ["a"]])


class TestKochPoint:
    def test_endpoints_fixed(self):
        for rho in (0.6, 0.75, 0.9):
            for depth in (1, 5, 12):
                params = KochParams.from_rho(rho, depth)
                assert koch_point(params, 0.0) == (0.0, 0.0)
                assert koch_point(params, 1.0) == (1.0, 0.0)

    def test_quarter_ratio_degenerates_to_segment(self):
        params = KochParams.from_r(0.25, depth=16)
        x, y = koch_point(params, 0.37)
        assert x == pytest.approx(0.37, abs=1e-12)
        assert y == pytest.approx(0.0, abs=1e-15)

    def test_first_generator_vertex(self):
        params = KochParams.from_rho(0.75, depth=1)
        x, y = koch_point(params, 0.25)
        assert (x, y) == (params.r, 0.0)

    def test_interval_translation(self):
        # 2.3 - 2 differs from 0.3 by an ulp, so compare at float precision
        params = KochParams.from_rho(0.75, depth=8)
        x0, y0 = koch_point(params, 0.3)
        x2, y2 = koch_point(params, 2.3)
        assert x2 == pytest.approx(x0 + 4.0, abs=1e-12)
        assert y2 == pytest.approx(y0, abs=1e-12)

    def test_separation_across_windows(self):
        params = KochParams.from_rho(0.75, depth=10)
        rng = np.random.default_rng(41)
        for _ in range(50):
            s = float(rng.random())             # interval [0, 1]
            t = 2.0 + float(rng.random())       # interval [2, 3]
            xs, ys = koch_point(params, s)
            xt, yt = koch_point(params, t)
            assert math.hypot(xs - xt, ys - yt) >= 1.0

    def test_depth_cauchy(self):
        rng = np.random.default_rng(43)
        for rho in (0.6, 0.9):
            for depth in (4, 8, 12):
                pa = KochParams.from_rho(rho, depth)
                pb = KochParams.from_rho(rho, depth + 1)
                bound = pa.r ** depth * 2.0
                for s in rng.random(40):
                    ax, ay = koch_point(pa, float(s))
                    bx, by = koch_point(pb, float(s))
                    assert math.hypot(ax - bx, ay - by) <= bound

    def test_ratio_bounds_validated(self):
        with pytest.raises(ValueError, match="ratio"):
            KochParams.from_r(0.2)
        with pytest.raises(ValueError, match="r = 4"):
            KochParams(rho=0.75, r=0.4)
        with pytest.raises(ValueError, match="depth"):
            KochParams.from_rho(0.75, depth=0)


class TestKochInterleave:
    def test_singleton_zero(self):
        params = KochParams.from_rho(0.75)
        assert koch_interleave([0.0], params) == [0.0, 0.0]

    def test_endpoint_pair(self):
        params = KochParams.from_rho(0.75)
        assert koch_interleave([1.0, 0.0], params) == [1.0, 0.0, 0.0, 0.0]

    def test_generator_vertex_value(self):
        params = KochParams.from_rho(0.75, depth=1)
        out = koch_interleave([0.25], params)
        assert out[0] == pytest.approx(0.3535533905932738, rel=1e-12)
        assert out[1] == 0.0


class TestEstimateHolder:
    def test_dyadic_self_similarity(self):
        params = KochParams.from_rho(0.75, depth=12)
        pairs = [(0.0, 4.0 ** (-k)) for k in range(1, 11)]
        est = estimate_holder(params, pairs)
        assert est.m_prime == pytest.approx(1.0, abs=1e-9)
        assert est.M_prime == pytest.approx(1.0, abs=1e-9)

    def test_unit_pair_ratio_one(self):
        params = KochParams.from_rho(0.6, depth=12)
        est = estimate_holder(params, [(0.0, 1.0)])
        assert est.m_prime == pytest.approx(1.0, abs=1e-12)

    def test_norm_chain_holds(self):
        params = KochParams.from_rho(0.75, depth=12)
        rng = np.random.default_rng(47)
        pairs = []
        while len(pairs) < 300:
            s, t = rng.random(2)
            if abs(s - t) > 1e-6:
                pairs.append((float(s), float(t)))
        for q in (0.75, 1.0, 2.0):
            est = estimate_holder(params, pairs, q=q)
            assert est.norm_chain_ok
            assert est.m_prime > 0.0 and math.isfinite(est.M_prime)

    def test_window_enforced(self):
        params = KochParams.from_rho(0.75, depth=12)
        with pytest.raises(ValueError, match="window"):
            estimate_holder(params, [(0.5, 2.6)])

    def test_resolution_guard(self):
        params = KochParams.from_rho(0.75, depth=5)
        with pytest.raises(ValueError, match="resolution"):
            estimate_holder(params, [(0.0, 4.0 ** (-6))])

    def test_tiny_q_rejected(self):
        params = KochParams.from_rho(0.75)
        with pytest.raises(ValueError, match="finite"):
            estimate_holder(params, [(0.1, 0.2)], q=1e-4)

    def test_distinct_pairs_required(self):
        params = KochParams.from_rho(0.75, depth=5)
        with pytest.raises(ValueError, match="distinct"):
            estimate_holder(params, [(0.3, 0.3)])
