"""Acceptance gate: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (run with ``pytest tests/test_acceptance.py
-v -s`` to see them inline).  Criterion 7 is split in two.  The end-to-end
test checks the Example-4 modulus: continuity, tooth ratios, the failure of
the domination condition and the two-term worked example.  The
group-inequality test checks the inequality audit on both sides of the
construction's slope-ratio bound ``2 + sqrt(5)``: the steep preset is
subadditive, its reverse-inequality violation is reproduced in exact rational
arithmetic on a tooth above the bound, and a many-tooth modulus whose ratios
all stay below the bound passes the whole audit.
"""

import json
import math
import time
from fractions import Fraction

import numpy as np

from conftest import euclidean_sample, exact_value, indicator_sample, quasi_sample, snowflake_sample
from sumlike import cli
from sumlike.catalog import (
    EXAMPLE4_PRESETS,
    Example4Spec,
    build_example4,
    example4_ratio,
    log_grid,
    modulus_scan_grid,
    growing_indicator_family,
    power_family,
    uniform_indicator_family,
    verify_example4_inequalities,
)
from sumlike.conditions import classify_trichotomy, mazur_orlicz_check, quasi_constants
from sumlike.core import DEFAULT_TOL, ModulusSample
from sumlike.metrization import metrize
from sumlike.reductions import (
    KochParams,
    clamp_reduce,
    clamp_window_for,
    estimate_holder,
    select_blocks,
    verify_block_inequality,
)


def report(criterion, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {criterion}: {detail}")
    assert ok, f"criterion {criterion}: {detail}"


def random_certificates(rng, count, max_points=40, with_quasi=False):
    makers = [
        lambda n: euclidean_sample(rng, n),
        lambda n: snowflake_sample(rng, n, 0.5 + 0.5 * float(rng.random())),
        lambda n: indicator_sample(rng, n, int(rng.integers(1, 6))),
    ]
    if with_quasi:
        makers.append(lambda n: quasi_sample(rng, n))
    for i in range(count):
        n = int(rng.integers(3, max_points + 1))
        yield metrize(makers[i % len(makers)](n))


def test_criterion_1_metrization_sandwich():
    rng = np.random.default_rng(101)
    started = time.perf_counter()
    bad = []
    for i, cert in enumerate(random_certificates(rng, 50)):
        if not (cert.all_ok and not cert.advisory):
            bad.append(i)
    elapsed = time.perf_counter() - started
    report(
        1,
        not bad and elapsed < 10.0,
        f"50 random samples, all certificate flags true, {elapsed:.2f}s (budget 10s)"
        + (f"; failing samples {bad}" if bad else ""),
    )


def test_criterion_2_containments():
    rng = np.random.default_rng(202)
    violations = 0
    checked = 0
    for cert in random_certificates(rng, 30, with_quasi=True):
        if not all(cert.composition_ok):
            continue  # containments are only promised under the composition property
        checked += len(cert.containment)
        violations += sum(1 for c in cert.containment if not c.ok)
    report(2, checked > 0 and violations == 0, f"{checked} levels checked, {violations} violations")


def test_criterion_3_quasi_constant_exactness():
    started = time.perf_counter()
    grid = list(np.linspace(0.0, 1.0, 20))
    labels = [repr(v) for v in grid]
    ok = True
    details = []
    for p in (0.5, 0.8, 1.0):
        table = [[abs(a - b) ** p for b in grid] for a in grid]
        qc = quasi_constants(ModulusSample(labels, table))
        good = abs(qc.c_tri - 1.0) <= 1e-12
        ok = ok and good
        details.append(f"p={p}: c_tri={qc.c_tri!r}")
    for p in (1.5, 2.0):
        table = [[abs(a - b) ** p for b in grid] for a in grid]
        qc = quasi_constants(ModulusSample(labels, table))
        bound = 2.0 ** (p - 1.0)
        # the stored table entries round independently, so the minimal
        # constant for the table itself can sit a couple of ulps above the
        # real-arithmetic bound; the upper end is held at the same 1e-12
        # precision the criterion grants the p <= 1 equality
        good = bound * (1.0 - 1e-6) <= qc.c_tri <= bound * (1.0 + 1e-12)
        ok = ok and good
        details.append(f"p={p}: c_tri={qc.c_tri!r} vs 2^(p-1)={bound!r}")
    elapsed = time.perf_counter() - started
    report(3, ok and elapsed < 1.0, f"{'; '.join(details)}; {elapsed:.3f}s (budget 1s)")


def test_criterion_4_block_machinery():
    rng = np.random.default_rng(404)
    plan_violations = 0
    margin_violations = 0
    for _ in range(100):
        levels = int(rng.integers(1, 9))
        streams = []
        for l in range(levels):
            cap = 2.0 ** (-l)
            clean = (rng.random(4 * 2 ** l + 64) * cap * 0.999).tolist()
            if rng.random() < 0.3:
                clean.insert(0, cap * 1.5)  # exercise the reset-on-spike path
            streams.append(clean)
        plan = select_blocks(streams, levels)
        prev_end = -1
        for blk in plan.levels:
            cap = 2.0 ** (-blk.level)
            total = 0.0
            for w in blk.weights:
                total += w
            if not (prev_end < blk.start < blk.end):
                plan_violations += 1
            if any(not (0.0 <= w < cap) for w in blk.weights):
                plan_violations += 1
            if not (1.0 <= total < 1.0 + cap):
                plan_violations += 1
            prev_end = blk.end
        z = rng.random(levels).tolist()
        w = rng.random(levels).tolist()
        for margin in verify_block_inequality(z, w, plan):
            if not (margin.lower < margin.disagreement_sum < margin.upper):
                margin_violations += 1
    report(
        4,
        plan_violations == 0 and margin_violations == 0,
        f"100 plans: {plan_violations} plan violations, {margin_violations} margin violations",
    )


def test_criterion_5_clamp_identity():
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(1000):
        z = float(rng.uniform(-5.0, 5.0))
        w = z + float(rng.uniform(-3.0, 3.0))
        window = clamp_window_for(z, w)
        rz = clamp_reduce([z], window)[0]
        rw = clamp_reduce([w], window)[0]
        total = sum(abs(a - b) for a, b in zip(rz, rw))
        worst = max(worst, abs(total - abs(z - w)))
    report(5, worst <= 1e-12, f"1000 pairs, worst identity error {worst:.3e} (tolerance 1e-12)")


def test_criterion_6_koch_self_similarity():
    started = time.perf_counter()
    rng = np.random.default_rng(606)
    ok = True
    details = []
    for rho in (0.6, 0.75, 0.9):
        params = KochParams.from_rho(rho, depth=12)
        dyadic = [(0.0, 4.0 ** (-k)) for k in range(1, params.depth - 1)]
        est = estimate_holder(params, dyadic)
        dyadic_ok = abs(est.m_prime - 1.0) <= 1e-9 and abs(est.M_prime - 1.0) <= 1e-9
        pairs = []
        while len(pairs) < 1000:
            s, t = rng.random(2)
            if abs(s - t) > 4.0 ** (-params.depth) * 4.0:
                pairs.append((float(s), float(t)))
        scan = estimate_holder(params, pairs, q=1.0 if rho != 0.75 else 0.75)
        scan_ok = scan.m_prime > 0.0 and math.isfinite(scan.M_prime) and scan.norm_chain_ok
        ok = ok and dyadic_ok and scan_ok
        details.append(f"rho={rho}: dyadic ratio 1 within 1e-9={dyadic_ok}, m'={scan.m_prime:.3f}")
    elapsed = time.perf_counter() - started
    report(6, ok and elapsed < 5.0, f"{'; '.join(details)}; {elapsed:.2f}s (budget 5s)")


def steep_preset():
    spec = EXAMPLE4_PRESETS["steep"]()
    assert len(spec.a) == 9  # M = 8
    return spec


def test_criterion_7_example4_end_to_end():
    f = build_example4(steep_preset())
    continuity = f.continuity_report()
    cont_ok = continuity["continuous"] and continuity["max_jump"] <= 1e-12

    ratio_ok = True
    for n in range(f.tooth_count):
        check = example4_ratio(f, n)
        closed = 0.5 * (1.0 + f.slopes[n + 1] / f.slopes[n])
        ratio_ok = ratio_ok and abs(check.direct - closed) <= 1e-9 * closed

    mo = mazur_orlicz_check(f, modulus_scan_grid(f))
    mo_ok = mo.cond_b_prime.status == "UNBOUNDED"

    two_term = build_example4(Example4Spec((0.25, 1.0 / 64.0), "sqrt"))
    check = example4_ratio(two_term, 0)
    two_term_ok = check.closed_form == 2.5 and abs(check.direct - 2.5) <= 1e-9

    report(
        "7 (continuity, ratios, domination failure, worked example)",
        cont_ok and ratio_ok and mo_ok and two_term_ok,
        f"max jump {continuity['max_jump']:.2e}; 8 tooth ratios within 1e-9; "
        f"b' status {mo.cond_b_prime.status}; two-term ratio {check.direct!r}",
    )


def test_criterion_7_group_inequalities_as_stated():
    # Criterion 7 audits f(s+t) <= f(s) + f(t) and f(s) <= f(s+t) + f(t).  In
    # this construction the reverse inequality caps the slope ratio
    # R = k_{n+1}/k_n of a tooth: at s = a_{n+1}, t = b_n it reads
    # R**2 - 4R - 1 <= 0, i.e. R <= 2 + sqrt(5).  The steep preset needs
    # unbounded ratios (they make the domination check UNBOUNDED), so it stays
    # subadditive but breaks the reverse inequality; exact witness s = 1/320,
    # t = 1/100 with f(s) = 1/20 > 37/800 = f(s+t) + f(t).  So the scan must
    # find no subadditivity violation on the steep grid, its reverse violation
    # must be reproduced in exact arithmetic on a tooth with R > 2 + sqrt(5),
    # and a many-tooth modulus with every R <= 2 + sqrt(5) must pass.
    eps_abs = DEFAULT_TOL.eps_abs
    rel = Fraction(1e-9)
    bound = 2.0 + math.sqrt(5.0)

    f = build_example4(steep_preset())
    grid = log_grid(f.breakpoints[-1] * 0.5, 2.0 * f.breakpoints[0], 200)
    scan = verify_example4_inequalities(f, grid)
    subadd_ok = scan.max_subadd_violation <= eps_abs

    s, t = scan.worst_reverse_pair
    exact = exact_value(f, s) - (exact_value(f, Fraction(s) + Fraction(t)) + exact_value(f, t))
    reverse_ok = (
        exact > 0
        and math.isfinite(scan.max_reverse_violation)
        and abs(exact - Fraction(scan.max_reverse_violation)) <= rel * exact
    )
    # s on the rising piece of slope k_{n+1}, t on the next one up, of slope k_n
    lower = (*f.joins, 0.0)
    rises = [n for x in (s, t) for n in range(len(f.slopes)) if lower[n] <= x < f.breakpoints[n]]
    tooth_ok = (
        len(rises) == 2
        and rises[0] == rises[1] + 1
        and f.slopes[rises[0]] / f.slopes[rises[1]] > bound
    )

    # sqrt-gauge anchors 0.25 * 16**-n give slopes 2 * 4**n: every ratio is 4
    mild = build_example4(Example4Spec(tuple(0.25 * 16.0 ** -n for n in range(9)), "sqrt"))
    mild_ratios = [hi / lo for lo, hi in zip(mild.slopes, mild.slopes[1:])]
    mild_grid = set(log_grid(mild.breakpoints[-1] * 0.5, 2.0 * mild.breakpoints[0], 200))
    mild_scan = verify_example4_inequalities(
        mild, mild_grid | set(mild.breakpoints) | set(mild.joins)
    )
    mild_ok = max(mild_ratios) <= bound and mild_scan.ok

    report(
        "7 (group inequalities on 200-point log grids)",
        subadd_ok and reverse_ok and tooth_ok and mild_ok,
        f"steep: max subadditivity violation {scan.max_subadd_violation:.3e}, "
        f"reverse violation {scan.max_reverse_violation:.3e} at {scan.worst_reverse_pair}, "
        f"exact {float(exact):.3e} on rising pieces {rises}; "
        f"ratios {sorted(set(mild_ratios))}: ok={mild_scan.ok}, "
        f"max reverse violation {mild_scan.max_reverse_violation:.3e}",
    )


def test_criterion_8_classifier_smoke():
    started = time.perf_counter()
    branches = {
        "power": classify_trichotomy(power_family(2048, p=1.0)).branch,
        "one-block": classify_trichotomy(uniform_indicator_family(32, 1)).branch,
        "two-block": classify_trichotomy(uniform_indicator_family(32, 2)).branch,
        "growing": classify_trichotomy(growing_indicator_family(64, 17)).branch,
    }
    expected = {
        "power": "L1_LIKE",
        "one-block": "TRIVIAL",
        "two-block": "E0_LIKE",
        "growing": "E1_LIKE",
    }
    elapsed = time.perf_counter() - started
    report(
        8,
        branches == expected and elapsed < 2.0,
        f"{branches}; {elapsed:.2f}s (budget 2s)",
    )


def reject_non_finite(name):
    raise ValueError(f"report is not strict JSON: {name}")


def test_criterion_9_cli_determinism(tmp_path, monkeypatch):
    values = [i / 10 for i in range(6)]
    sample = tmp_path / "sample.json"
    sample.write_text(
        json.dumps(
            {
                "points": [repr(v) for v in values],
                "psi": [[abs(a - b) for b in values] for a in values],
            }
        )
    )
    family = tmp_path / "family.json"
    family.write_text(
        json.dumps({"coords": [{"kind": "indicator", "blocks": [["u"], ["v"]]}] * 16})
    )
    clamp_in = tmp_path / "clamp.json"
    clamp_in.write_text(json.dumps({"z": [2.5], "window": [-1, 4]}))
    blocks_in = tmp_path / "blocks.json"
    blocks_in.write_text(json.dumps({"levels": 2, "streams": [[0.3] * 8, [0.2] * 16]}))
    koch_in = tmp_path / "koch.json"
    koch_in.write_text(
        json.dumps({"rho": 0.75, "depth": 12, "values": [0.0, 0.25, 0.5, 1.0], "pairs": [[0.0, 0.25]]})
    )

    commands = {
        "check": ["check", str(sample.parent / "family.json")],
        "metrize": ["metrize", str(sample)],
        "classify": ["classify", str(family)],
        "reduce-clamp": ["reduce", "clamp", str(clamp_in)],
        "reduce-blocks": ["reduce", "blocks", str(blocks_in)],
        "reduce-koch": ["reduce", "koch", str(koch_in)],
        "example4": ["example4", "--preset", "two-term"],
    }

    mismatches = []
    for name, argv in commands.items():
        payloads = []
        for run, threads in enumerate(("0", "7")):
            monkeypatch.setenv("SUMLIKE_THREADS", threads)
            out = tmp_path / f"{name}-{run}.json"
            code = cli.main([*argv, "--out", str(out)])
            assert code in (0, 1), f"{name} returned input error"
            result = json.loads(out.read_text(), parse_constant=reject_non_finite)["result"]
            payloads.append(json.dumps(result, sort_keys=True).encode("utf-8"))
        if payloads[0] != payloads[1]:
            mismatches.append(name)
    report(
        9,
        not mismatches,
        f"{len(commands)} commands replayed under different SUMLIKE_THREADS, "
        + ("bitwise-identical payloads" if not mismatches else f"mismatches: {mismatches}"),
    )
