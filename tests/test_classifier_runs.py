"""The classifier's one-relation-per-distinct-spec report against the per-coordinate classifier.

The reference below is the classifier as it was before coordinates with
equal specs shared their work: one ``best_admissible`` call per coordinate
and threshold, one threshold relation per coordinate, classes by union-find
over the relation's pairs, and one ``fn_reports`` entry per coordinate.
Comparisons are on JSON text, so ``-0.0`` and ``0.0`` differ.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sumlike.catalog import EXAMPLE4_PRESETS, build_example4, growing_indicator_family
from sumlike.conditions import (
    _VIOLATION_CAP,
    BRANCH_E0,
    BRANCH_E1,
    BRANCH_L1,
    BRANCH_TRIVIAL,
    BRANCH_UNDECIDED,
    DEFAULT_C_GRID,
    ClassifierThresholds,
    _relation_product,
    best_admissible,
    build_threshold_relation,
    classify_trichotomy,
    coordinate_grid,
)
from sumlike.core import (
    DEFAULT_TOL,
    FamilyDescription,
    FunctionModulus,
    IndicatorModulus,
    ModulusSample,
    PiecewiseModulus,
    PowerModulus,
    TableModulus,
)

# --- reference: the per-coordinate classifier ---------------------------------------


def ref_partition_from_pairs(points, adj):
    """Union-find over the adjacency matrix of a valid relation."""
    parent = list(range(len(points)))

    def find(i):
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    rows, cols = np.nonzero(adj)
    for i, j in zip(rows.tolist(), cols.tolist()):
        ri, rj = find(i), find(j)
        if ri != rj:
            parent[max(ri, rj)] = min(ri, rj)
    groups = {}
    for i, p in enumerate(points):
        groups.setdefault(find(i), []).append(p)
    return tuple(tuple(groups[r]) for r in sorted(groups))


def ref_relation(spec, c, tol, grid, coord):
    sample = spec.as_sample(grid)
    adj = sample.psi < c
    points = sample.points
    violations = []
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
    classes = ref_partition_from_pairs(points, adj) if refl and sym and trans else None
    pairs = frozenset((points[int(i)], points[int(j)]) for i, j in np.argwhere(adj))
    return {
        "coord": coord,
        "threshold": c,
        "points": list(points),
        "pair_count": len(pairs),
        "reflexive": refl,
        "symmetric": sym,
        "transitive": trans,
        "violations": [list(v) for v in violations],
        "classes": [list(k) for k in classes] if classes is not None else None,
        "class_count": len(classes) if classes is not None else None,
        "valid": refl and sym and trans,
    }


def ref_witness(fam, c, target, tol):
    terms, total = [], 0.0
    for n, spec in enumerate(fam.coords):
        found = best_admissible(spec, c, tol)
        if found is None:
            continue
        u, v, value = found
        terms.append({"coord": n, "u": u, "v": v, "value": value})
        total += value
        if total >= target:
            return {"c": c, "target": target, "total": total, "terms": terms}
    return None


def ref_classify(fam, c_grid=None, th=None, tol=DEFAULT_TOL) -> dict:
    """The per-coordinate classifier's ``to_dict()``."""
    grid = tuple(sorted(set(float(c) for c in (c_grid or DEFAULT_C_GRID)), reverse=True))
    th = th or ClassifierThresholds()
    narrative = []
    if fam.tail is not None:
        narrative.append(f"declared tail annotation {fam.tail!r} (reported only, never summed)")
    narrative.append(
        f"growth bound {th.class_growth_bound} is a finite stand-in for "
        "'perfectly many classes'; verdicts describe this truncation only"
    )
    witnesses = {}
    for c in grid:
        w = witnesses[c] = ref_witness(fam, c, th.target, tol)
        if w is None:
            narrative.append(f"c={c:g}: no witness with sum >= {th.target:g} at this truncation")
        else:
            narrative.append(f"c={c:g}: witness total {w['total']:.6g} over {len(w['terms'])} coordinates")

    def out(branch, witness, reports, c_star, prefix):
        for r in reports:
            r.pop("valid")
        return {
            "branch": branch,
            "l1_witness": witness,
            "fn_reports": reports,
            "c_grid": list(grid),
            "c_star": c_star,
            "thresholds": {
                "target": th.target,
                "budget": None,
                "class_growth_bound": th.class_growth_bound,
                "grid_points": th.grid_points,
            },
            "observed_prefix": prefix,
            "narrative": narrative,
        }

    failing = [c for c in grid if witnesses[c] is None]
    if not failing:
        narrative.append("small-terms divergence realized for every threshold in the grid")
        return out(BRANCH_L1, witnesses[grid[-1]], [], None, None)
    c_star = min(failing)
    narrative.append(f"building threshold relations at smallest failing threshold c={c_star:g}")
    reports = [
        ref_relation(spec, c_star, tol, coordinate_grid(spec, th.grid_points), n)
        for n, spec in enumerate(fam.coords)
    ]
    invalid = [r["coord"] for r in reports if not r["valid"]]
    prefix = 0
    while prefix < len(invalid) and invalid[prefix] == prefix:
        prefix += 1
    if len(invalid) > prefix:
        narrative.append(
            f"threshold relation invalid beyond the initial prefix at coordinate {invalid[prefix]}; "
            "this contradicts cofinite validity, verdict undecided"
        )
        return out(BRANCH_UNDECIDED, None, reports, c_star, prefix)
    if prefix:
        narrative.append(f"tolerated invalid initial prefix of length {prefix}")
    counts = [r["class_count"] for r in reports[prefix:]]
    if not counts:
        narrative.append("no valid coordinates beyond the prefix; verdict undecided")
        return out(BRANCH_UNDECIDED, None, reports, c_star, prefix)
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
    return out(branch, None, reports, c_star, prefix)


# --- the comparison ---------------------------------------------------------------


def expand_runs(result: dict, size: int) -> list:
    """Per-coordinate relation list from ``fn_reports`` and ``fn_runs``, ``coord`` added back."""
    runs = result["fn_runs"]
    out = []
    for r, (first, k) in enumerate(runs):
        end = runs[r + 1][0] if r + 1 < len(runs) else size
        out += [{"coord": n, **result["fn_reports"][k]} for n in range(first, end)]
    return out


def dump(obj) -> str:
    return json.dumps(obj, sort_keys=True, allow_nan=False)


def assert_matches_reference(fam, c_grid=None, th=None):
    new = classify_trichotomy(fam, c_grid, th).to_dict()
    old = ref_classify(fam, c_grid, th)
    assert dump(expand_runs(new, fam.size)) == dump(old.pop("fn_reports"))
    old["thresholds"].pop("budget")
    assert dump({k: v for k, v in new.items() if k not in ("fn_reports", "fn_runs")}) == dump(old)
    runs, relations = new["fn_runs"], new["fn_reports"]
    # runs start at 0, change relation at every boundary, and meet each relation
    # in order of first appearance; no relation is listed twice
    if runs:
        assert runs[0][0] == 0
        assert all(a[1] != b[1] and a[0] < b[0] for a, b in zip(runs, runs[1:]))
        seen = []
        for _, k in runs:
            if k not in seen:
                seen.append(k)
        assert seen == list(range(len(relations)))
        distinct = {
            spec if isinstance(spec, (TableModulus, IndicatorModulus)) else repr(spec)
            for spec in fam.coords
        }
        assert len(relations) == len(distinct)
    return new


def table(rows, labels=("u", "v")):
    return TableModulus(ModulusSample(list(labels), rows))


TWO = IndicatorModulus((("u",), ("v",)))
ONE = IndicatorModulus((("u", "v"),))
MANY = IndicatorModulus(tuple((f"b{i}",) for i in range(5)))
MIXED = IndicatorModulus((("a", "b"), ("c",)))
# symmetric failure below every default threshold
INVALID = table([[0.0, 0.0005], [0.5, 0.0]])
ZERO_TABLE = table([[0.0, 1.0], [1.0, 0.0]])
NEG_ZERO_TABLE = table([[-0.0, 1.0], [1.0, -0.0]])
# equal as NumPy prints them
NEAR_TABLES = [table([[0.0, v], [v, 0.0]]) for v in (0.3, 0.3 + 1e-12)]
POWERS = [
    PowerModulus(1.0, (0.0, 1.0)),
    PowerModulus(1.0, (-0.0, 1.0)),
    PowerModulus(0.5, (-1.0, -0.0)),
    PowerModulus(0.5, (-1.0, 0.0)),
    PowerModulus(2.0, (0.0, 1.0)),
]
FUNCTION = FunctionModulus(build_example4(EXAMPLE4_PRESETS["two-term"]()), (-0.0, 0.5))
POOL = [
    TWO, ONE, MANY, MIXED, INVALID, ZERO_TABLE, NEG_ZERO_TABLE, *NEAR_TABLES, *POWERS, FUNCTION
]

C_GRIDS = [None, (1.0, 0.5, 0.25), (0.6,), (2.0, 0.001), (0.5, 0.3)]
SMALL = ClassifierThresholds(class_growth_bound=2, grid_points=5)


@settings(max_examples=80, deadline=None)
@given(
    coords=st.lists(st.sampled_from(POOL), min_size=1, max_size=10),
    c_grid=st.sampled_from(C_GRIDS),
    target=st.sampled_from([0.5, 1.0, 3.0]),
    bound=st.sampled_from([1, 2, 4]),
    grid_points=st.sampled_from([3, 5]),
)
def test_random_families_match_reference(coords, c_grid, target, bound, grid_points):
    th = ClassifierThresholds(target=target, class_growth_bound=bound, grid_points=grid_points)
    assert_matches_reference(FamilyDescription(tuple(coords)), c_grid, th)


@pytest.mark.parametrize(
    "coords, c_grid, branch",
    [
        pytest.param((TWO,) * 12, None, BRANCH_E0, id="repeated"),
        pytest.param((TWO, MANY) * 6, None, BRANCH_UNDECIDED, id="alternating"),
        pytest.param(growing_indicator_family(12, 6).coords, None, BRANCH_E1, id="growing"),
        pytest.param((INVALID, INVALID) + (TWO,) * 8, None, BRANCH_E0, id="invalid-prefix"),
        pytest.param((TWO,) * 3 + (INVALID,) + (TWO,) * 3, None, BRANCH_UNDECIDED, id="invalid-beyond"),
        pytest.param((INVALID,) * 4, None, BRANCH_UNDECIDED, id="all-invalid"),
        pytest.param((POWERS[0], POWERS[1]) * 3, (0.5,), BRANCH_L1, id="signed-zero-witness"),
        pytest.param((POWERS[1], POWERS[0]) * 3, (0.001,), BRANCH_E1, id="signed-zero-grid"),
        pytest.param((POWERS[2], POWERS[3]) * 3, (0.5,), BRANCH_L1, id="signed-zero-upper-end"),
        pytest.param(
            (ZERO_TABLE, NEG_ZERO_TABLE, POWERS[0]) * 3, (0.5,), BRANCH_L1, id="signed-zero-table"
        ),
        pytest.param(
            (NEG_ZERO_TABLE, ZERO_TABLE) * 3, (2.0, 0.5), BRANCH_E0, id="signed-zero-table-e0"
        ),
        pytest.param(tuple(NEAR_TABLES) * 3, (0.5,), BRANCH_L1, id="tables-equal-when-printed"),
    ],
)
def test_structured_families_match_reference(coords, c_grid, branch):
    new = assert_matches_reference(FamilyDescription(tuple(coords)), c_grid, SMALL)
    assert new["branch"] == branch


def test_signed_zero_specs_stay_apart():
    assert POWERS[0] == POWERS[1] and hash(POWERS[0]) == hash(POWERS[1])
    fam = FamilyDescription((POWERS[0], POWERS[1], POWERS[0], POWERS[1]))
    witness = classify_trichotomy(fam, (0.5,), ClassifierThresholds(target=1.5)).l1_witness
    assert [json.dumps(t.u) for t in witness.terms] == ["0.0", "-0.0", "0.0", "-0.0"]
    # the upper end -0.0 is the last grid point
    fam = FamilyDescription((POWERS[3], POWERS[2], POWERS[3]))
    report = classify_trichotomy(fam, (0.001,), SMALL).to_dict()
    assert report["fn_runs"] == [[0, 0], [1, 1], [2, 0]]
    assert [r["points"][-1] for r in report["fn_reports"]] == ["0.0", "-0.0"]
    # tables differing only in -0.0 keep their own zero witness values
    fam = FamilyDescription((ZERO_TABLE, NEG_ZERO_TABLE, POWERS[0]) * 3)
    witness = classify_trichotomy(fam, (0.5,)).l1_witness
    assert [json.dumps(t.value) for t in witness.terms[:2]] == ["0.0", "-0.0"]
    # function moduli whose degenerate caps differ only in -0.0 stay apart too
    caps = [FunctionModulus(PiecewiseModulus((1e-7,), (1e-6,), (), cap)) for cap in (0.0, -0.0)]
    assert caps[0] == caps[1]
    report = assert_matches_reference(FamilyDescription((*caps, *caps)), (0.5,), SMALL)
    assert report["fn_runs"] == [[0, 0], [1, 1], [2, 0], [3, 1]]


def test_each_distinct_relation_listed_once():
    fam = FamilyDescription((TWO,) * 5 + (MANY,) * 3 + (TWO,) * 2)
    report = classify_trichotomy(fam, thresholds=SMALL).to_dict()
    assert report["fn_runs"] == [[0, 0], [5, 1], [8, 0]]
    assert [r["class_count"] for r in report["fn_reports"]] == [2, 5]
    assert all("coord" not in r for r in report["fn_reports"])


@settings(max_examples=100, deadline=None)
@given(
    blocks=st.lists(st.integers(0, 5), min_size=1, max_size=14),
    order=st.randoms(use_true_random=False),
)
def test_classes_match_union_find(blocks, order):
    """Argmax classes equal union-find classes, in order, on shuffled partitions."""
    labels = [f"p{i}" for i in range(len(blocks))]
    order.shuffle(labels)
    block = np.array(blocks)
    rel = build_threshold_relation(
        table((block[:, None] != block[None, :]).astype(float).tolist(), labels), 0.5
    )
    assert rel.valid
    assert rel.classes == ref_partition_from_pairs(rel.points, rel.adjacency)
    assert rel.class_count == len(set(blocks))
