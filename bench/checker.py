"""Answer checker, run outside the timed region.

It reads only the report fields that must survive a rewrite of the library:
the exit code, the verdict string, the constants C/B/p/L, the branch, the
witnesses and the distance matrix ``d``.  Every flag is recomputed here from
the job's input, never read from per-pair records, and the reference
arithmetic is written out in NumPy rather than imported from ``sumlike``.

``check(job, code, report, stderr)`` returns a list of problems; an empty
list means the job's answer is correct.
"""

from __future__ import annotations

import math

import numpy as np

EPS_ABS = 1e-12  # the CLI's default tolerance
EPS_REL = 1e-9


def _close(a: float, b: float, rel: float = 1e-9) -> bool:
    return abs(a - b) <= EPS_ABS + rel * max(abs(a), abs(b))


def _float(value) -> float:
    return math.inf if value == "INFINITE" else float(value)


# --- quasi-metric constants --------------------------------------------------------

def _max_ratio(num: np.ndarray, den: np.ndarray):
    """(ratio, flat index) with the CLI's zero-denominator rules, first max wins."""
    bad = (den <= EPS_ABS) & (num > EPS_ABS)
    if bad.any():
        return math.inf, int(np.flatnonzero(bad.ravel())[0])
    live = den > EPS_ABS
    if not live.any():
        return None, None
    ratios = np.where(live, num / np.where(live, den, 1.0), -np.inf)
    idx = int(np.argmax(ratios.ravel()))
    return float(ratios.ravel()[idx]), idx


def quasi_constants(psi: np.ndarray):
    """(c_sym, sym witness, c_tri, tri witness) with O(m**2) memory.

    A witness is (index tuple, raw ratio), or None when every constraint is
    vacuous.  The triangle ratio psi[i, k] / (psi[i, j] + psi[j, k]) is
    scanned one first index i at a time, which keeps the first maximum in
    (i, j, k) flat order.
    """
    m = psi.shape[0]
    if m == 1:
        return 1.0, None, 1.0, None
    ratio, idx = _max_ratio(psi.T, psi)
    sym = None if idx is None else (divmod(idx, m), ratio)
    tri = None
    for i in range(m):
        ratio, idx = _max_ratio(np.broadcast_to(psi[i][None, :], (m, m)), psi[i][:, None] + psi)
        if ratio is not None and (tri is None or ratio > tri[1]):
            tri = ((i, *divmod(idx, m)), ratio)
            if math.isinf(ratio):
                break
    return max(1.0, sym[1]) if sym else 1.0, sym, max(1.0, tri[1]) if tri else 1.0, tri


# --- metrize ----------------------------------------------------------------------

def _pseudometric_problems(d: np.ndarray) -> list:
    out = []
    if not np.isfinite(d).all() or (d < 0.0).any():
        out.append("d has a negative or non-finite entry")
    if np.abs(np.diag(d)).max() > 0.0:
        out.append("d is not zero on the diagonal")
    if not np.array_equal(d, d.T):
        out.append("d is not symmetric")
    for k in range(d.shape[0]):
        if (d > d[:, k][:, None] + d[k, :][None, :] + EPS_ABS).any():
            out.append(f"d breaks the triangle inequality through point {k}")
            break
    return out


def _composition_ok(inner: np.ndarray, outer: np.ndarray) -> bool:
    # float32 matmul counts paths exactly while they stay below 2**24
    a = inner.astype(np.float32)
    reach3 = ((a @ a > 0).astype(np.float32) @ a) > 0
    return not bool((reach3 & ~outer).any())


def recheck_metrization(psi: np.ndarray, d: np.ndarray, B: float, L: int):
    """(all_ok, advisory) of the chain-metrization certificate, from psi, d and B."""
    m = psi.shape[0]
    levels = [np.ones((m, m), dtype=bool)]
    for n in range(1, L + 1):
        less = psi < B ** (-n)
        levels.append(less & less.T)
    advisory = not all(_composition_ok(levels[n + 1], levels[n]) for n in range(L))
    containment = True
    for n in range(1, L + 1):
        ball = d < 2.0 ** (-n)
        containment &= not (levels[n] & ~ball).any() and not (ball & ~levels[n - 1]).any()
    zero_ok = np.array_equal((psi <= EPS_ABS) & (psi.T <= EPS_ABS), d <= EPS_ABS)
    p = math.log2(B)
    off = ~np.eye(m, dtype=bool)
    b2 = B ** -2.0
    band = off & (psi > EPS_ABS) & (psi < b2)
    dp = d ** p
    sandwich = not (
        band & ~((b2 * dp <= psi * (1.0 + EPS_REL)) & (psi <= B ** 2.0 * dp * (1.0 + EPS_REL)))
    ).any()
    threshold = not (off & (psi >= b2) & (d < 0.125 - EPS_ABS)).any()
    return bool(containment and zero_ok and sandwich and threshold), advisory


def check_metrize(job, code, report, stderr) -> list:
    psi = np.minimum(job.data["psi"], 1.0)
    c_sym, _, c_tri, _ = quasi_constants(psi)
    diag = float(np.abs(np.diag(psi)).max())
    if job.expect.get("not_equivalence_inducing"):
        problems = []
        if diag <= EPS_ABS and math.isfinite(c_sym) and math.isfinite(c_tri):
            problems.append("input is equivalence-inducing, generator says it is not")
        if code != 1 or report is not None or "not equivalence-inducing" not in stderr:
            problems.append(f"expected exit 1 without a report, got exit {code}")
        return problems
    if report is None:
        return [f"no report (exit {code})"]
    res = report["result"]
    C, B, p, L = float(res["C"]), float(res["B"]), float(res["p"]), int(res["L"])
    d = np.asarray(res["d"], dtype=float)
    if d.shape != psi.shape:
        return [f"d has shape {d.shape}, expected {psi.shape}"]
    problems = _pseudometric_problems(d)
    if not _close(C, max(c_sym, c_tri)):
        problems.append(f"C={C!r}, recomputed {max(c_sym, c_tri)!r}")
    if not _close(B, 2.0 * C * C + C) or not _close(p, math.log2(B)):
        problems.append("B or p do not follow from C")
    positive = psi[psi > EPS_ABS]
    want_L = 1 if positive.size == 0 else max(1, math.ceil(math.log(1.0 / positive.min()) / math.log(B)) + 1)
    if L != want_L:
        problems.append(f"L={L}, recomputed {want_L}")
    if problems:
        return problems
    all_ok, advisory = recheck_metrization(psi, d, B, L)
    want_exit = 0 if all_ok and not advisory else 1
    if code != want_exit:
        problems.append(f"exit {code}, recomputed flags give {want_exit}")
    if report["verdict"] != f"C={C:g} B={B:g} p={p:.6f} all_ok={all_ok}":
        problems.append(f"verdict {report['verdict']!r} disagrees with all_ok={all_ok}")
    if "C" in job.expect and C != job.expect["C"]:
        problems.append(f"C={C!r}, generator knows {job.expect['C']!r}")
    if job.expect.get("all_ok") and not (all_ok and code == 0):
        problems.append("generator knows this sample certifies, it did not")
    return problems


# --- example4 ---------------------------------------------------------------------

def _gauge(spec: dict):
    if spec["g"] == "sqrt":
        return math.sqrt
    alpha = float(spec["alpha"])
    return lambda x: x ** alpha


class Piecewise:
    """Vectorised reference for the Example-4 modulus built from a spec."""

    def __init__(self, spec: dict):
        g = _gauge(spec)
        self.a = np.array(spec["a"], dtype=float)
        self.k = np.array([g(v) / v for v in spec["a"]])
        self.b = 2.0 * self.k[1:] * self.a[1:] / (self.k[:-1] + self.k[1:])
        self.cap = g(float(spec["a"][0]))

    def __call__(self, t) -> np.ndarray:
        t = np.asarray(t, dtype=float)
        a, k, b = self.a, self.k, self.b
        # n with a[n+1] <= t < a[n]; a is decreasing
        n = np.clip(np.searchsorted(-a, -t, side="left") - 1, 0, len(b) - 1)
        descending = k[n + 1] * a[n + 1] - k[n + 1] * (t - a[n + 1])
        out = np.where(t < b[n], descending, k[n] * t)
        out = np.where(t < a[-1], k[-1] * t, out)
        out = np.where(t >= a[0], self.cap, out)
        return np.where(t == 0.0, 0.0, out)


def _inequality_scan(f: Piecewise, grid: np.ndarray):
    ft = f(grid)
    fst = f(grid[:, None] + grid[None, :])
    sub = fst - (ft[:, None] + ft[None, :])
    rev = ft[:, None] - (fst + ft[None, :])
    return float(sub.max()), float(rev.max())


def _prime_constants(fbar_values: np.ndarray, doubled: np.ndarray):
    """Constants of the reduced conditions a' and b' on a sorted grid."""
    a_prime = float((doubled / fbar_values).max())
    ratios = fbar_values[:, None] / fbar_values[None, :]
    b_prime = float(ratios[np.triu_indices(len(fbar_values), 1)].max())
    return a_prime, b_prime


def check_example4(job, code, report, stderr) -> list:
    if report is None:
        return [f"no report (exit {code})"]
    res = report["result"]
    want_verdict = job.expect["verdict"]
    problems = []
    n = job.data["grid_count"]
    mo = res["mazur_orlicz"]
    if "function" in job.data:
        grid = np.geomspace(1e-6, 1.0, n)
        fbar = np.minimum(grid, 1.0)
        doubled = np.minimum(2.0 * grid, 1.0)
        if report["verdict"] != f"verdict={want_verdict}":
            problems.append(f"verdict {report['verdict']!r}, expected {want_verdict}")
        want_exit = 0
    else:
        f = Piecewise(job.data["spec"])
        grid = np.geomspace(f.a[-1] * 0.5, 2.0 * f.a[0], n)
        sub, rev = _inequality_scan(f, grid)
        ineq = res["inequalities"]
        for key, value in (("max_subadd_violation", sub), ("max_reverse_violation", rev)):
            if not _close(float(ineq[key]), value, 1e-7):
                problems.append(f"{key}={ineq[key]!r}, recomputed {value!r}")
        for key, value, sign in (("worst_subadd_pair", sub, 1), ("worst_reverse_pair", rev, -1)):
            s, t = (float(x) for x in ineq[key])
            fs, ft, fst = (float(f(x)) for x in (s, t, s + t))
            attained = fst - fs - ft if sign == 1 else fs - fst - ft
            if not _close(attained, value, 1e-7):
                problems.append(f"{key} ({s}, {t}) attains {attained!r}, not the maximum {value!r}")
        ok = sub <= EPS_ABS and rev <= EPS_ABS
        want_exit = 0 if ok else 1
        want = f"continuous=True inequalities_ok={ok} verdict={want_verdict}"
        if report["verdict"] != want:
            problems.append(f"verdict {report['verdict']!r}, expected {want!r}")
        # the Mazur-Orlicz scan runs on breakpoints, joins and a log filler
        top = max(1.0, 2.0 * f.a[0])
        pts = set(f.a.tolist()) | set(f.b.tolist())
        pts.update(np.geomspace(f.a[-1] * 0.5, top, 160).tolist())
        grid = np.array(sorted(pts))
        fbar = np.minimum(f(grid), 1.0)
        doubled = np.minimum(f(2.0 * grid), 1.0)
    if mo["verdict"] != want_verdict:
        problems.append(f"Mazur-Orlicz verdict {mo['verdict']}, expected {want_verdict}")
    a_prime, b_prime = _prime_constants(fbar, doubled)
    for key, value in (("a_prime", a_prime), ("b_prime", b_prime)):
        if not _close(_float(mo[key]["constant"]), value, 1e-7):
            problems.append(f"{key} constant {mo[key]['constant']!r}, recomputed {value!r}")
    if code != want_exit or code != job.expect["exit"]:
        problems.append(f"exit {code}, expected {job.expect['exit']} (recomputed {want_exit})")
    return problems


# --- classify and check ------------------------------------------------------------

def _coordinate_psi(spec: dict, grid_points: int = 33):
    """(labels, psi) of one coordinate as the CLI samples it."""
    kind = spec["kind"]
    if kind == "power":
        lo, hi = (float(v) for v in spec.get("domain", (0.0, 1.0)))
        x = [float(v) for v in np.linspace(lo, hi, grid_points)]
        p = float(spec["p"])
        # Python's pow, as the CLI uses: NumPy's may differ in the last bit and
        # move a first-maximum witness between tied pairs
        return [repr(v) for v in x], np.array([[abs(u - v) ** p for v in x] for u in x])
    if kind == "indicator":
        labels = [label for blk in spec["blocks"] for label in blk]
        block = np.array([b for b, blk in enumerate(spec["blocks"]) for _ in blk])
        return labels, (block[:, None] != block[None, :]).astype(float)
    if kind == "table":
        return list(spec["points"]), np.asarray(spec["psi"], dtype=float)
    raise ValueError(f"no reference for coordinate kind {kind!r}")


def _witness_problems(where, witness, labels, want) -> list:
    if want is None:
        return [] if witness is None else [f"{where}: witness reported where none exists"]
    index, ratio = want
    want_labels = [labels[i] for i in index]
    if witness is None or witness["labels"] != want_labels:
        return [f"{where}: witness {witness and witness['labels']}, recomputed {want_labels}"]
    got = _float(witness["ratio"])
    if got != ratio and not _close(got, ratio):
        return [f"{where}: witness ratio {witness['ratio']!r}, recomputed {ratio!r}"]
    return []


def check_check(job, code, report, stderr) -> list:
    if report is None:
        return [f"no report (exit {code})"]
    coords = report["result"]["coords"]
    specs = job.data["input"]["coords"]
    if len(coords) != len(specs):
        return [f"{len(coords)} coordinates reported, input has {len(specs)}"]
    problems = []
    all_ok = True
    cache = {}
    for n, (spec, got) in enumerate(zip(specs, coords)):
        key = repr(spec)
        if key not in cache:
            labels, psi = _coordinate_psi(spec)
            cache[key] = (labels, *quasi_constants(psi), float(np.abs(np.diag(psi)).max()))
        labels, c_sym, sym, c_tri, tri, diag = cache[key]
        for name, got_c, want_c in (("c_sym", got["c_sym"], c_sym), ("c_tri", got["c_tri"], c_tri)):
            if not (_float(got_c) == want_c or _close(_float(got_c), want_c)):
                problems.append(f"coord {n}: {name}={got_c!r}, recomputed {want_c!r}")
        problems += _witness_problems(f"coord {n} sym", got["sym_witness"], labels, sym)
        problems += _witness_problems(f"coord {n} tri", got["tri_witness"], labels, tri)
        all_ok = all_ok and math.isfinite(c_sym) and math.isfinite(c_tri) and diag <= EPS_ABS
    want_exit = 0 if all_ok else 1
    if code != want_exit or code != job.expect["exit"]:
        problems.append(f"exit {code}, recomputed {want_exit}, generator expects {job.expect['exit']}")
    want_verdict = (
        "all coordinates equivalence-inducing"
        if all_ok
        else "unbounded constant or non-zero diagonal on some coordinate"
    )
    if report["verdict"] != want_verdict:
        problems.append(f"verdict {report['verdict']!r}, expected {want_verdict!r}")
    return problems


def _coordinate_value(spec: dict, u, v) -> float:
    if spec["kind"] == "power":
        return abs(float(u) - float(v)) ** float(spec["p"])
    block = {label: b for b, blk in enumerate(spec["blocks"]) for label in blk}
    return 0.0 if block[u] == block[v] else 1.0


def check_classify(job, code, report, stderr) -> list:
    if report is None:
        return [f"no report (exit {code})"]
    res = report["result"]
    want = job.expect["branch"]
    problems = []
    if code != 0:
        problems.append(f"exit {code}, classify always exits 0")
    if res["branch"] != want or report["verdict"] != f"branch={want}":
        problems.append(f"branch {res['branch']!r}, expected {want!r}")
    witness = res["l1_witness"]
    if want == "L1_LIKE":
        if witness is None:
            return problems + ["L1_LIKE without a witness"]
        coords = job.data["input"]["coords"]
        c = float(witness["c"])
        values = []
        for term in witness["terms"]:
            value = float(term["value"])
            spec = coords[int(term["coord"])]
            if not (value < c and _close(value, _coordinate_value(spec, term["u"], term["v"]))):
                problems.append(f"witness term {term} is not a value below c={c}")
            values.append(value)
        if not (math.fsum(values) >= float(witness["target"]) and _close(math.fsum(values), float(witness["total"]))):
            problems.append("witness terms do not reach the target")
        if c != min(float(x) for x in res["c_grid"]):
            problems.append("L1 witness is not at the smallest threshold")
    elif witness is not None:
        problems.append(f"{want} report carries an L1 witness")
    return problems


# --- reduce -----------------------------------------------------------------------

def _greedy_plan_length(streams) -> int:
    cursor = 0
    for l, stream in enumerate(streams):
        cap = 2.0 ** (-l)
        acc = 0.0
        for n in range(cursor, len(stream)):
            w = stream[n]
            if w >= cap:
                acc = 0.0
                continue
            acc += w
            if acc >= 1.0:
                cursor = n + 1
                break
        else:
            raise ValueError(f"level {l} is not realizable")
    return cursor


def koch_points(rho: float, s: np.ndarray, depth: int = 12, offset: float = 2.0) -> np.ndarray:
    """Cesaro-Koch curve points by base-4 digits, vectorised over s."""
    r = 4.0 ** (-rho)
    h = math.sqrt(max(r * r - (0.5 - r) ** 2, 0.0))
    vertices = np.array([0.0, r, complex(0.5, h), 1.0 - r, 1.0], dtype=complex)
    anchors, deltas = vertices[:4], np.diff(vertices)
    s = np.asarray(s, dtype=float)
    i = np.floor(s)
    frac = s - i
    closing = (frac == 0.0) & (i > 0)
    i = np.where(closing, i - 1, i)
    t = np.where(closing, 1.0, frac)
    digits = []
    for _ in range(depth):
        t = t * 4.0
        dig = np.minimum(t.astype(int), 3)
        t = t - dig
        digits.append(dig)
    z = t.astype(complex)
    for dig in reversed(digits):
        z = anchors[dig] + deltas[dig] * z
    return np.stack([z.real + offset * i, z.imag], axis=1)


def check_reduce(job, code, report, stderr) -> list:
    if report is None:
        return [f"no report (exit {code})"]
    obj = job.data["input"]
    mode = job.argv[1]
    problems = [] if code == 0 else [f"exit {code}, expected 0"]
    verdict = report["verdict"]
    if mode == "blocks":
        levels = len(obj["streams"])
        want = f"plan with {levels} level(s), length {_greedy_plan_length(obj['streams'])}"
    elif mode == "clamp":
        z = np.asarray(obj["z"], dtype=float)
        lo, hi = math.floor(z.min()) - 1, math.ceil(z.max()) + 1
        want = f"{len(z)} row(s) over window {[lo, hi]}"
        rows = np.clip(z[:, None] - np.arange(lo, hi + 1)[None, :], 0.0, 1.0)
        if not np.array_equal(np.asarray(report["result"]["rows"]), rows):
            problems.append("clamp rows differ from min(max(z - k, 0), 1)")
    else:
        rho = float(obj["rho"])
        want = f"koch rho={rho:g} depth=12"
        holder = report["result"]["holder"]
        pairs = np.asarray(obj["pairs"], dtype=float)
        ps, pt = koch_points(rho, pairs[:, 0]), koch_points(rho, pairs[:, 1])
        ratios = np.hypot(*(ps - pt).T) / np.abs(pairs[:, 0] - pairs[:, 1]) ** rho
        for key, pair_key, value in (
            ("m_prime", "min_pair", ratios.min()), ("M_prime", "max_pair", ratios.max())
        ):
            if not _close(float(holder[key]), float(value), 1e-7):
                problems.append(f"holder {key}={holder[key]!r}, recomputed {value!r}")
            s, t = (float(x) for x in holder[pair_key])
            a, b = koch_points(rho, np.array([s, t]))
            if not _close(float(np.hypot(*(a - b)) / abs(s - t) ** rho), float(value), 1e-7):
                problems.append(f"holder witness {pair_key} does not attain {key}")
        if not holder["norm_chain_ok"]:
            problems.append("plane norm chain reported broken")
    if verdict != want:
        problems.append(f"verdict {verdict!r}, expected {want!r}")
    return problems


CHECKERS = {
    "metrize": check_metrize,
    "example4": check_example4,
    "check": check_check,
    "classify": check_classify,
    "reduce": check_reduce,
}


def check(job, code: int, report, stderr: str) -> list:
    """Problems with one job's answer; an empty list means it is correct."""
    if report is not None and report.get("command") != job.argv[0]:
        return [f"report is for command {report.get('command')!r}"]
    try:
        return CHECKERS[job.argv[0]](job, code, report, stderr)
    except (KeyError, TypeError, ValueError, IndexError) as exc:
        return [f"report is malformed: {type(exc).__name__}: {exc}"]

