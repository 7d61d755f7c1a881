"""Chain metrization of a modulus sample with a numeric certificate.

Pipeline: cap the modulus at 1, compute its quasi-metric constant C, build
nested symmetric level sets U_n = {both directed values < B**-n} with
B = 2*C**2 + C, turn them into a pseudo-metric by the chain (shortest-path)
construction, and certify the two-sided sandwich B**-2 * d**p <= psi <=
B**2 * d**p with p = log2(B) on array masks over every pair.  The certificate
keeps d and a bounded summary per check, so its flags are recomputable.

The one-step gauge assigns a pair at deepest level n the weight 2**-(n+1);
this is the classical metrization-lemma gauge and is what makes the strict
containments U_n subset {d < 2**-n} subset U_{n-1} hold whenever the
composition property U_{n+1} o U_{n+1} o U_{n+1} subset U_n does.  The
composition property is verified per level, never assumed; certificates on
samples violating it are marked advisory.
"""

from __future__ import annotations

import math
from dataclasses import asdict, dataclass

import numpy as np

from .core import DEFAULT_TOL, ModulusSample, ToleranceConfig
from .conditions import _VIOLATION_CAP, _relation_product, quasi_constants


class NotEquivalenceInducingError(ValueError):
    """The sampled modulus cannot induce an equivalence relation."""


def truncate_modulus(s: ModulusSample) -> ModulusSample:
    """Cap every entry at 1; idempotent."""
    return ModulusSample(s.points, np.minimum(s.psi, 1.0), s.name)


@dataclass(frozen=True, eq=False)
class LevelSets:
    """Nested symmetric neighborhoods U_0 superset U_1 superset ... U_L.

    ``masks[n]`` holds U_n as a boolean matrix; ``zero_mask`` marks pairs with
    both directed modulus values at numeric zero (they sit in every level and
    get gauge 0).  ``composition_ok[n]`` records whether the triple
    composition of U_{n+1} stays inside U_n on this sample.
    """

    points: tuple[str, ...]
    B: float
    L: int
    masks: np.ndarray          # bool, shape (L+1, m, m)
    zero_mask: np.ndarray      # bool, shape (m, m)
    composition_ok: tuple[bool, ...]

    @property
    def size(self) -> int:
        return len(self.points)


def _compose3_inside(inner: np.ndarray, outer: np.ndarray) -> bool:
    reach3 = _relation_product(_relation_product(inner, inner), inner)
    return not bool((reach3 & ~outer).any())


def build_level_sets(
    s: ModulusSample, C: float, tol: ToleranceConfig = DEFAULT_TOL
) -> LevelSets:
    """Level sets for B = 2*C**2 + C, deep enough to separate every positive entry."""
    if C < 1.0:
        raise ValueError("quasi-metric constant C must be >= 1")
    psi = s.psi
    diag = np.abs(np.diag(psi))
    if diag.max() > tol.eps_abs:
        i = int(diag.argmax())
        raise ValueError(f"diagonal must vanish: psi({s.points[i]!r}, {s.points[i]!r}) = {diag[i]}")
    B = 2.0 * C * C + C
    positive = psi[psi > tol.eps_abs]
    if positive.size == 0:
        L = 1
    else:
        min_pos = float(positive.min())
        L = max(1, math.ceil(math.log(1.0 / min_pos) / math.log(B)) + 1)
    m = s.size
    masks = np.ones((L + 1, m, m), dtype=bool)
    for n in range(1, L + 1):
        less = psi < B ** (-n)
        masks[n] = less & less.T
    zero_mask = (psi <= tol.eps_abs) & (psi.T <= tol.eps_abs)
    composition = tuple(_compose3_inside(masks[n + 1], masks[n]) for n in range(L))
    return LevelSets(s.points, B, L, masks, zero_mask, composition)


def frink_pseudometric(levels: LevelSets) -> np.ndarray:
    """Shortest-path closure of the one-step gauge over the level sets.

    The gauge of a non-zero pair at deepest level n is 2**-(n+1); zero pairs
    get gauge 0.  All gauge values are dyadic, so the all-pairs relaxation is
    exact and the result is a pseudo-metric with the triangle inequality
    holding exactly.
    """
    masks = levels.masks
    for n in range(levels.L):
        if bool((masks[n + 1] & ~masks[n]).any()):
            raise ValueError(f"level sets are not nested at level {n + 1}")
    depth = masks[1:].sum(axis=0)
    sigma = np.power(2.0, -(depth.astype(float) + 1.0))
    sigma[levels.zero_mask] = 0.0
    d = sigma.copy()
    for k in range(levels.size):
        d = np.minimum(d, d[:, k][:, None] + d[k, :][None, :])
    return d


@dataclass(frozen=True)
class LevelContainment:
    level: int
    inner_ok: bool   # U_n subset {d < 2**-n}
    outer_ok: bool   # {d < 2**-n} subset U_{n-1}

    @property
    def ok(self) -> bool:
        return self.inner_ok and self.outer_ok

    def to_dict(self) -> dict:
        return {"level": self.level, "inner_ok": self.inner_ok, "outer_ok": self.outer_ok}


@dataclass(frozen=True)
class PairCheck:
    """One per-pair inequality: a pair passes iff its slack is >= 0.

    ``worst`` is the least-slack pair, first in (i, j) order on ties (None if
    nothing was checked); ``violations`` are the first failing pairs, capped.
    """

    checked: int
    failed: int
    worst: dict | None
    violations: tuple[tuple[str, str], ...]

    @property
    def ok(self) -> bool:
        return self.failed == 0

    def to_dict(self) -> dict:
        return asdict(self)


def _pair_check(points, pairs, slack: np.ndarray, **values) -> PairCheck:
    """PairCheck of ``pairs = (rows, cols)``, given in (i, j) order."""
    rows, cols = pairs
    failing = np.flatnonzero(slack < 0.0)
    worst = None
    if slack.size:
        k = int(slack.argmin())
        numbers = {name: float(col[k]) for name, col in values.items()}
        worst = {"u": points[rows[k]], "v": points[cols[k]], **numbers, "slack": float(slack[k])}
    violations = tuple((points[rows[k]], points[cols[k]]) for k in failing[:_VIOLATION_CAP])
    return PairCheck(int(slack.size), int(failing.size), worst, violations)


@dataclass(frozen=True, eq=False)
class MetrizationCertificate:
    name: str
    points: tuple[str, ...]
    C: float
    B: float
    p: float
    L: int
    d: np.ndarray
    composition_ok: tuple[bool, ...]
    containment: tuple[LevelContainment, ...]
    zero_violation_count: int
    zero_violations: tuple[tuple[str, str], ...]   # the first _VIOLATION_CAP
    sandwich_check: PairCheck
    threshold_check: PairCheck

    @property
    def advisory(self) -> bool:
        """True when some level fails the composition property (invalid input)."""
        return not all(self.composition_ok)

    @property
    def containment_ok(self) -> bool:
        return all(c.ok for c in self.containment)

    @property
    def zero_ok(self) -> bool:
        return self.zero_violation_count == 0

    @property
    def sandwich_ok(self) -> bool:
        return self.sandwich_check.ok

    @property
    def threshold_ok(self) -> bool:
        return self.threshold_check.ok

    @property
    def all_ok(self) -> bool:
        return self.containment_ok and self.zero_ok and self.sandwich_ok and self.threshold_ok

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "points": list(self.points),
            "C": self.C,
            "B": self.B,
            "p": self.p,
            "L": self.L,
            "d": [list(map(float, row)) for row in self.d],
            "composition_ok": list(self.composition_ok),
            "containment": [c.to_dict() for c in self.containment],
            "zero_ok": self.zero_ok,
            "zero_violation_count": self.zero_violation_count,
            "zero_violations": [list(v) for v in self.zero_violations],
            "sandwich": self.sandwich_check.to_dict(),
            "threshold": self.threshold_check.to_dict(),
            "advisory": self.advisory,
            "all_ok": self.all_ok,
        }


def certify_sandwich(
    s: ModulusSample,
    d: np.ndarray,
    levels: LevelSets,
    C: float,
    tol: ToleranceConfig = DEFAULT_TOL,
) -> MetrizationCertificate:
    """Check containments, zero equivalence, the sandwich, and the distance floor.

    The sandwich covers off-diagonal pairs with eps_abs < psi < B**-2, the
    floor d >= 2**-3 those with psi >= B**-2.  Failures are recorded, never
    raised.  ``s`` must be the capped sample ``levels`` was built from with C.
    """
    psi = s.psi
    B = levels.B
    p = math.log2(B)

    containment = []
    for n in range(1, levels.L + 1):
        ball = d < 2.0 ** (-n)
        inner_ok = not bool((levels.masks[n] & ~ball).any())
        outer_ok = not bool((ball & ~levels.masks[n - 1]).any())
        containment.append(LevelContainment(n, inner_ok, outer_ok))

    mismatch = levels.zero_mask ^ (d <= tol.eps_abs)
    zero_violations = tuple(
        (s.points[int(i)], s.points[int(j)]) for i, j in np.argwhere(mismatch)[:_VIOLATION_CAP]
    )

    b2 = B ** (-2.0)
    off = ~np.eye(s.size, dtype=bool)
    band = np.nonzero(off & (psi > tol.eps_abs) & (psi < b2))
    value, dist = psi[band], d[band]
    # Python's ** rather than np.power: NumPy's vectorised pow can differ in
    # the last bit, which could move a bound across its comparison
    dp = np.array([x ** p for x in dist.tolist()], dtype=float)
    lower = b2 * dp
    # B ** 2.0 raises OverflowError once C passes ~1e77, where the band is empty
    upper = B ** 2.0 * dp if dp.size else dp
    slack = np.minimum(value * (1.0 + tol.eps_rel) - lower, upper * (1.0 + tol.eps_rel) - value)
    sandwich = _pair_check(s.points, band, slack, psi=value, d=dist, lower=lower, upper=upper)

    top = np.nonzero(off & (psi >= b2))
    floor_slack = d[top] - (2.0 ** (-3.0) - tol.eps_abs)
    threshold = _pair_check(s.points, top, floor_slack, psi=psi[top], d=d[top])

    return MetrizationCertificate(
        name=s.name,
        points=s.points,
        C=C,
        B=B,
        p=p,
        L=levels.L,
        d=d,
        composition_ok=levels.composition_ok,
        containment=tuple(containment),
        zero_violation_count=int(mismatch.sum()),
        zero_violations=zero_violations,
        sandwich_check=sandwich,
        threshold_check=threshold,
    )


def metrize(s: ModulusSample, tol: ToleranceConfig = DEFAULT_TOL) -> MetrizationCertificate:
    """Full pipeline: cap, constants, level sets, chain pseudo-metric, certificate.

    Raises NotEquivalenceInducingError when the capped sample has a non-zero
    diagonal or an unbounded symmetry/triangle ratio, since no constant C can
    back the construction then.
    """
    capped = truncate_modulus(s)
    qc = quasi_constants(capped, tol)
    if qc.c_diag_violation > tol.eps_abs:
        raise NotEquivalenceInducingError(
            f"diagonal does not vanish: psi({qc.diag_witness!r}, {qc.diag_witness!r}) "
            f"= {qc.c_diag_violation}"
        )
    if not math.isfinite(qc.c_sym):
        w = qc.sym_witness
        raise NotEquivalenceInducingError(
            "symmetry ratio unbounded: "
            f"psi{w.labels[::-1]} > 0 while psi{w.labels} = 0"
        )
    if not math.isfinite(qc.c_tri):
        w = qc.tri_witness
        u, v, r = w.labels
        raise NotEquivalenceInducingError(
            "triangle ratio unbounded: "
            f"psi(({u!r}, {r!r})) > 0 while psi(({u!r}, {v!r})) + psi(({v!r}, {r!r})) = 0"
        )
    C = max(qc.c_sym, qc.c_tri)
    levels = build_level_sets(capped, C, tol)
    d = frink_pseudometric(levels)
    return certify_sandwich(capped, d, levels, C, tol)


def matrix_to_csv(points: tuple[str, ...], d: np.ndarray) -> str:
    """Distance matrix as CSV with label headers, 17-significant-digit entries."""
    lines = ["," + ",".join(points)]
    for i, label in enumerate(points):
        cells = ",".join(f"{float(v):.17g}" for v in d[i])
        lines.append(f"{label},{cells}")
    return "\n".join(lines) + "\n"
