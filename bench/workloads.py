"""Seeded input generators, one per workload.

Each generator writes its input files into a directory and returns the fixed
job list of one pass.  A job is the argument list of one ``sumlike`` CLI call
plus what the generator knows about the answer (``expect``) and the in-memory
input the checker recomputes from (``data``).  The seed changes the values of
the inputs, never their sizes, so the cost of a pass barely moves with it.
"""

from __future__ import annotations

import json
import math
import os
from dataclasses import dataclass, field

import numpy as np

# Presets of ``sumlike.catalog``, restated so the checker does not take its
# reference answer from the code under test.
STEEP_ANCHORS = tuple(4.0 ** (-((n + 1) ** 2)) for n in range(9))
TWO_TERM_ANCHORS = (0.25, 1.0 / 64.0)
TEETH = 8  # every seeded Example-4 spec has 9 anchors, so f.value costs the same


@dataclass
class Job:
    name: str
    argv: list
    expect: dict = field(default_factory=dict)
    data: dict = field(default_factory=dict)


def _write(directory, name, obj) -> str:
    path = os.path.join(directory, name)
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(obj, fh)
    return path


# --- metrize-mix -----------------------------------------------------------------

def _lattice_points(rng, m: int) -> np.ndarray:
    """m jittered cells of a square lattice in [0, 1]^2.

    The jitter keeps the closest pair within a fixed factor of the lattice
    spacing, so the level count L (set by the smallest positive psi) hardly
    moves with the seed.
    """
    side = math.ceil(math.sqrt(m * 1.5))
    cells = rng.choice(side * side, size=m, replace=False)
    grid = np.stack([cells // side, cells % side], axis=1).astype(float)
    grid += rng.uniform(-0.2, 0.2, size=grid.shape)
    return (grid + 0.5) / side


def _euclid(points: np.ndarray) -> np.ndarray:
    diff = points[:, None, :] - points[None, :, :]
    return np.sqrt((diff * diff).sum(axis=-1))


def _metrize_psi(rng, kind: str, m: int):
    """(psi, input object, expectations) for one metrize job."""
    labels = [f"p{i}" for i in range(m)]
    if kind == "blocks":
        # eight equal blocks of seeded labels, listed block by block as the
        # CLI samples an indicator spec
        order = [labels[i] for i in rng.permutation(m)]
        block_of = np.arange(m) * 8 // m
        blocks = [[order[i] for i in np.flatnonzero(block_of == b)] for b in range(8)]
        psi = (block_of[:, None] != block_of[None, :]).astype(float)
        return psi, {"kind": "indicator", "blocks": blocks}, {"C": 1.0, "all_ok": True}

    d = _euclid(_lattice_points(rng, m))
    expect: dict = {"all_ok": True}
    if kind == "euclid":
        psi = d
        expect["C"] = 1.0
    elif kind == "snowflake":
        psi = d ** 0.6
        expect["C"] = 1.0
    elif kind == "quasi":
        # a fixed asymmetry keeps C, and with it B and the level count, the
        # same for every seed
        upper = np.triu(np.ones((m, m), dtype=bool), 1)
        psi = d * np.where(upper, 2.0, 1.0)
    elif kind == "one-way-zero":
        psi = d.copy()
        i, j = rng.choice(m, size=2, replace=False)
        psi[i, j] = 0.0
        expect = {"not_equivalence_inducing": True}
    elif kind == "diagonal":
        psi = d.copy()
        i = int(rng.integers(m))
        psi[i, i] = rng.uniform(0.1, 0.5)
        expect = {"not_equivalence_inducing": True}
    else:
        raise ValueError(kind)
    return psi, {"points": labels, "psi": psi.tolist()}, expect


# Sizes are fixed; the seed only moves the points.  Four large samples carry
# the m**3 triangle scan and the multi-megabyte reports.  The 32 small ones
# step m evenly from 40 to 110, so their costs form a dense ladder and the
# median and p75 of the job times do not jump between clusters of equal jobs.
# The last four exit 1 before the level sets are built.
SMALL_KINDS = ("euclid", "quasi", "snowflake", "blocks")
METRIZE_MIX = (
    [("euclid", 300), ("quasi", 240), ("snowflake", 200), ("blocks", 160)]
    + [(SMALL_KINDS[k % 4], 40 + round(70 * k / 31)) for k in range(32)]
    + [("one-way-zero", 80), ("diagonal", 60), ("one-way-zero", 110), ("diagonal", 90)]
)


def metrize_mix(seed: int, directory: str) -> list:
    rng = np.random.default_rng([seed, 1])
    jobs = []
    for n, (kind, m) in enumerate(METRIZE_MIX):
        psi, obj, expect = _metrize_psi(rng, kind, m)
        path = _write(directory, f"sample{n:02d}.json", obj)
        jobs.append(Job(f"metrize/{kind}-{m}", ["metrize", path], expect, {"psi": psi}))
    return jobs


# --- example4-scan ---------------------------------------------------------------

def _seeded_spec(rng, gauge: str, shape: str) -> dict:
    alpha = 0.5 if gauge == "sqrt" else float(rng.uniform(0.3, 0.7))
    a0 = float(rng.uniform(0.2, 0.6))
    if shape == "geometric":
        # slope ratio (1/r)**(1 - alpha) stays below 3 < 2 + sqrt(5): both group
        # inequalities hold and the domination constant stays bounded
        ratio = float(rng.uniform(1.5, 3.0))
        r = ratio ** (-1.0 / (1.0 - alpha))
        anchors = [a0 * r ** n for n in range(TEETH + 1)]
    else:
        # quadratic exponents make the slope ratios grow without bound
        q = float(rng.uniform(2.5, 4.0))
        anchors = [a0 * q ** (-((n + 1) ** 2) + 1) for n in range(TEETH + 1)]
    spec = {"g": gauge, "a": anchors}
    if gauge == "power":
        spec["alpha"] = alpha
    return spec


EXAMPLE4_PRESET_JOBS = (
    ("steep", 200), ("steep", 400), ("steep", 800),
    ("two-term", 200), ("two-term", 400), ("two-term", 800),
    ("linear", 300), ("linear", 600),
    ("capped-linear", 400), ("capped-linear", 800),
)


def example4_scan(seed: int, directory: str) -> list:
    rng = np.random.default_rng([seed, 2])
    jobs = []
    for preset, n in EXAMPLE4_PRESET_JOBS:
        argv = ["example4", "--preset", preset, "--grid-count", str(n)]
        if preset in ("linear", "capped-linear"):
            expect = {"verdict": "LINEAR_LIKELY", "exit": 0}
            data = {"function": preset, "grid_count": n}
        else:
            anchors = STEEP_ANCHORS if preset == "steep" else TWO_TERM_ANCHORS
            steep = preset == "steep"
            expect = {"verdict": "NOT_LINEAR" if steep else "LINEAR_LIKELY", "exit": 1 if steep else 0}
            data = {"spec": {"g": "sqrt", "a": list(anchors)}, "grid_count": n}
        jobs.append(Job(f"example4/{preset}-{n}", argv, expect, data))
    for k in range(30):
        gauge = ("sqrt", "power")[k % 2]
        shape = ("geometric", "steep")[(k // 2) % 2]
        # 300 to 600, geometric: the n**2 cost climbs 5% a step, a ladder dense
        # enough that the median and p75 do not jump (the presets reach 200 and 800)
        n = round(300 * 2 ** (k / 29))
        spec = _seeded_spec(rng, gauge, shape)
        path = _write(directory, f"spec{k:02d}.json", spec)
        steep = shape == "steep"
        expect = {"verdict": "NOT_LINEAR" if steep else "LINEAR_LIKELY", "exit": 1 if steep else 0}
        jobs.append(Job(
            f"example4/{gauge}-{shape}-{n}",
            ["example4", path, "--grid-count", str(n)],
            expect,
            {"spec": spec, "grid_count": n},
        ))
    return jobs


# --- family-mix ------------------------------------------------------------------

def _power_family(n_coords: int, p: float, domain=(0.0, 1.0)) -> dict:
    spec = {"kind": "power", "p": p, "domain": list(domain)}
    return {"name": f"power(p={p:g})x{n_coords}", "coords": [spec] * n_coords}


def _indicator(n_blocks: int) -> dict:
    return {"kind": "indicator", "blocks": [[f"b{i}"] for i in range(n_blocks)]}


def _check_family(rng, n_coords: int, broken: bool) -> dict:
    coords = []
    for n in range(n_coords):
        pick = n % 4
        if pick == 0:
            coords.append({"kind": "power", "p": float(rng.uniform(0.3, 3.0)), "domain": [0.0, 1.0]})
        elif pick == 1:
            coords.append({"kind": "power", "p": 0.5, "domain": [0.0, float(rng.uniform(1.0, 2.0))]})
        elif pick == 2:
            coords.append(_indicator(2 + n % 10))
        else:
            m = 8
            x = rng.uniform(0.0, 1.0, size=m)
            table = np.abs(x[:, None] - x[None, :]) * (1.0 + np.triu(np.ones((m, m)), 1))
            coords.append({"kind": "table", "points": [f"t{i}" for i in range(m)], "psi": table.tolist()})
    if broken:
        # a one-way zero makes the symmetry constant unbounded on the last table
        last = next(c for c in reversed(coords) if c["kind"] == "table")
        last["psi"][0][1] = 0.0
    return {"name": f"check-mix x{n_coords}", "coords": coords}


def _growing_indicator(n_coords: int, max_blocks: int) -> dict:
    coords = [_indicator(min(n + 2, max_blocks)) for n in range(n_coords)]
    return {"name": f"growing-indicator x{n_coords}", "coords": coords}


def _block_streams(rng, levels: int) -> list:
    length = 2 ** (levels + 2)
    return [rng.uniform(0.0, 2.0 ** (-l), size=length).tolist() for l in range(levels)]


def family_mix(seed: int, directory: str) -> list:
    rng = np.random.default_rng([seed, 3])
    jobs = []

    def add(name, command, obj, expect):
        path = _write(directory, f"input{len(jobs):02d}.json", obj)
        jobs.append(Job(name, [*command, path], expect, {"input": obj}))

    # 2048 coordinates accumulate a witness at every threshold down to 2**-10:
    # the cheap L1 path, the one the ROADMAP's power_family(2048) timing takes
    for _ in range(2):
        fam = _power_family(2048, 1.0, (0.0, float(rng.uniform(1.0, 2.0))))
        add("classify/power-L1", ["classify"], fam, {"branch": "L1_LIKE"})
    # 256 coordinates stop accumulating below 2**-8, and at c = 2**-10 every
    # grid point of a p < 2 power is its own class: E1
    for _ in range(2):
        fam = _power_family(256, float(rng.uniform(1.2, 1.9)))
        add("classify/power-E1", ["classify"], fam, {"branch": "E1_LIKE"})
    for _ in range(2):
        fam = _power_family(256, 0.5, (0.0, float(rng.uniform(1.0, 2.0))))
        add("classify/sqrt-E1", ["classify"], fam, {"branch": "E1_LIKE"})
    for blocks in (4, 9, 16):
        fam = {"name": f"indicator({blocks})x256", "coords": [_indicator(blocks)] * 256}
        add("classify/indicator-E0", ["classify"], fam, {"branch": "E0_LIKE"})
    for n_coords, max_blocks in ((64, 40), (96, 48)):
        fam = _growing_indicator(n_coords, max_blocks)
        add("classify/growing-E1", ["classify"], fam, {"branch": "E1_LIKE"})
    # 14 checks of evenly stepped size hold the median and the p75 tail
    for k in range(14):
        broken = k % 3 == 2
        fam = _check_family(rng, 64 + round(64 * k / 13), broken)
        add("check/mix", ["check"], fam, {"exit": 1 if broken else 0})
    for k in range(5):
        streams = _block_streams(rng, 6 + k % 3)
        add("reduce/blocks", ["reduce", "blocks"], {"streams": streams}, {"exit": 0})
    for k in range(5):
        rho = float(rng.uniform(0.55, 0.95))
        starts = rng.uniform(0.0, 2.5, size=200)
        obj = {
            "rho": rho,
            "values": rng.uniform(0.0, 3.0, size=200).tolist(),
            "pairs": [[float(s), float(s + w)] for s, w in zip(starts, rng.uniform(1e-3, 0.4, size=200))],
        }
        add("reduce/koch", ["reduce", "koch"], obj, {"exit": 0})
    for k in range(5):
        z = rng.uniform(-20.0, 20.0, size=200).tolist()
        add("reduce/clamp", ["reduce", "clamp"], {"z": z}, {"exit": 0})
    return jobs


WORKLOADS = {
    "metrize-mix": metrize_mix,
    "example4-scan": example4_scan,
    "family-mix": family_mix,
}
