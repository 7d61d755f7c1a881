"""Command-line frontend.

Commands: check, metrize, classify, reduce {clamp|blocks|koch}, example4.
Every run emits one JSON report {command, input_digest, tolerance, result,
verdict, wall_time_s}; the ``result`` payload is deterministic, so replaying
the same input and flags reproduces it byte for byte.  Exit codes: 0 success,
1 mathematical verdict failure, 2 input error.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time

from . import catalog, conditions, metrization, reductions
from .core import ToleranceConfig, family_from_dict, sample_from_dict

EXIT_OK = 0
EXIT_VERDICT = 1
EXIT_INPUT = 2


def _read_threads_cap() -> int:
    raw = os.environ.get("SUMLIKE_THREADS", "0")
    try:
        value = int(raw)
    except ValueError:
        raise ValueError(f"SUMLIKE_THREADS must be a non-negative integer, got {raw!r}") from None
    if value < 0:
        raise ValueError(f"SUMLIKE_THREADS must be a non-negative integer, got {raw!r}")
    return value  # 0 = auto; all kernels are single-threaded and deterministic


def _digest(data: bytes) -> str:
    return "sha256:" + hashlib.sha256(data).hexdigest()


def _load_json(path: str):
    with open(path, "rb") as fh:
        data = fh.read()
    return json.loads(data.decode("utf-8")), _digest(data)


# --- command implementations -----------------------------------------------------

def _cmd_check(args, tol):
    obj, digest = _load_json(args.family)
    fam = family_from_dict(obj)
    coords = []
    ok = True
    for n, spec in enumerate(fam.coords):
        sample = spec.as_sample(conditions.coordinate_grid(spec, args.grid_points))
        qc = conditions.quasi_constants(sample, tol)
        finite = qc.finite and qc.c_diag_violation <= tol.eps_abs
        ok = ok and finite
        coords.append({"coord": n, "kind": spec.kind, "ok": finite, **qc.to_dict()})
    payload = {"family": fam.name, "coords": coords, "equivalence_inducing": ok}
    verdict = (
        "all coordinates equivalence-inducing"
        if ok
        else "unbounded constant or non-zero diagonal on some coordinate"
    )
    return payload, verdict, digest, EXIT_OK if ok else EXIT_VERDICT


def _cmd_metrize(args, tol):
    obj, digest = _load_json(args.sample)
    sample = sample_from_dict(obj)
    cert = metrization.metrize(sample, tol)
    payload = cert.to_dict()
    if args.csv_out:
        with open(args.csv_out, "w", encoding="utf-8") as fh:
            fh.write(metrization.matrix_to_csv(cert.points, cert.d))
    verdict = f"C={cert.C:g} B={cert.B:g} p={cert.p:.6f} all_ok={cert.all_ok}"
    good = cert.all_ok and not cert.advisory
    return payload, verdict, digest, EXIT_OK if good else EXIT_VERDICT


def _cmd_classify(args, tol):
    obj, digest = _load_json(args.family)
    fam = family_from_dict(obj)
    c_grid = None
    if args.c_grid:
        c_grid = [float(c) for c in args.c_grid.split(",") if c.strip()]
    th = conditions.ClassifierThresholds(
        target=args.target,
        budget=args.budget,
        class_growth_bound=args.class_bound,
        grid_points=args.grid_points,
    )
    report = conditions.classify_trichotomy(fam, c_grid, th, tol)
    return report.to_dict(), f"branch={report.branch}", digest, EXIT_OK


def _cmd_reduce(args, tol):
    obj, digest = _load_json(args.input)
    if args.mode == "clamp":
        z = obj["z"]
        window = obj.get("window")
        if window is None:
            window = reductions.clamp_window_for(*[float(v) for v in z])
        rows = reductions.clamp_reduce(z, tuple(window))
        payload = {"window": [int(window[0]), int(window[1])], "rows": rows}
        return payload, f"{len(rows)} row(s) over window {list(window)}", digest, EXIT_OK

    if args.mode == "blocks":
        streams = obj["streams"]
        levels = int(obj.get("levels", len(streams)))
        plan = reductions.select_blocks(streams, levels)
        payload = plan.to_dict()
        return payload, f"plan with {levels} level(s), length {plan.length}", digest, EXIT_OK

    if args.mode == "koch":
        if "rho" in obj:
            params = reductions.KochParams.from_rho(
                float(obj["rho"]), int(obj.get("depth", 12)), float(obj.get("interval_offset", 2.0))
            )
        elif "r" in obj:
            params = reductions.KochParams.from_r(
                float(obj["r"]), int(obj.get("depth", 12)), float(obj.get("interval_offset", 2.0))
            )
        else:
            raise ValueError("koch input needs 'rho' or 'r'")
        payload = {"params": params.to_dict()}
        points = []
        if "values" in obj:
            values = [float(v) for v in obj["values"]]
            points = [(s, *reductions.koch_point(params, s)) for s in values]
            payload["points"] = [[s, x, y] for s, x, y in points]
            payload["interleaved"] = reductions.koch_interleave(values, params)
        if "pairs" in obj:
            estimate = reductions.estimate_holder(
                params, [(float(s), float(t)) for s, t in obj["pairs"]], float(obj.get("q", 1.0)), tol
            )
            payload["holder"] = estimate.to_dict()
        if args.csv_out:
            with open(args.csv_out, "w", encoding="utf-8") as fh:
                fh.write("s,x,y\n")
                for s, x, y in points:
                    fh.write(f"{s:.17g},{x:.17g},{y:.17g}\n")
        return payload, f"koch rho={params.rho:g} depth={params.depth}", digest, EXIT_OK

    raise ValueError(f"unknown reduce mode {args.mode!r}")


def _cmd_example4(args, tol):
    if args.preset and args.spec:
        raise ValueError("give either a spec file or --preset, not both")
    if args.preset:
        kind, loaded = catalog.load_preset(args.preset)
        digest = _digest(args.preset.encode("utf-8"))
        if kind == "function":
            grid = catalog.log_grid(1e-6, 1.0, args.grid_count)
            mo = conditions.mazur_orlicz_check(loaded, grid, tol=tol)
            payload = {"preset": args.preset, "mazur_orlicz": mo.to_dict()}
            return payload, f"verdict={mo.verdict}", digest, EXIT_OK
        spec = loaded
    elif args.spec:
        obj, digest = _load_json(args.spec)
        spec = catalog.Example4Spec.from_dict(obj)
    else:
        raise ValueError("example4 needs a spec file or --preset")

    f = catalog.build_example4(spec)
    continuity = f.continuity_report(tol)
    grid = catalog.log_grid(f.breakpoints[-1] * 0.5, 2.0 * f.breakpoints[0], args.grid_count)
    inequalities = catalog.verify_example4_inequalities(f, grid, tol)
    ratios = [catalog.example4_ratio(f, n, tol).to_dict() for n in range(f.tooth_count)]
    mo = conditions.mazur_orlicz_check(f, catalog.modulus_scan_grid(f), tol=tol)
    payload = {
        "spec": spec.to_dict(),
        "modulus": f.to_dict(),
        "continuity": {
            "max_jump": continuity["max_jump"],
            "continuous": continuity["continuous"],
        },
        "inequalities": inequalities.to_dict(),
        "ratios": ratios,
        "mazur_orlicz": mo.to_dict(),
    }
    verdict = (
        f"continuous={continuity['continuous']} inequalities_ok={inequalities.ok} "
        f"verdict={mo.verdict}"
    )
    good = continuity["continuous"] and inequalities.ok
    return payload, verdict, digest, EXIT_OK if good else EXIT_VERDICT


# --- driver -----------------------------------------------------------------------

def _build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--tol-abs", type=float, default=1e-12, help="absolute tolerance")
    common.add_argument("--tol-rel", type=float, default=1e-9, help="relative tolerance")
    common.add_argument("--out", help="write the JSON report here instead of stdout")

    parser = argparse.ArgumentParser(
        prog="sumlike",
        description="certify, metrize, classify and reduce sum-like relations at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("check", parents=[common], help="per-coordinate quasi-metric constants")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--grid-points", type=int, default=33, help="sample size for continuous coordinates")

    p = sub.add_parser("metrize", parents=[common], help="chain metrization certificate for a sample")
    p.add_argument("sample", help="sample JSON file (points/psi or finite coordinate spec)")
    p.add_argument("--csv-out", help="write the distance matrix as CSV")

    p = sub.add_parser("classify", parents=[common], help="trichotomy branch of a family")
    p.add_argument("family", help="family JSON file")
    p.add_argument("--c-grid", help="comma-separated thresholds (default dyadic 1..2^-10)")
    p.add_argument("--target", type=float, default=1.0, help="witness accumulation target")
    p.add_argument("--budget", type=int, default=None, help="max coordinates to consume")
    p.add_argument("--class-bound", type=int, default=16, help="finite stand-in for 'perfectly many'")
    p.add_argument("--grid-points", type=int, default=33, help="sample size for continuous coordinates")

    p = sub.add_parser("reduce", parents=[common], help="run one of the explicit reduction maps")
    p.add_argument("mode", choices=("clamp", "blocks", "koch"))
    p.add_argument("input", help="input JSON file")
    p.add_argument("--csv-out", help="koch only: write sampled curve points as CSV")

    p = sub.add_parser("example4", parents=[common], help="build and audit the catalog counterexample")
    p.add_argument("spec", nargs="?", help="spec JSON file {g, alpha?, a}")
    p.add_argument("--preset", help=f"named preset ({', '.join(catalog.preset_names())})")
    p.add_argument("--grid-count", type=int, default=200, help="log-grid size for the scans")
    return parser


_DISPATCH = {
    "check": _cmd_check,
    "metrize": _cmd_metrize,
    "classify": _cmd_classify,
    "reduce": _cmd_reduce,
    "example4": _cmd_example4,
}


def _emit(report: dict, out_path: str | None) -> None:
    text = json.dumps(report, indent=2, sort_keys=True, allow_nan=False)
    if out_path:
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(text + "\n")
    else:
        sys.stdout.write(text + "\n")


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        _read_threads_cap()
        tol = ToleranceConfig(args.tol_abs, args.tol_rel)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    started = time.perf_counter()
    try:
        payload, verdict, digest, code = _DISPATCH[args.command](args, tol)
        report = {
            "command": args.command,
            "input_digest": digest,
            "tolerance": tol.to_dict(),
            "result": payload,
            "verdict": verdict,
            "wall_time_s": time.perf_counter() - started,
        }
        # a non-finite value or unwritable --out fails before any byte is written
        _emit(report, args.out)
    except metrization.NotEquivalenceInducingError as exc:
        print(f"not equivalence-inducing: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except reductions.BlockSelectionError as exc:
        print(f"construction not realizable: {exc}", file=sys.stderr)
        return EXIT_VERDICT
    except (json.JSONDecodeError, ValueError, KeyError, TypeError, OSError) as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if code != EXIT_OK:
        print(f"verdict failure: {verdict}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
