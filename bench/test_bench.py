"""Tests of the benchmark itself: short runs, metric names, and the checker.

Run from the repository root with ``python3 -m pytest -q bench``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, os.path.join(ROOT, "src"))

import checker  # noqa: E402
import numpy  # noqa: E402
import run  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

from sumlike import cli, conditions, metrization, reductions  # noqa: E402

with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as _fh:
    DECLARED = json.load(_fh)
REFERENCE = run.Reference(numpy)

# cheap jobs of each workload, one or more of every kind
SHORT = {
    "metrize-mix": lambda jobs: jobs[4:12] + jobs[-4:],
    "example4-scan": lambda jobs: [jobs[0], jobs[3], jobs[6], *jobs[10:14]],
    "family-mix": lambda jobs: [jobs[0], jobs[2], jobs[8], jobs[11], jobs[13], jobs[15], jobs[22], jobs[28], jobs[34]],
}


def short_jobs(workload, seed, tmp_path):
    return SHORT[workload](WORKLOADS[workload](seed, str(tmp_path)))


def answer(job, tmp_path):
    """(exit code, parsed report or None, stderr) of one job."""
    out = tmp_path / "report.json"
    if out.exists():
        out.unlink()
    err = io.StringIO()
    with contextlib.redirect_stderr(err):
        code = cli.main([*job.argv, "--out", str(out)])
    report = json.loads(out.read_text()) if out.exists() else None
    return code, report, err.getvalue()


def test_generators_are_seeded(tmp_path):
    def generate(workload, seed, sub):
        directory = tmp_path / f"{workload}-{sub}"
        directory.mkdir()
        jobs = WORKLOADS[workload](seed, str(directory))
        paths = [next((a for a in j.argv if os.path.isfile(a)), None) for j in jobs]
        inputs = [open(p).read() if p else j.argv for p, j in zip(paths, jobs)]
        return [j.name for j in jobs], inputs

    for workload in WORKLOADS:
        names, first = generate(workload, 5, "a")
        _, again = generate(workload, 5, "b")
        other_names, other = generate(workload, 6, "c")
        assert len(names) == 40 and names == other_names
        assert first == again
        assert first != other


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_short_run_is_correct_and_names_every_metric(workload, tmp_path):
    jobs = short_jobs(workload, 3, tmp_path)
    result = run.run_passes(cli, jobs, 0.0, str(tmp_path), REFERENCE)
    assert result.passes == 1 and result.attempted == len(jobs)
    assert result.failed == 0, result.problems
    values = run.end_to_end(result, setup_s=0.1)
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert set(values) == set(declared)
    assert values["ok_ratio"] == 1.0
    assert all(v > 0 for v in values.values())


def test_traced_run_resolves_every_per_layer_metric_and_restores(tmp_path):
    originals = (metrization.quasi_constants, reductions.best_admissible, cli.family_from_dict)
    jobs = []
    for workload in sorted(WORKLOADS):
        jobs += short_jobs(workload, 4, tmp_path)
    baseline = run.run_passes(cli, jobs, 0.0, str(tmp_path), REFERENCE)
    tracer = Tracer()
    tracer.install()
    try:
        assert metrization.quasi_constants is conditions.quasi_constants
        assert metrization.quasi_constants.__wrapped__ is originals[0]
        traced = run.run_passes(cli, jobs, 0.0, str(tmp_path), REFERENCE, tracer)
    finally:
        tracer.remove()
    assert (metrization.quasi_constants, reductions.best_admissible, cli.family_from_dict) == originals
    assert traced.failed == 0, traced.problems
    names = [m["name"] for m in DECLARED["per_layer"]]
    values, unresolved = run.per_layer(names, tracer, traced, baseline)
    assert unresolved == [] and tracer.missing == []
    assert set(values) == set(names)
    stats = tracer.stats
    assert stats["cli.main"].calls == len(jobs)
    # metrize jobs reach quasi_constants through the name bound in metrization
    metrize_m = [len(j.data["psi"]) for j in jobs if j.argv[0] == "metrize"]
    assert values["conditions.quasi_constants.triples"] >= sum(m ** 3 for m in metrize_m)
    assert values["metrization.raised"] == 4  # the four samples that are not equivalence-inducing
    assert values["core.PiecewiseModulus.value.calls"] > 0
    assert values["reductions.koch_point.calls"] > 0
    for name, stat in stats.items():
        assert stat.self_s <= stat.total_s + 1e-9, name
    tracer.write_spans(str(tmp_path / "spans.jsonl"))
    span = json.loads((tmp_path / "spans.jsonl").read_text().splitlines()[0])
    assert set(span) == {"id", "name", "start", "end", "parent", "job"}


def _job(workload, name_prefix, tmp_path):
    jobs = WORKLOADS[workload](7, str(tmp_path))
    return next(j for j in jobs if j.name.startswith(name_prefix))


def test_checker_catches_a_corrupted_distance(tmp_path):
    job = _job("metrize-mix", "metrize/euclid-40", tmp_path)
    code, report, err = answer(job, tmp_path)
    assert checker.check(job, code, report, err) == []
    d = report["result"]["d"]
    d[0][1] = d[1][0] = d[0][1] * 3.0  # still symmetric, breaks the triangle or the sandwich
    assert checker.check(job, code, report, err)
    d[0][1], d[1][0] = d[1][0] / 3.0, d[1][0]  # asymmetric
    assert any("symmetric" in p for p in checker.check(job, code, report, err))


def test_checker_catches_a_wrong_constant_and_exit(tmp_path):
    job = _job("metrize-mix", "metrize/quasi-42", tmp_path)
    code, report, err = answer(job, tmp_path)
    assert checker.check(job, code, report, err) == []
    assert checker.check(job, 1 - code, report, err)
    report["result"]["C"] *= 1.01
    assert checker.check(job, code, report, err)


def test_checker_catches_a_flipped_verdict(tmp_path):
    job = _job("example4-scan", "example4/steep-200", tmp_path)
    code, report, err = answer(job, tmp_path)
    assert code == 1 and checker.check(job, code, report, err) == []
    assert checker.check(job, 0, report, err)
    report["verdict"] = report["verdict"].replace("NOT_LINEAR", "LINEAR_LIKELY")
    report["result"]["mazur_orlicz"]["verdict"] = "LINEAR_LIKELY"
    assert checker.check(job, code, report, err)


def test_checker_catches_a_flipped_branch_and_witness(tmp_path):
    job = _job("family-mix", "classify/power-L1", tmp_path)
    code, report, err = answer(job, tmp_path)
    assert checker.check(job, code, report, err) == []
    term = report["result"]["l1_witness"]["terms"][0]
    term["value"] *= 2.0
    assert checker.check(job, code, report, err)
    report["result"]["branch"] = "E1_LIKE"
    assert checker.check(job, code, report, err)


def test_checker_catches_a_wrong_witness(tmp_path):
    job = _job("family-mix", "check/mix", tmp_path)
    code, report, err = answer(job, tmp_path)
    assert checker.check(job, code, report, err) == []
    coord = next(c for c in report["result"]["coords"] if c["tri_witness"])
    coord["tri_witness"]["labels"] = coord["tri_witness"]["labels"][::-1]
    assert checker.check(job, code, report, err)


def test_command_line_prints_every_metric_with_its_unit():
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "family-mix", "--seed", "2", "--seconds", "0.1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["failed"] == 0 and last["attempted"] >= 40
    declared = {m["name"]: m["unit"] for m in DECLARED["end_to_end"]}
    assert {k: v["unit"] for k, v in last["metrics"].items()} == declared


def test_command_line_fails_without_the_program(tmp_path):
    bench = tmp_path / "bench"
    bench.mkdir()
    for name in os.listdir(os.path.join(ROOT, "bench")):
        if name.endswith(".py"):
            with open(os.path.join(ROOT, "bench", name), "rb") as src:
                (bench / name).write_bytes(src.read())
    (tmp_path / "BENCHMARK.json").write_text(json.dumps(DECLARED))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "metrize-mix", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=170,
        env={k: v for k, v in os.environ.items() if k != "PYTHONPATH"},
    )
    assert proc.returncode != 0
    assert proc.stdout == ""
