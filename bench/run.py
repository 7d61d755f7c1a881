"""Benchmark of the ``sumlike`` CLI.

Run from the root of a checkout:

    python3 bench/run.py --workload metrize-mix --seed 1 --seconds 20 --trace 0

One client drives ``sumlike.cli.main(argv)`` in this process, in a closed
loop: each job reads its generated input file, computes, and writes its JSON
report with ``--out``; the next job starts when the previous one returns.
The job list of a workload is fixed by its seed, and the loop runs whole
passes over it until the jobs have taken ``--seconds`` of wall time.  Every
answer is checked outside the timed region.  The last line of standard
output is one JSON object ``{correct, attempted, failed, metrics}``; the
metrics are the end-to-end ones with ``--trace 0`` and the per-layer ones
from a traced run with ``--trace 1``.  See bench/README.md.
"""

import os

# One client and one pinned BLAS thread: the load never exceeds one core.
BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

import argparse  # noqa: E402
import contextlib  # noqa: E402
import io  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402

import checker  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

ROOT = os.getcwd()
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
SETUP_REPEATS = 15
TAIL_BEYOND = 10  # the tail percentile keeps at least this many samples beyond it


class Reference:
    """A fixed 10 ms mix of NumPy temporaries, JSON encoding and dict work.

    The host's speed wanders by tens of percent from one second to the next
    and from one run to the next.  Timing this kernel just before and just
    after every job gives the host's speed at that moment, and each job's
    time is divided by it (see ``Run.job_seconds``).
    """

    SECONDS = 0.01  # the unit: a job time of 0.01 takes as long as one kernel

    @classmethod
    def normalise(cls, seconds: float, before: float, after: float) -> float:
        return seconds * cls.SECONDS * 2.0 / (before + after)

    def __init__(self, numpy):
        self._np = numpy
        self._x = numpy.random.default_rng(0).random((96, 96))

    def __call__(self) -> float:
        np, x = self._np, self._x
        start = time.perf_counter()
        np.minimum(x[:, None, :] + x[None, :, :], 1.0).max()
        json.dumps(x.tolist())
        table = {i: i * 0.5 for i in range(10000)}
        sum(table.values())
        return time.perf_counter() - start


@dataclass
class Run:
    """Timings and answers of whole passes over one job list.

    ``durations[j]`` holds job j's wall time in each pass and ``refs[j]`` the
    reference kernel's times just before and just after it.
    """

    durations: list
    refs: list
    passes: int = 0
    attempted: int = 0
    failed: int = 0
    report_bytes: list = field(default_factory=list)
    problems: list = field(default_factory=list)

    @property
    def job_time(self) -> float:
        return sum(sum(d) for d in self.durations)

    def job_seconds(self) -> list:
        """Each job's median over passes of its host-speed-normalised time."""
        return [
            statistics.median(Reference.normalise(t, *ref) for t, ref in zip(times, refs))
            for times, refs in zip(self.durations, self.refs)
        ]

    def raw_job_seconds(self) -> list:
        return [statistics.median(times) for times in self.durations]

    def normalised_pass_time(self) -> float:
        total = sum(
            Reference.normalise(t, *ref)
            for times, refs in zip(self.durations, self.refs)
            for t, ref in zip(times, refs)
        )
        return total / self.passes


def run_passes(cli, jobs, seconds: float, directory: str, reference: Reference, tracer=None) -> Run:
    """Whole passes over ``jobs`` until their summed wall time reaches ``seconds``."""
    run = Run([[] for _ in jobs], [[] for _ in jobs])
    report = os.path.join(directory, "report.json")
    while run.passes == 0 or run.job_time < seconds:
        for index, job in enumerate(jobs):
            if os.path.exists(report):
                os.remove(report)
            if tracer is not None:
                tracer.job = f"{run.passes}:{index}"
            stderr = io.StringIO()
            crash = None
            before = reference()
            with contextlib.redirect_stderr(stderr):
                start = time.perf_counter()
                try:
                    code = cli.main([*job.argv, "--out", report])
                except (Exception, SystemExit) as exc:  # a crash is a wrong answer, not a stop
                    code, crash = None, f"{type(exc).__name__}: {exc}"
                run.durations[index].append(time.perf_counter() - start)
            run.refs[index].append((before, reference()))
            run.attempted += 1
            if crash is not None:
                problems = [f"raised {crash}"]
            else:
                data = None
                if os.path.exists(report):
                    with open(report, "rb") as fh:
                        data = json.loads(fh.read())
                    if run.passes == 0:
                        run.report_bytes.append(os.path.getsize(report))
                problems = checker.check(job, code, data, stderr.getvalue())
            if problems:
                run.failed += 1
                run.problems.append({"job": job.name, "pass": run.passes, "problems": problems[:5]})
        run.passes += 1
    return run


def measure_setup(reference: Reference):
    """(normalised, raw) median wall time of fresh interpreters that only ``import sumlike.cli``.

    The reference kernel runs before each interpreter, not after it: right
    after a child exits, the kernel reads slow by a varying amount.
    """
    env = dict(os.environ, PYTHONPATH=SRC)
    command = [sys.executable, "-c", "import sumlike.cli"]
    subprocess.run(command, env=env, cwd=ROOT, check=True, timeout=120)  # writes bytecode
    times, refs = [], []
    for _ in range(SETUP_REPEATS):
        reference()  # warms the kernel's caches after the previous child
        refs.append(reference())
        # no timeout here: with one, subprocess polls the child in steps of up
        # to 50 ms, which shows up in the reading
        start = time.perf_counter()
        subprocess.run(command, env=env, cwd=ROOT, check=True, stdin=subprocess.DEVNULL)
        times.append(time.perf_counter() - start)
    raw = statistics.median(times)
    return raw * Reference.SECONDS / statistics.median(refs), raw


def tail(values: list):
    """(value, percentile): the highest percentile with TAIL_BEYOND values beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[0], 0.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def end_to_end(run: Run, setup_s: float) -> dict:
    seconds = run.job_seconds()
    return {
        "setup_s": setup_s,
        "jobs_per_s": len(seconds) / sum(seconds),
        "job_s_p50": statistics.median(seconds),
        "job_s_tail": tail(seconds)[0],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "report_kb": statistics.mean(run.report_bytes) / 1000.0,
        "ok_ratio": 1.0 - run.failed / run.attempted,
    }


def per_layer(names, tracer: Tracer, run: Run, baseline: Run):
    """(values, unresolved names): each declared per-layer metric from the tracer's totals.

    Counts and seconds are per pass over the job list; a name whose span was
    never wrapped reads 0 and is listed as unresolved.
    """
    table, passes = tracer.stats, run.passes
    job_time = run.job_time
    values, unresolved = {}, []
    for name in names:
        span, _, what = name.rpartition(".")
        if name == "trace.overhead":
            values[name] = run.normalised_pass_time() / baseline.normalised_pass_time() - 1.0
        elif name == "cli.report_bytes":
            values[name] = statistics.mean(run.report_bytes)
        elif span in LAYERS:
            stats = [s for key, s in table.items() if key.split(".", 1)[0] == span]
            values[name] = sum(getattr(s, what) for s in stats) / passes
        elif span not in table:
            values[name] = 0.0
            unresolved.append(name)
        elif what == "share":
            values[name] = table[span].self_s / job_time
        elif what == "peak_mb":
            values[name] = table[span].counters["peak_bytes"] / 2 ** 20
        elif what in ("self_s", "calls", "raised"):
            values[name] = getattr(table[span], what) / passes
        else:
            values[name] = table[span].counters[what] / passes
    return values, unresolved


def environment(numpy) -> dict:
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": BLAS_THREADS,
        "machine": platform.machine(),
    }


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    if not os.path.isfile(os.path.join(SRC, "sumlike", "cli.py")):
        print(f"error: {SRC}/sumlike not found; run from the root of a sumlike checkout", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import numpy
    from sumlike import cli

    if not os.path.abspath(cli.__file__).startswith(SRC + os.sep):
        print(f"error: imported sumlike from {cli.__file__}, not from {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        declared = json.load(fh)

    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    work = os.path.join(OUT, "work", tag)
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(OUT, "results"), exist_ok=True)
    try:
        reference = Reference(numpy)
        jobs = WORKLOADS[args.workload](args.seed, work)
        info = {"workload": args.workload, "seed": args.seed, "jobs": len(jobs), "env": environment(numpy)}
        if args.trace:
            baseline = run_passes(cli, jobs, 0.0, work, reference)
            tracer = Tracer()
            tracer.install()
            try:
                run = run_passes(cli, jobs, args.seconds, work, reference, tracer)
            finally:
                tracer.remove()
            names = [m["name"] for m in declared["per_layer"]]
            values, unresolved = per_layer(names, tracer, run, baseline)
            units = {m["name"]: m["unit"] for m in declared["per_layer"]}
            tracer.write_spans(os.path.join(OUT, "results", f"{tag}-spans.jsonl"))
            info.update({
                "untraced_pass_s": baseline.normalised_pass_time(),
                "traced_pass_s": run.normalised_pass_time(),
                "tracing_overhead": values["trace.overhead"],
                "missing_spans": tracer.missing + unresolved,
                "spans_kept": len(tracer.spans),
                "spans_dropped": tracer.dropped,
                "span_table": tracer.table(),
            })
            run.attempted += baseline.attempted
            run.failed += baseline.failed
            run.problems += baseline.problems
        else:
            setup_s, raw_setup_s = measure_setup(reference)
            run = run_passes(cli, jobs, args.seconds, work, reference)
            values = end_to_end(run, setup_s)
            units = {m["name"]: m["unit"] for m in declared["end_to_end"]}
            raw = run.raw_job_seconds()
            info.update({
                "tail_percentile": tail(raw)[1],
                "raw_setup_s": raw_setup_s,
                "raw_jobs_per_s": len(raw) / sum(raw),
                "raw_job_s_p50": statistics.median(raw),
                "raw_job_s_tail": tail(raw)[0],
                "reference_s_median": statistics.median(x for refs in run.refs for pair in refs for x in pair),
                "fail_ratio": run.failed / run.attempted,
                "job_s": {f"{i:02d} {job.name}": d for i, (job, d) in enumerate(zip(jobs, run.durations))},
                "refs": {f"{i:02d} {job.name}": d for i, (job, d) in enumerate(zip(jobs, run.refs))},
            })
        info.update({
            "passes": run.passes,
            "samples": run.attempted,
            "measured_s": run.job_time,
            "problems": run.problems[:20],
        })
        metrics = {name: {"value": values[name], "unit": units[name]} for name in units}
        with open(os.path.join(OUT, "results", f"{tag}.json"), "w", encoding="utf-8") as fh:
            json.dump({"info": info, "metrics": metrics}, fh, indent=1)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(json.dumps({"info": {k: v for k, v in info.items() if k not in ("span_table", "job_s", "refs")}}))
    print(json.dumps({
        "correct": run.failed == 0,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
