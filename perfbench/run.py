#!/usr/bin/env python3
"""Benchmark of the FlexMap simulator as users run it.

Run from the repository root::

    python3 perfbench/run.py --workload serve-poisson --seed 1 --seconds 25 --trace 0
    python3 perfbench/run.py --workload all --seed 1          # every workload

One run generates the workload's inputs from ``--seed`` and repeats timed
passes over them for ``--seconds``, timing one set-up in a fresh process
after each pass.  Every pass is checked (see ``checks.py``) and must
reproduce the first pass's simulated results exactly.  ``--trace 0``
reports the end-to-end metrics of ``spec.py``, with host times normalised
to the machine's speed as ``reference.py`` measures it alongside;
``--trace 1`` alternates untraced and traced passes, without that
normalisation, and reports the per-layer metrics, writing the last traced
pass's spans under ``.bench_out/``.  The last line of
standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.

The program is imported from ``src/`` under the working directory and
nowhere else; without it the run exits with an error and prints no result.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path.cwd()
HERE = Path(__file__).resolve().parent
OUT_DIR = ROOT / ".bench_out"
SETUP_PROBES = 5

sys.path.insert(0, str(HERE))
import spec  # noqa: E402  (pure data; the program is imported later)


def import_program() -> None:
    """Put ``./src`` first on the path and check ``repro`` comes from it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no src/repro under {ROOT}; run from the repository root")
    sys.path.insert(0, str(src))
    import repro

    if Path(repro.__file__).resolve().parent != (src / "repro").resolve():
        raise SystemExit(f"perfbench: repro imported from {repro.__file__}, not {src}")


def setup_probe(workload: str, seed: int) -> None:
    """Child-process body: time import plus construction, print the
    normalised seconds."""
    import reference

    def set_up():
        import_program()
        import workloads

        workloads.build_first(workloads.make_inputs(workload, seed))

    _, unit = reference.Sampler().time(set_up)
    print(repr(unit.norm_wall))


def time_setup(workload: str, seed: int) -> float:
    """Normalised set-up seconds of one fresh process (import plus
    construction)."""
    done = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", workload, "--seed", str(seed)],
        cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
    )
    return float(done.stdout.strip().splitlines()[-1])


class Run:
    """Passes over one workload's inputs plus everything checked about them."""

    def __init__(self, workload: str, seed: int) -> None:
        import workloads

        self.inputs = workloads.make_inputs(workload, seed)
        OUT_DIR.mkdir(exist_ok=True)
        self.trace_path = OUT_DIR / f"{workload}-trace.jsonl"
        self.attempted = 0
        self.failed = 0
        self.messages: list[str] = []
        self.reference: dict | None = None
        self.reference_jobs: list | None = None
        self.trace_bytes = 0

    def one_pass(self, recorder=None, probing: bool = True):
        """Run and check one pass; returns its :class:`PassResult`, whose
        ``units`` time each unit of work.

        With ``recorder`` the pass runs with the layer wrappers installed;
        ``probing`` normalises its host times (see ``reference.py``).
        """
        import checks
        import tracing
        import workloads

        patches = tracing.install(recorder) if recorder is not None else None
        try:
            result = workloads.run_pass(self.inputs, self.trace_path, probing)
        finally:
            if patches is not None:
                patches.restore()
        if self.inputs.obs:
            self.trace_bytes = self.trace_path.stat().st_size
        failed, messages = checks.check_pass(self.inputs, result)
        values = checks.sim_metrics(result)
        values.update(checks.model_counts(result))
        values["sim.events"] = result.events
        values["obs.trace_bytes"] = self.trace_bytes
        jobs = [
            (jr.trace.jct, len(jr.trace.records), jr.trace.data_processed_mb())
            for jr in result.jobs
        ]
        if self.reference is None:
            self.reference, self.reference_jobs = values, jobs
        else:
            label = f"pass {self.passes()}" + (" (traced)" if recorder else "")
            drift = checks.compare_passes(self.reference, values, label)
            differing = sum(a != b for a, b in zip(self.reference_jobs, jobs))
            if drift and not differing:
                differing = 1
            messages += drift
            failed += differing
        self.attempted += len(self.inputs.jobs)
        self.failed += min(failed, len(self.inputs.jobs))
        self.messages += messages
        return result

    def passes(self) -> int:
        return self.attempted // len(self.inputs.jobs)

    def outcome_rows(self) -> list[dict]:
        """Rows for the printed end-to-end outcomes (simulated clock)."""
        ref = self.reference
        counts = {
            "failed_frac": self.attempted,
            "sim_makespan_s": 1,
            "sim_jct_p50_s": len(self.inputs.jobs),
            "sim_jct_p90_s": len(self.inputs.jobs),
            "sim_norm_jct_flexmap": len({j.benchmark for j in self.inputs.jobs}),
        }
        values = dict(ref, failed_frac=self.failed / self.attempted)
        return [_row(m, values[m.name], counts[m.name]) for m in spec.OUTCOMES]


def _row(metric, value, n: int) -> dict:
    return {"metric": metric.name, "value": value, "unit": metric.unit,
            "clock": metric.clock, "n": n}


def src_loc() -> int:
    """Lines of Python under ``src/repro``."""
    return sum(
        len(path.read_text(encoding="utf-8").splitlines())
        for path in sorted((ROOT / "src" / "repro").rglob("*.py"))
    )


def typical(passes: list[list[float]]) -> float:
    """Sum over units of work of each unit's median time across passes."""
    return sum(statistics.median(times) for times in zip(*passes))


def more_time(start: float, seconds: float, rounds: int, minimum: int) -> bool:
    """Whether another round of passes fits in ``seconds`` from ``start``."""
    elapsed = time.perf_counter() - start
    return rounds < minimum or elapsed * (rounds + 1) / rounds <= seconds


def measure(workload: str, seed: int, seconds: float) -> tuple[Run, list[dict]]:
    """``--trace 0``: timed passes for ``seconds`` (at least three), each
    followed by one set-up probe, so both sample the whole run."""
    run = Run(workload, seed)
    walls, cpus, setup = [], [], []
    start = time.perf_counter()
    while not walls or more_time(start, seconds, len(walls), 3):
        result = run.one_pass()
        walls.append([u.norm_wall for u in result.units])
        cpus.append([u.norm_cpu for u in result.units])
        setup.append(time_setup(workload, seed))
    while len(setup) < SETUP_PROBES:
        setup.append(time_setup(workload, seed))
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    host = {
        "wall_s": (typical(walls), len(walls)),
        "cpu_s": (typical(cpus), len(cpus)),
        "setup_s": (statistics.median(setup), len(setup)),
        "peak_rss_mb": (rss_mb, 1),
    }
    rows = [_row(m, *host[m.name]) for m in spec.END_TO_END]
    return run, rows + run.outcome_rows()


def measure_traced(workload: str, seed: int, seconds: float) -> tuple[Run, list[dict]]:
    """``--trace 1``: alternate untraced and traced passes; per-layer rows.

    No pass probes the machine's speed: probes would land inside spans."""
    import tracing

    run = Run(workload, seed)
    plain, traced, selfs, counts = [], [], [], []
    recorder = None
    start = time.perf_counter()
    while not traced or more_time(start, seconds, len(traced), 1):
        plain.append([u.wall for u in run.one_pass(probing=False).units])
        recorder = tracing.SpanRecorder()
        recorder.calibrate()
        result = run.one_pass(recorder, probing=False)
        traced.append([u.wall for u in result.units])
        selfs.append(tracing.self_times(recorder))
        counts.append(tracing.layer_metrics(recorder, result.events))
        if counts[-1] != counts[0]:
            run.messages.append(f"traced pass {len(counts)}: layer counts differ from the first")
            run.failed += 1
    recorder.write_tsv(OUT_DIR / f"spans-{workload}-seed{seed}.tsv")
    values = dict(run.reference)
    values.update(counts[-1])
    for name in selfs[0]:
        values[name] = statistics.median(s[name] for s in selfs)
    values["sim.us_per_event"] = values["sim.self_s"] / values["sim.events"] * 1e6
    values["raw_wall_s"] = typical(plain)
    values["trace_overhead_frac"] = typical(traced) / typical(plain) - 1
    values["src_loc"] = src_loc()
    samples = {"host": len(traced), "sim": 1}
    rows = run.outcome_rows() + [
        _row(m, values[m.name], samples[m.clock])
        for m in spec.PER_LAYER if m not in spec.OUTCOMES
    ]
    return run, rows


def check_schema(rows: list[dict], traced: bool) -> None:
    """Every named metric present once, each with value, unit, clock and n."""
    import checks

    expected = spec.PER_LAYER if traced else spec.END_TO_END + spec.OUTCOMES
    checks.verify_result_table(
        rows, key_column="metric", other_columns=["value", "unit", "clock", "n"],
        expected_keys=[m.name for m in expected],
    )


def result_line(run: Run, rows: list[dict], traced: bool) -> dict:
    reported = spec.PER_LAYER if traced else spec.END_TO_END
    names = {m.name for m in reported}
    return {
        "correct": run.failed == 0 and not run.messages,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {
            r["metric"]: {"value": r["value"], "unit": r["unit"]}
            for r in rows if r["metric"] in names
        },
    }


def print_table(workload: str, seed: int, rows: list[dict], run: Run) -> None:
    print(f"# {workload} seed={seed} passes={run.passes()} jobs/pass={len(run.inputs.jobs)}")
    for r in rows:
        print(f"{r['metric']:<34s} {r['value']:>16.6g} {r['unit']:<6s} "
              f"clock={r['clock']:<4s} n={r['n']}")
    for message in run.messages[:20]:
        print(f"FAILED: {message}")


def run_all(args) -> int:
    """``--workload all``: each workload in its own process, in turn."""
    summary = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in spec.WORKLOADS:
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            cwd=ROOT, capture_output=True, text=True, check=True,
        )
        lines = done.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        summary["correct"] &= result["correct"]
        summary["attempted"] += result["attempted"]
        summary["failed"] += result["failed"]
        for name, metric in result["metrics"].items():
            summary["metrics"][f"{workload}/{name}"] = metric
    print(json.dumps(summary))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=spec.WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0,
                        help="how long the timed passes run (at least three passes)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    import_program()
    if args.workload == "all":
        return run_all(args)
    traced = bool(args.trace)
    measure_fn = measure_traced if traced else measure
    run, rows = measure_fn(args.workload, args.seed, args.seconds)
    print_table(args.workload, args.seed, rows, run)
    check_schema(rows, traced)
    print(json.dumps(result_line(run, rows, traced)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
