"""The notesetter benchmark: one command, seeded inputs, checked outputs.

    python3 bench/run.py --workload predict-short --seed 1 --seconds 10 --trace 0
    python3 bench/run.py --workload all --seed 1

For one workload it generates the inputs from the seed, then runs the
program in fresh worker processes, one at a time, with BLAS/OpenMP pinned to
one thread:

* ``--trace 0``: five set-up-only processes (``setup_s`` is the median of
  their import + set-up time), then one untraced run of ``--seconds`` of
  items. Prints the end-to-end metrics.
* ``--trace 1``: the same untraced run, then a traced run of the same length.
  Prints the per-layer metrics and the tracing overhead.

Every output is checked after its run, outside the timed region. Metric
names, units and bounds are declared once, in ``BENCHMARK.json``. The report
lines go first; the last line of standard output is one JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``. The exit status is
non-zero when any check fails. Run outputs stay under ``.bench_out/``:
``result.json`` (metrics, samples, environment) and the traced run's spans.
"""

from __future__ import annotations

import os

# Pinned before NumPy loads, here and in every child process.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORKLOAD_NAMES = ("train", "predict-short", "engrave")
SETUP_REPEATS = 5
WORKER_GRACE_S = 150        # a worker's allowance beyond --seconds
ENGRAVE_REFUSALS = ("TooManyVoices", "UnfillableGap", "UnrepresentableDuration")


class BenchError(RuntimeError):
    pass


def _tail(values):
    """(percentile, value) of the highest percentile with at least ten
    samples beyond it, or None when there are too few samples."""
    for p in (99, 95, 90, 75, 50):
        if len(values) * (100 - p) / 100 >= 10:
            return p, statistics.quantiles(values, n=100)[p - 1]
    return None


def environment(seed: int) -> dict:
    import numpy
    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    commit = "unknown (not a git checkout)"
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                capture_output=True, text=True, timeout=30,
                check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "blas": blas, "commit": commit, "seed": seed,
            "threads": {v: os.environ.get(v) for v in THREAD_VARS}}


def run_worker(plan_path: Path, out: Path, seconds: float, *flags) -> dict:
    """Run one worker process to completion and return its result."""
    log = out.with_suffix(".log")
    cmd = [sys.executable, str(BENCH / "worker.py"), str(plan_path), str(out),
           "--seconds", str(seconds), *flags]
    with open(log, "w", encoding="utf-8") as err:
        try:
            proc = subprocess.run(cmd, stdout=err, stderr=err, cwd=ROOT,
                                  timeout=seconds + WORKER_GRACE_S)
        except subprocess.TimeoutExpired as exc:  # run() has killed and reaped it
            raise BenchError(f"worker timed out: {' '.join(cmd)}") from exc
    if proc.returncode != 0:
        tail = log.read_text(encoding="utf-8").splitlines()[-15:]
        raise BenchError(f"worker failed ({proc.returncode}):\n  "
                         + "\n  ".join(tail))
    return json.loads(out.read_text(encoding="utf-8"))


def _refusals(records) -> dict:
    counts = {name: 0 for name in ENGRAVE_REFUSALS + ("other",)}
    for rec in records:
        if rec["outcome"] != "ok":
            counts[rec["outcome"] if rec["outcome"] in counts else "other"] += 1
    return counts


def end_to_end(run: dict, setups: list[dict]) -> tuple[dict, dict]:
    """(metric values, sample counts) of an untraced run."""
    records = run["records"]
    ok = [r for r in records if r["outcome"] == "ok"]
    wall_s = sum(r["ms"] for r in records) / 1e3
    piece_ms = [r["ms"] / r["steps"] for r in records]
    setup_s = [s["import_s"] + s["setup_s"] for s in setups]
    values = {
        "notes_per_s": sum(r["notes"] for r in ok) / wall_s,
        "piece_ms_p50": statistics.median(piece_ms),
        "peak_rss_mb": run["peak_rss_mb"],
        "setup_s": statistics.median(setup_s),
    }
    counts = {"notes_per_s": len(records), "piece_ms_p50": len(piece_ms),
              "peak_rss_mb": 1, "setup_s": len(setup_s)}
    return values, counts


def per_layer(plain: dict, traced: dict) -> dict:
    self_s = traced["self_s"]
    total = sum(self_s.values())
    values = {f"{name}.self_pct": 100.0 * s / total for name, s in self_s.items()}
    c = traced["counters"]

    def ratio(num, den):
        return c.get(num, 0) / c[den] if c.get(den) else 0.0

    def us_per_note(run):
        records = run["records"]
        return (sum(r["ms"] for r in records) * 1e3
                / sum(r["notes"] for r in records))

    traced_us = us_per_note(traced)
    probe = traced["probe"]
    refusals = _refusals(probe)
    values.update({
        "traced_us_per_note": traced_us,
        "trace_overhead_pct": 100.0 * (traced_us / us_per_note(plain) - 1.0),
        "graph.candidates_per_note": ratio("items.graph.candidates",
                                           "items.graph.notes"),
        "autodiff.tape_nodes_per_note": ratio("items.tape.nodes",
                                              "items.tape.notes"),
        "hungarian.calls_per_item": (c.get("items.hungarian.calls", 0)
                                     / len(traced["records"])),
        "hungarian.max_n": c.get("items.hungarian.max_n", 0),
        "postprocess.voice_numbers_ratio": ratio("probe.voices.numbers",
                                                 "probe.voices.max_sounding"),
        "probe.fail_share": (sum(refusals.values()) / len(probe)
                             if probe else 0.0),
    })
    values.update({f"probe.fail.{k}": v for k, v in refusals.items()})
    return values


def _train_summary(records) -> list[str]:
    finals = {r["digest"]["loss_final"] for r in records if r["outcome"] == "ok"}
    return [f"loss_final {' / '.join(repr(x) for x in sorted(finals))} "
            f"(bit-identical over {len(records)} runs: {len(finals) == 1})"]


def run_workload(name: str, seed: int, seconds: float, trace: int,
                 declared: dict) -> dict:
    import workloads

    work = ROOT / ".bench_out" / f"{name}-seed{seed}-trace{trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)
    plan = workloads.generate(name, seed, work)
    plan_path = work / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")

    notes, problems = [], []
    try:
        if trace == 0:
            setups = [run_worker(plan_path, work / f"setup{k}.json", 0,
                               "--setup-only")
                      for k in range(SETUP_REPEATS)]
        plain = run_worker(plan_path, work / "untraced.json", seconds)
        problems += workloads.check(plan, plain["records"])
        problems += workloads.check(plan, plain["probe"], key="probe")
        runs = [plain]
        if trace == 1:
            traced = run_worker(plan_path, work / "traced.json", seconds,
                                "--trace")
            problems += workloads.check(plan, traced["records"])
            problems += workloads.check(plan, traced["probe"], key="probe")
            digests = {r["item"]: r.get("digest") for r in plain["records"]}
            if any(r["item"] in digests and r.get("digest") != digests[r["item"]]
                   for r in traced["records"]):
                problems.append("tracing changed an output")
            runs.append(traced)
    finally:
        shutil.rmtree(work / "inputs", ignore_errors=True)
        shutil.rmtree(work / "outputs", ignore_errors=True)

    if trace == 0:
        values, counts = end_to_end(plain, setups)
    else:
        values, counts = per_layer(plain, traced), {}
        notes.append("self seconds: " + ", ".join(
            f"{k} {v:.3f}" for k, v in traced["self_s"].items() if v))
    missing = sorted(set(declared) - set(values))
    if missing:
        raise BenchError(f"metrics not computed: {missing}")

    records = plain["records"]
    attempted = sum(len(r["records"]) for r in runs)
    failed = sum(r["outcome"] != "ok" for run in runs for r in run["records"])
    piece_ms = [r["ms"] / r["steps"] for r in records]
    tail = _tail(piece_ms)
    notes.append(
        f"piece_ms_tail " + (f"p{tail[0]} {tail[1]:.3f} ms (n={len(piece_ms)})"
                             if tail else f"omitted (n={len(piece_ms)} < 20)"))
    notes.append(f"fail_share {failed / attempted:.3f} ({failed}/{attempted} "
                 f"timed items refused)")
    if plan["probe"]:
        refusals = _refusals(plain["probe"])
        refused = sum(refusals.values())
        notes.append(
            f"probe fail_share {refused / len(plain['probe']):.3f} "
            f"({refused}/{len(plain['probe'])} noisier bundles refused: "
            + ", ".join(f"{k} {v}" for k, v in refusals.items()) + ")")
    if name == "train":
        notes += _train_summary(records)
    digests = sorted({json.dumps(r.get("digest"), sort_keys=True)
                      for r in records})
    notes.append("output digest " + hashlib.sha256(
        "\n".join(digests).encode()).hexdigest()[:16]
        + f" ({len(digests)} distinct outputs)")

    result = {
        "workload": name, "seed": seed, "seconds": seconds, "trace": trace,
        "correct": not problems, "problems": problems,
        "attempted": attempted, "failed": failed,
        "metrics": {k: {"value": values[k], "unit": declared[k]["unit"],
                        "n": counts.get(k)} for k in declared},
        "extra": {k: v for k, v in values.items() if k not in declared},
        "notes": notes, "env": environment(seed),
    }
    (work / "result.json").write_text(json.dumps(result, indent=1),
                                      encoding="utf-8")
    return result


def report(result: dict) -> None:
    env = result["env"]
    print(f"== {result['workload']}  seed {result['seed']}  "
          f"{result['seconds']:g} s  trace {result['trace']}  "
          f"(closed loop, 1 client, 1 process at a time)")
    print(f"   env: nproc {env['nproc']}, python {env['python']}, "
          f"numpy {env['numpy']}, blas {env['blas']}, commit {env['commit']}, "
          + ", ".join(f"{k}={v}" for k, v in env["threads"].items()))
    for name, m in result["metrics"].items():
        n = f"  (n={m['n']})" if m["n"] is not None else ""
        print(f"   {name:38s} {m['value']:14.6g} {m['unit']}{n}")
    for line in result["notes"]:
        print(f"   {line}")
    for problem in result["problems"]:
        print(f"   CHECK FAILED: {problem}")


def main(argv=None) -> int:
    config_path = ROOT / "BENCHMARK.json"
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",),
                        required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=None)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "notesetter" / "__init__.py").is_file():
        print(f"error: no notesetter source under {ROOT / 'src'}",
              file=sys.stderr)
        return 2
    config = json.loads(config_path.read_text(encoding="utf-8"))
    seconds = args.seconds if args.seconds is not None else config["run_seconds"]
    key = "per_layer" if args.trace else "end_to_end"
    declared = {m["name"]: m for m in config[key]}
    sys.path.insert(0, str(ROOT / "src"))

    names = WORKLOAD_NAMES if args.workload == "all" else (args.workload,)
    try:
        results = [run_workload(n, args.seed, seconds, args.trace, declared)
                   for n in names]
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for result in results:
        report(result)
    correct = all(r["correct"] for r in results)
    prefix = len(results) > 1
    print(json.dumps({
        "correct": correct,
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": {(f"{r['workload']}/{k}" if prefix else k):
                    {"value": m["value"], "unit": m["unit"]}
                    for r in results for k, m in r["metrics"].items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
