"""End-to-end benchmark of egy, with an optional traced per-layer run.

Usage, from the root of the repository:

    python3 perfbench/run.py --workload sample_chain --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all            # every workload, one process each
    python3 perfbench/run.py --workload certificates --write-reference

The workloads are defined in ``workloads.py``; ``BENCHMARK.json`` at the
root names them and lists the metrics, with their units.  One run does:

* set-up, timed in ``SETUP_REPEATS`` fresh child processes: interpreter
  start, imports of egy from ``src/``, lifting the int-to-str digit limit,
  generating the first pass's inputs and one fixed untimed warm-up op;
  ``setup_s`` is the median;
* passes over seeded op lists until ``--seconds`` are used up, each op
  timed on its own and checked afterwards, outside its timing;
* every time corrected for the host's drifting speed with a fixed
  reference unit of work timed between ops (``speed.py``); the end-to-end
  times and ``trace_overhead_frac`` use corrected times, the other
  per-layer times are raw;
* with ``--trace 1``, every pass twice: once plain and once with the
  per-layer tracer of ``tracing.py`` installed, so that the tracer's
  overhead is measured on the same inputs.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics without tracing, the per-layer metrics with it.  ``failed`` counts
ops that raised an error or failed their check; an op that ends in
``ResourceLimitError`` is undecided, a defined outcome of egy, and shows in
``decided_frac``.  The full result, with the run's metadata, is written to
``.perfbench_out/BENCH_<workload>_<seed>_t<trace>.json``, and the traced
run's spans next to it.  A failed check makes the exit code 1.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speed

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
REFERENCE = BENCH_DIR / "reference.json"
SETUP_REPEATS = 11
SETUP_UNIT = "bigint"  # set-up follows the host's speed more like this unit than the other
CHILD_TIMEOUT = 60


def _parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=None,
                        help="input seed (default: the default seed in reference.json)")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time (default: run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--write-reference", action="store_true",
                        help="store the first pass's output digests for the default seed")
    return parser.parse_args(argv)


def _setup(workload_name: str, seed: int):
    """Everything before the first timed op; returns the workload and pass 0."""
    sys.set_int_max_str_digits(0)  # as egy.cli.main does; certificates print huge rationals
    sys.path.insert(0, str(SRC))
    import workloads

    workload = workloads.WORKLOADS[workload_name]()
    ops = workload.make_pass(workloads.PassDraw(workload_name, seed, 0))
    workload.warm_up()
    return workloads, workload, ops


def _time_setups(workload_name: str, seed: int) -> list[float]:
    """Corrected wall time from spawning a fresh interpreter until its set-up is done."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload_name,
           "--seed", str(seed), "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        before = speed.unit_s(SETUP_UNIT)
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as child:
            try:
                line = child.stdout.readline()
                elapsed = time.perf_counter() - start
                child.stdout.read()
                child.wait(timeout=CHILD_TIMEOUT)
            except BaseException:
                child.kill()
                child.wait()
                raise
        if line.strip() != "ready" or child.returncode != 0:
            raise RuntimeError(f"set-up child exited with {child.returncode}")
        times.append(speed.corrected(SETUP_UNIT, elapsed, before, speed.unit_s(SETUP_UNIT)))
    return times


def _source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "egy").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def _commit() -> str | None:
    """HEAD of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


class Pass:
    """One pass over an op list: per-op latency, outcome and digest."""

    def __init__(self):
        self.times: list[float] = []  # raw
        self.corrected: list[float] = []
        self.unit_times: list[float] = []
        self.digests: list[str] = []
        self.undecided = 0
        self.problems: list[str] = []
        self.check_s = 0.0

    @property
    def wall(self) -> float:
        return sum(self.times)

    @property
    def corrected_wall(self) -> float:
        return sum(self.corrected)


def _run_pass(workloads, workload, ops, limit_error, tracer=None) -> Pass:
    result = Pass()
    ctx: dict = {}
    corrector = speed.Corrector(workload.speed_unit)
    for idx, op in enumerate(ops):
        if idx:
            corrector.add(result.times[-1])  # may time the unit, outside any op
        if tracer is not None:
            tracer.start_op(idx, op.kind)
        start = time.perf_counter()
        try:
            value, text = workload.run(op)
        except limit_error:
            value = text = None
        except Exception as exc:  # reported as a failed op, the run goes on
            value, text = None, f"error: {exc!r}"
        elapsed = time.perf_counter() - start
        if tracer is not None:
            tracer.end()
        result.times.append(elapsed)
        if text is None:
            result.undecided += 1
            result.digests.append("undecided")
            continue
        if value is None:
            result.problems.append(f"op {idx} {op}: {text}")
            result.digests.append("error")
            continue
        result.digests.append(hashlib.sha256(text.encode()).hexdigest()[:16])
        start = time.perf_counter()
        try:
            workload.check(op, value, ctx)
        except workloads.CheckError as exc:
            result.problems.append(f"op {idx} {op.kind}{op.args}: {exc}")
        result.check_s += time.perf_counter() - start
    corrector.add(result.times[-1])
    corrector.finish()
    result.corrected = corrector.corrected
    result.unit_times = corrector.units
    return result


def _compare_reference(reference: dict, name: str, config: dict, digests: list[str]) -> list[str]:
    """Decided outputs of the default seed's first pass must not change."""
    stored = reference.get("digests", {}).get(name)
    if stored is None:
        return [f"no reference digests for {name}; run with --write-reference"]
    if stored["config"] != config:
        return [f"reference digests for {name} are for another configuration; "
                "run with --write-reference"]
    problems = []
    for idx, (old, new) in enumerate(zip(stored["digests"], digests)):
        if old != "undecided" and new not in (old, "undecided"):
            problems.append(f"op {idx}: output digest {new} differs from reference {old}")
    return problems


def _measure(args, workloads, workload, first_ops, limit_error, tracer):
    """Passes until the time is up; with a tracer, each pass plain then traced."""
    plain: list[Pass] = []
    traced: list[Pass] = []
    start = time.perf_counter()
    k = 0
    while True:
        ops = first_ops if k == 0 else workload.make_pass(
            workloads.PassDraw(args.workload, args.seed, k))
        plain.append(_run_pass(workloads, workload, ops, limit_error))
        if tracer is not None:
            tracer.patch()
            try:
                traced.append(_run_pass(workloads, workload, ops, limit_error, tracer))
            finally:
                tracer.restore()
        k += 1
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / k > args.seconds:
            return plain, traced


def _end_to_end(passes: list[Pass], setups: list[float]) -> dict[str, float]:
    times = [t for p in passes for t in p.corrected]
    deciles = statistics.quantiles(times, n=10)
    attempted = len(times)
    decided = attempted - sum(p.undecided for p in passes) - sum(len(p.problems) for p in passes)
    return {
        "setup_s": statistics.median(setups),
        "wall_s": statistics.fmean(p.corrected_wall for p in passes),
        "op_p50_ms": deciles[4] * 1e3,
        "op_p90_ms": deciles[8] * 1e3,
        "decided_frac": decided / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }


def _run_workload(args, spec: dict, reference: dict) -> int:
    workloads, workload, first_ops = _setup(args.workload, args.seed)
    setups = [] if args.trace else _time_setups(args.workload, args.seed)
    import egy
    import tracing

    if Path(egy.__file__).resolve().parent != SRC / "egy":
        raise RuntimeError(f"imported egy from {egy.__file__}, not from {SRC}")
    tracer = tracing.Tracer() if args.trace else None
    plain, traced = _measure(args, workloads, workload, first_ops,
                             egy.ResourceLimitError, tracer)

    config = json.loads(json.dumps(workload.config()))
    problems = [msg for p in plain + traced for msg in p.problems]
    default_seed = reference["default_seed"]
    if args.write_reference:
        if args.seed != default_seed:
            raise SystemExit("--write-reference needs the default seed")
        reference.setdefault("digests", {})[args.workload] = {
            "config": config, "digests": plain[0].digests}
        REFERENCE.write_text(json.dumps(reference, indent=1) + "\n")
    elif args.seed == default_seed:
        for p in plain[:1] + traced[:1]:
            problems += _compare_reference(reference, args.workload, config, p.digests)

    attempted = sum(len(p.times) for p in plain + traced)
    failed = sum(len(p.problems) for p in plain + traced)
    undecided = sum(p.undecided for p in plain + traced)
    if tracer is None:
        wanted = spec["end_to_end"]
        values = _end_to_end(plain, setups)
        extra = {"failed_frac": 1 - values["decided_frac"], "setup_runs_s": setups,
                 "speed_unit": workload.speed_unit,
                 "unit_median_s": statistics.median(t for p in plain for t in p.unit_times),
                 "pass_wall_s": [p.corrected_wall for p in plain],
                 "pass_raw_wall_s": [p.wall for p in plain]}
    else:
        wanted = spec["per_layer"]
        untraced_wall = sum(p.wall for p in plain)
        traced_wall = sum(p.wall for p in traced)
        values = tracing.layer_metrics(tracer)
        values.update({"trace.wall_s": traced_wall, "trace.untraced_wall_s": untraced_wall,
                       "trace.passes": len(traced),
                       "trace_overhead_frac": sum(p.corrected_wall for p in traced)
                       / sum(p.corrected_wall for p in plain) - 1})
        extra = {"dominant_layer": tracing.dominant_layer(tracer),
                 "layer_split": workload.layer_split(values),
                 "self_s": dict(sorted(tracer.self_s.items(), key=lambda kv: -kv[1])),
                 "spans_kept": len(tracer.spans), "spans_dropped": tracer.dropped}
    metrics = {m["name"]: {"value": values.get(m["name"], 0), "unit": m["unit"]} for m in wanted}

    meta = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "commit": _commit(), "source_sha256": _source_digest(),
        "python": platform.python_version(), "backend": egy.BACKEND,
        "comparable": egy.BACKEND == reference["backend"], "nproc": os.cpu_count(),
        "sizes": config, "passes": len(plain),
        "ops_per_pass": len(first_ops), "undecided": undecided,
        "check_s": sum(p.check_s for p in plain + traced),
    }
    OUT_DIR.mkdir(exist_ok=True)
    stem = f"{args.workload}_{args.seed}_t{args.trace}"
    record = {"meta": meta, "metrics": values, "extra": extra, "problems": problems[:50]}
    (OUT_DIR / f"BENCH_{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    if tracer is not None:
        tracing.write_spans(tracer, OUT_DIR / f"spans_{stem}.tsv")

    for msg in problems[:20]:
        print(f"FAILED {msg}")
    if not meta["comparable"]:
        print(f"note: backend {egy.BACKEND!r} differs from the recorded "
              f"{reference['backend']!r}; these numbers are not comparable")
    if tracer is None and attempted < 100:
        print(f"note: only {attempted} ops; op_p90_ms has fewer than 10 samples beyond it")
    print(f"{args.workload}: seed {args.seed}, {len(plain)} passes of {len(first_ops)} ops, "
          f"attempted {attempted}, failed {failed}, undecided {undecided}")
    for name, metric in metrics.items():
        print(f"  {name:<40} {metric['value']:>14.6g} {metric['unit']}")
    if tracer is not None:
        print(f"  dominant layer (self time): {extra['dominant_layer']}")
        for claim, holds in extra["layer_split"].items():
            print(f"  layer split: {claim}: {'yes' if holds else 'NO'}")
    correct = not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def _run_all(args, spec: dict) -> int:
    """Each workload in its own process; one summary line at the end."""
    correct, attempted, failed, metrics = True, 0, 0, {}
    for entry in spec["workloads"]:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", entry["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines() or [""]
        try:
            result = json.loads(lines[-1])
            lines.pop()
        except ValueError:
            result = {}
        print("\n".join(lines))
        correct &= proc.returncode == 0 and result.get("correct", False)
        attempted += result.get("attempted", 0)
        failed += result.get("failed", 0)
        for name, metric in result.get("metrics", {}).items():
            metrics[f"{entry['name']}.{name}"] = metric
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0 if correct else 1


def main(argv=None) -> int:
    args = _parse_args(argv)
    if not (SRC / "egy" / "__init__.py").is_file():
        print(f"error: no egy sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    reference = json.loads(REFERENCE.read_text())
    if args.seed is None:
        args.seed = reference["default_seed"]
    if args.seconds is None:
        args.seconds = spec["run_seconds"]
    if args.setup_only:
        _setup(args.workload, args.seed)
        print("ready", flush=True)
        return 0
    if args.workload == "all":
        return _run_all(args, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        print(f"error: unknown workload {args.workload!r}; one of {names} or 'all'",
              file=sys.stderr)
        return 2
    return _run_workload(args, spec, reference)


if __name__ == "__main__":
    raise SystemExit(main())
