"""bpictl benchmark: seeded CLI workloads timed end to end, plus a traced run
that splits the time by layer.

    python3 bench/run.py --workload check-large --seed 1 --seconds 9 --trace 0
    python3 bench/run.py --workload all --seed 1

Each task is one `bpictl` invocation, called in-process through
`bpictl.cli.run(argv)` with stdout and stderr captured, as a closed loop
with one client: the next call starts when the previous one returns. Every
output is checked against an answer that does not come from the code under
test (see workloads.py). The last line of stdout is one JSON object; with
--trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
ones. See bench/README.md.
"""

from __future__ import annotations

import argparse
import bisect
import contextlib
import gc
import hashlib
import io
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_work"
OUT = ROOT / ".bench_out"
CACHE = ROOT / ".bench_cache"

# The host this was tuned on (2 vCPUs) changes speed by up to 1.8x, for
# seconds to minutes at a time, with CPU time slowing as much as wall time.
# Two measures keep the end-to-end times steady. Every task runs REPEATS
# times, once per pass, under renamed symbols, and its time is the fastest
# of those. And every time is expressed at a fixed host speed: a reference
# loop that does not touch the program runs every REF_EVERY seconds, and a
# call's time is scaled by REF_SECONDS over the reference time measured
# around it. REF_SECONDS is the reference time on the tuning host in its
# fast state; the raw times are printed beside the scaled ones.
REPEATS = 2
REF_EVERY = 0.25
REF_SECONDS = 0.006

END_TO_END = {
    "setup_s": "s",
    "task_s_p50": "s",
    "task_s_tail": "s",
    "tasks_per_s": "1/s",
    "failed_frac": "ratio",
    "decided_frac": "ratio",
    "peak_rss_mb": "MiB",
}
# failed_frac is 0 whenever the program is right, so it is printed and its
# count is the result's "failed" field, but it is not a JSON metric: a
# metric that is 0 has no relative spread.
JSON_END_TO_END = [name for name in END_TO_END if name != "failed_frac"]

_IMPORT_PROBE = (
    "import sys, time\n"
    "sys.path.insert(0, sys.argv[1])\n"
    "t = time.perf_counter()\n"
    "import bpictl.cli\n"
    "print(time.perf_counter() - t)\n"
)


def import_seconds() -> float:
    """Time for a fresh interpreter to import bpictl.cli."""
    done = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, str(SRC)],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(done.stdout)


def reference() -> float:
    """Wall time of a fixed pure-Python loop of arithmetic, tuples,
    frozensets and dict updates, run with the collector off."""
    gc.disable()
    try:
        start = time.perf_counter()
        total, table = 0, {}
        for i in range(40000):
            total += i * i % 7
        for i in range(5000):
            key = (i % 97, i % 89)
            table[key] = frozenset((i % 13, i % 7, i % 5)) | table.get(key, frozenset())
        return time.perf_counter() - start
    finally:
        gc.enable()


class Speed:
    """Reference samples over a run: (time taken, reference seconds)."""

    def __init__(self):
        self.samples = []

    def tick(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= REF_EVERY:
            self.samples.append((now, reference()))

    def scaled(self, start: float, seconds: float) -> float:
        """`seconds` measured from `start`, at the speed where the reference
        takes REF_SECONDS: scaled by the samples just before and after."""
        times = [t for t, _ in self.samples]
        before = max(bisect.bisect_right(times, start) - 1, 0)
        after = min(bisect.bisect_left(times, start + seconds), len(times) - 1)
        ref = (self.samples[before][1] + self.samples[after][1]) / 2
        return seconds * REF_SECONDS / ref


class Call(NamedTuple):
    index: int
    code: int | None    # None for an uncaught exception
    out: str            # stdout, mapped back to the canonical names
    seconds: float
    start: float


def invoke(cli, argv):
    """One timed CLI call: (exit code or None, stdout, seconds, start)."""
    out, err = io.StringIO(), io.StringIO()
    start = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.run(argv)
    except Exception:  # counted as a failed task, never fatal
        code = None
    return code, out.getvalue(), time.perf_counter() - start, start


class AnswerCache:
    """Answers that cost time to compute (the oracle's), kept per workload
    and seed in the checkout and keyed by the task's content, so a rerun of
    a seed skips them and a changed generator cannot reuse a stale one."""

    def __init__(self, workload: str, seed: int):
        self.path = CACHE / f"{workload}-{seed}.json"
        self.changed = False

    def __enter__(self):
        try:
            self.answers = json.loads(self.path.read_text())
        except (OSError, ValueError):
            self.answers = {}
        return self

    def get(self, task, compute):
        key = hashlib.sha256(json.dumps([task.argv, task.files]).encode()).hexdigest()
        if key not in self.answers:
            answer = compute(task)
            if answer is None:
                return None
            self.answers[key] = answer
            self.changed = True
        return self.answers[key]

    def __exit__(self, *exc):
        if self.changed:
            CACHE.mkdir(exist_ok=True)
            tmp = self.path.with_suffix(".tmp")
            tmp.write_text(json.dumps(self.answers))
            os.replace(tmp, self.path)


class Runner:
    """Runs one workload's task stream for one seed in a scratch directory.
    With a Speed, it samples the reference between calls."""

    def __init__(self, workload, seed: int, workdir: Path, speed: Speed | None = None):
        from bpictl import cli

        self.cli = cli
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.speed = speed
        self.digest = hashlib.sha256()

    def call(self, i: int, variant: int, tracer=None):
        from workloads import rename, unrename

        task = self.workload.task(self.seed, i)
        for name, text in sorted(task.files.items()):
            text = rename(text, variant)
            (self.workdir / name).write_text(text)
            self.digest.update(f"{i}/{variant}/{name}\0{text}".encode())
        argv = [str(self.workdir / a) if a in task.files else a for a in task.argv]
        if self.speed:
            self.speed.tick()
        gc.collect()
        if tracer is not None:
            tracer.task = i
        code, out, seconds, start = invoke(self.cli, argv)
        return Call(i, code, unrename(out, variant), seconds, start)

    def passes(self, seconds: float, between) -> list:
        """Pass 0 runs new tasks in whole rounds of the workload's schedule
        (so every run has the same cost mix) until their wall times add up
        to seconds / REPEATS; each later pass reruns the same tasks under
        the next renaming. `between` is called before every round."""
        period = self.workload.period
        first, timed, i = [], 0.0, 0
        while timed < seconds / REPEATS or i % period:
            if i % period == 0:
                between()
            first.append(self.call(i, 0))
            # at the reference speed, so the round count does not follow the host
            timed += first[-1].seconds * REF_SECONDS / self.speed.samples[-1][1]
            i += 1
        out = [first]
        for variant in range(1, REPEATS):
            again = []
            for j in range(i):
                if j % period == 0:
                    between()
                again.append(self.call(j, variant))
            out.append(again)
        return out

    def pairs(self, seconds: float, tracer) -> tuple:
        """Each task twice back to back, traced and untraced, alternating
        which goes first, in whole rounds until the traced calls add up to
        seconds / 2. Returns the traced and the untraced records."""
        period = self.workload.period
        traced, plain, timed, i = [], [], 0.0, 0
        while timed < seconds / 2 or i % period:
            for variant in (0, 1) if i % 2 else (1, 0):
                if variant:
                    plain.append(self.call(i, variant))
                    continue
                with tracer:
                    traced.append(self.call(i, variant, tracer))
                timed += traced[-1].seconds
            i += 1
        return traced, plain

    def failures(self, records) -> list:
        """(index, reason) for every record whose verdict is wrong."""
        bad, by_task = [], {}
        for call in records:
            if call.code not in (0, 1, 2, 3):
                bad.append((call.index, "uncaught exception" if call.code is None
                            else f"exit {call.code}"))
            else:
                by_task.setdefault(call.index, []).append(call)
        with AnswerCache(self.workload.name, self.seed) as cache:
            for i, calls in by_task.items():
                task = self.workload.task(self.seed, i)
                answer = cache.get(task, self.workload.answer)
                for call in calls:
                    reason = self.workload.check(task, answer, call.code, call.out)
                    if reason:
                        bad.append((i, reason))
        return bad

    def self_check(self, call: Call) -> bool:
        """Feed one deliberately wrong verdict (the call's exit code
        flipped) and confirm that it is counted."""
        wrong = call._replace(code={0: 1, 1: 0}.get(call.code, 0))
        return len(self.failures([wrong])) == 1


def tail(samples, pct):
    """The pct-th percentile (nearest rank) and how many samples lie above
    it. Each workload fixes its pct, so runs of every commit report the
    same percentile (bench/README.md says how each was chosen)."""
    ordered = sorted(samples)
    rank = max(math.ceil(pct / 100 * len(ordered)), 1)
    return ordered[rank - 1], len(ordered) - rank


def run_workload(args, workload) -> dict:
    WORK.mkdir(exist_ok=True)
    workdir = WORK / f"{workload.name}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    workdir.mkdir()
    try:
        if args.trace:
            return traced_run(args, Runner(workload, args.seed, workdir))
        return untraced_run(args, Runner(workload, args.seed, workdir, Speed()))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def untraced_run(args, runner) -> dict:
    speed = runner.speed
    import_seconds()  # may write the bytecode cache; not a sample
    setup = []

    def probe():
        speed.tick()
        start = time.perf_counter()
        setup.append((start, import_seconds()))

    passes = runner.passes(args.seconds, between=probe)
    speed.tick(force=True)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    records = [c for p in passes for c in p]
    bad = runner.failures(records)
    pct = runner.workload.tail_pct

    def times(time_of):
        best = [min(time_of(c.start, c.seconds) for c in reps) for reps in zip(*passes)]
        return best, {
            "setup_s": statistics.median(time_of(t, s) for t, s in setup),
            "task_s_p50": statistics.median(best),
            "task_s_tail": tail(best, pct)[0],
            "tasks_per_s": len(best) / sum(best),
        }

    best, metrics = times(speed.scaled)
    _, raw = times(lambda start, seconds: seconds)
    metrics.update({
        "failed_frac": len(bad) / len(records),
        "decided_frac": sum(1 for c in records if c.code in (0, 1)) / len(records),
        "peak_rss_mb": rss_mb,
    })
    print(f"workload {runner.workload.name}, seed {args.seed}: {len(best)} tasks x "
          f"{REPEATS} repetitions, inputs sha256 {runner.digest.hexdigest()[:16]}, "
          f"host speed {REF_SECONDS / statistics.median(r for _, r in speed.samples):.2f}")
    for name, unit in END_TO_END.items():
        note = {
            "setup_s": f"  (median of {len(setup)} imports)",
            "task_s_tail": f"  (p{pct} of {len(best)} tasks, {tail(best, pct)[1]} above it)",
        }.get(name, "")
        if name in raw:
            note = f"  raw {raw[name]:.6g}{note}"
        print(f"  {name:<14} {metrics[name]:.6g} {unit}{note}")
    return finish(runner, records, bad,
                  {n: (metrics[n], END_TO_END[n]) for n in JSON_END_TO_END})


def traced_run(args, runner) -> dict:
    from layers import METRICS, Tracer, layer_metrics

    tracer = Tracer()
    traced, untraced = runner.pairs(args.seconds, tracer)
    records = traced + untraced
    bad = runner.failures(records)
    metrics = layer_metrics(tracer.spans, [c.seconds for c in traced],
                            [c.seconds for c in untraced])
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{runner.workload.name}-{args.seed}.jsonl"
    tracer.dump(spans_path)
    wall = metrics["trace.wall_s"]
    layer_s = [n for n, u in METRICS.items() if u == "s/task" and not n.startswith("trace.")]
    print(f"workload {runner.workload.name}, seed {args.seed}, traced: {len(traced)} tasks, "
          f"{len(tracer.spans)} spans in {spans_path.relative_to(ROOT)}")
    for name, unit in METRICS.items():
        share = f"  {100 * metrics[name] / wall:5.1f}% of traced wall" if name in layer_s else ""
        print(f"  {name:<28} {metrics[name]:.6g} {unit}{share}")
    print(f"  layer self times plus cli.overhead_s cover "
          f"{100 * sum(metrics[n] for n in layer_s) / wall:.1f}% of trace.wall_s")
    return finish(runner, records, bad, {n: (metrics[n], u) for n, u in METRICS.items()})


def finish(runner, records, bad, metrics) -> dict:
    for i, reason in bad[:10]:
        print(f"  wrong verdict on task {i}: {reason}")
    if not runner.self_check(records[0]):
        raise SystemExit("self-check failed: a wrong verdict went uncounted")
    return {
        "correct": not bad,
        "attempted": len(records),
        "failed": len(bad),
        "metrics": {n: {"value": v, "unit": u} for n, (v, u) in metrics.items()},
    }


def run_all(args, names) -> dict:
    """Every workload, untraced then traced, each in a process of its own."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        for trace in (0, 1):
            done = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                capture_output=True, text=True, timeout=900,
            )
            lines = done.stdout.splitlines()
            print("\n".join(lines[:-1]))
            if done.returncode != 0:
                raise SystemExit(f"{name} failed:\n{done.stderr}")
            result = json.loads(lines[-1])
            merged["correct"] &= result["correct"]
            merged["attempted"] += result["attempted"]
            merged["failed"] += result["failed"]
            for metric, value in result["metrics"].items():
                merged["metrics"][f"{name}.{metric}"] = value
    return merged


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=9)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if not (SRC / "bpictl" / "cli.py").is_file():
        raise SystemExit(f"no bpictl sources under {SRC}")
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    if args.workload == "all":
        result = run_all(args, WORKLOADS)
    elif args.workload in WORKLOADS:
        result = run_workload(args, WORKLOADS[args.workload])
    else:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)} or all")
    print(json.dumps(result))


if __name__ == "__main__":
    main()
