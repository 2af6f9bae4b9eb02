"""fracemden benchmark: one closed-loop client, one process, no threads.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the checkout holding src/fracemden).  The
last line of standard output is one JSON object with the keys correct,
attempted, failed and metrics; the line before it holds the raw (unscaled)
figures.  With --trace 0 the metrics are the end-to-end ones, with --trace 1
the per-layer ones from a traced run.  --ops N is a short mode that runs N
operations instead of S seconds.  See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import speedref
import tracing
import workloads

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench-out"

SETUP_PROBES = 9
# at most this long between two in-process probes, and between two
# reference interpreters on cli-commands (one per three or four commands)
PROBE_EVERY_S = 0.25
CHILD_PROBE_EVERY_S = 1.0
# p90 needs ten samples beyond it
MIN_OPS = 100
# operations in the traced phase: one round of each workload, so that
# counts repeat
TRACED_OPS = {"alpha-sweep": 40, "nonlinear-family": 288, "cli-commands": 20}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, default=25.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--ops", type=int, default=None,
                   help="short mode: run this many operations per phase")
    p.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def load_expected() -> dict:
    with open(HERE / "expected.json", encoding="utf-8") as fh:
        return json.load(fh)


def make_workload(name: str, seed: int):
    return workloads.WORKLOADS[name](seed, load_expected())


# -- set-up -------------------------------------------------------------------


def setup_probe(args) -> int:
    """Child side of a set-up measurement: import fracemden, build the
    workload's inputs up to the first operation, report, exit."""
    t0 = time.perf_counter()
    import fracemden  # noqa: F401

    import_s = time.perf_counter() - t0
    w = make_workload(args.workload, args.seed)
    w.setup(ROOT, OUT)
    w.round()
    print(f"ready {import_s!r}", flush=True)
    return 0


def measure_setup(args, probes: int) -> dict:
    """Time `probes` fresh interpreters from start to the first operation,
    each between two reference-interpreter probes."""
    scaled, raw, imports = [], [], []
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)]
    before = speedref.child_probe()
    for _ in range(probes):
        t0 = time.perf_counter()
        with subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE) as proc:
            line = proc.stdout.readline()
            dt = time.perf_counter() - t0
            proc.stdout.read()
        if proc.returncode != 0 or not line.startswith(b"ready "):
            raise SystemExit(f"set-up probe failed with exit code {proc.returncode}")
        after = speedref.child_probe()
        raw.append(dt)
        scaled.append(dt * speedref.NOMINAL_CHILD_MS * 2 / (before + after))
        imports.append(float(line.split()[1]))
        before = after
    return {"scaled_s": statistics.median(scaled), "raw_s": statistics.median(raw),
            "import_s": statistics.median(imports)}


# -- timed loop ---------------------------------------------------------------


class Timings:
    """Operation times in blocks, each block between two reference probes;
    an operation's scaled time is raw * nominal / mean(probes of its block).
    Operations that start interpreters are scaled by the reference
    interpreter, the others by the in-process reference loop.  The loop's
    wall time is kept too, probes left out, and scaled block by block."""

    def __init__(self, spawns: bool):
        if spawns:
            self._probe, self._nominal, self._every = (
                speedref.child_probe, speedref.NOMINAL_CHILD_MS, CHILD_PROBE_EVERY_S)
        else:
            self._probe, self._nominal, self._every = (
                speedref.probe, speedref.NOMINAL_MS, PROBE_EVERY_S)
        self.raw: list[float] = []
        self.scaled: list[float] = []
        self.raw_wall = 0.0
        self.scaled_wall = 0.0
        # set when the workload ran out of unused inputs before the time
        self.exhausted = False
        self.probes: list[float] = [self._probe()]
        self._block: list[float] = []
        self._last = time.perf_counter()

    def add(self, dt: float) -> None:
        self._block.append(dt)
        if time.perf_counter() - self._last >= self._every:
            self.close_block()

    def close_block(self) -> None:
        wall = time.perf_counter() - self._last
        p = self._probe()
        scale = self._nominal * 2 / (self.probes[-1] + p)
        self.raw_wall += wall
        self.scaled_wall += wall * scale
        self.raw += self._block
        self.scaled += [dt * scale for dt in self._block]
        self.probes.append(p)
        self._block = []
        self._last = time.perf_counter()

    def scale(self) -> float:
        return self._nominal / statistics.median(self.probes)


class Outcome:
    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.issues: list[str] = []
        self.errors: list[str] = []


def timed_loop(w, outcome: Outcome, seconds: float, max_ops, min_ops: int,
               tracer=None, reserve: int = 0) -> Timings:
    """Run whole rounds until `seconds` have passed and at least `min_ops`
    operations were attempted, or, with max_ops, until max_ops were.  Stop
    early, at a round boundary, when the workload has only `reserve` rounds
    of unused inputs left."""
    t = Timings(w.spawns)
    start = time.perf_counter()
    done = 0
    while True:
        if w.rounds_left() <= reserve:
            if done < min_ops:
                raise SystemExit(f"{w.name}: inputs ran out after {done} operations")
            t.exhausted = True
            break
        for op in w.round():
            if max_ops is not None and done >= max_ops:
                break
            arg = w.prepare(op)
            if tracer is not None:
                tracer.op = outcome.attempted
            outcome.attempted += 1
            done += 1
            t0 = time.perf_counter()
            try:
                raw = w.run(arg)
            except workloads.OperationFailed as err:
                outcome.failed += 1
                outcome.errors.append(str(err))
                continue
            t.add(time.perf_counter() - t0)
            result = w.collect(op, raw)
            outcome.issues += w.check(op, result)
        if max_ops is not None:
            if done >= max_ops:
                break
        elif time.perf_counter() - start >= seconds and done >= min_ops:
            break
    t.close_block()
    return t


def loop_metrics(times: list[float], wall: float) -> dict[str, float]:
    """Latency percentiles of the completed operations, and their number
    divided by the loop's wall time."""
    if not times:
        raise SystemExit("no operation succeeded; nothing to report")
    p90 = statistics.quantiles(times, n=10)[-1] if len(times) > 1 else times[0]
    return {
        "latency_ms_p50": statistics.median(times) * 1e3,
        "latency_ms_p90": p90 * 1e3,
        "throughput_ops_s": len(times) / wall,
    }


UNITS = {
    "latency_ms_p50": "ms", "latency_ms_p90": "ms", "throughput_ops_s": "ops/s",
    "setup_s": "s", "peak_rss_mb": "MB",
}


# -- traced run ---------------------------------------------------------------

COUNT = "count"
PER_LAYER = (
    # (metric, span name, field, unit)
    ("fraccalc.build_D.calls", "fraccalc.build_D", "calls", COUNT),
    ("fraccalc.build_D.ms", "fraccalc.build_D", "total", "ms"),
    ("fraccalc.build_E.self_ms", "fraccalc.build_E", "self", "ms"),
    ("linalg.gram_fractions.ms", "linalg.gram_fractions", "total", "ms"),
    ("linalg.solve_fractions.calls", "linalg.solve_fractions", "calls", COUNT),
    ("linalg.solve_fractions.ms", "linalg.solve_fractions", "total", "ms"),
    ("linalg.lu_solve.calls", "linalg.lu_solve", "calls", COUNT),
    ("linalg.lu_solve.ms", "linalg.lu_solve", "total", "ms"),
    ("linalg.condition_estimate.ms", "linalg.condition_estimate", "total", "ms"),
    ("solver.solve.self_ms", "solver.solve", "self", "ms"),
    ("solver.assemble_residual.calls", "solver.assemble_residual", "calls", COUNT),
    ("solver.assemble_residual.self_ms", "solver.assemble_residual", "self", "ms"),
    ("expr.evaluate.calls", "expr.evaluate", "calls", COUNT),
    ("expr.evaluate.ms", "expr.evaluate", "total", "ms"),
    ("expr.parse.calls", "expr.parse", "calls", COUNT),
    ("expr.parse.ms", "expr.parse", "total", "ms"),
    ("polybasis.eval_basis.calls", "polybasis.eval_basis", "calls", COUNT),
    ("polybasis.eval_basis.ms", "polybasis.eval_basis", "total", "ms"),
    ("polybasis.build_basis.calls", "polybasis.build_basis", "calls", COUNT),
    ("polybasis.build_basis.ms", "polybasis.build_basis", "total", "ms"),
    ("approx.integrate_01.calls", "approx.integrate_01", "calls", COUNT),
    ("approx.integrate_01.ms", "approx.integrate_01", "total", "ms"),
    ("problems.parse_problem_file.ms", "problems.parse_problem_file", "total", "ms"),
    ("cli.main.self_ms", "cli.main", "self", "ms"),
)


def layer_metrics(state: dict, scale: float) -> dict[str, tuple[float, str]]:
    summary = tracing.summarize(state["spans"])
    out = {}
    for metric, span, field, unit in PER_LAYER:
        v = summary.get(span, {}).get(field, 0)
        out[metric] = (v * 1e3 * scale if unit == "ms" else v, unit)
    e_calls = summary.get("fraccalc.build_E", {}).get("calls", 0)
    out["fraccalc.build_E.keys_per_call"] = (
        len(state["build_E_keys"]) / e_calls if e_calls else 0.0, "ratio")
    iters = state["newton_iters"]
    r_calls = summary.get("solver.assemble_residual", {}).get("calls", 0)
    out["solver.newton_iters"] = (iters, COUNT)
    out["solver.residuals_per_iter"] = (r_calls / iters if iters else 0.0, "ratio")
    return out


def merge_child_traces(files: list[Path]) -> dict:
    """Concatenate the CLI children's span lists; child i's spans get
    operation id i and parent indices shifted by the spans before them."""
    spans, iters, keys, imports = [], 0, set(), []
    for op, path in enumerate(files):
        with open(path, encoding="utf-8") as fh:
            st = json.load(fh)
        base = len(spans)
        for name, t0, t1, parent, _ in st["spans"]:
            spans.append([name, t0, t1, parent + base if parent >= 0 else -1, op])
        iters += st["newton_iters"]
        keys.update(tuple(k) for k in st["build_E_keys"])
        imports.append(st["import_s"])
    return {"spans": spans, "newton_iters": iters, "build_E_keys": sorted(keys),
            "import_s": statistics.median(imports) if imports else 0.0}


def traced_run(args, outcome: Outcome, work: Path, setup: dict):
    """Untraced phase for the reference throughput, then one round of the
    same stream with spans recorded; returns (metrics, raw figures)."""
    w = make_workload(args.workload, args.seed)
    w.setup(ROOT, work)
    # keep one round of unused inputs back for the traced phase
    untraced = timed_loop(w, outcome, args.seconds / 2, args.ops, 1, reserve=1)

    tracer = None
    if args.workload == "cli-commands":
        w.trace_dir = work / "traces"
        w.trace_dir.mkdir()
    else:
        tracer = tracing.Tracer()
        tracer.install()
        w.setup(ROOT, work)  # again, so that set-up's calls are traced
    bytes_before = w.artifact_bytes
    traced = timed_loop(w, outcome, 0.0, args.ops or TRACED_OPS[args.workload], 1, tracer)

    if tracer is None:
        state = merge_child_traces(sorted(w.trace_dir.glob("*.json")))
    else:
        state = tracer.state()
        state["import_s"] = setup["import_s"]
    scale = traced.scale()
    metrics = layer_metrics(state, scale)
    metrics["cli.artifact_bytes"] = (w.artifact_bytes - bytes_before, "bytes")
    metrics["import.fracemden_ms"] = (state["import_s"] * 1e3 * scale, "ms")
    ratio = loop_metrics(traced.scaled, traced.scaled_wall)["throughput_ops_s"] / \
        loop_metrics(untraced.scaled, untraced.scaled_wall)["throughput_ops_s"]
    metrics["trace.throughput_ratio"] = (ratio, "ratio")
    metrics["host.reference_ms"] = (statistics.median(traced.probes), "ms")

    trace_dir = OUT / "traces"
    trace_dir.mkdir(parents=True, exist_ok=True)
    tracing.dump(trace_dir / f"{args.workload}-seed{args.seed}.json", state)
    raw = {"layers_ms_scale": scale, "traced_ops": len(traced.raw),
           "untraced_ops": len(untraced.raw),
           "untraced_inputs_exhausted": untraced.exhausted, "spans": len(state["spans"]),
           "import_ms_raw": state["import_s"] * 1e3}
    return metrics, raw


# -- main ---------------------------------------------------------------------


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "fracemden" / "__init__.py").is_file():
        print(f"error: no fracemden source under {ROOT / 'src'}; run the benchmark "
              f"from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    if args.setup_probe:
        return setup_probe(args)

    # The host's cores change speed independently, so the reference loop only
    # tracks the measured work when both run on the same core: pin this
    # process, and with it every child it starts, to one core.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    work = OUT / f"run-{args.workload}-{args.seed}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    outcome = Outcome()
    try:
        setup = measure_setup(args, 1 if args.ops else SETUP_PROBES)
        if args.trace:
            metrics, raw = traced_run(args, outcome, work, setup)
        else:
            w = make_workload(args.workload, args.seed)
            w.setup(ROOT, work)
            t = timed_loop(w, outcome, args.seconds, args.ops, 0 if args.ops else MIN_OPS)
            scaled = loop_metrics(t.scaled, t.scaled_wall)
            metrics = {k: (v, UNITS[k]) for k, v in scaled.items()}
            metrics["setup_s"] = (setup["scaled_s"], "s")
            metrics["peak_rss_mb"] = (w.peak_rss_kb() / 1024.0, "MB")
            raw = loop_metrics(t.raw, t.raw_wall)
            raw.update(setup_s=setup["raw_s"], ops_timed=len(t.raw),
                       inputs_exhausted=t.exhausted,
                       reference_ms_median=statistics.median(t.probes),
                       reference_ms_range=[min(t.probes), max(t.probes)])
    finally:
        shutil.rmtree(work, ignore_errors=True)
        for line in (outcome.errors + outcome.issues)[:20]:
            print(f"perfbench: {line}", file=sys.stderr)

    print(json.dumps({"raw": raw}))
    print(json.dumps({
        "correct": not outcome.issues,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
