"""Run one cycosc benchmark workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Imports the package from src/ of the checkout this file sits in, and exits 2
without a result when there is none.  Inputs come from --seed.  The timed
phase runs whole passes of the workload until --seconds have gone by.

--trace 0 prints the end-to-end metrics of BENCHMARK.json.  --trace 1 first
runs the same untraced phase, then wraps the package's public functions,
runs one pass of this workload, of the other workload and of the CLI script,
and prints the per-layer metrics, including the tracing overhead (traced
minus untraced end-to-end numbers).  Spans and the run record are written
under perfbench/out/.  The last line of stdout is the JSON result.
"""

import common  # first: pins the BLAS thread count before numpy loads

import argparse  # noqa: E402
import ctypes  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
SETUP_SAMPLES = 5
COLD_START_SAMPLES = 25
IMPORT_SAMPLES = 5
# Fallback tail percentiles for a run too short for its workload's own.
TAIL_LADDER = (0.5, 0.9, 0.99)
# A pass in progress is cut short only this long after --seconds have gone by.
MAX_OVERRUN_S = 60.0
CHILD_TIMEOUT_S = 120


@dataclass
class Phase:
    """Latencies and verdicts of the ops run in one phase."""

    tail_q: float
    latencies: list = field(default_factory=list)
    passes: int = 0
    failed: int = 0
    floor_ops: int = 0
    mismatches: Counter = field(default_factory=Counter)
    floors: Counter = field(default_factory=Counter)

    def tail(self) -> tuple[float, float]:
        """The workload's tail percentile, or the highest fallback with ten
        samples beyond it when the run had too few ops for that."""
        n = len(self.latencies)
        q = self.tail_q
        if n * (1 - q) < 10:
            q = max((f for f in TAIL_LADDER if n * (1 - f) >= 10), default=0.5)
        return q, float(np.quantile(self.latencies, q))

    def end_to_end(self) -> dict:
        return {
            "ops_per_s": len(self.latencies) / math.fsum(self.latencies),
            "op_p50_s": statistics.median(self.latencies),
            "op_tail_s": self.tail()[1],
        }


def checked(check, output) -> tuple[list[str], list[str]]:
    """Apply an op's output check; output it cannot parse is a mismatch."""
    try:
        return check(output)
    except (ValueError, KeyError, IndexError, TypeError, AttributeError) as exc:
        return [f"unreadable output: {type(exc).__name__}: {exc}"], []


def run_phase(workload, seconds=None, passes=None, tracer=None, phase=None, op_ids=None,
              probes=()) -> Phase:
    """Run whole passes until seconds have gone by, or exactly passes passes.

    probes are fresh-interpreter samples, run one at a time between ops at
    evenly spaced points of the phase, so that they see the same spread of
    machine speed as the ops.  Time spent in them is not phase time.
    """
    phase = phase or Phase(workload.tail_q)
    op_ids = op_ids if op_ids is not None else iter(range(1 << 62))
    due = [(seconds or 0.0) * (i + 0.5) / len(probes) for i in range(len(probes))]
    pending = list(probes)
    start, paused = time.perf_counter(), 0.0
    done = 0
    while True:
        for op in workload.pass_ops():
            op_id = next(op_ids)
            sid = tracer.begin_op(op_id, op.dim) if tracer else None
            out, error = None, None
            t0 = time.perf_counter()
            try:
                out = op.run()
            except Exception as exc:  # a raising op is a failed op, not a crashed benchmark
                error = exc
            t1 = time.perf_counter()
            if tracer:
                tracer.end_op(sid, f"{workload.name}/{op.label}", t0, t1)
            phase.latencies.append(t1 - t0)
            if error is None:
                mismatches, floors = checked(op.check, out)
            else:
                mismatches, floors = [f"raised {type(error).__name__}: {error}"], []
            out = None
            # A failed op raised or gave a wrong answer.  An op whose only
            # FAIL verdicts are at the float64 rounding floor returned correct
            # residuals; it is counted and named apart, not as failed.
            if mismatches:
                phase.failed += 1
            elif floors:
                phase.floor_ops += 1
            phase.mismatches.update(f"{op.label}: {m}" for m in mismatches)
            phase.floors.update(f"{op.label}: {f}" for f in floors)
            while pending and time.perf_counter() - start - paused >= due[len(probes) - len(pending)]:
                t2 = time.perf_counter()
                pending.pop(0)()
                paused += time.perf_counter() - t2
            if seconds is not None and time.perf_counter() - start - paused > seconds + MAX_OVERRUN_S:
                break
        phase.passes += 1
        done += 1
        if (passes is not None and done >= passes) or (
            seconds is not None and time.perf_counter() - start - paused >= seconds
        ):
            for job in pending:
                job()
            return phase


def run_child(args: list[str]) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "child.py"), *args],
        capture_output=True, text=True, env=common.child_env(), cwd=common.ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"child {args[0]} failed: {proc.stderr.strip()[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def cold_start(probe, times: list, problems: Counter) -> None:
    """Wall time of one fresh `python -m cycosc.cli spectrum` process."""
    t0 = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "-m", "cycosc.cli", *probe.cold_start_argv],
        capture_output=True, text=True, env=common.child_env(), cwd=common.ROOT,
        timeout=CHILD_TIMEOUT_S,
    )
    times.append(time.perf_counter() - t0)
    mismatches, _ = checked(probe.check_cold_start, (proc.returncode, proc.stdout, ""))
    problems.update(f"cold start: {m}" for m in mismatches)


def git_commit():
    """HEAD of the checkout, read from .git when the checkout is a repository."""
    git = common.ROOT / ".git"
    try:
        head = (git / "HEAD").read_text(encoding="utf-8").strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text(encoding="utf-8").strip()
        for line in (git / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def blas_info() -> tuple[str, int | None]:
    """BLAS library name and the thread count it reports, when it can."""
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError, AttributeError):
        name = "unknown"
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for lib in sorted(libs.glob("*openblas*")):
        handle = ctypes.CDLL(str(lib))
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            getter = getattr(handle, symbol, None)
            if getter is not None:
                getter.restype = ctypes.c_int
                return name, int(getter())
    return name, None


def run_record(args) -> dict:
    blas, threads = blas_info()
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "blas_threads": threads,
        "blas_threads_requested": common.BLAS_THREADS,
        "nproc": os.cpu_count(),
    }


def report_phase(name: str, phase: Phase) -> None:
    q, value = phase.tail()
    n = len(phase.latencies)
    print(f"[{name}] {n} ops in {phase.passes} passes; failed {phase.failed}"
          f" (fail_share {phase.failed / n:.6g} share); rounding-floor FAIL in"
          f" {phase.floor_ops} ops (floor_share {phase.floor_ops / n:.6g} share); op_p50_s"
          f" {statistics.median(phase.latencies):.6g} s; op_tail_s is p{100 * q:g}"
          f" = {value:.6g} s with {n - int(np.ceil(q * n))} samples beyond")
    for text, count in sorted(phase.floors.items()):
        print(f"[{name}]   rounding-floor FAIL x{count}  {text}")
    for text, count in list(sorted(phase.mismatches.items()))[:20]:
        print(f"[{name}]   MISMATCH x{count}  {text}")


def traced_layers(args, package, workload, others: list, untraced: Phase, imports: list):
    """Per-layer metrics from the traced passes, and the tracing overhead."""
    for other in others:
        other.warm_up()
    tracer = spans.Tracer()
    op_ids = iter(range(1 << 62))
    tracer.install(package)
    try:
        traced = run_phase(workload, passes=1, tracer=tracer, op_ids=op_ids)
        cover = Phase(workload.tail_q)
        for other in others:
            run_phase(other, passes=1, tracer=tracer, phase=cover, op_ids=op_ids)
    finally:
        tracer.uninstall()
    tracer.write(common.OUT / f"spans-{args.workload}.jsonl")
    report_phase("traced", traced)
    report_phase("coverage", cover)

    layer = tracer.layer_metrics()
    layer["cli.import_s"] = statistics.median(p["import_s"] for p in imports)
    layer["cli.main.output_bytes"] = imports[0]["output_bytes"]
    base, with_spans = untraced.end_to_end(), traced.end_to_end()
    for key in base:
        print(f"tracing overhead {key}: traced {with_spans[key]:.6g} - untraced {base[key]:.6g}"
              f" = {with_spans[key] - base[key]:.6g}")
    layer["trace.overhead.op_p50_s"] = with_spans["op_p50_s"] - base["op_p50_s"]
    layer["trace.overhead.ops_per_s"] = with_spans["ops_per_s"] - base["ops_per_s"]
    problems = Counter(f"cli probe exit {p['rc']}" for p in imports if p["rc"] != 0)
    return layer, [traced, cover], problems


def main(argv=None) -> int:
    try:
        spec = json.loads((common.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    except OSError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    try:
        package = common.import_package()
    except common.MissingPackage as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    import workloads

    record = run_record(args)
    print("run record:", json.dumps(record))
    probe = workloads.CliDefault(args.seed)
    setups, cold, imports, problems = [], [], [], Counter()

    def import_sample():
        imports.append(run_child(["cli", *probe.cold_start_argv]))

    def cold_sample():
        cold_start(probe, cold, problems)

    def setup_sample():
        setups.append(run_child(["setup", args.workload, str(args.seed)])["setup_s"])

    if args.trace:
        jobs = [import_sample] * IMPORT_SAMPLES
    else:
        # One set-up sample before every fifth cold start.
        jobs = [cold_sample] * COLD_START_SAMPLES
        step = COLD_START_SAMPLES // SETUP_SAMPLES
        for i in range(SETUP_SAMPLES):
            jobs.insert(i * (step + 1), setup_sample)
    workload = workloads.WORKLOADS[args.workload](args.seed)
    workload.warm_up()
    untraced = run_phase(workload, seconds=args.seconds, probes=jobs)
    report_phase("untraced", untraced)
    phases = [untraced]

    if args.trace:
        others = [cls(args.seed) for name, cls in workloads.WORKLOADS.items() if name != args.workload]
        others.append(probe)
        values, more, traced_problems = traced_layers(args, package, workload, others, untraced, imports)
        problems.update(traced_problems)
        phases += more
        wanted = spec["per_layer"]
    else:
        values = untraced.end_to_end()
        values["peak_rss_mib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        values["setup_s"] = statistics.median(setups)
        values["cold_start_s"] = statistics.median(cold)
        print(f"setup_s samples {setups}; cold_start_s samples {cold}")
        wanted = spec["end_to_end"]

    for text, count in problems.items():
        print(f"MISMATCH x{count}  {text}")
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            print(f"note: {m['name']} was not measured in this run; reported as 0")
        metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
        print(f"{m['name']} = {metrics[m['name']]['value']!r} {m['unit']}")
    result = {
        "correct": not problems and not any(p.mismatches for p in phases),
        "attempted": sum(len(p.latencies) for p in phases),
        "failed": sum(p.failed for p in phases),
        "metrics": metrics,
    }
    common.OUT.mkdir(parents=True, exist_ok=True)
    (common.OUT / f"run-{args.workload}.json").write_text(
        json.dumps({"record": record, "result": result}, indent=1) + "\n", encoding="utf-8"
    )
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
