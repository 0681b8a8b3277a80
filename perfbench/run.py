"""mirrorsteer benchmark: figures, verify and search workloads.

Run from the root of a checkout:

    python3 perfbench/run.py --workload figures --seed 1 --seconds 10 --trace 0
    python3 perfbench/run.py                 # all three, each in its own process
    python3 perfbench/run.py --smoke         # tiny sizes; checks metric names

Load comes from this one process, one operation at a time (a closed loop
with one client), through the public API and ``mirrorsteer.cli.main``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it runs the same operations untraced and then traced and
reports per-layer totals and the tracing overhead.  Every operation's
output is checked, and the last line of standard output is one JSON
object: ``{"correct", "attempted", "failed", "metrics"}``.
"""

import os

# One BLAS thread: the oracle's sbar matrix-vector product is the only BLAS
# call, and its timing moves with the thread count.  Set before numpy loads;
# the fresh interpreters started for set-up timings inherit it.
BLAS_THREADS = "1"
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = BLAS_THREADS

import argparse  # noqa: E402
import cmath  # noqa: E402
import dataclasses  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import pathlib  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

# fresh interpreters per set-up and cold-call figure; each reports a median
SETUP_REPS = 9
PROBE_REPS = 3
# nearest-rank percentiles tried for the tail, highest first.
# Above p95 the tail on a shared 2-vCPU host is set by stalls inside single
# operations: over six seeds, search's p99 in ref units spread 9%, p95 4%.
# The ladder stops at p90: figures counts 215-300 operations in a run, near
# the 200 that p95 needs, and a tail that switches percentile from run to
# run with the host's speed would read as a change of the program.
TAIL_LADDER = (90, 75, 50)
TAIL_BEYOND = 10

# Host-speed reference.  On a shared host the CPU speed this process gets
# changes by up to 2x, on the scale of a single operation as well as for
# minutes at a time: search's median operation read 2.2 ms and 3.6 ms a few
# minutes apart.  For figures and search, a fixed kernel of scalar work that
# does not call the package is timed right before and right after every
# operation, and the operation's time is divided by the mean of the two
# ("ref" units).  Over five seeds this cut the spread of search's p50 from
# 34% (wall time) to 2%, and of its p95 to 4%; one kernel time per 0.1 s
# left the p95 at 13-16%.  The oracle in verify follows the host speed less
# than any kernel tried, so its reference is the second: dividing by a
# numpy kernel raised its spread from 4-8% to 17-20%.
# Set-up runs in fresh interpreters, and setup_s must stay in seconds: each
# probe times probe.reference_s, a pure-Python loop, before its imports, and
# its set-up time is given in seconds on a host where that loop takes
# REF_NOMINAL_S (about the median of a 2-vCPU x86-64 cloud host).
REF_NOMINAL_S = 1.2e-3


@dataclasses.dataclass(frozen=True)
class _Point:
    """A validated value object, like the package's parameter classes."""

    x: float
    y: float

    def __post_init__(self):
        if not (math.isfinite(self.x) and math.isfinite(self.y)):
            raise ValueError("non-finite point")


def op_reference_s() -> float:
    """Time of the host-speed kernel for operations: the kind of scalar work
    the model does per call (a validated frozen dataclass, complex
    arithmetic, a scalar ``scipy.special.wofz``), without calling the
    package.  Best of three runs, so that an interrupt in one does not count."""
    from scipy.special import wofz

    best = math.inf
    for _ in range(3):
        start = time.perf_counter()
        acc = 0j
        for i in range(150):
            p = _Point(i * 0.01, 0.5)
            z = complex(p.x, p.y)
            acc += cmath.exp(-z * z) * math.erfc(p.x) + math.sqrt(p.x + 1.0)
            acc += complex(wofz(z))
        best = min(best, time.perf_counter() - start)
    return best


SMOKE_SIZES = {
    "figures": ({"resolution": 20}, 5),
    "verify": ({"grid": "smoke"}, 1),
    "search": ({}, 5),
}


def _probe(mode: str, *args: str, reps: int) -> list[dict]:
    cmd = [sys.executable, str(HERE / "probe.py"), mode, *args, str(SRC)]
    out = []
    for _ in range(reps):
        res = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                             timeout=120, check=True)
        out.append(json.loads(res.stdout.splitlines()[-1]))
    return out


def _median(rows: list[dict], key: str) -> float:
    return statistics.median(r[key] for r in rows)


def _setup_split(rows: list[dict]) -> dict[str, float]:
    """Median over set-up probes of each part of set-up, in seconds at the
    nominal host speed: each probe's times are scaled by REF_NOMINAL_S over
    the reference kernel's time in that same interpreter.  ``total`` is
    import of scipy.special and mirrorsteer plus the first call."""
    parts = ("scipy_special_s", "mirrorsteer_s", "first_call_s")
    scaled = [
        {**{k: r[k] * REF_NOMINAL_S / r["reference_s"] for k in parts},
         "total": sum(r[k] for k in parts) * REF_NOMINAL_S / r["reference_s"],
         "wall": sum(r[k] for k in parts)}
        for r in rows
    ]
    return {k: _median(scaled, k) for k in (*parts, "total", "wall")}


def _git_sha() -> str:
    """HEAD of the checkout's own .git, if it has one; never looks above it."""
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
    return "unknown"


def _tail(samples: list[float]) -> tuple[float, float, int]:
    """Highest ladder percentile with at least TAIL_BEYOND samples above it:
    (value, percentile, samples beyond).  Falls back to the maximum."""
    xs = sorted(samples)
    n = len(xs)
    for pct in TAIL_LADDER:
        rank = -(-pct * n // 100)
        if n - rank >= TAIL_BEYOND:
            return xs[rank - 1], pct, n - rank
    return xs[-1], 100.0, 0


class Tally:
    """Operations attempted and failed, their durations, the wall time spent
    inside the program (checks and input generation excluded), and each
    operation's duration in ref units."""

    def __init__(self):
        self.durations: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []
        self.busy_s = 0.0
        self.units: list = []

    def drive(self, workload, units, seconds: float, max_units: int | None,
              tracer=None, repeats: int = 1) -> "Tally":
        """Run units until ``seconds`` pass.  Each unit runs ``repeats``
        times, each run checked; an operation's time is the least of its
        runs, and its ref time the least of its runs' times in ref units."""
        start = time.perf_counter()
        for unit in units:
            if time.perf_counter() - start >= seconds:
                break
            if max_units is not None and len(self.units) >= max_units:
                break
            self.units.append(unit)
            runs, in_ref = [], []
            before = op_reference_s() if workload.host_reference else 1.0
            for _ in range(repeats):
                self.attempted += workload.ops_per_unit
                if tracer is not None:
                    tracer.active = True
                try:
                    durations, output = workload.run(unit)
                    errors = []
                except Exception as exc:  # a program error fails the unit, not the run
                    durations, errors = [], [f"{type(exc).__name__}: {exc}"]
                finally:
                    if tracer is not None:
                        tracer.active = False
                after = op_reference_s() if workload.host_reference else 1.0
                if not errors:
                    try:
                        errors = workload.check(unit, output)
                    except Exception as exc:
                        errors = [f"check raised {type(exc).__name__}: {exc}"]
                if errors:
                    self.failed += workload.ops_per_unit
                    self.errors.extend(errors)
                else:
                    runs.append(durations)
                    in_ref.append([d / ((before + after) / 2) for d in durations])
                before = after
            if runs:
                durations = [min(ds) for ds in zip(*runs)]
                self.durations.extend(durations)
                self.refs.extend(d / min(rs) for d, rs in zip(durations, zip(*in_ref)))
                self.busy_s += sum(durations)
        if not self.durations:
            raise RuntimeError("no operation completed: " + "; ".join(self.errors[:3]))
        return self


def _end_to_end(workload, seconds, max_units, setup_reps):
    setup = _setup_split(_probe("setup", reps=setup_reps))
    workload.warm_up()
    tally = Tally().drive(workload, workload.units(), seconds, max_units,
                          repeats=workload.repeats)
    ops = tally.durations
    in_ref = [d / r for d, r in zip(ops, tally.refs)]
    tail, pct, beyond = _tail(ops)
    tail_ref = _tail(in_ref)[0]
    metrics = {
        "setup_s": (setup["total"], "s"),
        "ops_per_ref": (len(ops) / sum(in_ref), "1/ref"),
        "op_p50_ref": (statistics.median(in_ref), "ref"),
        "op_tail_ref": (tail_ref, "ref"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    lines = [
        f"  {'setup_s':<22}{metrics['setup_s'][0]:.4f} s "
        f"(median of {setup_reps} fresh interpreters, at the nominal host speed; "
        f"{setup['wall']:.4f} s wall)",
        f"  {'ops_per_s':<22}{len(ops) / tally.busy_s:.2f} 1/s ({len(ops)} ops)",
        f"  {'op_p50_ms':<22}{1e3 * statistics.median(ops):.4f} ms",
        f"  {'op_tail_ms':<22}{1e3 * tail:.4f} ms "
        f"(p{pct:g}, {beyond} of {len(ops)} samples beyond)",
        f"  {'reference_ms':<22}{1e3 * statistics.median(tally.refs):.4f} ms "
        "(host-speed kernel, median; 1000 ms is the plain second)",
        f"  {'ops_per_ref':<22}{metrics['ops_per_ref'][0]:.6g} 1/ref",
        f"  {'op_p50_ref':<22}{metrics['op_p50_ref'][0]:.6g} ref",
        f"  {'op_tail_ref':<22}{metrics['op_tail_ref'][0]:.6g} ref (p{pct:g})",
        f"  {'failed_ratio':<22}{tally.failed / tally.attempted:.4g} "
        f"({tally.failed}/{tally.attempted})",
        f"  {'peak_rss_mb':<22}{metrics['peak_rss_mb'][0]:.1f} MB",
    ]
    return metrics, [tally], lines


def _per_layer(workload, seconds, max_units, probe_reps):
    import layers

    split = _setup_split(_probe("setup", reps=probe_reps))
    workload.warm_up()
    plain = Tally().drive(workload, workload.units(), seconds / 2, max_units)
    tracer = layers.Tracer()
    tracer.install()
    try:
        traced = Tally().drive(workload, plain.units, math.inf, None, tracer)
    finally:
        tracer.uninstall()
    metrics = tracer.metrics(len(traced.durations))
    metrics["import.scipy_special.self_s"] = (split["scipy_special_s"], "s")
    metrics["import.mirrorsteer.self_s"] = (split["mirrorsteer_s"], "s")
    metrics["detector_model.harvested_steering.cold_s"] = (split["first_call_s"], "s")
    for kind, fn in (("p", "numeric_probability"), ("c", "numeric_c"), ("x", "numeric_x")):
        cold = _median(_probe("cold", kind, reps=probe_reps), "cold_s")
        metrics[f"integral_oracle.{fn}.cold_s"] = (cold, "s")
    metrics["cli.verify.max_rel_dev"] = (getattr(workload, "max_rel_dev", 0.0), "ratio")
    metrics["trace.overhead_s"] = (traced.busy_s - plain.busy_s, "s")
    metrics["trace.overhead_ratio"] = (traced.busy_s / plain.busy_s - 1.0, "ratio")
    lines = [f"  {len(traced.durations)} ops: {traced.busy_s:.3f} s traced, "
             f"{plain.busy_s:.3f} s untraced"]
    for name, (value, unit) in sorted(
        metrics.items(), key=lambda kv: (not kv[0].endswith(".self_s"), kv[0])
    ):
        lines.append(f"  {name:<52}{value:.6g} {unit}")
    return metrics, [plain, traced], lines


def measure(workload, seconds: float, trace: bool, max_units: int | None,
            setup_reps: int, probe_reps: int):
    """Run one workload; returns (metrics, attempted, failed, report lines)."""
    if trace:
        metrics, tallies, lines = _per_layer(workload, seconds, max_units, probe_reps)
    else:
        metrics, tallies, lines = _end_to_end(workload, seconds, max_units, setup_reps)
    lines.insert(0, f"workload {workload.name}: {workload.describe()}")
    if workload.name == "verify":
        lines.append(f"  {'max_rel_dev':<22}{workload.max_rel_dev:.4g} "
                     "(worst oracle-versus-closed-form deviation)")
    if workload.name == "search":
        replaced = workload.replaced_edge + workload.replaced_no_transition
        drawn = replaced + workload.accepted
        lines.append(f"  problems replaced: {replaced} of {drawn} drawn "
                     f"({replaced / drawn:.1%}): {workload.replaced_edge} with the coarse "
                     f"maximum on the grid edge or not strict, "
                     f"{workload.replaced_no_transition} without a transition in the "
                     "separation bracket")
    errors = [e for t in tallies for e in t.errors]
    lines += [f"  CHECK FAILED: {e}" for e in errors[:20]]
    attempted = sum(t.attempted for t in tallies)
    failed = sum(t.failed for t in tallies)
    return metrics, attempted, failed, lines


def result_line(metrics, attempted: int, failed: int) -> str:
    finite = all(math.isfinite(v) for v, _ in metrics.values())
    return json.dumps({
        "correct": failed == 0 and finite,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def environment(seed: int) -> dict:
    import numpy
    import scipy

    return {
        "git_sha": _git_sha(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "nproc": os.cpu_count(),
        "seed": seed,
        "openblas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def smoke(workdir: pathlib.Path, seed: int) -> list[str]:
    """Run every workload at tiny size, both modes; return the problems."""
    import workloads

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        False: {m["name"]: m["unit"] for m in spec["end_to_end"]},
        True: {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    problems = []
    for name, (size, units) in SMOKE_SIZES.items():
        evals = []
        for trace in (False, True, True):
            wl = workloads.WORKLOADS[name](seed, workdir, **size)
            metrics, _, failed, lines = measure(wl, math.inf, trace, units, 1, 1)
            print("\n".join(lines))
            if failed:
                problems.append(f"{name}: {failed} failed ops")
            for key, unit in declared[trace].items():
                if key not in metrics:
                    problems.append(f"{name}: metric {key} missing")
                elif not metrics[key][1] or metrics[key][1] != unit:
                    problems.append(f"{name}: {key} has unit {metrics[key][1]!r}, "
                                    f"declared {unit!r}")
            extra = set(metrics) - set(declared[trace])
            if extra:
                problems.append(f"{name}: undeclared metrics {sorted(extra)}")
            if trace:
                evals.append({k: v for k, (v, _) in metrics.items() if k.endswith(".evals")})
        if evals[0] != evals[1]:
            problems.append(f"{name}: evals differ between runs: {evals}")
    return problems


def run_all(args) -> int:
    """Each workload in a child process of its own, so that its peak_rss_mb
    and interpreter state are its own; prints their reports and then one
    result with the metrics named ``<workload>.<metric>``."""
    import workloads

    combined, attempted, failed = {}, 0, 0
    for name in workloads.WORKLOADS:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        res = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = res.stdout.splitlines()
        print("\n".join(lines), flush=True)
        if res.returncode != 0:
            return res.returncode
        result = json.loads(lines[-1])
        combined.update({f"{name}.{k}": v for k, v in result["metrics"].items()})
        attempted += result["attempted"]
        failed += result["failed"]
    correct = failed == 0 and all(math.isfinite(m["value"]) for m in combined.values())
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": combined}))
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=["figures", "verify", "search", "all"],
                        default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float,
                        help="measuring time per workload (default: run_seconds "
                             "of BENCHMARK.json)")
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny sizes, both modes; fail on a missing metric or unit")
    args = parser.parse_args(argv)

    if not (SRC / "mirrorsteer" / "__init__.py").is_file():
        print(f"error: no mirrorsteer package under {SRC}", file=sys.stderr)
        return 2
    if args.seconds is None:
        args.seconds = json.loads((ROOT / "BENCHMARK.json").read_text())["run_seconds"]
    sys.path.insert(0, str(SRC))
    if args.workload == "all" and not args.smoke:
        return run_all(args)
    import workloads

    print("environment " + json.dumps(environment(args.seed)))
    _probe("setup", reps=1)  # the first interpreter after a checkout pays extra; not counted
    workdir = ROOT / ".perfbench_tmp" / str(os.getpid())
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        if args.smoke:
            problems = smoke(workdir, args.seed)
            print("\n".join(f"SMOKE FAILED: {p}" for p in problems) or "smoke: OK")
            return 1 if problems else 0
        wl = workloads.WORKLOADS[args.workload](args.seed, workdir)
        metrics, n, bad, lines = measure(wl, args.seconds, bool(args.trace), None,
                                         SETUP_REPS, PROBE_REPS)
        print("\n".join(lines))
        print(result_line(metrics, n, bad))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:
            pass


if __name__ == "__main__":
    sys.exit(main())
