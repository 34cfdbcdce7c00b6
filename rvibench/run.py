"""rvikit solver benchmark.

    python3 rvibench/run.py --workload flat_grid --seed 0 --seconds 20 --trace 0

Builds one workload (timed as set-up), then repeats identical rounds of
solver runs for ``--seconds``, timing every block in seconds normalised
against a reference computation sampled while the block runs
(``reference.py``).  Every operation's output is checked.  The last line
of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones (iters_per_s,
setup_s, peak_rss_mb); with ``--trace 1`` the per-layer ones, from
rounds run with span tracing installed, alternating with untraced
rounds that give ``trace.overhead``.  Spans are written under
``.rvibench_out/trace-<workload>.npz`` at the root of the checkout.
"""

import time

_T0 = time.perf_counter()

import os  # noqa: E402

# one BLAS thread: the program's arrays are tiny, and threads only add noise
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"


def _since_process_start() -> float:
    """Seconds from process creation to the first line of this file (Linux).

    Process creation is the launcher's fork, so a wrapper script that
    execs the interpreter is included.
    """
    try:
        with open("/proc/self/stat") as fh:
            fields = fh.read().rsplit(")", 1)[1].split()
        started = int(fields[19]) / os.sysconf("SC_CLK_TCK")
        return min(max(time.clock_gettime(time.CLOCK_BOOTTIME) - started, 0.0), 5.0)
    except (OSError, ValueError, IndexError, AttributeError):
        return 0.0


_PRE_S = _since_process_start()

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import sys  # noqa: E402
import traceback  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import layers  # noqa: E402
from reference import Stopwatch  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / ".rvibench_out"


@dataclass
class Round:
    traced: bool
    iters: int
    wall_s: float = 0.0    # program time of the round's blocks
    norm_s: float = 0.0    # the same, reference-normalised
    layers: dict = field(default_factory=dict)

    @property
    def factor(self) -> float:
        return self.norm_s / self.wall_s


def _rate(rounds: list[Round]) -> float:
    """Iterations per normalised second over these rounds."""
    return sum(r.iters for r in rounds) / sum(r.norm_s for r in rounds)


def _import_program():
    src = ROOT / "src"
    sys.path.insert(0, str(src))
    try:
        import rvikit
    except ImportError as exc:
        raise SystemExit(f"rvibench: cannot import rvikit from {src}: {exc}")
    if Path(rvikit.__file__).resolve().parent.parent != src.resolve():
        raise SystemExit(f"rvibench: rvikit imported from {rvikit.__file__}, not {src}")


def _parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    return args


def run_round(workload, watch: Stopwatch, traced: bool, tracer) -> tuple[Round, list]:
    """Time every block of one round in reference-normalised seconds."""
    rnd = Round(traced, workload.iters)
    outcomes = []
    if traced:
        tracer.install()
    try:
        for block in workload.blocks:
            out, err, wall, norm = watch.measure(block.run)
            rnd.wall_s += wall
            rnd.norm_s += norm
            outcomes.append((block, out, err))
    finally:
        if traced:
            tracer.uninstall()
    return rnd, outcomes


def check_round(outcomes) -> tuple[int, int, bool]:
    """(attempted, failed, correct) for one round's outcomes.

    A block that raised fails all its operations; an operation whose
    output fails a check is failed and makes the run incorrect.
    """
    attempted = failed = 0
    correct = True
    for block, out, err in outcomes:
        attempted += block.ops
        if err is not None:
            failed += block.ops
            print(f"rvibench: block raised {type(err).__name__}: {err}", file=sys.stderr)
            traceback.print_exception(err, file=sys.stderr)
            continue
        for errors in block.check(out):
            if errors:
                failed += 1
                correct = False
                print("rvibench: check failed: " + "; ".join(errors), file=sys.stderr)
    return attempted, failed, correct


def _setup(args, work_dir: Path):
    """Everything timed as set-up: import the program, build the workload."""
    _import_program()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"rvibench: unknown workload {args.workload!r}; "
                         f"choose from {', '.join(WORKLOADS)}")
    tracer = None
    if args.trace:
        from tracer import Tracer
        tracer = Tracer()
        tracer.install()
    try:
        return WORKLOADS[args.workload](args.seed, work_dir), tracer
    finally:
        if tracer is not None:
            tracer.uninstall()


def main(argv=None) -> int:
    args = _parse_args(argv)
    pre_s = _PRE_S + time.perf_counter() - _T0   # launcher, interpreter, numpy import
    work_dir = OUT / f"{args.workload}-{os.getpid()}"
    watch = Stopwatch()
    mark = watch.start()
    try:
        workload, tracer = _setup(args, work_dir)
    finally:
        setup_wall, setup_norm = watch.stop(mark)
    setup_s = pre_s * watch.speed(mark) + setup_norm
    if tracer is not None:
        setup_spans, setup_counters = tracer.drain(), tracer.take_counters()

    try:
        rounds, attempted, failed, correct = [], 0, 0, True
        start = time.perf_counter()
        last_spans = None
        while True:
            traced = tracer is not None and len(rounds) % 2 == 1
            rnd, outcomes = run_round(workload, watch, traced, tracer)
            if traced:
                last_spans = tracer.drain()
                rnd.layers = layers.reduce(last_spans, tracer.labels, tracer.take_counters(),
                                           rnd.factor, rnd.iters)
            a, f, c = check_round(outcomes)
            attempted, failed, correct = attempted + a, failed + f, correct and c
            rounds.append(rnd)
            done = time.perf_counter() - start >= args.seconds
            if done and (tracer is None or len(rounds) >= 2):
                break
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)

    untraced = _rate([r for r in rounds if not r.traced])
    if tracer is None:
        metrics = {
            "iters_per_s": (untraced, "iter/s"),
            "setup_s": (setup_s, "s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        }
    else:
        traced = [r for r in rounds if r.traced]
        setup = layers.reduce(setup_spans, tracer.labels, setup_counters,
                              setup_norm / setup_wall, 0)
        overhead = untraced / _rate(traced)
        metrics = layers.per_layer([r.layers for r in traced], setup, overhead)
        path = OUT / f"trace-{args.workload}.npz"   # one file per workload, overwritten
        layers.write_spans(path, tracer.labels, {"setup": setup_spans, "round": last_spans})
        print(f"rvibench: spans written to {path}", file=sys.stderr)

    print(f"rvibench: {args.workload} seed {args.seed}: {len(rounds)} rounds, "
          f"{attempted} operations, {failed} failed", file=sys.stderr)
    print(json.dumps({
        "correct": bool(correct and attempted > 0),
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
