"""Benchmark for diffdim: ω on leader-cone workloads and compare on chain pairs.

    python3 bench/run.py --workload levels|cones|compare|all \\
        [--seed N] [--seconds S] [--trace 0|1] [--quick]

A run is one fresh process with one thread.  It imports diffdim from src/ and
writes the workload's seeded inputs (inputs.py) under .bench_out/, both
SETUP_REPEATS times, each time after dropping every module the set-ups before
it loaded, and reports the median scaled CPU time as setup_s.  It then
runs a few warm-up operations, and then whole rounds of the batch as a closed
loop, each operation starting when the last one ends, until --seconds of
wall time have passed.  Operations are timed in CPU time of the process,
which on a shared machine varies far less than wall time, and each
operation's time is scaled by how fast a fixed reference kernel ran around
it; the run reports the median over its rounds.  Every output is then checked
against what its input was built to produce (checks.py); a failed check
makes `correct` false, except for the compare workload's A^2-vs-A pairs,
which diffdim gets wrong every time (see inputs.py) and which are counted in
`failed` instead.

--trace 0 reports the end-to-end metrics.  --trace 1 rebinds diffdim's layer
functions to timing wrappers (layers.py) before the warm-up and reports the
per-layer metrics instead: times are unscaled CPU milliseconds per operation, counts are
per round of the batch.  Layers a workload never calls read 0.  --workload
all runs each workload in its own process and prints every metric.  The last
line of standard output is one JSON object with the keys correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import contextlib
import importlib
import io
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SCHEMA = SRC / "diffdim" / "schemas" / "compare_verdict.schema.json"
sys.path[:0] = [str(HERE), str(SRC)]

import checks  # noqa: E402
import inputs  # noqa: E402
import layers  # noqa: E402

WORKLOADS = ("levels", "cones", "compare")
SETUP_REPEATS = 9
WARMUP_OPS = 3
SUBPROCESS_REPEATS = 5
QUICK_BATCH = {"levels": 8, "cones": 8, "compare": len(inputs.COMPARE_BLOCK)}
MODULES = (
    "diffdim",
    "diffdim.cli",
    "diffdim.compare",
    "diffdim.dimension",
    "diffdim.chains",
    "diffdim.diffpoly",
    "diffdim.systemfile",
)
CLI_MAIN = "import sys; from diffdim.cli import main; main()"
# Times are scaled to a machine on which reference_kernel() takes this long.
REFERENCE_KERNEL_S = 0.007
KERNEL_EVERY = 2  # operations between two timings of the kernel


def reference_kernel() -> tuple:
    """Fixed work that never touches diffdim, of the two kinds diffdim's
    operations are made of: Fraction sums in a dict keyed by tuples (its
    polynomial arithmetic), and joins and dominance tests of exponent tuples
    (its bookkeeping of leaders and cones)."""
    acc = {}
    for i in range(600):
        key = ((i % 97, (i * 7) % 13), i % 5)
        acc[key] = acc.get(key, Fraction(0)) + Fraction(i, 7)
    gens = [((i * 5) % 7, (i * 3) % 5, (i * 11) % 6, i % 4) for i in range(30)]
    joins, dominated = set(), 0
    for a in gens:
        for b in gens:
            join = tuple(max(x, y) for x, y in zip(a, b))
            dominated += all(x >= y for x, y in zip(join, a))
            joins.add(join)
    return sorted(acc.items()), sorted(joins), dominated


def kernel_seconds() -> float:
    t0 = time.process_time()
    reference_kernel()
    return time.process_time() - t0


def import_diffdim(baseline: set[str]) -> dict:
    """Import diffdim afresh.  Every module loaded since `baseline` was taken
    is dropped first, diffdim's own dependencies too, so that each set-up
    pays the whole import."""
    for name in [m for m in sys.modules if m not in baseline]:
        del sys.modules[name]
    return {name: importlib.import_module(name) for name in MODULES}


def set_up(workload: str, seed: int, work_dir: Path, batch: int | None, baseline: set[str]):
    """Import diffdim, write the inputs, and load what the operations need."""
    modules = import_diffdim(baseline)
    cases, files = inputs.build(workload, seed, work_dir, batch)
    loaded = None
    if workload != "compare":
        parse = modules["diffdim.systemfile"].parse_system
        chains = {}
        for path in files:
            chains.update(parse(path.read_text()).chains)
        loaded = [(chains[c.chain].elements, chains[c.chain].ranking) for c in cases]
    return modules, cases, files, loaded


def operation(workload: str, modules: dict, cases, loaded):
    """(prepare, op): prepare(i) builds the fresh input of case i outside the
    timed region; op(input) is the timed call and returns a hashable output.

    Functions are looked up on their modules at call time, so a traced run
    reaches its wrappers.
    """
    if workload == "compare":
        cli = modules["diffdim.cli"]

        def prepare(i):
            return ["compare", str(cases[i].path), "--smaller", "S", "--larger", "L", "--json"]

        def op(argv):
            out = io.StringIO()
            with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
                code = cli.run(argv)
            return code, out.getvalue()

        return prepare, op

    chain_type = modules["diffdim.chains"].DiffChain
    dimension = modules["diffdim.dimension"]

    def prepare(i):
        # validation_report() is memoised on the chain: every call gets a new one
        return chain_type(*loaded[i])

    def op(chain):
        return dimension.omega(chain).coefficients

    return prepare, op


def closed_loop(prepare, op, batch: int, seconds: float):
    """Whole rounds of the batch until `seconds` of wall time have passed.

    Returns, per round, the CPU time of each operation and the CPU times of
    the reference kernel, timed after every KERNEL_EVERY-th operation; then
    each case's outputs and the wall time taken.
    """
    rounds = []
    outputs = [{} for _ in range(batch)]  # per case: output -> times seen
    cpu = time.process_time
    wall_start = time.perf_counter()
    while True:
        latencies, kernels = [], []
        for i in range(batch):
            arg = prepare(i)
            t0 = cpu()
            out = op(arg)
            latencies.append(cpu() - t0)
            outputs[i][out] = outputs[i].get(out, 0) + 1
            if i % KERNEL_EVERY == 0:
                kernels.append(kernel_seconds())
        rounds.append((latencies, kernels))
        if time.perf_counter() - wall_start >= seconds:
            break
    return rounds, outputs, time.perf_counter() - wall_start


def round_figures(latencies: list[float]) -> tuple[float, float, float]:
    """(operations per CPU second, p50 ms, p90 ms) of one pass over the batch."""
    p90 = statistics.quantiles(latencies, n=10)[8]
    return len(latencies) / sum(latencies), statistics.median(latencies) * 1e3, p90 * 1e3


def scaled(latencies: list[float], kernels: list[float]) -> list[float]:
    """Each operation's time, scaled by the median of the three kernel
    timings nearest to it in the round: the host's speed moves within a
    round, not only between rounds."""
    return [t * REFERENCE_KERNEL_S
            / statistics.median(kernels[max(0, i // KERNEL_EVERY - 1):i // KERNEL_EVERY + 2])
            for i, t in enumerate(latencies)]


def check_outputs(workload: str, cases, outputs):
    """(failed, errors): failed counts wrong operations; errors lists the ones
    that are not the known A^2-vs-A fault."""
    schema = json.loads(SCHEMA.read_text()) if workload == "compare" else None
    failed, errors = 0, []
    for case, seen in zip(cases, outputs):
        for out, times in seen.items():
            if workload == "compare":
                error = checks.check_compare(case, out[0], out[1], schema)
            else:
                error = checks.check_omega(case, out)
            if error is None:
                continue
            failed += times
            if getattr(case, "kind", None) != "square":
                errors.append(error)
    return failed, errors


def cli_argv(workload: str, cases, work_dir: Path) -> list[str]:
    case = cases[0]
    if workload == "compare":
        return ["compare", str(case.path), "--smaller", "S", "--larger", "L", "--json"]
    path = inputs.monomial_path(work_dir, workload, case.n)
    return ["omega", str(path), "--chain", case.chain, "--json"]


def subprocess_ms(argv: list[str]) -> float:
    """Median wall time of the diffdim command as a new process, start-up included."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    times = []
    for _ in range(SUBPROCESS_REPEATS):
        t0 = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", CLI_MAIN, *argv],
            cwd=ROOT, env=env, stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL,
            timeout=120, check=False,
        )
        times.append(time.perf_counter() - t0)
    return statistics.median(times) * 1e3


def layer_metrics(tracer: layers.Tracer, ops: int, rounds: int, input_bytes: int,
                  subprocess_time: float) -> dict:
    s, c = tracer.seconds, tracer.counts

    def per_op_ms(seconds: float) -> float:
        return seconds * 1e3 / ops

    cli_self = s["cli.run"] - s["systemfile.parse"] - s["compare.compare_ideals"]
    values = {
        "dimension.incl_excl_ms": (per_op_ms(s["dimension.incl_excl"]), "ms"),
        "dimension.janet_ms": (per_op_ms(s["dimension.janet"]), "ms"),
        "dimension.janet_cones": (c["janet_cones"] // rounds, "count"),
        "dimension.generators": (c["generators"] // rounds, "count"),
        "chains.validate_ms": (per_op_ms(s["chains.validate"]), "ms"),
        "chains.delta_ms": (per_op_ms(s["chains.delta"]), "ms"),
        "chains.reduce_ms": (per_op_ms(s["chains.reduce"]), "ms"),
        "chains.obstruction_pairs": (c["obstruction_pairs"] // rounds, "count"),
        "chains.reduction_steps": (c["reduction_steps"] // rounds, "count"),
        "diffpoly.derive_ms": (per_op_ms(s["diffpoly.derive"]), "ms"),
        "systemfile.parse_ms": (per_op_ms(s["systemfile.parse"]), "ms"),
        "systemfile.input_bytes": (input_bytes, "bytes"),
        "compare.containment_ms": (per_op_ms(s["compare.containment"]), "ms"),
        "compare.omega_ms": (per_op_ms(s["compare.omega"]), "ms"),
        "cli.self_ms": (per_op_ms(cli_self), "ms"),
        "cli.subprocess_ms": (subprocess_time, "ms"),
    }
    return {name: {"value": v, "unit": unit} for name, (v, unit) in values.items()}


def run_workload(workload: str, seed: int, seconds: float, trace: bool, quick: bool) -> dict:
    batch = QUICK_BATCH[workload] if quick else None
    work_dir = OUT / f"inputs-{workload}-{seed}-{os.getpid()}"
    try:
        setup_times = []
        baseline = set(sys.modules)
        for _ in range(1 if quick or trace else SETUP_REPEATS):
            before = kernel_seconds()
            t0 = time.process_time()
            modules, cases, files, loaded = set_up(workload, seed, work_dir, batch, baseline)
            elapsed = time.process_time() - t0
            kernel = (before + kernel_seconds()) / 2
            setup_times.append(elapsed * REFERENCE_KERNEL_S / kernel)
        tracer = layers.Tracer()
        if trace:
            tracer.install(modules)
        prepare, op = operation(workload, modules, cases, loaded)
        for i in range(min(1 if quick else WARMUP_OPS, len(cases))):
            op(prepare(i))
        tracer.reset()
        per_round, outputs, wall = closed_loop(prepare, op, len(cases), 0 if quick else seconds)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        rounds = len(per_round)
        latencies = [t for lat, _ in per_round for t in lat]
        busy = sum(latencies)
        kernel_ms = statistics.median(k for _, ks in per_round for k in ks) * 1e3
        attempted = len(latencies)
        failed, errors = check_outputs(workload, cases, outputs)
        # Each round is one full pass over the batch.  Every operation's time
        # is scaled by the reference kernel's speed around it, and the run
        # reports the median over its rounds.
        figures = [round_figures(scaled(lat, ks)) for lat, ks in per_round]
        ops, p50, p90 = (statistics.median(column) for column in zip(*figures))
        pooled = round_figures(latencies)
        if trace:
            input_bytes = sum(p.stat().st_size for p in files)
            sub = subprocess_ms(cli_argv(workload, cases, work_dir))
            metrics = layer_metrics(tracer, attempted, rounds, input_bytes, sub)
            spans = {
                "seconds": tracer.seconds,
                "calls": tracer.calls,
                "counts": tracer.counts,
                "ops": attempted,
                "rounds": rounds,
            }
            (OUT / f"trace-{workload}-{seed}.json").write_text(json.dumps(spans, indent=2))
        else:
            metrics = {
                "ops_per_s": {"value": ops, "unit": "1/s"},
                "latency_p50_ms": {"value": p50, "unit": "ms"},
                "latency_p90_ms": {"value": p90, "unit": "ms"},
                "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
                "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            }
    finally:
        shutil.rmtree(work_dir, ignore_errors=True)
    for error in errors[:10]:
        print(f"WRONG {error}")
    print(
        f"{workload} seed {seed}: {attempted} operations in {wall:.2f} s wall, "
        f"{busy:.2f} s CPU in operations "
        f"({rounds} rounds of {len(cases)}), {failed} failed, traced: {trace}"
    )
    if trace:
        print(f"  traced throughput {attempted / busy:.4f} 1/s unscaled, {ops:.4f} 1/s scaled")
    else:
        print("  unscaled, pooled over all rounds: ops_per_s {:.4f}, p50 {:.3f} ms, "
              "p90 {:.3f} ms; reference kernel {:.3f} ms".format(*pooled, kernel_ms))
    for name, m in metrics.items():
        print(f"  {name} {m['value']} {m['unit']}")
    return {"correct": not errors, "attempted": attempted, "failed": failed, "metrics": metrics}


def run_all(args) -> dict:
    """Each workload in its own process, as the single-workload runs are."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for workload in WORKLOADS:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace)] + (["--quick"] if args.quick else [])
        proc = subprocess.run(argv, capture_output=True, text=True, timeout=900, check=False)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            print(proc.stderr, file=sys.stderr)
            raise SystemExit(f"{workload} run failed with exit code {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for name, m in result["metrics"].items():
            combined["metrics"][f"{workload}.{name}"] = m
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=WORKLOADS + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="one small round per workload, to test the harness end to end")
    args = parser.parse_args(argv)
    if not (SRC / "diffdim" / "__init__.py").is_file():
        print(f"bench: no diffdim package under {SRC}; run from a diffdim checkout",
              file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace), args.quick)
        name = f"result-{args.workload}-{args.seed}-trace{args.trace}.json"
        (OUT / name).write_text(json.dumps(result, indent=2))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
