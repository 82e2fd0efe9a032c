"""Benchmark of alteration_lab: one closed-loop client, one process, workers=1.

Run from the repository root:

    python3 bench/run.py --workload concentration --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --self-test

``--trace 0`` times ops for ``--seconds`` and prints the end-to-end metrics;
``--trace 1`` plays each op of a fixed list untraced and then traced, and
prints the per-layer metrics.  Every op's output is checked outside the timed region;
an op that raises or fails a check counts as failed.  The timings of the
result line are CPU times of this process, scaled to the speed of a
reference kernel timed around each op; the wall-clock figures are printed
beside them.  The last line of stdout is one JSON object with keys
correct, attempted, failed and metrics.
See bench/README.md for the metrics, the workloads and the digests.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import importlib
import importlib.metadata
import json
import math
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter, process_time

import numpy as np

import tracing  # of this directory, which python puts first on sys.path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DIGESTS = BENCH_DIR / "digests.json"
SPEC = ROOT / "BENCHMARK.json"

DEFAULT_SEED = 1
PINNED_OPS = 80  # ops per workload in digests.json, rounded up to whole rounds
SETUP_REPEATS = 5
SETUP_ONCE = BENCH_DIR / "setup_once.py"
# Ops per second at the seed commit, untraced.  Only sizes the traced run's
# fixed op list, so that its counts repeat exactly for a given seed.
NOMINAL_OPS_PER_S = {"concentration": 3.2, "tail": 5.0, "games": 5.8, "pattern-mix": 2.5}
TRACE_SHARE = 0.4  # of --seconds spent on the untraced pass of a traced run
WALL_LIMIT_S = 150.0  # stop starting ops after this, to exit within 180 s

# The reference kernel: a fixed piece of work of the library's own two
# kinds, pure-Python set work (intersections of frozensets spread over a
# few MB, dict stores, hashing) and small numpy calls (seeding a generator
# from a SeedSequence and drawing a few dozen uniforms, as the samplers
# do), timed just before and just after every op.  All of these are CPU
# times of this process, which leave out the time the hypervisor gives the
# vCPUs to other guests (steal).  The machine of the baseline also swings
# between speeds up to 45% apart every few seconds, CPU time included; an
# op's CPU time scaled by the kernel's CPU time around it keeps little of
# that swing (see README.md, "Noise").
# REF_NOMINAL_S only fixes the scale of the scaled metrics: it lies between
# the kernel's times at that machine's fast and slow speeds.
_REF_RNG = random.Random(20190906)
REF_SETS = tuple(frozenset(_REF_RNG.sample(range(400), 24)) for _ in range(4000))
REF_ORDER = tuple(_REF_RNG.randrange(len(REF_SETS)) for _ in range(800))
REF_DRAWS = 25
REF_NOMINAL_S = 1.5e-3


def _fail(message: str) -> None:
    print(f"bench: {message}", file=sys.stderr)
    sys.exit(2)


def _import_lab():
    """Import the package under src/ and the workloads, freshly each call."""
    for name in list(sys.modules):
        if name == "alteration_lab" or name.startswith("alteration_lab.") or name == "workloads":
            del sys.modules[name]
    lab = importlib.import_module("alteration_lab")
    if not Path(lab.__file__).resolve().is_relative_to(SRC.resolve()):
        _fail(f"alteration_lab imported from {lab.__file__}, not from {SRC}")
    return importlib.import_module("workloads")


def environment(seed: int) -> dict:
    import numpy

    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "click": importlib.metadata.version("click"),
        "commit": _commit(),
        "seed": seed,
    }


def _commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text(encoding="utf-8").strip()
        return ref
    except OSError:
        return "unknown"


def reference_kernel() -> int:
    table = {}
    acc = 0
    prev = REF_SETS[0]
    for j in REF_ORDER:
        common = REF_SETS[j] & prev
        table[j] = len(common)
        acc ^= hash(common)
        prev = REF_SETS[j]
    for i in range(REF_DRAWS):
        seq = np.random.SeedSequence(entropy=20190906, spawn_key=(i,))
        rng = np.random.Generator(np.random.PCG64(seq))
        acc += int((rng.random(45) < 0.3).sum())
    return acc + len(table)


def reference_time() -> float:
    """Best of two CPU times of the reference kernel, in seconds."""
    best = math.inf
    for _ in range(2):
        c0 = process_time()
        reference_kernel()
        best = min(best, process_time() - c0)
    return best


class Runner:
    """Plays ops of one workload and checks each one outside the timed region."""

    def __init__(self, module, workload: str, seed: int, scratch: Path, digests: dict | None):
        self.wl = module.WORKLOADS[workload](seed, scratch)
        self.pinned = digests.get(workload, []) if digests and seed == DEFAULT_SEED else []
        self.latencies: list[float] = []
        self.scaled: list[float] = []  # CPU times at the reference speed
        self.ref_times: list[float] = []
        self.ok: list[bool] = []
        self.failures: list[str] = []
        self.digests: list[str | None] = []

    def play(self, index: int, tracer=None) -> None:
        shape, seed = self.wl.op_input(index)
        ref_before = reference_time()
        with tracer.active() if tracer else contextlib.nullcontext():
            sid = tracer.begin("op") if tracer else None
            t0, c0 = perf_counter(), process_time()
            try:
                result = self.wl.run(shape, seed)
                error = None
            except Exception:
                error = traceback.format_exc(limit=3)
            cpu, elapsed = process_time() - c0, perf_counter() - t0
            if tracer:
                tracer.end(sid)
        ref = (ref_before + reference_time()) / 2
        problems = [error] if error else []
        digest = None
        if not error:
            try:
                outcome = self.wl.check(shape, seed, result)
                problems = outcome.problems
                digest = hashlib.sha256(outcome.canonical).hexdigest()
                if index < len(self.pinned) and digest != self.pinned[index]:
                    problems = problems + [f"digest {digest[:12]} differs from the pinned one"]
            except Exception:
                problems = [traceback.format_exc(limit=3)]
        self.latencies.append(elapsed)
        self.scaled.append(cpu * REF_NOMINAL_S / ref)
        self.ref_times.append(ref)
        self.digests.append(digest)
        self.ok.append(not problems)
        if problems:
            self.fail(index, "; ".join(problems))

    def fail(self, index: int, problem: str) -> None:
        shape, seed = self.wl.op_input(index)
        self.ok[index] = False
        self.failures.append(f"op {index} (shape {shape}, seed {seed}): {problem}")

    def play_for(self, seconds: float, started: float) -> None:
        """Closed loop: ops until the timed total passes ``seconds``, on a whole round."""
        index = 0
        while (
            sum(self.latencies) < seconds or index % self.wl.kinds
        ) and perf_counter() - started < WALL_LIMIT_S:
            self.play(index)
            index += 1


def warm_up(workload: str, seed: int, scratch: Path):
    """Import and run one warm-up op of each shape in this process, untimed."""
    module = _import_lab()
    warm = module.WORKLOADS[workload](seed, scratch)
    for shape, op_seed in warm.warmup_inputs():
        warm.run(shape, op_seed)
    return module


def cold_setup(workload: str, seed: int, scratch: Path) -> tuple[float, float]:
    """One set-up in a fresh process (setup_once.py), timed there.

    Returns its CPU time at the reference speed and its wall time.
    """
    cmd = [sys.executable, str(SETUP_ONCE), workload, str(seed), str(scratch)]
    ref_before = reference_time()
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=False, timeout=120)
    ref = (ref_before + reference_time()) / 2
    if proc.returncode != 0:
        _fail(f"set-up of {workload} failed:\n{proc.stderr}")
    elapsed, cpu = map(float, proc.stdout.split()[-2:])
    return cpu * REF_NOMINAL_S / ref, elapsed


def tail_latency(latencies: list[float]) -> tuple[float, float, int]:
    """Latency at the highest percentile with at least ten ops beyond it."""
    ordered = sorted(latencies)
    j = max(0, len(ordered) - 11)
    return ordered[j], 100.0 * (j + 1) / len(ordered), len(ordered) - 1 - j


def end_to_end(runner: Runner, setup_s: tuple[float, float]) -> tuple[dict, dict, dict]:
    """Gated metrics (the result line), printed-only metrics, and notes."""
    attempted = len(runner.ok)
    completed = sum(runner.ok)
    failed = attempted - completed

    def timings(latencies):
        # A failed op counts as missing every latency limit.
        lat = [t if ok else math.inf for t, ok in zip(latencies, runner.ok)]
        tail, pct, beyond = tail_latency(lat)
        return completed / sum(latencies), statistics.median(lat) * 1e3, tail * 1e3, pct, beyond

    tput, p50, tail, pct, beyond = timings(runner.scaled)
    raw_tput, raw_p50, raw_tail, raw_pct, _ = timings(runner.latencies)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "ref_ops_per_s": (tput, "1/s"),
        "ref_op_p50_ms": (p50, "ms"),
        "ref_op_tail_ms": (tail, "ms"),
        "setup_s": (setup_s[0], "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    # As the wall clock saw them.  Printed beside the others but kept out of
    # the result line: they swing with the speed of the machine further than
    # a useful bound allows, and a failure fraction is 0 when all is well.
    extra = {
        "ops_per_s": (raw_tput, "1/s"),
        "op_p50_ms": (raw_p50, "ms"),
        "op_tail_ms": (raw_tail, "ms"),
        "setup_wall_s": (setup_s[1], "s"),
        "failed_ops_frac": (failed / attempted, "ratio"),
        "ref_kernel_ms": (statistics.median(runner.ref_times) * 1e3, "ms"),
    }
    notes = {
        "ref_op_tail_ms": f"p{pct:.1f} of {attempted} ops, {beyond} beyond",
        "op_tail_ms": f"p{raw_pct:.1f} of {attempted} ops, {beyond} beyond",
        "failed_ops_frac": f"{failed} of {attempted} ops",
        "ref_kernel_ms": f"median; ref_* metrics scale op times by {REF_NOMINAL_S * 1e3:g} ms over it",
    }
    return metrics, extra, notes


def per_layer(runner_plain: Runner, runner_traced: Runner, tracer) -> tuple[dict, dict]:
    """Result-line metrics and the printed-only self times, in seconds.

    The result line carries each layer's self time as a share of the traced
    op time: a layer that a workload never calls has a self time of exactly
    0 on every run, which is no timing.
    """
    selfs = tracer.self_times()
    calls = tracer.calls()
    counts = tracer.counts
    traced = sum(runner_traced.latencies)
    m: dict[str, tuple[float, str]] = {}
    seconds: dict[str, tuple[float, str]] = {}
    for name in LAYERS:
        own = selfs.get("op" if name == "bench.op" else name, 0.0)
        m[f"{name}.self_share"] = (own / traced, "ratio")
        seconds[f"{name}.self_s"] = (own, "s")
    for name in CALL_METRICS:
        m[f"{name}.calls"] = (calls.get(name, 0), "count")

    def frac(num, den):
        return num / den if den else 0.0

    m["copies.enumerate_copies.copies_found"] = (counts["copies.enumerate_copies.copies_found"], "count")
    m["copies.has_copy_through_edge.true_frac"] = (
        frac(counts["copies.has_copy_through_edge.true"], calls.get("copies.has_copy_through_edge", 0)), "ratio")
    m["games.turns"] = (counts["games.turns"], "count")
    m["games.legal_checks_per_turn"] = (
        frac(calls.get("games.RpsState.is_legal", 0), counts["games.turns"]), "ratio")
    m["cliques.max_clique.expansions"] = (counts["cliques.max_clique.expansions"], "count")
    m["cliques.max_clique.budget_exhausted"] = (counts["cliques.max_clique.budget_exhausted"], "count")
    m["alteration.greedy_alteration.rejected_frac"] = (
        frac(counts["alteration.greedy_alteration.rejected"], counts["alteration.greedy_alteration.scanned"]), "ratio")
    m["experiments.write_result.bytes"] = (counts["experiments.write_result.bytes"], "bytes")
    m["trace.traced_s"] = (traced, "s")
    m["trace.ops"] = (len(runner_traced.latencies), "count")
    overhead = sum(runner_traced.latencies) / sum(runner_plain.latencies) - 1.0
    m["trace.overhead_frac"] = (overhead, "ratio")
    return m, seconds


# Spans with a self time: the wrapped functions, the CLI group's entry point,
# and each op as a whole ("bench.op", the time no wrapped function covers).
LAYERS = tuple(t[0] for t in tracing.TARGETS) + ("cli.main", "bench.op")
CALL_METRICS = (
    "copies.enumerate_copies", "copies.k_set_stats", "copies.packing_report",
    "copies.has_copy_through_edge", "graphs.Graph.edges_inside", "graphs.Graph.init",
    "games.RpsState.is_legal", "games.run_rps", "games.run_online_ramsey",
    "randomness.RandomSource.stream", "randomness.sample_gnp",
    "randomness.EdgeLabelTable.label", "cliques.max_clique",
    "cliques.max_independent_set", "density.density_report",
)


def trace_ops(workload: str, kinds: int, seconds: float) -> int:
    """Length of the traced run's fixed op list: a whole number of rounds."""
    ops = seconds * TRACE_SHARE * NOMINAL_OPS_PER_S[workload]
    return max(kinds, kinds * round(ops / kinds))


def run(workload: str, seed: int, seconds: float, trace: bool, digests: dict | None,
        scratch: Path, quiet: bool = False) -> dict:
    started = perf_counter()
    module = warm_up(workload, seed, scratch)
    scaled, walls = zip(*(cold_setup(workload, seed, scratch) for _ in range(SETUP_REPEATS)))
    setup_s = (statistics.median(scaled), statistics.median(walls))
    extra: dict = {}
    notes: dict = {}
    if not trace:
        runner = Runner(module, workload, seed, scratch, digests)
        runner.play_for(seconds, started)
        metrics, extra, notes = end_to_end(runner, setup_s)
        failures, ok = runner.failures, runner.ok
    else:
        n_ops = trace_ops(workload, module.WORKLOADS[workload].kinds, seconds)
        plain = Runner(module, workload, seed, scratch, digests)
        traced = Runner(module, workload, seed, scratch, digests)
        tracer = tracing.Tracer()
        tracer.prepare(extra_modules=[module])
        group = sys.modules["alteration_lab.cli"].main
        tracer.bind(group, "main", tracer.wrap("cli.main", group.main))
        # Each op untraced, then traced: both see the same drift of machine speed.
        for i in range(n_ops):
            plain.play(i)
            traced.play(i, tracer)
        for i, (a, b) in enumerate(zip(plain.digests, traced.digests)):
            if a != b:
                traced.fail(i, "traced output differs from the untraced output")
        metrics, extra = per_layer(plain, traced, tracer)
        tracer.write(OUT_DIR / f"trace-{workload}.json.gz")
        failures, ok = plain.failures + traced.failures, plain.ok + traced.ok
    report = {**metrics, **extra}
    if not quiet:
        for line in failures:
            print(f"FAILED {line}")
        print("# env " + json.dumps(environment(seed), sort_keys=True))
        for name, (value, unit) in report.items():
            note = f"  ({notes[name]})" if name in notes else ""
            print(f"{workload:14s} {name:48s} {value:14.6g} {unit}{note}")
    # A latency is infinite when enough ops failed (see end_to_end); JSON
    # has no infinity, so such a value is written as null.
    result = {
        "correct": all(ok),
        "attempted": len(ok),
        "failed": ok.count(False),
        "metrics": {k: {"value": v if math.isfinite(v) else None, "unit": u}
                    for k, (v, u) in metrics.items()},
    }
    return result, report


def self_test() -> int:
    """Every workload for a few ops, traced and not; then a corrupted digest."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    bad = []
    with _scratch() as scratch:
        for w in spec["workloads"]:
            for trace, key in ((False, "end_to_end"), (True, "per_layer")):
                res, report = run(w["name"], DEFAULT_SEED, 0.3, trace, digests, scratch, quiet=True)
                if not res["correct"] or res["failed"]:
                    bad.append(f"{w['name']} trace={int(trace)}: {res['failed']} failed ops")
                named = [(m["name"], m["unit"]) for m in spec[key]]
                if set(res["metrics"]) != {name for name, _ in named}:
                    bad.append(f"{w['name']}: result metrics differ from BENCHMARK.json {key}")
                if trace:
                    named += [(f"{name}.self_s", "s") for name in LAYERS]
                else:
                    named += [("ops_per_s", "1/s"), ("op_p50_ms", "ms"), ("op_tail_ms", "ms"),
                              ("setup_wall_s", "s"), ("failed_ops_frac", "ratio")]
                for name, unit in named:
                    if name not in report or report[name][1] != unit:
                        bad.append(f"{w['name']}: metric {name} missing or not in {unit}")
        first, *rest = digests["tail"]
        corrupted = {**digests, "tail": [("0" if first[0] != "0" else "1") + first[1:], *rest]}
        res, _ = run("tail", DEFAULT_SEED, 0.3, False, corrupted, scratch, quiet=True)
        if res["correct"] or res["failed"] != 1:
            bad.append(f"a corrupted digest gave failed={res['failed']}, correct={res['correct']}")
    for line in bad:
        print(f"SELF-TEST FAILED {line}")
    print("self-test " + ("failed" if bad else "ok"))
    return 1 if bad else 0


def pin_digests() -> int:
    """Write digests.json from the first PINNED_OPS ops of each workload."""
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    pinned = {}
    with _scratch() as scratch:
        for w in spec["workloads"]:
            module = _import_lab()
            runner = Runner(module, w["name"], DEFAULT_SEED, scratch, None)
            kinds = runner.wl.kinds
            for i in range(kinds * math.ceil(PINNED_OPS / kinds)):
                runner.play(i)
            if runner.failures:
                print("\n".join(runner.failures), file=sys.stderr)
                return 1
            pinned[w["name"]] = runner.digests
    DIGESTS.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


def run_each(names: list[str], seed: int, seconds: float, trace: int) -> int:
    """Every workload in turn, each in a process of its own (for its peak RSS)."""
    code = 0
    for name in names:
        cmd = [sys.executable, __file__, "--workload", name, "--seed", str(seed),
               "--seconds", str(seconds), "--trace", str(trace)]
        sys.stdout.flush()
        rc = subprocess.run(cmd, cwd=ROOT, check=False).returncode
        code = code or rc
    return code


@contextlib.contextmanager
def _scratch():
    """A directory for the ops' written outputs, inside the checkout."""
    OUT_DIR.mkdir(exist_ok=True)
    with tempfile.TemporaryDirectory(prefix="ops-", dir=OUT_DIR) as tmp:
        yield Path(tmp)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", help="a workload of BENCHMARK.json, or all")
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=float, default=None, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-test", action="store_true")
    parser.add_argument("--pin-digests", action="store_true", help=f"rewrite digests.json from {PINNED_OPS} ops")
    args = parser.parse_args(argv)

    if not (SRC / "alteration_lab").is_dir():
        _fail(f"no alteration_lab package under {SRC}")
    sys.path.insert(0, str(SRC))
    os.environ["ALTERATION_LAB_WORKERS"] = "1"
    if args.self_test:
        return self_test()
    if args.pin_digests:
        return pin_digests()
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    names = [w["name"] for w in spec["workloads"]]
    seconds = spec["run_seconds"] if args.seconds is None else args.seconds
    if args.workload == "all":
        return run_each(names, args.seed, seconds, args.trace)
    if args.workload not in names:
        _fail(f"--workload must be one of {names} or all")
    digests = json.loads(DIGESTS.read_text(encoding="utf-8"))
    with _scratch() as scratch:
        result, _ = run(args.workload, args.seed, seconds, bool(args.trace), digests, scratch)
    print(json.dumps(result, sort_keys=True, allow_nan=False))
    return 0


if __name__ == "__main__":
    sys.exit(main())
