#!/usr/bin/env python3
"""tradenet benchmark: three workloads, end-to-end metrics and a separate traced run.

Run from the repository root (the package is imported from ``src``):

    python3 bench/run.py --workload ingest-rank --seed 1 --seconds 55 --trace 0

Each workload is a closed loop with one client: this process runs one
operation at a time and starts the next when the previous one has ended.

* ``ingest-rank``: ``tradenet rank --weight trade --method pwp --lambda 1
  --criterion dependence`` as a subprocess on 500 countries with every
  ordered pair (249.5k flow rows, 5% recording zero trade, declared totals
  above flow sums).  Reading and validating rows is most of the time.
* ``export-matrix``: ``tradenet matrix --weight offer --method pwp
  --lambda 1`` as a subprocess on 1000 countries with 20 partners each
  (totals match flow sums).  Writing two 1000x1000 CSVs is most of the time.
* ``operator-sweep``: a library session in this process on the same kind of
  1000-country network, loaded during setup.  One pass runs, for both
  weights, pwp and heat kernel at lambda 1, 8 and 800, micmac k=4 and the
  PageRank limit p=0.86 (16 evaluations), each followed by rank and plane.
  The engine is most of the time.

BENCHMARK.json lists ``ingest-rank`` and ``operator-sweep`` only: with two
workloads every gated run can last 55 s, long enough to average over the
minutes-long swings in a shared host's speed.  ``export-matrix`` runs the same
way on request.

``--trace 0`` prints the end-to-end metrics listed in BENCHMARK.json and
``--trace 1`` its per-layer metrics, taken from an untraced half and a
traced half of the run; spans come from ``tracing.instrument``, installed
from outside the package.  The last line of stdout is the JSON result, the
lines before it a readable report.  ``--size smoke`` shrinks every dataset
for the benchmark's own tests.  Generated data lives in ``.bench_work/``
while the run lasts; a traced run leaves its spans there.
"""

import os

# fixed before numpy loads: BLAS never runs more threads than this process may use CPUs
BLAS_THREADS = len(os.sched_getaffinity(0))
os.environ["OPENBLAS_NUM_THREADS"] = str(BLAS_THREADS)

import argparse  # noqa: E402
import csv  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
from dataclasses import dataclass, field  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

import datagen  # noqa: E402
import tracing  # noqa: E402

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent  # the checkout this benchmark belongs to

SIZES = {
    "full": {
        "ingest-rank": dict(n=500, partners=None, zero_share=0.05, coverage=(0.6, 0.95)),
        "export-matrix": dict(n=1000, partners=20),
        "operator-sweep": dict(n=1000, partners=20),
    },
    "smoke": {
        "ingest-rank": dict(n=30, partners=None, zero_share=0.05, coverage=(0.6, 0.95)),
        "export-matrix": dict(n=40, partners=5),
        "operator-sweep": dict(n=40, partners=5),
    },
}

CLI_COMMANDS = {
    "ingest-rank": (
        ["rank", "--weight", "trade", "--method", "pwp", "--lambda", "1", "--criterion", "dependence"],
        ["ranking_direct_trade_dependence.csv", "ranking_indirect_trade_pwp_dependence.csv"],
    ),
    "export-matrix": (
        ["matrix", "--weight", "offer", "--method", "pwp", "--lambda", "1"],
        ["direct_offer.csv", "indirect_offer_pwp.csv"],
    ),
}

WORKLOADS = ("ingest-rank", "export-matrix", "operator-sweep")

# lambda=800 is the edge of the documented domain; pwp overflows there at the seed
SWEEP = [
    (weight, method, param)
    for weight in ("trade", "offer")
    for method, param in (
        ("pwp", 1.0), ("pwp", 8.0), ("pwp", 800.0),
        ("heatkernel", 1.0), ("heatkernel", 8.0), ("heatkernel", 800.0),
        ("micmac", 4), ("pagerank", 0.86),
    )
]
PARAMETER = {"pwp": "lam", "heatkernel": "lam", "micmac": "k", "pagerank": "p"}
ORACLE_EVALS = (("trade", "pwp", 1.0), ("trade", "heatkernel", 8.0))

SETUP_REPEATS = 3

END_TO_END_UNITS = {"setup_s": "s", "op_p50_s": "s", "work_per_s": "1/s", "peak_rss_mb": "MB"}
WORK_NAMES = {  # the readable report's name for work_per_s on each workload
    "ingest-rank": ("flow_rows_per_s", "rows/s"),
    "export-matrix": ("cells_per_s", "cells/s"),
    "operator-sweep": ("evals_per_s", "evals/s"),
}
COUNTS = (
    "model.flows", "weights.consistency_warnings", "weights.nonzeros",
    "engine.calls", "engine.failed", "engine.squarings.computed",
)


@dataclass
class Op:
    """One operation of the closed loop: its wall time and what came of it."""

    seconds: float = 0.0
    attempted: int = 1
    failed: int = 0
    incorrect: int = 0
    work: float = 0.0
    rss_mb: float = 0.0
    trace: dict | None = None
    errors: list = field(default_factory=list)


# --- oracles and checks ----------------------------------------------------------

def _expm(matrix: np.ndarray) -> np.ndarray:
    from scipy.linalg import expm  # loaded after the sweep has read its peak RSS

    return expm(matrix)


def pwp_oracle(direct: np.ndarray, lam: float) -> np.ndarray:
    return (_expm(lam * direct) - np.identity(len(direct))) / math.expm1(lam)


def heat_kernel_oracle(direct: np.ndarray, lam: float) -> np.ndarray:
    return _expm(lam * (direct - np.identity(len(direct))))


def _close(what: str, got: np.ndarray, expected: np.ndarray, rtol: float, atol: float) -> list[str]:
    if got.shape == expected.shape and np.allclose(got, expected, rtol=rtol, atol=atol):
        return []
    if got.shape != expected.shape:
        return [f"{what}: shape {got.shape}, expected {expected.shape}"]
    worst = float(np.max(np.abs(got - expected)))
    return [f"{what}: differs from the expected values by up to {worst:.3g}"]


def _permutation(what: str, ranks, n: int) -> list[str]:
    if sorted(ranks) == list(range(1, n + 1)):
        return []
    return [f"{what}: ranks are not a permutation of 1..{n}"]


def _by_code(dataset: datagen.Dataset, values: np.ndarray) -> dict[str, float]:
    return dict(zip(dataset.codes, values.tolist()))


def check_rankings(dataset: datagen.Dataset, out: Path) -> list[str]:
    """ingest-rank outputs: permutations, direct dependence = generator ratio, pwp vs expm."""
    expected = {
        "ranking_direct_trade_dependence.csv": _by_code(dataset, dataset.trade_ratio),
        "ranking_indirect_trade_pwp_dependence.csv": _by_code(
            dataset, pwp_oracle(dataset.direct("trade", dataset.codes), 1.0).sum(axis=1)
        ),
    }
    errors = []
    for name, values in expected.items():
        with open(out / name, newline="", encoding="utf-8") as handle:
            rows = list(csv.DictReader(handle))
        errors += _permutation(name, [int(row["rank"]) for row in rows], dataset.n)
        if sorted(row["code"] for row in rows) != sorted(dataset.codes):
            errors.append(f"{name}: country codes differ from the dataset's")
            continue
        got = np.array([float(row["value"]) for row in rows])
        want = np.array([values[row["code"]] for row in rows])
        errors += _close(f"{name} dependence", got, want, rtol=1e-9, atol=0.0)
    return errors


def read_matrix_csv(path: Path) -> tuple[list[str], list[str], np.ndarray]:
    with open(path, encoding="utf-8") as handle:
        header = handle.readline().rstrip("\n").split(",")[1:]
        rows = [line.rstrip("\n").split(",") for line in handle]
    return header, [row[0] for row in rows], np.array([row[1:] for row in rows], dtype=float)


def check_matrices(dataset: datagen.Dataset, out: Path) -> list[str]:
    """export-matrix outputs: labels, direct = generator's, dependence = ratio, pwp vs expm."""
    errors = []
    labels, row_labels, direct = read_matrix_csv(out / "direct_offer.csv")
    if labels != row_labels or sorted(labels) != sorted(dataset.codes):
        return ["direct_offer.csv: labels differ from the dataset's codes"]
    expected = dataset.direct("offer", labels)
    errors += _close("direct_offer.csv", direct, expected, rtol=1e-9, atol=0.0)
    ratio = _by_code(dataset, dataset.offer_ratio)
    errors += _close(
        "direct_offer.csv dependence", direct.sum(axis=1),
        np.array([ratio[code] for code in labels]), rtol=1e-9, atol=0.0,
    )
    indirect_labels, indirect_rows, indirect = read_matrix_csv(out / "indirect_offer_pwp.csv")
    if indirect_labels != labels or indirect_rows != labels:
        return errors + ["indirect_offer_pwp.csv: labels differ from the direct matrix's"]
    errors += _close(
        "indirect_offer_pwp.csv vs expm", indirect, pwp_oracle(expected, 1.0), rtol=1e-8, atol=1e-13
    )
    return errors


def check_evaluation(weight: str, method: str, indirect, ranking, points, n: int) -> list[str]:
    """Checks on every sweep evaluation; row and column sums hold for full coverage."""
    where = f"{weight} {method}"
    values = indirect.values
    if values.shape != (n, n) or not np.isfinite(values).all():
        return [f"{where}: not a finite {n}x{n} matrix"]
    errors = []
    if method == "pagerank":
        errors += _close(f"{where} column sums", values.sum(axis=0), np.ones(n), 0.0, 1e-9)
    elif weight == "trade":
        errors += _close(f"{where} row sums", values.sum(axis=1), np.ones(n), 0.0, 1e-9)
    if values.min() < -1e-12:
        errors.append(f"{where}: negative entry {values.min():.3g}")
    for criterion in ("dependence", "influence", "connectedness"):
        errors += _permutation(f"{where} {criterion}", [r.position(criterion) for r in ranking.rows], n)
    if len(points) != n or any(p.sector not in (1, 2, 3, 4) for p in points):
        errors.append(f"{where}: plane does not place every country in a sector")
    return errors


# --- workloads -------------------------------------------------------------------

def spawn(argv: list[str], env: dict, log: Path) -> tuple[float, int, float]:
    """Run a child to exit: wall seconds from spawn to exit, exit code, peak RSS in MB."""
    with open(log, "wb") as stderr:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=stderr, env=env)
        _, status, usage = os.wait4(proc.pid, 0)
        seconds = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return seconds, proc.returncode, usage.ru_maxrss / 1024


def _digest(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class CliWorkload:
    """``tradenet rank|matrix`` run as ``python -m tradenet.cli``, one child at a time."""

    def __init__(self, name: str, dataset: datagen.Dataset, work: Path):
        args, self.outputs = CLI_COMMANDS[name]
        self.dataset, self.work, self.out = dataset, work, work / "out"
        self.args = args + [
            "--countries", str(dataset.countries_path),
            "--flows", str(dataset.flows_path),
            "--out", str(self.out),
        ]
        self.env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
        self.units = dataset.flow_rows if name == "ingest-rank" else 2 * dataset.n**2
        self.check = check_rankings if name == "ingest-rank" else check_matrices
        self.reference: list[str] | None = None  # digests of the first complete output
        self.traced = False
        self.bytes_written = 0

    def setup(self) -> float:
        """Interpreter start plus importing ``tradenet.cli``; no dataset work."""
        seconds, code, _ = spawn(
            [sys.executable, "-m", "tradenet.cli", "--help"], self.env, self.work / "stderr.log"
        )
        if code != 0:
            raise RuntimeError(f"tradenet.cli --help exited {code}")
        return seconds

    def enable_tracing(self) -> list[dict]:
        self.traced = True
        return []

    def op(self) -> Op:
        shutil.rmtree(self.out, ignore_errors=True)
        trace_path = self.work / "trace.json"
        if self.traced:
            argv = [sys.executable, str(BENCH_DIR / "traced_cli.py"), str(trace_path), *self.args]
        else:
            argv = [sys.executable, "-m", "tradenet.cli", *self.args]
        log = self.work / "stderr.log"
        seconds, code, rss = spawn(argv, self.env, log)
        op = Op(seconds, rss_mb=rss)
        paths = [self.out / name for name in self.outputs]
        if code != 0 or not all(p.is_file() for p in paths):
            last = log.read_text(encoding="utf-8", errors="replace").strip().splitlines()[-1:]
            op.failed = 1
            op.errors.append(f"exit {code}, outputs present: {[p.is_file() for p in paths]} {last}")
            return op
        digests = [_digest(p) for p in paths]
        if self.reference is None:
            # checked in full once, after the loop, outside the timed window
            shutil.copytree(self.out, self.work / "reference")
            self.reference = digests
            self.bytes_written = sum(p.stat().st_size for p in paths)
        if digests != self.reference:
            op.failed = op.incorrect = 1
            op.errors.append("outputs differ from the first operation's")
        else:
            op.work = self.units
        if self.traced:
            op.trace = json.loads(trace_path.read_text(encoding="utf-8"))
        return op

    def final_check(self) -> list[str]:
        if self.reference is None:
            return []
        return self.check(self.dataset, self.work / "reference")

    def peak_rss_mb(self, ops: list[Op]) -> float:
        return statistics.median(op.rss_mb for op in ops)


class SweepWorkload:
    """A library session in this process: one network, 16 operator evaluations per pass."""

    def __init__(self, dataset: datagen.Dataset):
        from tradenet import ingestion

        self.dataset = dataset
        self.manifest = ingestion.DatasetManifest(dataset.countries_path, dataset.flows_path)
        self.directs: dict = {}
        self.kept: dict = {}  # ORACLE_EVALS results of the latest pass
        self.tracer: tracing.Tracer | None = None
        self.units = len(SWEEP)
        self.bytes_written = 0

    def setup(self) -> float:
        """``load_network`` plus both ``build_direct_matrix`` calls."""
        from tradenet import ingestion, weights

        start = time.perf_counter()
        network = ingestion.load_network(self.manifest)
        directs = {w: weights.build_direct_matrix(network, weights.WeightKind(w)) for w in ("trade", "offer")}
        seconds = time.perf_counter() - start
        self.directs = directs
        return seconds

    def enable_tracing(self) -> list[dict]:
        """Instrument this process; returns the traces of fresh, traced setups."""
        self.tracer = tracing.Tracer()
        tracing.instrument(self.tracer)
        setups = []
        for _ in range(SETUP_REPEATS):
            self.setup()
            setups.append(self.tracer.take())
        return setups

    def evaluate(self, weight: str, method: str, param):
        # module attributes are looked up on every call so instrumented versions are used
        from tradenet import analytics, engine

        direct = self.directs[weight]
        if method == "pagerank":
            indirect = engine.pagerank_limit(engine.column_normalize(direct), param)
        else:
            indirect = engine.MethodSpec(method, **{PARAMETER[method]: param}).apply(direct)
        return indirect, analytics.rank(indirect, "influence"), analytics.plane(indirect)

    def op(self) -> Op:
        op = Op(attempted=len(SWEEP))
        n = self.dataset.n
        for weight, method, param in SWEEP:
            start = time.perf_counter()
            try:
                indirect, ranking, points = self.evaluate(weight, method, param)
            except Exception as exc:  # the pass goes on; the evaluation counts as failed
                op.seconds += time.perf_counter() - start
                op.failed += 1
                op.errors.append(f"{weight} {method} {param:g}: {type(exc).__name__}: {exc}")
                continue
            op.seconds += time.perf_counter() - start
            errors = check_evaluation(weight, method, indirect, ranking, points, n)
            if errors:
                op.failed += 1
                op.incorrect += 1
                op.errors += errors
            else:
                op.work += 1
            if (weight, method, param) in ORACLE_EVALS:
                self.kept[weight, method, param] = indirect.values
        if self.tracer is not None:
            op.trace = self.tracer.take()
        return op

    def final_check(self) -> list[str]:
        errors = []
        ratios = {"trade": self.dataset.trade_ratio, "offer": self.dataset.offer_ratio}
        for weight, direct in self.directs.items():
            expected = self.dataset.direct(weight, direct.labels)
            errors += _close(f"direct {weight}", direct.values, expected, rtol=1e-12, atol=0.0)
            ratio = _by_code(self.dataset, ratios[weight])
            errors += _close(
                f"direct {weight} dependence", direct.values.sum(axis=1),
                np.array([ratio[code] for code in direct.labels]), rtol=1e-9, atol=0.0,
            )
        oracles = {"pwp": pwp_oracle, "heatkernel": heat_kernel_oracle}
        for weight, method, lam in ORACLE_EVALS:
            if (weight, method, lam) in self.kept:
                expected = oracles[method](self.dataset.direct(weight, self.directs[weight].labels), lam)
                got = self.kept[weight, method, lam]
                errors += _close(f"{weight} {method} {lam:g} vs expm", got, expected, 1e-8, 1e-13)
        return errors

    def peak_rss_mb(self, ops: list[Op]) -> float:
        """This process's peak so far; read before the oracle loads scipy."""
        return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


# --- measurement -------------------------------------------------------------------

def closed_loop(seconds: float, op, between=None) -> list[Op]:
    """Operations back to back for ``seconds``; at least one.

    No operation starts that the shortest round so far says would end after
    the deadline, so a run lasts ``seconds`` and not up to one operation more.
    ``between``, if given, runs after each operation, outside its timing.
    """
    start = time.perf_counter()
    deadline = start + seconds
    ops: list[Op] = []
    shortest = 0.0
    while not ops or time.perf_counter() + shortest <= deadline:
        round_start = time.perf_counter()
        ops.append(op())
        if between is not None:
            between()
        took = time.perf_counter() - round_start
        shortest = took if len(ops) == 1 else min(shortest, took)
    return ops


def describe(values: list[float]) -> str:
    """Minimum, median and the highest percentile with at least ten samples beyond it."""
    ordered = sorted(values)
    n = len(ordered)
    text = f"min {ordered[0]:.6g}, p50 {statistics.median(ordered):.6g}"
    for p in (99.9, 99.0, 95.0, 90.0, 75.0):
        k = math.ceil(p / 100 * n) - 1
        if n - k - 1 >= 10:
            text += f", p{p:g} {ordered[k]:.6g}"
            break
    return f"{text} (n={n})"


def op_latency(ops: list[Op]) -> float:
    """Median wall time of the operations that did not fail outright."""
    timed = [op.seconds for op in ops if op.failed < op.attempted] or [op.seconds for op in ops]
    return statistics.median(timed)


def end_to_end(name: str, workload, setups: list[float], ops: list[Op], peak_rss_mb: float):
    values = {
        "setup_s": statistics.median(setups),
        "op_p50_s": op_latency(ops),
        # over the whole run, so a host that is slower for part of it moves this smoothly
        "work_per_s": sum(op.work for op in ops) / sum(op.seconds for op in ops),
        "peak_rss_mb": peak_rss_mb,
    }
    attempted = sum(op.attempted for op in ops)
    failed = sum(op.failed for op in ops)
    work_name, work_unit = WORK_NAMES[name]
    report = [
        f"setup_s        {describe(setups)} s",
        f"op_p50_s       {describe([op.seconds for op in ops])} s",
        f"{work_name:<14} {values['work_per_s']:.6g} {work_unit} ({workload.units} per operation)",
        f"peak_rss_mb    {values['peak_rss_mb']:.6g} MB",
        f"failed_ratio   {failed / attempted:.6g} ({failed}/{attempted})",
    ]
    return values, report


def per_layer(dataset, workload, setup_s: float, setup_traces, plain: list[Op], traced: list[Op]):
    """Per-layer metrics: each is its median over the traced operations entering its layer."""
    op_traces = [op.trace for op in traced if op.trace is not None]
    records = setup_traces + op_traces
    rows = []
    for record in records:
        values = {f"{k}.s": v for k, v in tracing.self_times(record["spans"]).items()}
        values.update(record["counts"])
        rows.append(({key.split(".")[0] for key in values}, values))

    def median(metric: str) -> float:
        layer = metric.split(".")[0]
        return statistics.median([v.get(metric, 0) for layers, v in rows if layer in layers] or [0])

    metrics = {f"{name}.s": median(f"{name}.s") for name in tracing.TRACED}
    metrics.update({name: median(name) for name in COUNTS})
    read_s = metrics["ingestion.load_countries.s"] + metrics["ingestion.load_flows.s"]
    metrics["ingestion.rows_read"] = dataset.rows
    metrics["ingestion.rows_dropped"] = dataset.flow_rows - median("ingestion.flows_kept")
    metrics["ingestion.bytes_read"] = dataset.bytes
    metrics["ingestion.rows_per_s"] = dataset.rows / read_s if read_s else 0.0
    layer_s = statistics.median(
        [sum(s["end"] - s["start"] for s in t["spans"] if s["parent"] is None) for t in op_traces] or [0]
    )
    cli_setup = setup_s if isinstance(workload, CliWorkload) else 0.0
    metrics["cli.bytes_written"] = workload.bytes_written
    metrics["cli.unattributed_s"] = op_latency(plain) - cli_setup - layer_s
    metrics["trace.overhead_s"] = op_latency(traced) - op_latency(plain)

    shares: dict[str, float] = {}
    for trace in op_traces:
        for name, seconds in tracing.self_times(trace["spans"]).items():
            layer = name.split(".")[0]
            shares[layer] = shares.get(layer, 0.0) + seconds / len(op_traces)
    wall = op_latency(plain)
    report = [f"{key:<32} {value:.6g}" for key, value in metrics.items()]
    report.append(
        "mean self time per traced operation, share of untraced op_p50_s: "
        + ", ".join(f"{layer} {100 * s / wall:.1f}%" for layer, s in shares.items())
    )
    return metrics, report


def layer_unit(metric: str) -> str:
    special = {"ingestion.rows_per_s": "1/s", "ingestion.bytes_read": "B", "cli.bytes_written": "B"}
    if metric in special:
        return special[metric]
    return "s" if metric.endswith((".s", "_s")) else "count"


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas.get('version', '')}".strip()
    except (KeyError, TypeError):
        blas_name = "unknown"
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as handle:
            cpu = next((line.split(":", 1)[1].strip() for line in handle if line.startswith("model name")), cpu)
    except OSError:
        pass
    commit = "unknown"
    if (ROOT / ".git").exists():
        result = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
        )
        commit = result.stdout.strip() or commit
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "commit": commit,
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    args = parser.parse_args()

    if not (ROOT / "src" / "tradenet" / "cli.py").is_file():
        print(f"bench/run.py: {ROOT} is not a tradenet checkout (src/tradenet not found)", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))

    env = environment()
    print(f"# {args.workload} seed={args.seed} size={args.size} trace={args.trace}")
    print("# environment " + json.dumps(env))
    base = ROOT / ".bench_work"
    work = base / f"{args.workload}-seed{args.seed}-{os.getpid()}"
    try:
        dataset = datagen.generate(work / "data", args.seed, **SIZES[args.size][args.workload])
        print(f"# dataset: {dataset.n} countries, {dataset.flow_rows} flow rows, {dataset.bytes} bytes")
        if args.workload == "operator-sweep":
            workload = SweepWorkload(dataset)
        else:
            workload = CliWorkload(args.workload, dataset, work)
        setups = [workload.setup() for _ in range(SETUP_REPEATS)]
        if isinstance(workload, SweepWorkload):
            workload.op()  # warm-up pass, untimed: the first pass is slower

        span = args.seconds / 2 if args.trace else args.seconds
        # set-up is also timed after every operation, so its median spans the whole run
        plain = closed_loop(span, workload.op, lambda: setups.append(workload.setup()))
        peak_rss_mb = workload.peak_rss_mb(plain)
        traced: list[Op] = []
        if args.trace:
            setup_traces = workload.enable_tracing()
            traced = closed_loop(span, workload.op)
        ops = plain + traced

        errors = workload.final_check()
        if errors:  # every operation whose outputs were accepted is wrong after all
            for op in ops:
                op.failed, op.incorrect, op.work = op.attempted, 1, 0
        for message in dict.fromkeys(errors + [e for op in ops for e in op.errors]):
            print(f"# failure: {message}")

        if args.trace:
            values, report = per_layer(dataset, workload, statistics.median(setups), setup_traces, plain, traced)
            units = {key: layer_unit(key) for key in values}
            trace_file = base / f"trace-{args.workload}-seed{args.seed}.json"
            trace_file.write_text(json.dumps({
                "environment": env, "workload": args.workload, "seed": args.seed,
                "setups": setup_traces, "operations": [op.trace for op in traced], "metrics": values,
            }), encoding="utf-8")
            report.append(f"spans written to {trace_file.relative_to(ROOT)}")
        else:
            values, report = end_to_end(args.workload, workload, setups, ops, peak_rss_mb)
            units = END_TO_END_UNITS
        for line in report:
            print(line)
        print(json.dumps({
            "correct": not any(op.incorrect for op in ops) and any(op.work for op in ops),
            "attempted": sum(op.attempted for op in ops),
            "failed": sum(op.failed for op in ops),
            "metrics": {key: {"value": values[key], "unit": units[key]} for key in values},
        }))
        return 0
    finally:
        shutil.rmtree(work, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
