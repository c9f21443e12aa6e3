"""Benchmark of the szeged package in the checkout's src/ tree.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check

One client issues one operation at a time (closed loop, one process at a
time on the machine).  Every operation runs cold in a fresh interpreter,
as a CLI user would run it, with one BLAS/OpenMP thread.
Inputs come from --seed; every output is checked.  The last line of
stdout is one JSON object {"correct", "attempted", "failed", "metrics"};
the line before it is a JSON summary with the run's context (commit,
szeged.__file__, nproc, versions, input digest) and the figures that
are not gated (failed_frac, call latency percentiles, op counts).

--trace 0 measures the workload for --seconds and reports the end-to-end
metrics of BENCHMARK.json.  --trace 1 runs the per-layer suite described
in perfbench/README.md, the same for every workload, and reports the
per-layer metrics; it writes its spans to perfbench/out/ at exit.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from typing import Callable

import networkx as nx

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = BENCH / "out"
sys.path.insert(0, str(BENCH))

import inputs  # noqa: E402

CHILD_TIMEOUT_S = 170


@dataclass(frozen=True)
class Scale:
    """Sizes of every input; FULL is what the benchmark measures."""

    n7: int
    n8: int
    compute_count: int
    n_lo: int
    n_hi: int
    canon_n: int
    canon_count: int
    canon_big_n: int
    setup_reps: int
    cli_reps: int
    batch7: int
    batch8: int


FULL = Scale(7, 8, 100, 30, 300, 9, 2, 10, 5, 3, 256, 64)
SMALL = Scale(5, 6, 6, 10, 24, 6, 2, 7, 1, 1, 16, 16)

# (command, theorem, n) -> (universe size, achiever count).  The n = 7 and
# n = 5 sizes are re-derived from the networkx graph atlas on each run; the
# n = 8 and n = 6 values are published/pinned counts.
EXPECTED = {
    ("verify", "thm3", 7): (809, 9),
    ("lemmas", None, 7): (853, None),
    ("verify", "thm1", 8): (17, 6),
    ("verify", "thm2", 8): (159, 9),
    ("verify", "thm3", 5): (16, 2),
    ("lemmas", None, 5): (21, None),
    ("verify", "thm1", 6): (1, 1),
    ("verify", "thm2", 6): (11, 2),
}

BOUNDS = {  # theorem -> n -> (numerator, denominator)
    "thm1": lambda n: (2 * n - 5, 1),
    "thm2": lambda n: (4 * n - 8, 1),
    "thm3": lambda n: (n * n + 4 * n - 6, 4),
}


def nproc() -> int:
    return len(os.sched_getaffinity(0))


def child_env() -> dict:
    # One BLAS/OpenMP thread per child (at most nproc).  A second OpenBLAS
    # thread spins at numpy import and, when the machine lends this
    # container only one CPU for a while, preempts the main thread: on
    # 2 shared vCPUs that made start-up 37% slower in such stretches.
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = "1"
    return env


@dataclass
class Child:
    rc: int
    out: str
    wall_s: float
    rss_mb: float


def spawn(argv: list[str], stdin: bytes | None = None) -> Child:
    """Run one child to completion; wall time from spawn to reaping.

    os.wait4 gives this child's own peak RSS, unlike RUSAGE_CHILDREN,
    which keeps the largest child seen so far.
    """
    t0 = time.monotonic()
    proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                            stdin=subprocess.PIPE if stdin is not None else subprocess.DEVNULL,
                            stdout=subprocess.PIPE)
    killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
    killer.start()
    try:
        if stdin is not None:
            proc.stdin.write(stdin)
            proc.stdin.close()
        out = proc.stdout.read()
    finally:
        proc.stdout.close()
        _, status, usage = os.wait4(proc.pid, 0)
        killer.cancel()
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Child(proc.returncode, out.decode("utf-8", "replace"),
                 time.monotonic() - t0, usage.ru_maxrss / 1024)


def last_json(text: str):
    lines = text.strip().splitlines()
    return json.loads(lines[-1]) if lines else None


# ---------------------------------------------------------------- set-up

SETUP_PROBE = ("import time; import szeged.cli, szeged; "
               "print(time.monotonic(), szeged.__file__)")


def setup_probe() -> tuple[float, str]:
    """Seconds from spawning an interpreter until szeged.cli is imported,
    and the szeged.__file__ it imported.

    Refuses a szeged that does not come from the measured src/ tree.
    """
    t0 = time.monotonic()
    child = spawn([sys.executable, "-c", SETUP_PROBE])
    if child.rc != 0:
        raise SystemExit(f"cannot import szeged.cli from {SRC}")
    stamp, path = child.out.split(maxsplit=1)
    if Path(path.strip()).resolve().parent != SRC / "szeged":
        raise SystemExit(f"szeged resolves to {path.strip()}, not {SRC}")
    return float(stamp) - t0, path.strip()


def context(workload: str, seed: int, digest: str, szeged_file: str) -> dict:
    head = ROOT / ".git" / "HEAD"
    commit = None
    if head.is_file():
        ref = head.read_text().strip()
        commit = ref
        if ref.startswith("ref: "):
            ref_file = ROOT / ".git" / ref[5:]
            commit = ref_file.read_text().strip() if ref_file.is_file() else ref
    src = hashlib.sha256()
    for path in sorted((SRC / "szeged").glob("*.py")):
        src.update(path.name.encode() + path.read_bytes())
    return {
        "workload": workload, "seed": seed, "inputs_digest": digest,
        "commit": commit, "src_digest": src.hexdigest()[:16],
        "szeged_file": szeged_file,
        "nproc": nproc(), "python": sys.version.split()[0],
        "numpy": metadata.version("numpy"), "networkx": metadata.version("networkx"),
        "blas_threads": child_env()["OPENBLAS_NUM_THREADS"],
    }


# ---------------------------------------------------------------- checks

def nx_graph(n: int, edges) -> nx.Graph:
    g = nx.Graph()
    g.add_nodes_from(range(n))
    g.add_edges_from(edges)
    return g


def atlas_counts(n: int) -> tuple[int, int]:
    """(connected, connected nonbipartite) graphs on n <= 7 vertices."""
    conn = [g for g in nx.graph_atlas_g()
            if g.number_of_nodes() == n and nx.is_connected(g)]
    return len(conn), sum(1 for g in conn if not nx.is_bipartite(g))


def check_expected_against_atlas(expected: dict, n: int) -> list[str]:
    connected, nonbip = atlas_counts(n)
    errors = []
    if expected[("lemmas", None, n)][0] != connected:
        errors.append(f"atlas has {connected} connected graphs on {n} vertices")
    if expected[("verify", "thm3", n)][0] != nonbip:
        errors.append(f"atlas has {nonbip} connected nonbipartite graphs on {n}")
    return errors


def check_sweep(key, report: dict, expected: dict) -> list[str]:
    """Errors in one verify/lemmas report, empty when it is right."""
    size, achievers = expected[key]
    errors = []
    if report.get("universe_size") != size:
        errors.append(f"universe {report.get('universe_size')} != {size}")
    if key[0] == "lemmas":
        for field in ("cycle_pair_violations", "block_iff_violations",
                      "equidistant_violations"):
            if report.get(field) != []:
                errors.append(f"{field}: {report.get(field)}")
        return errors
    num, den = BOUNDS[key[1]](key[2])
    if (report.get("bound_num"), report.get("bound_den")) != (num, den):
        errors.append("bound differs from the closed form")
    if report.get("min_gap_num") != num:
        errors.append(f"min gap {report.get('min_gap_num')} != bound {num}")
    if len(report.get("achievers", ())) != achievers:
        errors.append(f"{len(report.get('achievers', ()))} achievers != {achievers}")
    for field in ("counterexamples", "predicate_mismatches"):
        if report.get(field) != []:
            errors.append(f"{field}: {report.get(field)}")
    return errors


def compute_referee(items: list[dict]) -> list[dict]:
    """What networkx says each compute-large report must contain."""
    out = []
    for item in items:
        g = nx_graph(item["n"], item["edges"])
        want = {"n": item["n"], "m": item["m"], "wiener": int(nx.wiener_index(g)),
                "bipartite": nx.is_bipartite(g)}
        for label, key, bound in inputs.FAMILIES:
            if label == item["family"]:
                want[key] = bound(item["n"])
        out.append(want)
    return out


def check_compute(result: dict, referee: list[dict]) -> list[str]:
    """One error per graph whose report disagrees with the referee."""
    rows = result.get("results", [])
    if len(rows) != len(referee):
        return [f"{len(rows)} reports for {len(referee)} graphs"] * len(referee)
    errors = []
    for i, (row, want) in enumerate(zip(rows, referee)):
        bad = {k: row["report"].get(k) for k, v in want.items() if row["report"].get(k) != v}
        if bad:
            errors.append(f"graph {i}: got {bad}, want {want}")
    return errors


def check_canon(result: dict, items: list[dict]) -> list[str]:
    """One error per call whose form breaks a rule: both labelings of a
    graph get one form, different graphs get different forms, and every
    form is isomorphic to its input."""
    rows = result.get("results", [])
    if len(rows) != len(items):
        return [f"{len(rows)} forms for {len(items)} graphs"] * len(items)
    forms: dict[int, set] = {}
    for row, item in zip(rows, items):
        forms.setdefault(item["cls"], set()).add(row["form"])
    owners: dict[str, set] = {}
    for row, item in zip(rows, items):
        owners.setdefault(row["form"], set()).add(item["cls"])
    errors = []
    for i, (row, item) in enumerate(zip(rows, items)):
        if len(forms[item["cls"]]) != 1:
            errors.append(f"call {i}: labelings of one graph differ")
        elif len(owners[row["form"]]) != 1:
            errors.append(f"call {i}: form shared by different graphs")
        elif not nx.is_isomorphic(nx_graph(item["n"], item["edges"]),
                                  nx.from_graph6_bytes(row["form"].encode())):
            errors.append(f"call {i}: form not isomorphic to its input")
    return errors


# ---------------------------------------------------------------- workloads

# Workload -> the op groups it runs.
WORKLOADS = {
    "sweep": ("n7", "n8"),
    "compute-large": ("compute",),
    "canon-single": ("canon",),
}


@dataclass
class Op:
    """One cold operation: a fresh child's command and stdin, the calls it
    makes, and the check of its parsed output (one error per failed call)."""

    name: str
    argv: list[str]
    stdin: bytes | None
    units: int
    check: Callable[[dict], list[str]]


def sweep_keys(group: str, scale: Scale) -> list[tuple]:
    if group == "n7":
        return [("verify", "thm3", scale.n7), ("lemmas", None, scale.n7)]
    return [("verify", "thm1", scale.n8), ("verify", "thm2", scale.n8)]


def cli_op(key: tuple, expected: dict) -> Op:
    kind, which, n = key
    cmd = ["verify", "--theorem", which] if kind == "verify" else ["lemmas"]
    return Op(" ".join(cmd + ["--n", str(n)]),
              [sys.executable, "-m", "szeged.cli", *cmd, "--n", str(n), "--json"],
              None, 1, lambda report: check_sweep(key, report, expected))


def child_op(name: str, task: dict, units: int, check) -> Op:
    return Op(name, [sys.executable, str(BENCH / "child.py")],
              json.dumps(task).encode(), units, check)


def build_ops(workload: str, seed: int, scale: Scale,
              expected: dict) -> tuple[list[Op], list[str], str]:
    """The workload's ops, errors found before any op runs, input digest."""
    ops, errors, made = [], [], []
    for group in WORKLOADS[workload]:
        if group in ("n7", "n8"):
            keys = sweep_keys(group, scale)
            if group == "n7":
                errors += check_expected_against_atlas(expected, scale.n7)
            ops += [cli_op(key, expected) for key in keys]
            made.append(keys)
        elif group == "compute":
            items = inputs.compute_graphs(scale.compute_count, scale.n_lo,
                                          scale.n_hi, seed)
            referee = compute_referee(items)
            texts = [it["text"] for it in items]
            ops.append(child_op("compute", {"task": "compute", "graphs": texts},
                                len(items), lambda r, ref=referee: check_compute(r, ref)))
            made.append(texts)
        else:
            items = inputs.canon_graphs(scale.canon_n, scale.canon_count,
                                        scale.canon_big_n, seed)
            ops.append(child_op("canon", {"task": "canon", "graphs": items},
                                len(items), lambda r, its=items: check_canon(r, its)))
            made.append(items)
    return ops, errors, inputs.digest(made)


def run_op(op: Op, errors: list[str]) -> tuple[Child, dict | None, int]:
    """Run one op; return the child, its parsed output and its failed calls."""
    child = spawn(op.argv, op.stdin)
    try:
        result = last_json(child.out) if child.rc == 0 else None
    except json.JSONDecodeError:
        result = None
    errs = [f"exit {child.rc}"] * op.units if result is None else op.check(result)
    errors += [f"{op.name}: {e}" for e in errs[:5]]
    return child, result, min(op.units, len(errs))


def measure(workload: str, seed: int, seconds: float, scale: Scale,
            expected: dict) -> tuple[dict, dict]:
    """Closed loop over the workload's ops until --seconds is used up.

    Ops run in a seeded shuffled order per round.  After the first full
    round, an op is started only if its last duration still fits; the
    loop ends after a round that started nothing.
    """
    rng = random.Random(seed)
    ops, errors, digest = build_ops(workload, seed, scale, expected)
    # Set-up is probed before the loop and again after every op, so that
    # its median spans the same stretch of machine time as the ops.
    setup = [setup_probe()[0] for _ in range(scale.setup_reps)]
    walls: dict[str, list[float]] = {op.name: [] for op in ops}
    call_ms: list[float] = []
    attempted = failed = 0
    peak_rss = 0.0
    deadline = time.monotonic() + seconds
    first_round = True
    while True:
        order = list(ops)
        rng.shuffle(order)
        started = 0
        for op in order:
            if not first_round and time.monotonic() + walls[op.name][-1] > deadline:
                continue
            child, result, bad = run_op(op, errors)
            started += 1
            walls[op.name].append(child.wall_s)
            peak_rss = max(peak_rss, child.rss_mb)
            attempted += op.units
            failed += bad
            if op.name == "compute" and result is not None:
                call_ms += [row["ms"] for row in result["results"]]
            setup.append(setup_probe()[0])
        if not first_round and not started:
            break
        first_round = False
    metrics = {
        "wall_s": (sum(statistics.median(w) for w in walls.values()), "s"),
        "setup_s": (statistics.median(setup), "s"),
        "peak_rss_mb": (peak_rss, "MB"),
    }
    extra = {"failed_frac": failed / attempted,
             "op_wall_s": {k: [round(x, 4) for x in v] for k, v in walls.items()},
             "errors": errors[:20], "digest": digest}
    if call_ms:
        extra.update(call_ms_p50=statistics.median(call_ms),
                     call_ms_p90=statistics.quantiles(call_ms, n=10)[8],
                     call_samples=len(call_ms))
    outcome = {"correct": not errors, "attempted": attempted, "failed": failed}
    return outcome, {"metrics": metrics, "extra": extra}


# ---------------------------------------------------------------- traced run

def _dur(span) -> float:
    return span[3] - span[2]


def _within(spans, i: int, name: str) -> bool:
    p = spans[i][1]
    while p >= 0:
        if spans[p][0] == name:
            return True
        p = spans[p][1]
    return False


def _select(spans, name: str, within: str | None = None) -> list[int]:
    return [i for i, s in enumerate(spans)
            if s[0] == name and (within is None or _within(spans, i, within))]


def _self_time(spans, i: int) -> float:
    return _dur(spans[i]) - sum(_dur(s) for s in spans if s[1] == i)


def layer_metrics(children: dict[str, dict], scale: Scale) -> dict:
    """Per-layer figures from the spans of the traced children."""
    sweeps = [children[k] for k in ("thm3", "lemmas", "thm1", "thm2")]

    def per_span(name):
        """(total seconds, span count) of `name` inside cold sweep ops."""
        idx = [(ch["spans"], i) for ch in sweeps
               for i in _select(ch["spans"], name, "op.cold")]
        return sum(_dur(sp[i]) for sp, i in idx), len(idx)

    enum = [(ch["spans"], i) for ch in sweeps
            for i in _select(ch["spans"], "enumeration.enumerate_connected", "op.cold")]
    rows_t, rows_n = 0.0, 0
    for ch in sweeps:
        sp = ch["spans"]
        for i in _select(sp, "canon.min_codes", "enumeration.enumerate_connected"):
            if _within(sp, i, "op.cold"):
                rows_t += _dur(sp[i])
                rows_n += sp[i][4]
    name_t, name_n = per_span("canon.canonical_form")
    rep_t, rep_n = per_span("invariants.index_report")
    pred_t, pred_n = per_span("extremal.predicate")

    thm3 = children["thm3"]["spans"]
    cold3 = _select(thm3, "op.cold")[0]
    canon3 = sum(_dur(thm3[i]) for i in _select(thm3, "canon.min_codes", "op.cold"))

    def batch(key, n):
        sp = children[key]["spans"]
        i = _select(sp, f"canon.batch_n{n}")[0]
        return _dur(sp[i]) / sp[i][4] * 1e6, sp[i][4]

    b7, r7 = batch("thm3", scale.n7)
    b8, r8 = batch("thm2", scale.n8)

    comp = children["compute"]["spans"]
    calls = len(_select(comp, "compute.call"))

    def per_call_ms(name, own=False):
        """Milliseconds per compute call in `name` (own: minus child spans)."""
        return sum(_self_time(comp, i) if own else _dur(comp[i])
                   for i in _select(comp, name)) / calls * 1e3

    canon = children["canon"]["spans"]

    def single_ms(n):
        idx = _select(canon, f"canon.single_n{n}")
        return sum(_dur(canon[i]) for i in idx) / len(idx) * 1e3

    reports = [children[k]["report"] for k in ("thm3", "thm1", "thm2")]
    lemma = children["lemmas"]["report"]
    spans = sum(len(ch["spans"]) for ch in children.values())
    overhead = sum(len(ch["spans"]) * ch["span_cost_s"] for ch in children.values())
    traced_wall = sum(ch["wall_s"] for ch in children.values())

    def warm(key):
        sp = children[key]["spans"]
        return _dur(sp[_select(sp, "op.warm")[0]])

    return {
        "enumeration.universe_s": (sum(_dur(sp[i]) for sp, i in enum), "s"),
        "enumeration.graphs": (sum(sp[i][4] for sp, i in enum), "count"),
        "canon.enum_rows": (rows_n, "count"),
        "canon.enum_us_per_row": (rows_t / rows_n * 1e6, "us"),
        "canon.batch_us_per_row_n7": (b7, "us"),
        "canon.batch_us_per_row_n8": (b8, "us"),
        "canon.batch_rows": (r7 + r8, "count"),
        "canon.name_us_per_graph": (name_t / name_n * 1e6, "us"),
        "canon.single_ms_n9": (single_ms(scale.canon_n), "ms"),
        "canon.single_ms_n10": (single_ms(scale.canon_big_n), "ms"),
        "canon.share_thm3_n7": (canon3 / _dur(thm3[cold3]) * 100, "%"),
        "invariants.report_us_per_graph": (rep_t / rep_n * 1e6, "us"),
        "invariants.indices_ms": (per_call_ms("invariants.index_report", own=True), "ms"),
        "graphs.apsp_ms": (per_call_ms("graphs.apsp"), "ms"),
        "graphs.girth_ms": (per_call_ms("graphs.girth"), "ms"),
        "graphs.bipartite_ms": (per_call_ms("graphs.bipartite"), "ms"),
        "formats.parse_ms": (per_call_ms("formats.parse_edgelist"), "ms"),
        "extremal.predicate_us_per_graph": (pred_t / pred_n * 1e6, "us"),
        "verify.theorem_warm_s": (warm("thm3"), "s"),
        "verify.lemmas_warm_s": (warm("lemmas"), "s"),
        "cli.startup_s": (children["cli"]["startup_s"], "s"),
        "verify.counterexamples": (sum(len(r["counterexamples"]) for r in reports), "count"),
        "verify.mismatches": (sum(len(r["predicate_mismatches"]) for r in reports), "count"),
        "verify.violations": (sum(len(lemma[f]) for f in (
            "cycle_pair_violations", "block_iff_violations", "equidistant_violations")),
            "count"),
        "trace.spans": (spans, "count"),
        "trace.overhead_frac": (overhead / traced_wall, "frac"),
    }


def traced(workload: str, seed: int, scale: Scale, expected: dict) -> tuple[dict, dict]:
    """The per-layer suite: traced replays of every workload's ops."""
    errors = check_expected_against_atlas(expected, scale.n7)
    items = inputs.compute_graphs(scale.compute_count, scale.n_lo, scale.n_hi, seed)[::4]
    canon_items = inputs.canon_graphs(scale.canon_n, 1, scale.canon_big_n, seed)
    referee = compute_referee(items)

    def sweep_check(key):
        def check(result):
            errs = check_sweep(key, result["report"], expected)
            if not result.get("batch_ok", True):
                errs.append("min_codes codes disagree with isomorphism")
            return errs
        return check

    n7, n8 = scale.n7, scale.n8
    tasks = {  # name -> (task, calls, check)
        "thm3": ({"task": "verify", "which": "thm3", "n": n7, "warm": True,
                  "batch": scale.batch7, "seed": seed}, 1,
                 sweep_check(("verify", "thm3", n7))),
        "lemmas": ({"task": "lemmas", "n": n7, "warm": True}, 1,
                   sweep_check(("lemmas", None, n7))),
        "thm1": ({"task": "verify", "which": "thm1", "n": n8}, 1,
                 sweep_check(("verify", "thm1", n8))),
        "thm2": ({"task": "verify", "which": "thm2", "n": n8,
                  "batch": scale.batch8, "seed": seed}, 1,
                 sweep_check(("verify", "thm2", n8))),
        "compute": ({"task": "compute", "graphs": [it["text"] for it in items]},
                    len(items), lambda r: check_compute(r, referee)),
        "canon": ({"task": "canon", "graphs": canon_items}, len(canon_items),
                  lambda r: check_canon(r, canon_items)),
    }
    children: dict[str, dict] = {}
    attempted = failed = 0
    for name, (task, units, check) in tasks.items():
        op = child_op(f"traced {name}", {**task, "trace": True}, units, check)
        child, result, bad = run_op(op, errors)
        if result is None:
            raise SystemExit(f"traced {name} failed: {errors[-1]}")
        result["wall_s"] = child.wall_s
        children[name] = result
        attempted += units
        failed += bad
    startups = []
    for _ in range(scale.cli_reps):
        child = spawn([sys.executable, "-m", "szeged.cli", "verify", "--theorem",
                       "thm1", "--n", "6", "--json"])
        report = last_json(child.out) if child.rc == 0 else None
        if report is None or report.get("universe_size") != 1:
            raise SystemExit("cli start-up probe failed")
        startups.append(child.wall_s - report["elapsed_ms"] / 1000)
    children["cli"] = {"startup_s": statistics.median(startups), "spans": [],
                       "span_cost_s": 0.0, "wall_s": 0.0}
    metrics = layer_metrics(children, scale)
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"trace-{workload}-{seed}.json"
    spans_path.write_text(json.dumps(
        {name: ch["spans"] for name, ch in children.items() if ch["spans"]}))
    extra = {"failed_frac": failed / attempted, "errors": errors[:20],
             "traced_wall_s": {k: round(ch["wall_s"], 4) for k, ch in children.items()
                               if ch["wall_s"]},
             "spans_file": str(spans_path.relative_to(ROOT)),
             "digest": inputs.digest([it["text"] for it in items] + [canon_items])}
    outcome = {"correct": not errors, "attempted": attempted, "failed": failed}
    return outcome, {"metrics": metrics, "extra": extra}


# ---------------------------------------------------------------- entry

def run(workload, seed, seconds, trace, scale=FULL, expected=EXPECTED) -> dict:
    if trace:
        outcome, body = traced(workload, seed, scale, expected)
    else:
        outcome, body = measure(workload, seed, seconds, scale, expected)
    extra = body["extra"]
    summary = {**context(workload, seed, extra.pop("digest"), setup_probe()[1]), **extra}
    metrics = {k: {"value": v, "unit": u} for k, (v, u) in body["metrics"].items()}
    return {"summary": summary, "result": {**outcome, "metrics": metrics}}


def self_check() -> int:
    """Small-n run of every mode: metric names match BENCHMARK.json and a
    corrupted expected value is caught."""
    def expect(ok: bool, what) -> None:
        if not ok:
            raise SystemExit(f"self-check failed: {what}")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"] for m in spec["end_to_end"]}
    layer = {m["name"] for m in spec["per_layer"]}
    for workload in WORKLOADS:
        res = run(workload, 1, 1, 0, SMALL)["result"]
        expect(set(res["metrics"]) == e2e, (workload, set(res["metrics"]) ^ e2e))
        expect(res["correct"] and res["failed"] == 0, (workload, res))
    res = run("sweep", 1, 1, 1, SMALL)["result"]
    expect(set(res["metrics"]) == layer, set(res["metrics"]) ^ layer)
    expect(res["correct"] and res["failed"] == 0, res)
    corrupt = dict(EXPECTED)
    size, achievers = corrupt[("verify", "thm1", SMALL.n8)]
    corrupt[("verify", "thm1", SMALL.n8)] = (size, achievers + 1)
    out = run("sweep", 1, 1, 0, SMALL, corrupt)
    expect(not out["result"]["correct"] and out["summary"]["failed_frac"] > 0, out)
    print("self-check ok")
    return 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--self-check", action="store_true",
                    help="quick small-n check of the benchmark itself")
    args = ap.parse_args(argv)
    if not (SRC / "szeged" / "__init__.py").is_file():
        print(f"error: no szeged package under {SRC}", file=sys.stderr)
        return 2
    if args.self_check:
        return self_check()
    if args.workload is None:
        ap.error("--workload is required")
    out = run(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(out["summary"]))
    print(json.dumps(out["result"]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
