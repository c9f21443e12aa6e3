"""One cold operation of the benchmark, run in its own interpreter.

Reads a JSON task on stdin, imports szeged from the checkout's src/ tree
(and refuses any other copy), runs the task, and writes one JSON object
to stdout.  With "trace": true the calls into each layer are wrapped from
outside in spans kept in memory and returned with the result; the program
itself is not modified.

Tasks:
  compute  parse_edgelist + index_report per edgelist text
  canon    canonical_form per graph
  verify   verify_theorem(which, n) cold, optionally again warm, then an
           optional _canon.min_codes batch over relabeled universe rows
  lemmas   verify_lemmas(n) cold, optionally again warm
"""

from __future__ import annotations

import json
import random
import sys
import time
from contextlib import contextmanager
from pathlib import Path

import numpy as np

SRC = Path(__file__).resolve().parent.parent / "src"
sys.path.insert(0, str(SRC))

import szeged  # noqa: E402
from szeged import _canon, formats, invariants, verify  # noqa: E402

if Path(szeged.__file__).resolve().parent != SRC / "szeged":
    sys.exit(f"szeged imported from {szeged.__file__}, not from {SRC}")


class Tracer:
    """Spans [name, parent index, start, end, count] recorded in memory."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []
        self._undo: list[tuple] = []

    @contextmanager
    def span(self, name: str, count: int = 0):
        rec = [name, self._open[-1] if self._open else -1, time.perf_counter(), 0.0, count]
        self._open.append(len(self.spans))
        self.spans.append(rec)
        try:
            yield rec
        finally:
            rec[3] = time.perf_counter()
            self._open.pop()

    def wrap(self, module, attr: str, name: str, count=None, materialize=False):
        """Replace module.attr by a spanned wrapper until restore().

        count(args) gives the span's work count; materialize drains a
        returned iterator inside the span and counts its items.
        """
        orig = getattr(module, attr)

        def wrapper(*args, **kwargs):
            with self.span(name, count(args) if count else 0) as rec:
                out = orig(*args, **kwargs)
                if materialize:
                    out = list(out)
                    rec[4] = len(out)
            return iter(out) if materialize else out

        setattr(module, attr, wrapper)
        self._undo.append((module, attr, orig))

    def restore(self):
        while self._undo:
            module, attr, orig = self._undo.pop()
            setattr(module, attr, orig)


def per_call_cost(calls: int = 20000) -> float:
    """Seconds one spanned wrapper adds to a call, measured in this process."""
    probe = Tracer()
    holder = type("Holder", (), {"f": staticmethod(lambda: None)})
    plain = holder.f
    t0 = time.perf_counter()
    for _ in range(calls):
        plain()
    t1 = time.perf_counter()
    probe.wrap(holder, "f", "probe")
    wrapped = holder.f
    for _ in range(calls):
        wrapped()
    t2 = time.perf_counter()
    return max(0.0, ((t2 - t1) - (t1 - t0)) / calls)


def install_layer_spans(tr: Tracer) -> None:
    """Span every layer call that verify and index_report make."""
    tr.wrap(_canon, "min_codes", "canon.min_codes", count=lambda a: len(a[0]))
    tr.wrap(verify, "enumerate_connected", "enumeration.enumerate_connected",
            materialize=True)
    tr.wrap(verify, "canonical_form", "canon.canonical_form")
    tr.wrap(verify, "index_report", "invariants.index_report")
    tr.wrap(verify, "apsp", "graphs.apsp")
    for which in ("thm1", "thm2", "thm3"):
        tr.wrap(verify, f"is_equality_{which}", "extremal.predicate")
    tr.wrap(invariants, "apsp", "graphs.apsp")
    tr.wrap(invariants, "girth", "graphs.girth")
    tr.wrap(invariants, "odd_girth", "graphs.girth")
    tr.wrap(invariants, "is_bipartite", "graphs.bipartite")


def run_compute(task, tr: Tracer | None) -> dict:
    out = []
    for text in task["graphs"]:
        if tr is None:
            t0 = time.perf_counter()
            report = invariants.index_report(formats.parse_edgelist(text))
            ms = (time.perf_counter() - t0) * 1000
        else:
            with tr.span("compute.call") as rec:
                with tr.span("formats.parse_edgelist"):
                    g = formats.parse_edgelist(text)
                with tr.span("invariants.index_report"):
                    report = invariants.index_report(g)
            ms = (rec[3] - rec[2]) * 1000
        out.append({"ms": ms, "report": report.to_dict()})
    return {"results": out}


def run_canon(task, tr: Tracer | None) -> dict:
    out = []
    for item in task["graphs"]:
        g = szeged.build_graph(item["n"], [tuple(e) for e in item["edges"]])
        t0 = time.perf_counter()
        if tr is None:
            form = szeged.canonical_form(g)
        else:
            with tr.span(f"canon.single_n{g.n}"):
                form = szeged.canonical_form(g)
        out.append({"ms": (time.perf_counter() - t0) * 1000,
                    "form": form.decode("ascii")})
    return {"results": out}


def _batch(task, tr: Tracer) -> dict:
    """min_codes over `batch` rows: universe graphs in two random labelings.

    Returns whether the two labelings of every graph got one code and
    distinct graphs got distinct codes.
    """
    n, which = task["n"], task["which"]
    graphs = list(szeged.enumerate_connected(verify.universe_filter(which, n)))
    rng = random.Random(task["seed"])
    picks = [rng.randrange(len(graphs)) for _ in range(task["batch"] // 2)]
    rows = []
    for k in picks:
        for _ in range(2):
            perm = list(range(n))
            rng.shuffle(perm)
            rows.append(szeged.adjacency_bits(szeged.relabel(graphs[k], perm)))
    bits = np.stack(rows)
    with tr.span(f"canon.batch_n{n}", len(rows)):
        codes = [int(c) for c in _canon.min_codes(bits, n)]
    same = all(codes[2 * i] == codes[2 * i + 1] for i in range(len(picks)))
    by_graph = {picks[i]: codes[2 * i] for i in range(len(picks))}
    distinct = len(set(by_graph.values())) == len(by_graph)
    return {"batch_ok": same and distinct, "batch_rows": len(rows)}


def run_sweep(task, tr: Tracer) -> dict:
    """Traced replay of one sweep command; untraced sweeps run the real CLI."""
    if task["task"] == "verify":
        call = lambda: verify.verify_theorem(task["which"], task["n"])  # noqa: E731
    else:
        call = lambda: verify.verify_lemmas(task["n"])  # noqa: E731
    out = {}
    with tr.span("op.cold"):
        out["report"] = call().to_dict()
    if task.get("warm"):
        with tr.span("op.warm"):
            call()
    if task.get("batch"):
        out.update(_batch(task, tr))
    return out


def main() -> int:
    task = json.load(sys.stdin)
    tr = Tracer() if task.get("trace") else None
    runner = {"compute": run_compute, "canon": run_canon,
              "verify": run_sweep, "lemmas": run_sweep}[task["task"]]
    if tr is not None:
        install_layer_spans(tr)
    try:
        result = runner(task, tr)
    finally:
        if tr is not None:
            tr.restore()
    result["file"] = szeged.__file__
    if tr is not None:
        result["spans"] = tr.spans
        result["span_cost_s"] = per_call_cost()
    json.dump(result, sys.stdout)
    return 0


if __name__ == "__main__":
    sys.exit(main())
