"""Per-layer timings for the traced run, from wrappers the benchmark installs.

`Tracer.install()` replaces the public functions of rotdist's modules
(`cli`, `graphs`, `elimtree`, `fpt`, `flip`) with timing wrappers, in the
namespaces their callers look them up in; `uninstall()` puts the
originals back.  Nothing inside rotdist changes.  Each operation's spans
are summed into one record, filed under the operation's verdict, and
`metrics()` turns the records into the per-layer figures.
"""

from __future__ import annotations

import time
from collections import defaultdict

from rotdist import cli, elimtree, flip, fpt, graphs

# (module or class, attribute, span name).  fpt and flip import `rotate`
# and `is_connected` by name, so those are wrapped in the importer's
# namespace, which also splits rotate calls by caller.
_SPANS = (
    (cli, "main", "cli.main"),
    (graphs, "load_graph", "cli.load_graph"),
    (elimtree, "load_tree", "cli.load_tree"),
    (elimtree, "validity_violations", "cli.validate"),
    (fpt.Decision, "to_json_dict", "cli.explain_dump"),
    (graphs, "is_connected", "graphs.is_connected"),
    (fpt, "is_connected", "fpt.is_connected"),
    (fpt, "compute_marking", "fpt.pipeline"),
    (fpt, "classify_bad", "fpt.classify_bad"),
    (fpt, "compute_bcb", "fpt.compute_bcb"),
    (fpt, "components", "fpt.components"),
    (fpt, "check_early_no", "fpt.check_early_no"),
    (fpt, "compute_types", "fpt.compute_types"),
    (fpt, "premark", "fpt.premark"),
    (fpt, "mark", "fpt.mark"),
    (fpt, "rotate", "rotate.fpt"),
    (flip, "rotate", "rotate.flip"),
    (flip.FlipGraph, "distances_from", "flip.distances_from"),
)

_FPT_STAGES = ("classify_bad", "compute_bcb", "components", "check_early_no",
               "compute_types", "premark", "mark")


class Tracer:
    """Sums the time and calls of every wrapped function, per operation."""

    def __init__(self):
        self.records: list[tuple[str, dict]] = []
        self._op: dict = defaultdict(float)
        self._saved: list[tuple[object, str, object]] = []

    def _timed(self, fn, name: str):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._op[name] += time.perf_counter() - t0
                self._op[name + "#"] += 1
        return wrapper

    def _decide(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            dec = fn(*args, **kwargs)
            op = self._op
            op["fpt.decide"] += time.perf_counter() - t0
            op["fpt.decide#"] += 1
            op["nodes"] += dec.stats.get("nodes_expanded", 0)
            op["memo_hits"] += dec.stats.get("memo_hits", 0)
            op["ball"] += len(dec.ball.vertices) if dec.ball else 0
            op["marked"] += len(dec.marked)
            op["types"] += len(dec.table) if dec.table else 0
            op["early"] += dec.early_no is not None
            return dec
        return wrapper

    def _enumerate(self, fn):
        def wrapper(*args, **kwargs):
            t0 = time.perf_counter()
            fg = fn(*args, **kwargs)
            self._op["flip.enumerate_all"] += time.perf_counter() - t0
            self._op["trees"] += len(fg)
            self._op["arcs"] += sum(len(a) for a in fg.adj.values())
            return fg
        return wrapper

    def install(self) -> None:
        for owner, attr, name in _SPANS:
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, self._timed(orig, name))
        for owner, attr, wrap in ((fpt, "fpt_decide", self._decide),
                                  (flip, "enumerate_all", self._enumerate)):
            orig = getattr(owner, attr)
            self._saved.append((owner, attr, orig))
            setattr(owner, attr, wrap(orig))

    def uninstall(self) -> None:
        while self._saved:
            owner, attr, orig = self._saved.pop()
            setattr(owner, attr, orig)

    def begin(self) -> None:
        self._op = defaultdict(float)

    def end(self, bucket: str) -> None:
        """File the operation's spans under yes, no, early (a NO by
        certificate), table, or failed."""
        self.records.append((bucket, self._op))

    def metrics(self, overhead_pct: float) -> dict[str, tuple[float, str]]:
        """Per-layer figures: means per operation of the kind that runs them."""
        def of(buckets):
            return [r for b, r in self.records if b in buckets]

        def mean(recs, f):
            return sum(f(r) for r in recs) / len(recs) if recs else 0.0

        def ratio(recs, num, den):
            d = sum(den(r) for r in recs)
            return sum(num(r) for r in recs) / d if d else 0.0

        decisions = of(("yes", "no", "early"))
        clis = [r for r in decisions if r["cli.main#"]]
        tables = of(("table",))
        out: dict[str, tuple[float, str]] = {
            "cli.load_ms": (mean(clis, lambda r: r["cli.load_graph"] + r["cli.load_tree"]) * 1e3, "ms"),
            "cli.validate_ms": (mean(clis, lambda r: r["cli.validate"]) * 1e3, "ms"),
            "cli.explain_dump_ms": (mean(clis, lambda r: r["cli.explain_dump"]) * 1e3, "ms"),
            "cli.overhead_ms": (mean(clis, lambda r: r["cli.main"] - r["fpt.decide"]) * 1e3, "ms"),
            "graphs.is_connected_ms": (mean(decisions, lambda r: r["graphs.is_connected"]
                                            + r["fpt.is_connected"]) * 1e3, "ms"),
        }
        for stage in _FPT_STAGES:
            out[f"fpt.{stage}_ms"] = (mean(decisions, lambda r: r[f"fpt.{stage}"]) * 1e3, "ms")

        def search(r):
            return r["fpt.decide"] - r["fpt.pipeline"] - r["fpt.is_connected"]

        for verdict in ("yes", "no"):
            recs = of((verdict,))
            out.update({
                f"fpt.decide_us.{verdict}": (mean(recs, lambda r: r["fpt.decide"]) * 1e6, "us"),
                f"fpt.pipeline_ms.{verdict}": (mean(recs, lambda r: r["fpt.pipeline"]) * 1e3, "ms"),
                f"fpt.search_ms.{verdict}": (mean(recs, search) * 1e3, "ms"),
                f"fpt.nodes_expanded.{verdict}": (mean(recs, lambda r: r["nodes"]), "count"),
                f"fpt.memo_hits.{verdict}": (mean(recs, lambda r: r["memo_hits"]), "count"),
                f"fpt.memo_hit_ratio.{verdict}": (ratio(recs, lambda r: r["memo_hits"],
                                                        lambda r: r["nodes"]), "ratio"),
                f"fpt.search_us_per_node.{verdict}": (ratio(recs, search,
                                                            lambda r: r["nodes"]) * 1e6, "us"),
                f"fpt.ball_size.{verdict}": (mean(recs, lambda r: r["ball"]), "count"),
                f"fpt.marked_size.{verdict}": (mean(recs, lambda r: r["marked"]), "count"),
                f"fpt.type_count.{verdict}": (mean(recs, lambda r: r["types"]), "count"),
            })
        nos = of(("no", "early"))
        out["fpt.early_no_share"] = (mean(nos, lambda r: r["early"]), "ratio")
        for caller, recs in (("fpt", decisions), ("flip", tables)):
            out[f"elimtree.rotate_calls.{caller}"] = (
                mean(recs, lambda r: r[f"rotate.{caller}#"]), "count")
            out[f"elimtree.rotate_us.{caller}"] = (
                ratio(recs, lambda r: r[f"rotate.{caller}"],
                      lambda r: r[f"rotate.{caller}#"]) * 1e6, "us")
        out.update({
            "flip.enumerate_all_ms": (mean(tables, lambda r: r["flip.enumerate_all"]) * 1e3, "ms"),
            "flip.distances_from_ms": (mean(tables, lambda r: r["flip.distances_from"]) * 1e3, "ms"),
            "flip.trees": (mean(tables, lambda r: r["trees"]), "count"),
            "flip.arcs": (mean(tables, lambda r: r["arcs"]), "count"),
            "trace.overhead_pct": (overhead_pct, "%"),
        })
        return out
