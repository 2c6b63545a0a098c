"""Input-cone similarity scoring, standardized per-FF composites, and the
similarity-plus-SCC identification pipeline.

The similarity between two cones is a recursive shape comparison: mismatched
kinds score 0, matched leaves score 1, and interior nodes score
``(1 + sum of greedily matched child similarities) / (1 + max child count)``.
The greedy match repeatedly takes the best-scoring pair of unmatched children,
the first in row-major order among equal scores.

Cones are interned by shape, so a similarity matrix is evaluated once per
pair of distinct root shapes (replicated bits and data words share one) and
broadcast to the flip-flops; child similarities are evaluated once per pair
of distinct child shapes.  The matrix is cached on the netlist, next to its
support and FF graph, and so is the z-score table, so ``zscores`` and
``relic_tarjan`` on one netlist build each once.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .graph import (
    ConeTree,
    build_ff_graph,
    control_signals,
    has_any_fp,
    input_cone,
    tarjan_scc,
    _net_support,
)
from .netlist import Netlist


@dataclass(frozen=True)
class RelicParams:
    depth_limit: int = 6
    top_k: int = 5
    weights: tuple = (1.0, 1.0, 0.5, 0.5)


class _ShapeTable:
    """Interns cone shapes (kinds + child order) and memoizes similarities."""

    def __init__(self):
        self._ids: dict = {}
        self.nodes: list = []
        self._memo: dict = {}

    def canon(self, node) -> int:
        key = (node.kind, tuple(self.canon(c) for c in node.children))
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self.nodes)
            self._ids[key] = cid
            self.nodes.append(key)
        return cid

    def sim(self, ca: int, cb: int) -> float:
        if ca == cb:
            return 1.0
        if ca > cb:
            ca, cb = cb, ca
        hit = self._memo.get((ca, cb))
        if hit is not None:
            return hit
        kind_a, ch_a = self.nodes[ca]
        kind_b, ch_b = self.nodes[cb]
        if kind_a != kind_b:
            val = 0.0
        else:
            matched = _greedy_match(self.sims(ch_a, ch_b)) if ch_a and ch_b else 0.0
            val = (1.0 + matched) / (1.0 + max(len(ch_a), len(ch_b)))
        self._memo[(ca, cb)] = val
        return val

    def sims(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
        """The len(ids_a) x len(ids_b) matrix of shape similarities, each
        distinct pair of shapes evaluated once and broadcast."""
        ua = sorted(set(ids_a))
        ub = sorted(set(ids_b))
        distinct = np.array([[self.sim(x, y) for y in ub] for x in ua])
        distinct = distinct.reshape(len(ua), len(ub))  # also when empty
        row_of = {x: i for i, x in enumerate(ua)}
        col_of = {y: j for j, y in enumerate(ub)}
        rows = np.array([row_of[x] for x in ids_a], dtype=np.intp)
        cols = np.array([col_of[y] for y in ids_b], dtype=np.intp)
        return distinct[np.ix_(rows, cols)]


def _greedy_match(sims: np.ndarray) -> float:
    """Sum of greedily matched similarities: take the largest entry whose row
    and column are both free, the first in row-major order among equals.

    One stable sort of the negated matrix lists the entries in exactly that
    preference order, so a single scan makes the same picks in the same order.
    """
    k_a, k_b = sims.shape
    order = np.argsort(-sims, axis=None, kind="stable")
    rows, cols = np.divmod(order, k_b)
    row_free = [True] * k_a
    col_free = [True] * k_b
    left = min(k_a, k_b)
    matched = 0.0
    for i, j, v in zip(rows.tolist(), cols.tolist(), sims.ravel()[order].tolist()):
        if row_free[i] and col_free[j]:
            matched += v
            row_free[i] = col_free[j] = False
            left -= 1
            if not left:
                break
    return matched


def pair_similarity(a: ConeTree, b: ConeTree) -> float:
    """Similarity in [0, 1] between two cones built with equal depth limits."""
    if a.depth_limit != b.depth_limit:
        raise ValueError("cones must be built with the same depth limit")
    table = _ShapeTable()
    return table.sim(table.canon(a.root), table.canon(b.root))


@dataclass
class SimilarityMatrix:
    ffs: tuple
    values: np.ndarray
    depth_limit: int

    def of(self, a: str, b: str) -> float:
        ia = self.ffs.index(a)
        ib = self.ffs.index(b)
        return float(self.values[ia, ib])


def similarity_matrix(nl: Netlist, depth_limit: int = 6) -> SimilarityMatrix:
    """Pairwise cone similarity over all flip-flops, ordered by name.

    Cached on the netlist per depth limit; ``values`` is read-only.
    """
    key = ("similarity", depth_limit)
    cached = nl._cache.get(key)
    if cached is not None:
        return cached
    ffs = tuple(sorted(f.name for f in nl.ffs))
    table = _ShapeTable()
    cids = [table.canon(input_cone(nl, nl.ff_by_name(name).d, depth_limit).root) for name in ffs]
    values = table.sims(cids, cids)
    values.flags.writeable = False
    sm = SimilarityMatrix(ffs=ffs, values=values, depth_limit=depth_limit)
    nl._cache[key] = sm
    return sm


@dataclass(frozen=True)
class ZScoreTable:
    ffs: tuple
    scores: Mapping[str, float]
    raw_features: Mapping[str, tuple]  # ff -> (f1, f2, f3, f4)
    z_features: Mapping[str, tuple]

    def to_csv(self) -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["ff", "z", "f1", "f2", "f3", "f4"])
        for f in self.ffs:
            w.writerow([f, f"{self.scores[f]:.6f}"] + [f"{x:.6f}" for x in self.raw_features[f]])
        return out.getvalue()


def _standardize(column: np.ndarray) -> np.ndarray:
    mean = column.mean()
    std = column.std()
    if std == 0.0:
        return np.zeros_like(column)
    return (column - mean) / std


def zscores(nl: Netlist, params: RelicParams = RelicParams()) -> ZScoreTable:
    """Per-FF standardized composite; higher means more state-register-like.

    Features: f1 cone uniqueness (1 - max similarity), f2 neighborhood
    uniqueness (1 - mean of top-k similarities), f3 fraction of control
    signals structurally influenced, f4 presence of any feedback path.
    Cached on the netlist per ``params``; the table's mappings are read-only.
    """
    if len(nl.ffs) < 2:
        raise ValueError("scoring needs at least two flip-flops")
    key = ("zscores", params)
    cached = nl._cache.get(key)
    if cached is not None:
        return cached
    sim = similarity_matrix(nl, params.depth_limit)
    ffs = sim.ffs
    n = len(ffs)
    controls = sorted(control_signals(nl))
    support = _net_support(nl)
    feats = np.zeros((n, 4))
    for i, name in enumerate(ffs):
        others = np.delete(sim.values[i], i)
        k = min(params.top_k, len(others))
        top = np.sort(others)[::-1][:k]
        feats[i, 0] = 1.0 - others.max()
        feats[i, 1] = 1.0 - top.mean()
        if controls:
            touched = sum(1 for c in controls if name in support[c][0])
            feats[i, 2] = touched / len(controls)
        feats[i, 3] = 1.0 if has_any_fp(nl, name) else 0.0
    zcols = np.column_stack([_standardize(feats[:, j]) for j in range(4)])
    weights = np.asarray(params.weights)
    scores = zcols @ weights
    table = ZScoreTable(
        ffs=ffs,
        scores=MappingProxyType({f: float(scores[i]) for i, f in enumerate(ffs)}),
        raw_features=MappingProxyType({f: tuple(feats[i]) for i, f in enumerate(ffs)}),
        z_features=MappingProxyType({f: tuple(zcols[i]) for i, f in enumerate(ffs)}),
    )
    nl._cache[key] = table
    return table


@dataclass
class AttackResult:
    attack: str
    identified: frozenset
    selected_scc: Optional[int] = None
    argmax_ff: Optional[str] = None
    tie: bool = False
    sensitivity: Optional[float] = None
    precision: Optional[float] = None

    def to_csv(self, run: str = "run0") -> str:
        out = io.StringIO()
        w = csv.writer(out)
        w.writerow(["run", "selected_scc", "sensitivity", "precision", "identified..."])
        row = [
            run,
            self.selected_scc if self.selected_scc is not None else "-",
            "-" if self.sensitivity is None else f"{self.sensitivity:.6f}",
            "-" if self.precision is None else f"{self.precision:.6f}",
        ]
        row.extend(sorted(self.identified))
        w.writerow(row)
        return out.getvalue()


def evaluate(identified, truth) -> tuple:
    """(sensitivity, precision); identification succeeds at sensitivity 1.0."""
    truth = set(truth)
    if not truth:
        raise ValueError("empty ground-truth SFF set")
    identified = set(identified)
    hit = len(identified & truth)
    sensitivity = hit / len(truth)
    precision = hit / len(identified) if identified else 1.0
    return sensitivity, precision


def with_metrics(result: AttackResult, truth) -> AttackResult:
    s, p = evaluate(result.identified, truth)
    result.sensitivity = s
    result.precision = p
    return result


def select_scc_by_z(scores: Mapping[str, float], sccs: Sequence[Sequence[str]]):
    """The selection rule: take the component containing the top-scoring FF.

    Returns (argmax_ff, identified members, scc index or None, tie flag).
    Ties on the score break toward the smallest FF name.
    """
    best = max(scores.values())
    winners = sorted(f for f, s in scores.items() if s == best)
    ff = winners[0]
    tie = len(winners) > 1
    for i, members in enumerate(sccs):
        if ff in members:
            return ff, frozenset(members), i, tie
    return ff, frozenset([ff]), None, tie


def relic_tarjan(
    nl: Netlist,
    params: RelicParams = RelicParams(),
    truth=None,
) -> AttackResult:
    """Score every FF, pick the top one, identify its whole component."""
    table = zscores(nl, params)
    report = tarjan_scc(build_ff_graph(nl))
    ff, identified, scc_i, tie = select_scc_by_z(table.scores, report.sccs)
    result = AttackResult(
        attack="relic_tarjan",
        identified=identified,
        selected_scc=scc_i,
        argmax_ff=ff,
        tie=tie,
    )
    if truth is not None:
        with_metrics(result, truth)
    return result
