"""Input-cone similarity scoring, standardized per-FF composites, and the
similarity-plus-SCC identification pipeline.

The similarity between two cones is a recursive shape comparison: mismatched
kinds score 0, matched leaves score 1, and interior nodes score
``(1 + sum of greedily matched child similarities) / (1 + max child count)``.
The greedy match repeatedly takes the best-scoring pair of unmatched children,
the first in row-major order among equal scores.

Cones are interned by shape, so a similarity matrix is evaluated once per
pair of distinct root shapes (replicated bits and data words share one) and
broadcast to the flip-flops.  Shapes are interned bottom-up without building
cone trees: a memo per call holds, for each depth left and each net, the
net's (kind, effective net after BUFs, shape id), so a net reached by many
cones at one depth is interned once.  ``ConeNode`` trees (``input_cone``)
serve only ``pair_similarity`` and the tests' oracle.

Every shape also has a class: its kind plus the sorted classes of its
children.  Two shapes score exactly 1.0 iff they share a class (children
listed in another order give another shape id but the same class), and the
greedy match takes every 1.0 pair before any smaller one.  So children of one
class are matched up front, and only the residual children, which share no
class, go to the greedy match.

Pair similarities are filled bottom-up, not by recursion.  A walk down from
the requested pairs pre-matches each pair's children by class, memoizes kind
mismatches and pairs with no residual on one side at once, and buckets every
other missing pair by (height, residual counts); it goes on only into
residual x residual child pairs, which are lower than the pair itself.
Buckets are evaluated in ascending height, each in stacks of equal-size
residual matrices gathered from the memo, and one vectorized greedy match (an
``argmax`` per round over every matrix of the stack, its sum started from the
pre-matched count) scores a whole stack.

Shape ids depend only on structure, so one shape table can score several
netlists: ``obfuscate.tune_honeypot`` passes one table through ``zscores``
for all of its candidates, and the similarities of the design's cones, which
every candidate shares, are evaluated once per tuning run.  The matrix is
cached on the netlist, next to its support and FF graph, and so is the
z-score table, so ``zscores`` and ``relic_tarjan`` on one netlist build each
once.
"""

from __future__ import annotations

import csv
import io
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .graph import (
    ConeTree,
    build_ff_graph,
    control_signals,
    tarjan_scc,
    _net_support,
)
from .netlist import Netlist


@dataclass(frozen=True)
class RelicParams:
    depth_limit: int = 6
    top_k: int = 5
    weights: tuple = (1.0, 1.0, 0.5, 0.5)


# Most entries (pairs x rows x columns) one greedy-match stack holds (128 KB
# of float64); a larger bucket of pairs is split over several stacks.
# ``zscores`` sorts similarity rows in blocks of this many entries.
MAX_STACK = 16384


class _ShapeTable:
    """Interns cone shapes (kinds + child order) and memoizes similarities.

    Shape ids depend only on structure, so one table can score several
    netlists and evaluates each pair of shapes once across all of them.
    Every shape also gets a class id, its kind plus the sorted class ids of
    its children: shapes whose children are the same up to order share a
    class, and two shapes score exactly 1.0 iff they share one (see
    ``_fill``).  ``_fill`` evaluates the pairs a request needs bottom-up:
    children of one class are matched up front, pairs with unmatched
    children on both sides are bucketed by (height, residual row count,
    residual column count), and every bucket is matched in stacks, one
    vectorized greedy match per stack.
    """

    def __init__(self):
        self._ids: dict = {}
        self._class_ids: dict = {}
        self.nodes: list = []
        self.heights: list = []  # 0 for a leaf, else 1 + the largest child height
        self.classes: list = []  # class id per shape
        # (smaller id, larger id) -> similarity, or while ``_fill`` runs the
        # (rows, columns) residual children of a pending pair
        self._memo: dict = {}

    def intern(self, kind: str, child_ids: tuple) -> int:
        key = (kind, child_ids)
        cid = self._ids.get(key)
        if cid is None:
            cid = len(self.nodes)
            self._ids[key] = cid
            self.nodes.append(key)
            heights = self.heights
            heights.append(1 + max(heights[c] for c in child_ids) if child_ids else 0)
            classes = self.classes
            class_key = (kind, tuple(sorted(classes[c] for c in child_ids)))
            classes.append(self._class_ids.setdefault(class_key, len(self._class_ids)))
        return cid

    def canon(self, node) -> int:
        return self.intern(node.kind, tuple(self.canon(c) for c in node.children))

    def cone_ids(self, nl: Netlist, roots: Sequence[str], depth_limit: int) -> list:
        """Shape id of each root net's depth-limited input cone, the shape
        ``canon(input_cone(nl, root, depth_limit).root)`` interns, built
        bottom-up from a per-call memo instead of a ``ConeNode`` tree."""
        depth = max(depth_limit, 0)
        memo = [{} for _ in range(depth + 1)]
        return [_intern_cone(self, nl.driver, memo, net, depth)[2] for net in roots]

    def sim(self, ca: int, cb: int) -> float:
        if ca == cb:
            return 1.0
        key = (ca, cb) if ca < cb else (cb, ca)
        self._fill([key])
        return self._memo[key]

    def sims(self, ids_a: Sequence[int], ids_b: Sequence[int]) -> np.ndarray:
        """The len(ids_a) x len(ids_b) matrix of shape similarities, each
        distinct pair of shapes evaluated once and broadcast."""
        ua = sorted(set(ids_a))
        ub = sorted(set(ids_b))
        self._fill([(x, y) if x < y else (y, x) for x in ua for y in ub if x != y])
        memo = self._memo
        distinct = np.array(
            [[1.0 if x == y else memo[(x, y) if x < y else (y, x)] for y in ub] for x in ua]
        )
        distinct = distinct.reshape(len(ua), len(ub))  # also when empty
        row_of = {x: i for i, x in enumerate(ua)}
        col_of = {y: j for j, y in enumerate(ub)}
        rows = np.array([row_of[x] for x in ids_a], dtype=np.intp)
        cols = np.array([col_of[y] for y in ids_b], dtype=np.intp)
        return distinct[np.ix_(rows, cols)]

    def _fill(self, keys: Sequence[tuple]) -> None:
        """Memoize the similarity of every (smaller id, larger id) pair in
        ``keys`` and of every child pair it depends on.

        The greedy match takes every 1.0 entry of a pair's child matrix
        before any smaller one, and the 1.0 entries are the child pairs of
        one class.  So a walk down from ``keys`` pre-matches each pair's
        children as the greedy would: rows in order, each taking the first
        free column of its class.  The residual rows and columns left over
        share no class.  The walk writes kind mismatches (0) at once, and so
        pairs with no residual on one side (``(1 + matched) / (1 + max child
        count)``: a leaf against a gate, or two shapes of one class, 1.0).
        Every other missing pair is marked pending with its residual
        children, in a bucket keyed by the larger of the two heights and the
        residual counts (r_a, r_b), and the walk goes on only into its
        residual x residual child pairs.  Child pairs are lower than their
        pair, so buckets evaluated in ascending height find every child
        similarity memoized.  A stack's greedy match starts its sums from the
        pre-matched counts, the exact sums of the 1.0 picks, so it adds in
        the order of a greedy match over the whole child matrix.

        Why 1.0 means one class also in floating point: two shapes of one
        class score exactly 1.0, since every child is pre-matched and a sum
        of 1.0s is exact.  By induction, two shapes of different classes
        score at most ``1 - 1/P`` in real numbers, ``P`` being the product
        of ``1 + fan-in`` down a chain of each shape.  On the benchmark
        designs (depth limit up to 6, fan-in up to 167) every chain product
        is below 2**12, so that gap is at least 2**-24, while rounding moves
        a value by at most about levels x (1 + fan-in) x 2**-53 < 2**-42.
        """
        memo = self._memo
        nodes = self.nodes
        heights = self.heights
        classes = self.classes
        buckets: dict = {}
        todo = [key for key in keys if key not in memo]
        while todo:
            key = todo.pop()
            if key in memo:
                continue
            ca, cb = key
            kind_a, ch_a = nodes[ca]
            kind_b, ch_b = nodes[cb]
            if kind_a != kind_b:
                memo[key] = 0.0
                continue
            res_a, res_b = _residual(ch_a, ch_b, classes)
            if not res_a or not res_b:
                matched = len(ch_a) - len(res_a)
                memo[key] = (1.0 + matched) / (1.0 + max(len(ch_a), len(ch_b)))
                continue
            memo[key] = (res_a, res_b)
            bucket = (max(heights[ca], heights[cb]), len(res_a), len(res_b))
            buckets.setdefault(bucket, []).append(key)
            for x in set(res_a):
                for y in set(res_b):
                    child = (x, y) if x < y else (y, x)
                    if child not in memo:
                        todo.append(child)
        for (_, r_a, r_b), pairs in sorted(buckets.items()):
            per_stack = max(1, MAX_STACK // (r_a * r_b))
            chunks = [pairs[lo : lo + per_stack] for lo in range(0, len(pairs), per_stack)]
            while chunks:
                chunk = chunks.pop()
                stack = self._gather(chunk)
                if stack is None:
                    half = len(chunk) // 2
                    chunks += [chunk[:half], chunk[half:]]
                    continue
                counts = np.array([(len(nodes[ca][1]), len(nodes[cb][1])) for ca, cb in chunk])
                matched = _greedy_match_batch(stack, counts[:, 0] - r_a)
                values = (1.0 + matched) / (1.0 + counts.max(axis=1))
                memo.update(zip(chunk, values.tolist()))

    def _gather(self, pairs: Sequence[tuple]) -> Optional[np.ndarray]:
        """The (len(pairs), r_a, r_b) stack of residual child similarity
        matrices of pending pairs with equal residual counts, read from the
        memo through a lookup over the distinct residual child shapes of the
        rows and of the columns.

        None if that lookup would hold more than ``MAX_STACK`` entries and
        the pairs can be split; one pair's lookup is never larger than its
        own matrix.
        """
        memo = self._memo
        rows_of = [memo[key][0] for key in pairs]
        cols_of = [memo[key][1] for key in pairs]
        ua = sorted({x for ch in rows_of for x in ch})
        ub = sorted({y for ch in cols_of for y in ch})
        if len(ua) * len(ub) > MAX_STACK and len(pairs) > 1:
            return None
        # Child pairs that no matrix reads may be missing (or equal); they
        # become NaN and are never gathered.  Every child pair is lower than
        # the stack's pairs, so none is pending.
        lookup = np.array(
            [[memo.get((x, y) if x < y else (y, x)) for y in ub] for x in ua],
            dtype=float,
        )
        row_of = {x: i for i, x in enumerate(ua)}
        col_of = {y: j for j, y in enumerate(ub)}
        rows = np.array([[row_of[x] for x in ch] for ch in rows_of], dtype=np.intp)
        cols = np.array([[col_of[y] for y in ch] for ch in cols_of], dtype=np.intp)
        return lookup[rows[:, :, None], cols[:, None, :]]


def _residual(ch_a: tuple, ch_b: tuple, classes: list) -> tuple:
    """The children of ``ch_a`` and of ``ch_b`` (in order) that the greedy
    match does not pair with a child of their own class: per class, all but
    the first min(count in ch_a, count in ch_b) on each side."""
    cls_a = [classes[x] for x in ch_a]
    cls_b = [classes[y] for y in ch_b]
    left_a = Counter(cls_a)
    left_b = Counter(cls_b)
    res_a = []
    for x, c in zip(ch_a, cls_a):
        n = left_b.get(c)
        if n:
            left_b[c] = n - 1
        else:
            res_a.append(x)
    res_b = []
    for y, c in zip(ch_b, cls_b):
        n = left_a.get(c)
        if n:
            left_a[c] = n - 1
        else:
            res_b.append(y)
    return tuple(res_a), tuple(res_b)


def _intern_cone(table: _ShapeTable, driver: dict, memo: list, net: str, depth: int) -> tuple:
    """(kind, effective net after BUFs, shape id) of ``net``'s cone with
    ``depth`` gate levels left, as ``graph._cone_node`` would build it.

    ``memo[depth]`` maps nets to their entries.  Children sort by (kind, net)
    like ``_cone_node``'s; equal (kind, net) at one depth means equal shape.
    """
    level = memo[depth]
    hit = level.get(net)
    if hit is not None:
        return hit
    drv = driver[net]
    if drv == "input":
        entry = ("PI", net, table.intern("PI", ()))
    elif drv == "const":
        entry = ("CONST", net, table.intern("CONST", ()))
    elif hasattr(drv, "q"):
        entry = ("FF", net, table.intern("FF", ()))
    elif drv.kind == "BUF":
        entry = _intern_cone(table, driver, memo, drv.ins[0], depth)
    elif depth == 0:
        entry = (drv.kind, net, table.intern(drv.kind, ()))
    else:
        children = sorted(_intern_cone(table, driver, memo, n, depth - 1) for n in drv.ins)
        entry = (drv.kind, net, table.intern(drv.kind, tuple(c[2] for c in children)))
    level[net] = entry
    return entry


def _greedy_match_batch(sims: np.ndarray, start=0.0) -> np.ndarray:
    """Per (k_a, k_b) matrix of the (B, k_a, k_b) stack ``sims`` (values in
    [0, 1], may be overwritten), ``start`` (a scalar or one value per
    matrix) plus the greedily matched similarities: take the largest entry
    whose row and column are both free, the first in row-major order among
    equals.

    Every round takes each matrix's ``argmax`` over its flattened entries,
    the first maximum in row-major order, adds it, and masks its row and
    column with -inf, so the picks and their sums are made in that order.
    """
    n, k_a, k_b = sims.shape
    flat = sims.reshape(n, k_a * k_b)
    grid = flat.reshape(n, k_a, k_b)  # a view of ``flat``, copied or not
    which = np.arange(n)
    matched = np.full(n, start, dtype=float)
    for _ in range(min(k_a, k_b)):
        pick = flat.argmax(axis=1)
        matched += flat[which, pick]
        rows, cols = np.divmod(pick, k_b)
        grid[which, rows, :] = -np.inf
        grid[which, :, cols] = -np.inf
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


def similarity_matrix(
    nl: Netlist, depth_limit: int = 6, *, shapes: Optional[_ShapeTable] = None
) -> SimilarityMatrix:
    """Pairwise cone similarity over all flip-flops, ordered by name.

    ``shapes`` is the shape table to score against (a fresh one by default).
    Cached on the netlist per depth limit; ``values`` is read-only.
    """
    key = ("similarity", depth_limit)
    cached = nl._cache.get(key)
    if cached is not None:
        return cached
    ffs = tuple(sorted(f.name for f in nl.ffs))
    table = _ShapeTable() if shapes is None else shapes
    cids = table.cone_ids(nl, [nl.ff_by_name(name).d for name in ffs], depth_limit)
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


def zscores(
    nl: Netlist,
    params: RelicParams = RelicParams(),
    *,
    shapes: Optional[_ShapeTable] = None,
) -> ZScoreTable:
    """Per-FF standardized composite; higher means more state-register-like.

    Features: f1 cone uniqueness (1 - max similarity), f2 neighborhood
    uniqueness (1 - mean of top-k similarities), f3 fraction of control
    signals structurally influenced, f4 presence of any feedback path.
    ``shapes`` is passed on to ``similarity_matrix``.  Cached on the netlist
    per ``params``; the table's mappings are read-only.
    """
    if len(nl.ffs) < 2:
        raise ValueError("scoring needs at least two flip-flops")
    key = ("zscores", params)
    cached = nl._cache.get(key)
    if cached is not None:
        return cached
    sim = similarity_matrix(nl, params.depth_limit, shapes=shapes)
    ffs = sim.ffs
    n = len(ffs)
    k = min(params.top_k, n - 1)
    feats = np.zeros((n, 4))
    # Rows are sorted in blocks of at most MAX_STACK entries, each row with
    # its own FF masked to -inf, so no n x n copy is made.
    per_block = max(1, MAX_STACK // n)
    for lo in range(0, n, per_block):
        block = sim.values[lo : lo + per_block].copy()
        rows = np.arange(len(block))
        block[rows, rows + lo] = -np.inf
        block.sort(axis=1)
        # The k largest in descending order, contiguous so that each row's
        # mean adds them as a one-row mean would.
        top = np.ascontiguousarray(block[:, : n - k - 1 : -1])
        feats[lo : lo + len(block), 0] = 1.0 - block[:, -1]
        feats[lo : lo + len(block), 1] = 1.0 - top.mean(axis=1)
    controls = control_signals(nl)
    support = _net_support(nl)
    touched = Counter(ff for c in controls for ff in support[c][0])
    on_cycle = build_ff_graph(nl).on_cycle
    if controls:
        feats[:, 2] = [touched[name] / len(controls) for name in ffs]
    feats[:, 3] = [1.0 if name in on_cycle else 0.0 for name in ffs]
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
