"""Input-cone similarity scoring, standardized per-FF composites, and the
similarity-plus-SCC identification pipeline.

The similarity between two cones is a recursive shape comparison: mismatched
kinds score 0, matched leaves score 1, and interior nodes score
``(1 + sum of greedily matched child similarities) / (1 + max child count)``.
The greedy match repeatedly takes the best-scoring pair of unmatched children,
the first in row-major order among equal scores.

Cones are interned by shape, so similarities are evaluated once per pair of
distinct root shapes (replicated bits and data words share one), and the
similarity features are computed once per distinct root shape and copied to
its flip-flops; nothing is indexed by pairs of flip-flops.  Shapes are
interned bottom-up without building cone trees: a memo per call holds, for
each depth left and each net, the net's (kind, effective net after BUFs,
shape id), so a net reached by many cones at one depth is interned once.

Every shape also has a class: its kind plus the sorted classes of its
children.  Two shapes score exactly 1.0 iff they share a class (children
listed in another order give another shape id but the same class), and the
greedy match takes every 1.0 pair before any smaller one.  So children of one
class are matched up front, and only the residual children, which share no
class, go to the greedy match.  Each shape keeps its children's classes,
their ranks within their class and the count per class, so the pre-match of
a pair reads them instead of counting classes again.

Pair similarities are filled bottom-up, not by recursion.  A walk down from
the requested pairs pre-matches each pair's children by class, memoizes kind
mismatches, pairs of one class and pairs with no residual on one side at
once, and buckets every other missing pair by height; it goes on only into
residual x residual child pairs, which are lower than the pair itself.
Buckets are evaluated in ascending height, each in stacks of residual
matrices gathered from the memo and padded with -inf to the stack's largest
residual counts, and one vectorized greedy match (an ``argmax`` per round
over every matrix of the stack, its sum started from the pre-matched count)
scores a whole stack.

Shape ids depend only on structure, so one shape table can score several
netlists, and ``_ShapeTable.carry_cones`` interns once the cones that all of
them drive alike.  ``_similarity_features`` and ``_zscore_table`` compute
the features and their standardization, so a table composed from them is
the one ``zscores`` gives.  The z-score table is cached on the netlist per
``RelicParams``, next to its support and FF graph, so ``zscores`` and
``relic_tarjan`` on one netlist score its cones once.
"""

from __future__ import annotations

import csv
import io
import itertools
from collections import Counter
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional, Sequence

import numpy as np

from .graph import (
    build_ff_graph,
    control_signals,
    tarjan_scc,
    _bits,
    _net_support,
)
from .netlist import Gate, Netlist


@dataclass(frozen=True)
class RelicParams:
    depth_limit: int = 6
    top_k: int = 5

    def __post_init__(self):
        if self.depth_limit < 0:
            raise ValueError(f"RelicParams.depth_limit must be >= 0, got {self.depth_limit}")
        if self.top_k < 1:
            raise ValueError(f"RelicParams.top_k must be >= 1, got {self.top_k}")


# Weights of the standardized features (f1, f2, f3, f4) in the composite.
WEIGHTS = (1.0, 1.0, 0.5, 0.5)


# Most entries (pairs x rows x columns) one greedy-match stack holds (128 KB
# of float64); a larger bucket of pairs is split over several stacks.
MAX_STACK = 16384


class _ShapeTable:
    """Interns cone shapes (kinds + child order) and memoizes similarities.

    Shape ids depend only on structure, so one table can score several
    netlists and evaluates each pair of shapes once across all of them;
    ``carry_cones`` interns cones that every later netlist shares (the
    design's D-cones in a tuning run) once, and ``cone_ids`` reads them back.
    Every shape also gets a class id, its kind plus the sorted class ids of
    its children: shapes whose children are the same up to order share a
    class, and two shapes score exactly 1.0 iff they share one (see
    ``_fill``).  Each shape keeps its children's class data once: their
    classes in child order, each child's rank among the earlier children of
    its class, and the count per class, from which ``_residual`` reads the
    children the class pre-match leaves over.  ``_fill`` evaluates the pairs
    a request needs bottom-up: children of one class are matched up front,
    pairs with unmatched children on both sides are bucketed by height, and
    every bucket is matched in stacks padded to their largest residual
    matrix, one vectorized greedy match per stack.
    """

    def __init__(self):
        self._ids: dict = {}
        self._class_ids: dict = {}
        self.nodes: list = []
        self.heights: list = []  # 0 for a leaf, else 1 + the largest child height
        self.classes: list = []  # class id per shape
        # per shape: (child classes, child ranks within their class, count
        # per child class), see ``_residual``
        self.class_data: list = []
        # (smaller id, larger id) -> similarity, or while ``_fill`` runs the
        # (rows, columns) residual children of a pending pair
        self._memo: dict = {}
        # (depth, net) -> shape id of a cone that every netlist scored on
        # this table drives alike (see ``carry_cones``)
        self._carried: dict = {}

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
            child_classes = tuple(classes[c] for c in child_ids)
            counts: dict = {}
            ranks = []
            for c in child_classes:
                n = counts.get(c, 0)
                ranks.append(n)
                counts[c] = n + 1
            self.class_data.append((child_classes, tuple(ranks), counts))
            class_key = (kind, tuple(sorted(child_classes)))
            classes.append(self._class_ids.setdefault(class_key, len(self._class_ids)))
        return cid

    def cone_ids(
        self, nl: Netlist, roots: Sequence[str], depth_limit: int, carried: bool = True
    ) -> list:
        """Shape id of each root net's depth-limited input cone, built
        bottom-up from a per-call memo (see ``_intern_cone``), or, with
        ``carried``, read from the cones ``carry_cones`` interned."""
        if depth_limit < 0:
            raise ValueError(f"depth_limit must be >= 0, got {depth_limit}")
        memo = [{} for _ in range(depth_limit + 1)]
        carried = self._carried if carried else {}
        ids = []
        for net in roots:
            cid = carried.get((depth_limit, net))
            if cid is None:
                cid = _intern_cone(self, nl.driver, memo, net, depth_limit)[2]
            ids.append(cid)
        return ids

    def carry_cones(self, nl: Netlist, roots: Sequence[str], depth_limit: int) -> list:
        """Intern the cones of ``roots`` in ``nl`` once, so that ``cone_ids``
        on a later netlist reads their ids instead of walking them again;
        returns their ids.

        Valid only while every netlist scored on this table afterwards
        drives each of these cones' nets as ``nl`` does.
        """
        ids = self.cone_ids(nl, roots, depth_limit)
        self._carried.update(zip([(depth_limit, net) for net in roots], ids))
        return ids

    def shape_sims(self, ids: Sequence[int]) -> np.ndarray:
        """The len(ids) x len(ids) matrix of the similarities of the
        distinct shapes ``ids`` (in ascending order), each pair evaluated
        once."""
        self._fill(list(itertools.combinations(ids, 2)))
        memo = self._memo
        sims = [[1.0 if x == y else memo[min(x, y), max(x, y)] for y in ids] for x in ids]
        return np.array(sims)

    def _fill(self, keys: Sequence[tuple]) -> None:
        """Memoize the similarity of every (smaller id, larger id) pair in
        ``keys`` and of every child pair it depends on.

        The greedy match takes every 1.0 entry of a pair's child matrix
        before any smaller one, and the 1.0 entries are the child pairs of
        one class.  So a walk down from ``keys`` pre-matches each pair's
        children as the greedy would: rows in order, each taking the first
        free column of its class (``_residual``).  The residual rows and
        columns left over share no class.  The walk writes kind mismatches
        (0) and pairs of one class (1.0: every child pre-matched) at once,
        and so pairs with no residual on one side (``(1 + matched) / (1 +
        max child count)``, such as a leaf against a gate).  Every other
        missing pair is marked pending with its residual children, in a
        bucket keyed by the larger of the two heights, and the walk goes on
        only into its residual x residual child pairs.  Child pairs are
        lower than their pair, so buckets evaluated in ascending height find
        every child similarity memoized.

        A bucket's pairs, sorted by residual counts (r_a, r_b), are cut into
        chunks of at most ``MAX_STACK`` entries once each matrix is padded
        to the chunk's largest r_a and r_b.  The padding is -inf, so the
        greedy never picks it while a real entry is free, and every
        matrix's real picks keep their row-major first-max order; a pick of
        -inf adds exactly 0.0.  A stack's greedy match starts its sums from
        the pre-matched counts, the exact sums of the 1.0 picks, so it adds
        in the order of a greedy match over the whole child matrix.

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
        class_data = self.class_data
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
            if classes[ca] == classes[cb]:
                memo[key] = 1.0
                continue
            res_a, res_b = _residual(ch_a, ch_b, class_data[ca], class_data[cb])
            if not res_a or not res_b:
                matched = len(ch_a) - len(res_a)
                memo[key] = (1.0 + matched) / (1.0 + max(len(ch_a), len(ch_b)))
                continue
            memo[key] = (res_a, res_b)
            buckets.setdefault(max(heights[ca], heights[cb]), []).append(key)
            for x in set(res_a):
                for y in set(res_b):
                    child = (x, y) if x < y else (y, x)
                    if child not in memo:
                        todo.append(child)
        for height in sorted(buckets):
            sized = sorted((len(memo[key][0]), len(memo[key][1]), key) for key in buckets[height])
            chunks = [[]]
            top_a = top_b = 0
            for r_a, r_b, key in sized:
                top_a, top_b = max(top_a, r_a), max(top_b, r_b)
                if chunks[-1] and (len(chunks[-1]) + 1) * top_a * top_b > MAX_STACK:
                    chunks.append([])
                    top_a, top_b = r_a, r_b
                chunks[-1].append(key)
            while chunks:
                chunk = chunks.pop()
                stack = self._gather(chunk)
                if stack is None:
                    half = len(chunk) // 2
                    chunks += [chunk[:half], chunk[half:]]
                    continue
                counts = np.array(
                    [(len(nodes[a][1]), len(nodes[b][1]), len(memo[a, b][0])) for a, b in chunk]
                )
                matched = _greedy_match_batch(stack, counts[:, 0] - counts[:, 2])
                values = (1.0 + matched) / (1.0 + counts[:, :2].max(axis=1))
                memo.update(zip(chunk, values.tolist()))

    def _gather(self, pairs: Sequence[tuple]) -> Optional[np.ndarray]:
        """The (len(pairs), r_a, r_b) stack of residual child similarity
        matrices of pending pairs, each padded with -inf to the largest
        residual row count r_a and column count r_b among them, read from
        the memo through a lookup over the distinct residual child shapes
        of the rows and of the columns.

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
        # the stack's pairs, so none is pending.  The last row and column
        # are the -inf padding.
        lookup = np.full((len(ua) + 1, len(ub) + 1), -np.inf)
        lookup[:-1, :-1] = [[memo.get((x, y) if x < y else (y, x)) for y in ub] for x in ua]
        row_of = {x: i for i, x in enumerate(ua)}
        col_of = {y: j for j, y in enumerate(ub)}
        pad_a = [len(ua)] * max(map(len, rows_of))
        pad_b = [len(ub)] * max(map(len, cols_of))
        rows = np.array(
            [[row_of[x] for x in ch] + pad_a[len(ch) :] for ch in rows_of], dtype=np.intp
        )
        cols = np.array(
            [[col_of[y] for y in ch] + pad_b[len(ch) :] for ch in cols_of], dtype=np.intp
        )
        return lookup[rows[:, :, None], cols[:, None, :]]


def _residual(ch_a: tuple, ch_b: tuple, data_a: tuple, data_b: tuple) -> tuple:
    """The children of ``ch_a`` and of ``ch_b`` (in order) that the greedy
    match does not pair with a child of their own class: per class, all but
    the first min(count in ch_a, count in ch_b) on each side.  ``data_a``
    and ``data_b`` are the shapes' ``_ShapeTable.class_data`` entries."""
    cls_a, rank_a, count_a = data_a
    cls_b, rank_b, count_b = data_b
    get_a = count_a.get
    get_b = count_b.get
    res_a = tuple([x for x, c, r in zip(ch_a, cls_a, rank_a) if r >= get_b(c, 0)])
    res_b = tuple([y for y, c, r in zip(ch_b, cls_b, rank_b) if r >= get_a(c, 0)])
    return res_a, res_b


def _intern_cone(table: _ShapeTable, driver: dict, memo: list, net: str, depth: int) -> tuple:
    """(kind, effective net after BUFs, shape id) of ``net``'s cone with
    ``depth`` gate levels left.

    The cone stops at PIs, FF Qs, constants and the depth limit; BUFs are
    transparent and take no depth.  ``memo[depth]`` maps nets to their
    entries; a gate looks its inputs up there before walking them.
    Children sort by (kind, net); equal (kind, net) at one depth means
    equal shape.
    """
    level = memo[depth]
    hit = level.get(net)
    if hit is not None:
        return hit
    drv = driver[net]
    if drv.__class__ is not Gate:
        kind = "PI" if drv == "input" else "CONST" if drv == "const" else "FF"
        entry = (kind, net, table.intern(kind, ()))
    elif drv.kind == "BUF":
        entry = _intern_cone(table, driver, memo, drv.ins[0], depth)
    elif depth == 0:
        entry = (drv.kind, net, table.intern(drv.kind, ()))
    else:
        below = memo[depth - 1]
        children = sorted(
            [below.get(n) or _intern_cone(table, driver, memo, n, depth - 1) for n in drv.ins]
        )
        entry = (drv.kind, net, table.intern(drv.kind, tuple([c[2] for c in children])))
    level[net] = entry
    return entry


def _greedy_match_batch(sims: np.ndarray, start=0.0) -> np.ndarray:
    """Per (k_a, k_b) matrix of the (B, k_a, k_b) stack ``sims`` (values in
    [0, 1], or -inf for padding; may be overwritten), ``start`` (a scalar or
    one value per matrix) plus the greedily matched similarities: take the
    largest entry whose row and column are both free, the first in
    row-major order among equals.

    Every round takes each matrix's ``argmax`` over its flattened entries,
    the first maximum in row-major order, adds it, and masks its row and
    column with -inf, so the picks and their sums are made in that order.
    A matrix with no free entry left picks -inf, which adds exactly 0.0; the
    rounds stop once every matrix does.
    """
    n, k_a, k_b = sims.shape
    flat = sims.reshape(n, k_a * k_b)
    grid = flat.reshape(n, k_a, k_b)  # a view of ``flat``, copied or not
    which = np.arange(n)
    matched = np.full(n, start, dtype=float)
    for _ in range(min(k_a, k_b)):
        pick = flat.argmax(axis=1)
        best = flat[which, pick]
        if best.max() == -np.inf:
            break
        matched += np.maximum(best, 0.0)
        rows, cols = np.divmod(pick, k_b)
        grid[which, rows, :] = -np.inf
        grid[which, :, cols] = -np.inf
    return matched


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


def _similarity_features(shapes: _ShapeTable, cids: Sequence[int], top_k: int) -> np.ndarray:
    """The (len(cids), 2) array of f1 (1 - the largest similarity to another
    FF) and f2 (1 - the mean of the ``top_k`` largest, at most all n - 1) of
    FFs whose cones have the shape ids ``cids``.

    Both are computed once per distinct shape s, from its similarity to every
    distinct shape t taken count(t) times, one fewer for t = s (the FF
    itself), and copied to the FFs of shape s.  No shape gives more than k of
    the k largest values, so each is repeated at most k times and one sort
    gives them in descending order: the values a sort of the FF's row of the
    FF x FF similarity matrix would give.  They are kept contiguous so that
    each mean adds them in that order.
    """
    ids = sorted(set(cids))
    row_of = {cid: i for i, cid in enumerate(ids)}
    rows = np.array([row_of[cid] for cid in cids])
    others = np.bincount(rows, minlength=len(ids)) - np.eye(len(ids), dtype=np.intp)
    sims = shapes.shape_sims(ids)
    k = min(top_k, len(cids) - 1)
    copies = np.minimum(others, k)
    top = np.array([np.sort(np.repeat(sims[i], copies[i]))[::-1][:k] for i in range(len(ids))])
    return np.column_stack([1.0 - top[:, 0], 1.0 - top.mean(axis=1)])[rows]


def _zscore_table(
    ffs: tuple,
    similarity: np.ndarray,
    control_masks: Sequence[int],
    ff_bit: Mapping[str, int],
    on_cycle: frozenset,
) -> ZScoreTable:
    """The z-score table of the FFs ``ffs`` (sorted names) from their f1 and
    f2 columns ``similarity`` (in ``ffs`` order, see
    ``_similarity_features``), the FF mask of every control signal (bit
    ``ff_bit[name]`` stands for FF ``name``) and the FFs on a feedback
    path."""
    feats = np.zeros((len(ffs), 4))
    feats[:, :2] = similarity
    touched = Counter(i for mask in control_masks for i in _bits(mask))
    if control_masks:
        feats[:, 2] = [touched[ff_bit[name]] / len(control_masks) for name in ffs]
    feats[:, 3] = [1.0 if name in on_cycle else 0.0 for name in ffs]
    zcols = np.column_stack([_standardize(feats[:, j]) for j in range(4)])
    scores = zcols @ np.asarray(WEIGHTS)
    return ZScoreTable(
        ffs=ffs,
        scores=MappingProxyType({f: float(scores[i]) for i, f in enumerate(ffs)}),
        raw_features=MappingProxyType({f: tuple(feats[i]) for i, f in enumerate(ffs)}),
        z_features=MappingProxyType({f: tuple(zcols[i]) for i, f in enumerate(ffs)}),
    )


def zscores(
    nl: Netlist,
    params: RelicParams = RelicParams(),
    *,
    shapes: Optional[_ShapeTable] = None,
) -> ZScoreTable:
    """Per-FF standardized composite; higher means more state-register-like.

    Features: f1 cone uniqueness (1 - max similarity), f2 neighborhood
    uniqueness (1 - mean of top-k similarities), f3 fraction of control
    signals structurally influenced, f4 presence of any feedback path.  f1
    and f2 are computed once per distinct cone shape
    (``_similarity_features``).  ``shapes`` is the shape table to score
    against (a fresh one by default).  Cached on the netlist per
    ``params``; the table's mappings are read-only.
    """
    if len(nl.ffs) < 2:
        raise ValueError("scoring needs at least two flip-flops")
    key = ("zscores", params)
    cached = nl._cache.get(key)
    if cached is not None:
        return cached
    ffs = tuple(sorted(f.name for f in nl.ffs))
    shapes = _ShapeTable() if shapes is None else shapes
    cids = shapes.cone_ids(nl, [nl.ff_by_name(name).d for name in ffs], params.depth_limit)
    support = _net_support(nl)
    table = _zscore_table(
        ffs,
        _similarity_features(shapes, cids, params.top_k),
        [support.ff_mask(c) for c in control_signals(nl)],
        support.ff_bit,
        build_ff_graph(nl).on_cycle,
    )
    nl._cache[key] = table
    return table


@dataclass
class AttackResult:
    attack: str
    identified: frozenset
    selected_scc: Optional[int] = None
    argmax_ff: Optional[str] = None
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

    Returns (argmax_ff, identified members, scc index or None).
    Ties on the score break toward the smallest FF name.
    """
    best = max(scores.values())
    ff = min(f for f, s in scores.items() if s == best)
    for i, members in enumerate(sccs):
        if ff in members:
            return ff, frozenset(members), i
    return ff, frozenset([ff]), None


def relic_tarjan(
    nl: Netlist,
    params: RelicParams = RelicParams(),
    truth=None,
) -> AttackResult:
    """Score every FF, pick the top one, identify its whole component."""
    table = zscores(nl, params)
    report = tarjan_scc(build_ff_graph(nl))
    ff, identified, scc_i = select_scc_by_z(table.scores, report.sccs)
    result = AttackResult(
        attack="relic_tarjan",
        identified=identified,
        selected_scc=scc_i,
        argmax_ff=ff,
    )
    if truth is not None:
        with_metrics(result, truth)
    return result
