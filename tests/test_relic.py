import itertools
import random

import numpy as np
import pytest

from fsmtrap.graph import ConeNode, ConeTree, input_cone
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import FlipFlop, Gate, Netlist, parse
import fsmtrap.relic as relic_mod
from fsmtrap.relic import (
    RelicParams,
    _greedy_match_batch,
    _ShapeTable,
    evaluate,
    pair_similarity,
    relic_tarjan,
    select_scc_by_z,
    similarity_matrix,
    with_metrics,
    zscores,
)
from fsmtrap.synth import (
    AddOp,
    DataReg,
    DatapathSpec,
    PinRef,
    RegRef,
    SynthOptions,
    make_fsm,
    synthesize,
)
from fsmtrap.obfuscate import ReplicationPlan, replicate_state_bits

from conftest import random_seq_netlist


def leaf(kind, net="x"):
    return ConeNode(kind, net)


def node(kind, *children, net="n"):
    return ConeNode(kind, net, tuple(children))


def tree(root, depth=4):
    return ConeTree(root, depth)


def test_identical_cones_score_one():
    a = node("AND", leaf("PI"), node("OR", leaf("FF"), leaf("PI")))
    b = node("AND", leaf("PI"), node("OR", leaf("FF"), leaf("PI")))
    assert pair_similarity(tree(a), tree(b)) == 1.0


def test_kind_mismatch_scores_zero():
    assert pair_similarity(tree(leaf("PI")), tree(leaf("FF"))) == 0.0
    assert pair_similarity(tree(node("AND", leaf("PI"), leaf("PI"))), tree(node("OR", leaf("PI"), leaf("PI")))) == 0.0


def test_worked_two_thirds_example():
    # AND(a,b) vs AND(a, OR(b,c)): matched a<->a 1, b vs OR 0 -> (1+1+0)/3
    a = node("AND", leaf("PI", "a"), leaf("PI", "b"))
    b = node("AND", leaf("PI", "a"), node("OR", leaf("PI", "b"), leaf("PI", "c")))
    got = pair_similarity(tree(a, 2), tree(b, 2))
    assert got == pytest.approx(2 / 3)


def _exhaustive_similarity(a: ConeNode, b: ConeNode) -> float:
    """Oracle: same recursion, but child matching maximized over all
    injections instead of greedily."""
    if a.kind != b.kind:
        return 0.0
    if a.is_leaf and b.is_leaf:
        return 1.0
    small, big = (a.children, b.children) if len(a.children) <= len(b.children) else (b.children, a.children)
    best = 0.0
    for perm in itertools.permutations(range(len(big)), len(small)):
        total = sum(_exhaustive_similarity(small[i], big[j]) for i, j in enumerate(perm))
        best = max(best, total)
    return (1.0 + best) / (1.0 + max(len(a.children), len(b.children)))


@pytest.mark.parametrize("seed", range(10))
def test_greedy_matches_exhaustive_on_small_cones(seed):
    rng = random.Random(seed)
    kinds = ["AND", "OR", "XOR", "NOT"]
    leaves = ["PI", "FF", "CONST"]

    def gen(depth):
        if depth == 0 or rng.random() < 0.35:
            return leaf(rng.choice(leaves))
        k = rng.choice(kinds)
        n = 1 if k == "NOT" else rng.randint(2, 3)
        return node(k, *(gen(depth - 1) for _ in range(n)))

    a, b = gen(2), gen(2)
    got = pair_similarity(tree(a), tree(b))
    oracle = _exhaustive_similarity(a, b)
    assert got <= oracle + 1e-12
    assert got == pytest.approx(oracle)


def _reference_sim(nodes: list, ca: int, cb: int, memo: dict) -> float:
    """Oracle: the direct O(k^3) greedy match, which rescans every free
    (row, column) pair in row-major order for each pick."""
    if ca == cb:
        return 1.0
    if ca > cb:
        ca, cb = cb, ca
    hit = memo.get((ca, cb))
    if hit is not None:
        return hit
    kind_a, ch_a = nodes[ca]
    kind_b, ch_b = nodes[cb]
    if kind_a != kind_b:
        val = 0.0
    else:
        sims = [[_reference_sim(nodes, x, y, memo) for y in ch_b] for x in ch_a]
        matched = 0.0
        rows = set(range(len(ch_a)))
        cols = set(range(len(ch_b)))
        while rows and cols:
            best = None
            best_val = -1.0
            for i in sorted(rows):
                for j in sorted(cols):
                    if sims[i][j] > best_val:
                        best_val = sims[i][j]
                        best = (i, j)
            matched += best_val
            rows.discard(best[0])
            cols.discard(best[1])
        val = (1.0 + matched) / (1.0 + max(len(ch_a), len(ch_b)))
    memo[(ca, cb)] = val
    return val


@pytest.mark.parametrize("seed", range(8))
def test_greedy_match_bit_exact_against_reference_on_wide_cones(seed):
    # Roots of fan-in 1-40 over a pool of a dozen small and a dozen mid-size
    # shapes: child shapes repeat, and many child similarities tie (2/3, 1/2,
    # ...), so the row-major tie-break decides which children stay free.
    rng = random.Random(seed)
    leaves = [leaf(k) for k in ("PI", "FF", "CONST")]
    kinds = ["AND", "OR"]
    small = [
        node(rng.choice(kinds), *rng.choices(leaves, k=rng.randint(1, 3))) for _ in range(12)
    ]
    mid = [
        node(rng.choice(kinds), *rng.choices(small + leaves, k=rng.randint(1, 6)))
        for _ in range(12)
    ]
    cones = [node("OR", *rng.choices(small + mid, k=rng.randint(1, 40))) for _ in range(6)]
    table = _ShapeTable()
    ids = [table.canon(c) for c in cones]
    memo: dict = {}
    for a in ids:
        for b in ids:
            assert table.sim(a, b) == _reference_sim(table.nodes, a, b, memo)


def _reference_matrix(nl, depth_limit=6) -> np.ndarray:
    """Oracle: the reference greedy evaluated for every FF pair."""
    ffs = sorted(f.name for f in nl.ffs)
    table = _ShapeTable()
    cids = [table.canon(input_cone(nl, nl.ff_by_name(n).d, depth_limit).root) for n in ffs]
    memo: dict = {}
    values = np.eye(len(ffs))
    for i in range(len(ffs)):
        for j in range(i + 1, len(ffs)):
            values[i, j] = values[j, i] = _reference_sim(table.nodes, cids[i], cids[j], memo)
    return values


@pytest.mark.parametrize("profile", [(48, 12, 3, 6), (64, 16, 4, 6)])
def test_similarity_matrix_equals_all_pairs_reference(profile):
    states, width, pairs, inputs = profile
    fsm, dp = gen_benchmark(
        BenchmarkSpec(
            seed=0, n_states=states, data_width=width, n_data_pairs=pairs, n_inputs=inputs
        )
    )
    nl, _ = synthesize(fsm, dp)
    assert np.array_equal(similarity_matrix(nl).values, _reference_matrix(nl))


def _reference_greedy(sims: np.ndarray) -> float:
    """Oracle: the scalar greedy match, one stable sort of the negated matrix
    scanned for the first entry whose row and column are both free."""
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


@pytest.mark.parametrize("pool", ["ties", "uniform"])
def test_greedy_match_batch_bit_exact(pool):
    # Tie-heavy values make the row-major tie-break decide the picks; uniform
    # floats make the order of the additions decide the last bits.
    rng = np.random.default_rng(7)
    ties = np.array([0.0, 1 / 3, 0.25, 0.5, 1.0])
    shapes = [(1, 1), (1, 9), (9, 1), (2, 5), (5, 2), (7, 7), (13, 20), (20, 13), (63, 60)]
    shapes += [tuple(rng.integers(1, 25, size=2)) for _ in range(12)]
    cases = [(k_a, k_b, n) for k_a, k_b in shapes for n in (1, 2, 40)]
    cases += [(166, 167, 1), (170, 40, 3)]
    for k_a, k_b, n in cases:
        if pool == "ties":
            stack = rng.choice(ties, size=(n, k_a, k_b))
        else:
            stack = rng.random((n, k_a, k_b))
        want = [_reference_greedy(m) for m in stack]
        assert _greedy_match_batch(stack.copy()).tolist() == want, (k_a, k_b, n)


@pytest.mark.parametrize("pool", ["ties", "uniform"])
def test_greedy_match_batch_start_equals_full_matrix_reference(pool):
    # A pre-match takes m rows and columns whose only 1.0 entries pair them
    # with each other; the greedy over the full matrix takes those 1.0s and
    # then matches the residual rows and columns.  The residual's greedy,
    # started from m, must add up to the same float.
    rng = np.random.default_rng(11)
    ties = np.array([0.0, 1 / 3, 0.25, 0.5, 1.0])
    below_one = ties[:-1]
    for _ in range(60):
        r_a, r_b = (int(x) for x in rng.integers(1, 12, size=2))
        n = int(rng.integers(1, 6))
        starts = rng.integers(1, 8, size=n)
        if pool == "ties":
            residual = rng.choice(ties, size=(n, r_a, r_b))
        else:
            residual = rng.random((n, r_a, r_b))
        want = []
        for res, m in zip(residual, starts.tolist()):
            k_a, k_b = r_a + m, r_b + m
            full = rng.choice(below_one, size=(k_a, k_b))
            pre_rows = rng.choice(k_a, size=m, replace=False)
            pre_cols = rng.choice(k_b, size=m, replace=False)
            rest_rows = np.setdiff1d(np.arange(k_a), pre_rows)
            rest_cols = np.setdiff1d(np.arange(k_b), pre_cols)
            full[np.ix_(rest_rows, rest_cols)] = res
            full[pre_rows, pre_cols] = 1.0
            want.append(_reference_greedy(full))
        got = _greedy_match_batch(residual.copy(), starts)
        assert got.tolist() == want, (r_a, r_b, starts)


def test_prematch_pairs_one_class_and_matches_the_residual(monkeypatch):
    # u and v are the same children in another order: two ids, one class,
    # similarity exactly 1.0.  The parents' children pre-match u with v; v
    # (a second child of that class in ``a``) and the rest go to the greedy.
    table = _ShapeTable()
    pi, ff, const = (table.intern(k, ()) for k in ("PI", "FF", "CONST"))
    u = table.intern("AND", (pi, ff))
    v = table.intern("AND", (ff, pi))
    w = table.intern("OR", (pi, const))
    x = table.intern("OR", (pi, pi, ff))
    y = table.intern("OR", (pi, pi))
    z = table.intern("XOR", (const,))
    a = table.intern("NAND", (u, v, w, y))
    b = table.intern("NAND", (v, x, z, w, ff))
    assert u != v and table.classes[u] == table.classes[v]
    assert table.classes[a] != table.classes[b]

    stacks = []
    greedy = relic_mod._greedy_match_batch

    def spy(sims, start=0.0):
        stacks.append((sims.shape, np.asarray(start).tolist(), sims[0].tolist()))
        return greedy(sims, start)

    monkeypatch.setattr(relic_mod, "_greedy_match_batch", spy)
    got = table.sim(a, b)
    # Rows (u, v, w, y) against columns (v, x, z, w, ff): u takes v and w
    # takes w, leaving rows (v, y) against columns (x, z, ff); only y
    # against x (2 of 3 children pre-matched) scores above 0.
    assert stacks == [((1, 2, 3), [2], [[0.0, 0.0, 0.0], [0.75, 0.0, 0.0]])]
    assert (min(u, v), max(u, v)) not in table._memo
    memo: dict = {}
    assert got == _reference_sim(table.nodes, a, b, memo)
    assert _reference_sim(table.nodes, u, v, memo) == 1.0
    for p, q in itertools.product([u, v, w, x, y, z, a, b], repeat=2):
        assert table.sim(p, q) == _reference_sim(table.nodes, p, q, memo)
        assert (table.classes[p] == table.classes[q]) == (table.sim(p, q) == 1.0)


@pytest.mark.parametrize("profile", [(48, 12, 3, 6), (64, 16, 4, 6)])
@pytest.mark.parametrize("depth_limit", [0, 1, 3, 6])
def test_same_class_iff_reference_scores_one(profile, depth_limit):
    states, width, pairs, inputs = profile
    fsm, dp = gen_benchmark(
        BenchmarkSpec(
            seed=0, n_states=states, data_width=width, n_data_pairs=pairs, n_inputs=inputs
        )
    )
    nl, _ = synthesize(fsm, dp)
    table = _ShapeTable()
    ids = table.cone_ids(nl, [f.d for f in nl.ffs], depth_limit)
    table.sims(ids, ids)
    assert _no_pending(table)
    classes = table.classes
    memo: dict = {}
    for (a, b), value in table._memo.items():
        assert value == _reference_sim(table.nodes, a, b, memo)
    # Every pair of interned shapes, which takes in the memoized pairs and
    # the pre-matched child pairs the walk never evaluates.
    verdicts = set()
    for a, b in itertools.combinations(range(len(table.nodes)), 2):
        same = classes[a] == classes[b]
        assert same == (_reference_sim(table.nodes, a, b, memo) == 1.0), (a, b)
        verdicts.add(same)
    assert verdicts == ({False, True} if depth_limit >= 3 else {False})


def _no_pending(table: _ShapeTable) -> bool:
    return all(type(v) is float for v in table._memo.values())


def test_fill_order_and_chunking_do_not_change_values(monkeypatch):
    fsm, dp = gen_benchmark(
        BenchmarkSpec(seed=0, n_states=48, data_width=12, n_data_pairs=3, n_inputs=6)
    )
    nl, _ = synthesize(fsm, dp)
    roots = [nl.ff_by_name(name).d for name in sorted(f.name for f in nl.ffs)]
    want = _reference_matrix(nl)

    # Warm a table with scattered pairs before asking for the whole matrix:
    # the deepest roots against each other (larger id first), the children
    # of one root against each other, and shallow roots against deep ones.
    warm = _ShapeTable()
    ids = warm.cone_ids(nl, roots, 6)
    distinct = sorted(set(ids), key=lambda c: (-warm.heights[c], c))
    deep, shallow = distinct[:6], distinct[-6:]
    children = sorted(set(warm.nodes[deep[0]][1]))
    scattered = [(b, a) for a, b in itertools.combinations(sorted(deep), 2)]
    scattered += list(itertools.combinations(children, 2))
    scattered += list(zip(shallow, deep))
    memo: dict = {}
    for a, b in scattered:
        assert warm.sim(a, b) == _reference_sim(warm.nodes, a, b, memo)
        assert _no_pending(warm)
    got = warm.sims(ids, ids)
    assert _no_pending(warm)
    fresh = _ShapeTable()
    fresh_ids = fresh.cone_ids(nl, roots, 6)
    assert np.array_equal(got, fresh.sims(fresh_ids, fresh_ids))
    assert np.array_equal(got, want)

    for cap in (1, 7):
        monkeypatch.setattr(relic_mod, "MAX_STACK", cap)
        table = _ShapeTable()
        cids = table.cone_ids(nl, roots, 6)
        assert np.array_equal(table.sims(cids, cids), want)
        assert _no_pending(table)


def test_fill_splits_a_stack_whose_lookup_exceeds_the_cap(monkeypatch):
    # Pairs of roots with disjoint children: a stack of two 2 x 2 matrices
    # fits a cap of 8 entries, but its lookup over 4 x 4 distinct children
    # does not, so the chunk is halved; values must not change.
    table = _ShapeTable()
    leaves = [table.intern(k, ()) for k in ("PI", "FF", "CONST")]
    kinds = ("NOT", "AND", "OR", "XOR", "NAND", "NOR")
    mids = [table.intern(k, (x,)) for k in kinds for x in leaves]
    roots = [table.intern("AND", (mids[i], mids[(5 * i + 3) % len(mids)])) for i in range(8)]
    pairs = [(roots[i], roots[i + 1]) for i in range(0, 8, 2)]
    halved = []
    gather = _ShapeTable._gather

    def spy(self, chunk):
        stack = gather(self, chunk)
        halved.append(stack is None)
        return stack

    monkeypatch.setattr(relic_mod, "MAX_STACK", 8)
    monkeypatch.setattr(_ShapeTable, "_gather", spy)
    table._fill(pairs)
    assert any(halved) and _no_pending(table)
    memo: dict = {}
    for a, b in itertools.product(roots + mids, repeat=2):
        assert table.sim(a, b) == _reference_sim(table.nodes, a, b, memo)


def _expand(table: _ShapeTable, cid: int) -> tuple:
    kind, children = table.nodes[cid]
    return (kind, tuple(_expand(table, c) for c in children))


def _strip(node: ConeNode) -> tuple:
    return (node.kind, tuple(_strip(c) for c in node.children))


def _check_cone_ids(nl, depth_limit):
    """``cone_ids`` against interning the ``input_cone`` trees: the same
    shape per root, ids one-to-one, and equal similarity matrices."""
    roots = [f.d for f in sorted(nl.ffs, key=lambda f: f.name)]
    table = _ShapeTable()
    got = table.cone_ids(nl, roots, depth_limit)
    oracle = _ShapeTable()
    cones = [input_cone(nl, r, depth_limit).root for r in roots]
    want = [oracle.canon(c) for c in cones]
    assert [_expand(table, g) for g in got] == [_strip(c) for c in cones]
    assert len(set(zip(got, want))) == len(set(got)) == len(set(want))
    assert np.array_equal(table.sims(got, got), oracle.sims(want, want))


def _hand_cones_netlist() -> Netlist:
    # A BUF chain into a gate, an AND with a repeated input, and a net (r1)
    # reached at depths 1 and 3 of f0's cone.
    g = [
        Gate("b0", "BUF", "b0", ("a",)),
        Gate("b1", "BUF", "b1", ("b0",)),
        Gate("b2", "BUF", "b2", ("f1_q",)),
        Gate("rep", "AND", "rep", ("b1", "b1")),
        Gate("r1", "XOR", "r1", ("rep", "b2")),
        Gate("r2", "OR", "r2", ("r1", "c")),
        Gate("r3", "NAND", "r3", ("r2", "rep")),
        Gate("top", "AND", "top", ("r3", "r1")),
        Gate("bt", "BUF", "bt", ("top",)),
        Gate("inv", "NOT", "inv", ("r1",)),
    ]
    ffs = [
        FlipFlop("f0", q="f0_q", d="bt", clk="clk"),
        FlipFlop("f1", q="f1_q", d="inv", clk="clk"),
        FlipFlop("f2", q="f2_q", d="b2", clk="clk"),
        FlipFlop("f3", q="f3_q", d="one", clk="clk"),
        FlipFlop("f4", q="f4_q", d="r2", clk="clk"),
    ]
    return Netlist("hand", ("clk", "a", "c"), (), {"one": 1}, tuple(g), tuple(ffs))


@pytest.mark.parametrize("depth_limit", range(8))
def test_cone_ids_match_input_cone_oracle(depth_limit):
    _check_cone_ids(_hand_cones_netlist(), depth_limit)
    for seed in range(12):
        _check_cone_ids(random_seq_netlist(seed, n_ffs=8, n_gates=40), depth_limit)


@pytest.mark.parametrize("profile", [(6, 6, 1, 3), (48, 12, 3, 6)])
def test_cone_ids_match_input_cone_oracle_on_benchmarks(profile, monkeypatch):
    import fsmtrap.graph as graph_mod

    states, width, pairs, inputs = profile
    fsm, dp = gen_benchmark(
        BenchmarkSpec(
            seed=1, n_states=states, data_width=width, n_data_pairs=pairs, n_inputs=inputs
        )
    )
    nl, _ = synthesize(fsm, dp)
    for depth_limit in (0, 1, 3, 6, 7):
        _check_cone_ids(nl, depth_limit)
    want = _reference_matrix(nl)

    def no_trees(*args, **kwargs):
        raise AssertionError("similarity_matrix built a ConeNode tree")

    monkeypatch.setattr(graph_mod, "_cone_node", no_trees)
    monkeypatch.setattr(graph_mod, "ConeNode", no_trees)
    assert np.array_equal(similarity_matrix(nl).values, want)


def test_similarity_matrix_cached_per_netlist_and_depth():
    fsm, dp = gen_benchmark(BenchmarkSpec(seed=4))
    nl, _ = synthesize(fsm, dp)
    sm = similarity_matrix(nl)
    assert similarity_matrix(nl) is sm
    shallow = similarity_matrix(nl, depth_limit=3)
    assert shallow is not sm and shallow.depth_limit == 3
    assert similarity_matrix(nl, depth_limit=3) is shallow
    assert not sm.values.flags.writeable
    with pytest.raises(ValueError):
        sm.values[0, 1] = 0.5
    a, b = sm.ffs[0], sm.ffs[1]
    assert sm.of(a, b) == sm.values[0, 1]
    first, second = zscores(nl), zscores(nl)
    assert first.scores == second.scores
    assert first.raw_features == second.raw_features
    assert first.z_features == second.z_features


def test_zscores_cached_read_only_and_reused_by_relic_tarjan(monkeypatch):
    import fsmtrap.relic as relic_mod

    fsm, dp = gen_benchmark(BenchmarkSpec(seed=4))
    nl, _ = synthesize(fsm, dp)
    table = zscores(nl)
    assert zscores(nl) is table
    assert zscores(nl, RelicParams(top_k=3)) is not table
    with pytest.raises(TypeError):
        table.scores[table.ffs[0]] = 0.0
    with pytest.raises(TypeError):
        table.raw_features[table.ffs[0]] = (0.0,) * 4

    def rebuilt(*args, **kwargs):
        raise AssertionError("features rebuilt")

    monkeypatch.setattr(relic_mod, "similarity_matrix", rebuilt)
    monkeypatch.setattr(relic_mod, "_net_support", rebuilt)
    result = relic_tarjan(nl)
    assert result.argmax_ff == select_scc_by_z(table.scores, [])[0]


def _reference_features(nl, params: RelicParams) -> dict:
    """Oracle: the per-FF feature loop, one ``np.delete`` and sort per row,
    every (FF, control signal) pair tested and ``has_any_fp`` per FF."""
    from fsmtrap.graph import _net_support, control_signals, has_any_fp

    sim = similarity_matrix(nl, params.depth_limit)
    controls = sorted(control_signals(nl))
    support = _net_support(nl)
    feats = {}
    for i, name in enumerate(sim.ffs):
        others = np.delete(sim.values[i], i)
        k = min(params.top_k, len(others))
        top = np.sort(others)[::-1][:k]
        touched = sum(1 for c in controls if name in support[c][0])
        feats[name] = (
            1.0 - others.max(),
            1.0 - top.mean(),
            touched / len(controls) if controls else 0.0,
            1.0 if has_any_fp(nl, name) else 0.0,
        )
    return feats


def _controlled_netlist(seed: int) -> Netlist:
    """A random netlist with MUX selects and flip-flop enables tapping the
    gate cloud, so FFs reach different numbers of control signals."""
    rng = random.Random(seed)
    base = random_seq_netlist(seed, n_ffs=10, n_gates=40)
    nets = [g.out for g in base.gates]
    muxes = [
        Gate(f"m{k}", "MUX", f"m{k}", tuple(rng.choice(nets) for _ in range(3)))
        for k in range(4)
    ]
    ffs = [
        FlipFlop(f.name, q=f.q, d=f"m{i % 4}" if i % 2 else f.d, clk=f.clk, en=rng.choice(nets))
        if i % 3 == 0
        else f
        for i, f in enumerate(base.ffs)
    ]
    return Netlist("controlled", base.inputs, (), {}, base.gates + tuple(muxes), tuple(ffs))


@pytest.mark.parametrize("cap", [None, 40])
@pytest.mark.parametrize("top_k", [1, 5, 9, 40])
def test_zscores_features_equal_per_ff_reference(top_k, cap, monkeypatch):
    # A cap of 40 entries sorts the 36-FF designs one row per block and the
    # 10-FF netlists four rows per block.
    if cap is not None:
        monkeypatch.setattr(relic_mod, "MAX_STACK", cap)
    designs = [synthesize(*gen_benchmark(BenchmarkSpec(seed=s)))[0] for s in (1, 4)]
    designs += [_controlled_netlist(seed) for seed in range(4)]
    for nl in designs:
        for depth_limit in (1, 6):
            params = RelicParams(depth_limit=depth_limit, top_k=top_k)
            raw = zscores(nl, params).raw_features
            want = _reference_features(nl, params)
            assert {f: tuple(map(float, v)) for f, v in raw.items()} == want


def test_similarity_symmetric_reflexive_bounded():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(5)],
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 5}") for i in range(5)]
        + [(f"S{i}", {"a": 0, "b": 1}, f"S{(i + 2) % 5}") for i in range(5)],
    )
    dp = DatapathSpec(data_regs=(DataReg("acc", 5, AddOp(RegRef("acc"), PinRef("x"))),))
    nl, _ = synthesize(fsm, dp)
    sm = similarity_matrix(nl, depth_limit=5)
    assert np.allclose(sm.values, sm.values.T)
    assert np.allclose(np.diag(sm.values), 1.0)
    assert (sm.values >= 0).all() and (sm.values <= 1).all()


def test_depth_limit_mismatch_rejected():
    a = tree(leaf("PI"), depth=3)
    b = tree(leaf("PI"), depth=4)
    with pytest.raises(ValueError):
        pair_similarity(a, b)


def test_zscores_zero_variance_population():
    # Two FFs with identical cones and identical features: all scores 0.
    nl = parse(
        "input clk\ninput a\n"
        "gate NOT g0 n0 f0_q\n"
        "gate NOT g1 n1 f1_q\n"
        "dff f0 q=f0_q d=n0 clk=clk\n"
        "dff f1 q=f1_q d=n1 clk=clk\n"
    )
    table = zscores(nl)
    assert table.scores == {"f0": 0.0, "f1": 0.0}


def test_zscores_standardization_invariants():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(4)],
        ["a"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)],
    )
    dp = DatapathSpec(data_regs=(DataReg("acc", 6, AddOp(RegRef("acc"), PinRef("x"))),))
    nl, _ = synthesize(fsm, dp)
    table = zscores(nl)
    cols = np.array([table.z_features[f] for f in table.ffs])
    for j in range(4):
        col = cols[:, j]
        raw = np.array([table.raw_features[f][j] for f in table.ffs])
        if raw.std() > 0:
            assert abs(col.mean()) < 1e-9
            assert col.std() == pytest.approx(1.0)
        else:
            assert (col == 0).all()


def test_dissimilar_sff_wins_among_similar_data_ffs():
    fsm = make_fsm(
        "m", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")]
    )
    dp = DatapathSpec(
        data_regs=(DataReg("w", 16, AddOp(RegRef("w"), PinRef("p"))),)
    )
    nl, gt = synthesize(fsm, dp)
    table = zscores(nl)
    best = max(table.scores, key=table.scores.get)
    assert best in gt.sffs


def test_replicas_f1_zero():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(4)],
        ["a", "b"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)],
    )
    rep = replicate_state_bits(fsm, ReplicationPlan(2))
    nl, gt = synthesize(rep)
    table = zscores(nl)
    sm = similarity_matrix(nl)
    for f in sorted(gt.sffs):
        assert table.raw_features[f][0] == pytest.approx(0.0)
    # replica pairs have similarity exactly 1
    sffs = sorted(gt.sffs)
    for j in range(2):  # two original bits -> groups of three
        group = sffs[3 * j : 3 * j + 3]
        for a in group:
            for b in group:
                assert sm.of(a, b) == 1.0


def test_worked_selection_tables():
    scc = [["F1s", "F2s", "F1", "F2", "F3"]]
    before = {"F1s": 512.0, "F2s": 622.0, "F1": 84.0, "F2": 389.0, "F3": 110.0}
    ff, members, idx, tie = select_scc_by_z(before, scc)
    assert ff == "F2s" and members == frozenset(scc[0]) and not tie
    after = {"F1s": 178.0, "F2s": 209.0, "F1": 84.0, "F2": 389.0, "F3": 110.0}
    ff2, members2, _, _ = select_scc_by_z(after, scc)
    assert ff2 == "F2" and members2 == frozenset(scc[0])
    # the state FFs are still swept up either way
    assert {"F1s", "F2s"} <= members and {"F1s", "F2s"} <= members2


def test_selection_argmax_outside_any_component():
    ff, members, idx, tie = select_scc_by_z({"a": 2.0, "b": 1.0}, [["b", "c"]])
    assert ff == "a" and members == frozenset({"a"}) and idx is None


def test_selection_tie_breaks_to_smallest_name():
    ff, _, _, tie = select_scc_by_z({"b": 1.0, "a": 1.0}, [])
    assert ff == "a" and tie


def test_evaluate_metrics():
    assert evaluate({"a", "b"}, {"a", "b"}) == (1.0, 1.0)
    s, p = evaluate({"a", "b", "c", "x", "y", "z", "q", "r", "s", "t"}, set("abcdefg"))
    # identified contains 3 of 7 truths plus extras
    assert s == pytest.approx(3 / 7)
    s, p = evaluate(set("abcdefg") | {"x", "y", "z"}, set("abcdefg"))
    assert s == 1.0 and p == pytest.approx(0.7)
    s, _ = evaluate(set("abcdefg"), set("abcdefgh"))
    assert s == pytest.approx(7 / 8)


def test_evaluate_empty_truth_rejected():
    with pytest.raises(ValueError):
        evaluate({"a"}, set())


def test_relic_tarjan_invariant_under_ff_declaration_order():
    fsm = make_fsm(
        "m",
        [f"S{i}" for i in range(4)],
        ["a"],
        "S0",
        [(f"S{i}", {"a": 1}, f"S{(i + 1) % 4}") for i in range(4)],
    )
    dp = DatapathSpec(data_regs=(DataReg("acc", 5, AddOp(RegRef("acc"), PinRef("x"))),))
    nl, gt = synthesize(fsm, dp)
    from fsmtrap.netlist import Netlist

    shuffled = Netlist(
        nl.name,
        nl.inputs,
        nl.outputs,
        dict(nl.constants),
        nl.gates,
        tuple(reversed(nl.ffs)),
    )
    a = relic_tarjan(nl)
    b = relic_tarjan(shuffled)
    assert a.argmax_ff == b.argmax_ff
    assert a.identified == b.identified


def test_zscores_requires_two_ffs():
    nl = parse("input clk\ninput d\ndff f q=q d=d clk=clk\n")
    with pytest.raises(ValueError):
        zscores(nl)


def test_csv_shapes():
    fsm = make_fsm("m", ["A", "B"], ["x"], "A", [("A", {"x": 1}, "B"), ("B", {"x": 1}, "A")])
    dp = DatapathSpec(data_regs=(DataReg("r", 3, AddOp(RegRef("r"), PinRef("p"))),))
    nl, gt = synthesize(fsm, dp)
    table = zscores(nl)
    lines = table.to_csv().strip().splitlines()
    assert lines[0] == "ff,z,f1,f2,f3,f4"
    assert len(lines) == 1 + len(nl.ffs)
    result = with_metrics(relic_tarjan(nl), gt.sffs)
    out = result.to_csv("r1").strip().splitlines()
    assert out[0].startswith("run,selected_scc,sensitivity,precision")
    assert out[1].startswith("r1,")
