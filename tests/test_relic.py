import itertools
import random

import numpy as np
import pytest

from fsmtrap.graph import ConeNode, ConeTree, input_cone
from fsmtrap.harness import BenchmarkSpec, gen_benchmark
from fsmtrap.netlist import parse
from fsmtrap.relic import (
    RelicParams,
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
    monkeypatch.setattr(relic_mod, "has_any_fp", rebuilt)
    result = relic_tarjan(nl)
    assert result.argmax_ff == select_scc_by_z(table.scores, [])[0]


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
