import json
import warnings

import pytest

from fsmtrap.cli import main
from fsmtrap.harness import BenchmarkSpec, DefensePlan, PipelinePlan, run_pipeline
from fsmtrap.specio import parse_design


def run(*argv) -> int:
    return main(list(argv))


@pytest.fixture()
def design_file(tmp_path):
    path = tmp_path / "design.txt"
    assert run("gen", "--seed", "1", "--out", str(path)) == 0
    return path


def test_gen_and_synth(design_file, tmp_path):
    nl = tmp_path / "base.nl"
    gt = tmp_path / "gt.txt"
    assert run(
        "synth", "--design", str(design_file), "--out", str(nl), "--ground-truth", str(gt)
    ) == 0
    assert nl.exists() and "dff u0_st0" in nl.read_text()
    assert "sff u0_st0" in gt.read_text()


def test_attack_relic_cli(design_file, tmp_path, capsys):
    nl = tmp_path / "base.nl"
    gt = tmp_path / "gt.txt"
    run("synth", "--design", str(design_file), "--out", str(nl), "--ground-truth", str(gt))
    code = run(
        "attack", "relic", "--netlist", str(nl), "--truth", str(gt),
        "--csv", str(tmp_path / "z.csv"), "--expect-sensitivity", "1.0",
    )
    assert code == 0
    out = capsys.readouterr().out
    assert "sensitivity check: pass" in out
    assert (tmp_path / "z.csv").read_text().startswith("ff,z,f1,f2,f3,f4")


def test_attack_topo_cli(design_file, tmp_path):
    nl = tmp_path / "base.nl"
    gt = tmp_path / "gt.txt"
    run("synth", "--design", str(design_file), "--out", str(nl), "--ground-truth", str(gt))
    assert run(
        "attack", "topo", "--netlist", str(nl), "--truth", str(gt),
        "--expect-sensitivity", "1.0",
    ) == 0


def test_defend_replicate_and_rb(design_file, tmp_path):
    rep = tmp_path / "rep.txt"
    assert run("defend", "replicate", "--design", str(design_file), "--r", "2", "--out", str(rep)) == 0
    assert "encoding explicit" in rep.read_text()
    rb = tmp_path / "rb.txt"
    assert run("defend", "rb", "--design", str(design_file), "--bit", "0", "--out", str(rb)) == 0
    assert "__rb" in rb.read_text()


def test_defend_ra_cli(design_file, tmp_path, capsys):
    nl = tmp_path / "oh.nl"
    gt = tmp_path / "gt.txt"
    run(
        "synth", "--design", str(design_file), "--out", str(nl),
        "--ground-truth", str(gt), "--reencode",
    )
    capsys.readouterr()
    out = tmp_path / "ra.nl"
    assert run(
        "defend", "ra", "--netlist", str(nl), "--truth", str(gt), "--out", str(out)
    ) == 0
    assert "ra_" in out.read_text()
    assert run(
        "defend", "ra", "--netlist", str(nl), "--truth", str(gt), "--target", "u0_st3",
        "--out", str(out),
    ) == 0
    assert capsys.readouterr().out == (
        f"wrote {out} (treated=u0_st0 fp_after=medium)\n"
        f"wrote {out} (treated=u0_st3 fp_after=medium)\n"
    )


def test_defend_honeypot_cli(design_file, tmp_path):
    out = tmp_path / "hp.nl"
    gt = tmp_path / "gt.txt"
    assert run(
        "defend", "honeypot", "--design", str(design_file), "--out", str(out),
        "--ground-truth", str(gt), "--seed", "2",
    ) == 0
    assert "honeypot hp_fsm_st0" in gt.read_text()


@pytest.mark.parametrize("tune", [False, True])
def test_defend_honeypot_shares_the_pipeline_defense(design_file, tmp_path, tune):
    # ``design_file`` is ``gen --seed 1``; the mutation counts are not the
    # defaults, so both sides must follow the plan to agree.
    out = tmp_path / "hp.nl"
    gt = tmp_path / "gt.txt"
    code = run(
        "defend", "honeypot", "--design", str(design_file), "--out", str(out),
        "--ground-truth", str(gt), "--seed", "2", "--tmut", "3", "--omut", "2",
        *(["--tune"] if tune else []),
    )
    plan = PipelinePlan(
        benchmark=BenchmarkSpec(seed=1),
        attacks=(),
        defense=DefensePlan(
            honeypot=True,
            honeypot_tune=tune,
            honeypot_seed=2,
            honeypot_transition_mutations=3,
            honeypot_output_mutations=2,
        ),
    )
    result = run_pipeline(plan, tmp_path / "run")
    assert result.ok, result.notes
    assert code == 0
    assert out.read_text() == (tmp_path / "run" / "netlists" / "defended.nl").read_text()
    assert gt.read_text() == (tmp_path / "run" / "reports" / "defended_gt.txt").read_text()


def test_stg_cli(design_file, tmp_path):
    nl = tmp_path / "base.nl"
    gt = tmp_path / "gt.txt"
    run("synth", "--design", str(design_file), "--out", str(nl), "--ground-truth", str(gt))
    out = tmp_path / "stg.txt"
    dot = tmp_path / "stg.dot"
    assert run(
        "stg", "--netlist", str(nl), "--truth", str(gt),
        "--free", "in0,in1,in2", "--out", str(out), "--dot", str(dot),
    ) == 0
    assert out.read_text().startswith("state ")
    assert dot.read_text().startswith("digraph")


def test_attack_relic_rejects_negative_depth(design_file, tmp_path, capsys):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    assert run("attack", "relic", "--netlist", str(nl), "--depth", "-1") == 2
    err = capsys.readouterr().err
    assert err.startswith("error: RelicParams.depth_limit must be >= 0, got -1")


@pytest.mark.parametrize("via_plan", [False, True], ids=["flag", "plan"])
@pytest.mark.parametrize("top_k", [0, -1])
def test_attack_relic_rejects_top_k_below_one(design_file, tmp_path, capsys, via_plan, top_k):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    if via_plan:
        plan = tmp_path / "plan.json"
        plan.write_text(json.dumps({"top_k": top_k}))
        option = ["--plan", str(plan)]
    else:
        option = [f"--top-k={top_k}"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code = run("attack", "relic", "--netlist", str(nl), *option)
    assert code == 2
    assert not caught
    err = capsys.readouterr().err
    assert f"error: RelicParams.top_k must be >= 1, got {top_k}" in err


def test_overhead_cli(design_file, tmp_path, capsys):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    assert run("overhead", "--before", str(nl), "--after", str(nl)) == 0
    out = capsys.readouterr().out
    assert "area_delta_pct 0.00" in out


def test_pipeline_cli_with_plan(tmp_path, capsys):
    plan = {
        "benchmark": {"seed": 11, "n_states": 6},
        "defense": {"replicate_r": 2, "honeypot": True},
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code = run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "run"))
    assert code == 0
    out = capsys.readouterr().out
    assert "stg_equivalent True" in out


@pytest.mark.parametrize("key", ["encodng", "relic_params", "check_vectors"])
def test_pipeline_plan_rejects_unknown_key(tmp_path, capsys, key):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({key: "one_hot"}))
    code = run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "run"))
    assert code != 0
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


@pytest.mark.parametrize(
    "plan, key",
    [
        ({"attacks": "relic"}, "PipelinePlan.attacks"),
        ({"attacks": ["relik"]}, "PipelinePlan.attacks"),
        ({"encoding": "onehot"}, "PipelinePlan.encoding"),
        ({"defense": {"fp_mode": "rc"}}, "DefensePlan.fp_mode"),
        ({"defense": {"fp_target": -1}}, "DefensePlan.fp_target"),
        ({"encoding": "one_hot", "defense": {"fp_mode": "ra", "fp_target": 99}},
         "fp_target 99 is out of range 0..5"),
        ({"defense": {"fp_mode": "rb", "fp_target": 99}}, "fp_target 99 is out of range 0..2"),
        ({"defense": {"fp_mode": "rb", "fp_target": 9, "replicate_r": 2}},
         "fp_target 9 is out of range 0..8"),
    ],
    ids=["attacks-string", "attacks-unknown", "encoding", "fp_mode", "fp_target-negative",
         "fp_target-past-ra-range", "fp_target-past-rb-range",
         "fp_target-past-replicated-rb-range"],
)
def test_pipeline_plan_rejects_values_it_would_ignore(tmp_path, capsys, plan, key):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    code = run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "run"))
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and key in err


def test_pipeline_plan_sets_topo_params(tmp_path, capsys):
    # With no free variables allowed, functional control checks fall back to
    # the structural test, and the pipeline notes each fallback.
    plan = {
        "benchmark": {"seed": 4},
        "attacks": ["topo"],
        "defense": {"replicate_r": 1},
        "topo_params": {"control_step": "functional", "functional_max_vars": 0},
    }
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    assert run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "run")) == 0
    captured = capsys.readouterr()
    assert "topo_note base " in captured.out and "topo_note defended " in captured.out
    assert "note: topo base: " in captured.err
    plan_file.write_text(json.dumps({"topo_params": {"control_step": 3}}))
    assert run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "bad")) == 2
    assert capsys.readouterr().err.startswith("error: plan key 'control_step' must be a string")
    assert not (tmp_path / "bad").exists()


def test_plan_for_a_required_option_is_refused(tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"out": str(tmp_path / "planned.txt")}))
    # Without the flag, the parser stops first.
    with pytest.raises(SystemExit) as stop:
        run("gen", "--plan", str(plan))
    assert stop.value.code == 2 and "--out" in capsys.readouterr().err
    # With it, the plan key is refused by name rather than ignored.
    assert run("gen", "--plan", str(plan), "--out", str(tmp_path / "flag.txt")) == 2
    assert capsys.readouterr().err == "error: plan key 'out' is a required option of gen\n"
    assert not (tmp_path / "planned.txt").exists() and not (tmp_path / "flag.txt").exists()


@pytest.mark.parametrize(
    "argv, key",
    [
        (("synth", "--design", "d", "--out", "o"), "design"),
        (("synth", "--design", "d", "--out", "o"), "out"),
        (("defend", "replicate", "--out", "o"), "out"),
        (("attack", "relic", "--netlist", "n"), "netlist"),
        (("stg", "--netlist", "n", "--truth", "t", "--out", "o"), "netlist"),
        (("stg", "--netlist", "n", "--truth", "t", "--out", "o"), "truth"),
        (("stg", "--netlist", "n", "--truth", "t", "--out", "o"), "out"),
        (("overhead", "--before", "b", "--after", "a"), "before"),
        (("overhead", "--before", "b", "--after", "a"), "after"),
    ],
    ids=lambda v: v if isinstance(v, str) else v[0],
)
def test_plan_keys_of_required_options_are_refused(tmp_path, monkeypatch, capsys, argv, key):
    monkeypatch.chdir(tmp_path)
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({key: "planned"}))
    assert run(*argv, "--plan", str(plan)) == 2
    command = argv[0]
    assert capsys.readouterr().err == f"error: plan key {key!r} is a required option of {command}\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["plan.json"]


def test_error_paths_exit_nonzero(tmp_path, capsys):
    assert run("synth", "--design", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "error:" in err


def test_plan_values_apply_to_subcommands(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"states": 9}))
    assert run("gen", "--plan", str(plan), "--out", str(tmp_path / "nine.txt")) == 0
    assert run("gen", "--states", "9", "--out", str(tmp_path / "flag.txt")) == 0
    assert (tmp_path / "nine.txt").read_text() == (tmp_path / "flag.txt").read_text()


def test_plan_feeds_attack_options_and_flags_win(design_file, tmp_path):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"depth": 1, "top_k": 1}))

    def csv(name, *extra):
        path = tmp_path / name
        assert run("attack", "relic", "--netlist", str(nl), "--csv", str(path), *extra) == 0
        return path.read_text()

    default = csv("default.csv")
    planned = csv("plan.csv", "--plan", str(plan))
    flags = csv("flags.csv", "--depth", "1", "--top-k", "1")
    assert planned == flags != default
    # An explicit flag beats the plan's value for the same option, also when
    # the flag repeats the option's default.
    mixed = csv("mixed.csv", "--plan", str(plan), "--depth", "3")
    assert mixed == csv("mixed_flags.csv", "--depth", "3", "--top-k", "1")
    at_default = csv("at_default.csv", "--plan", str(plan), "--depth", "6")
    assert at_default == csv("top_k_flag.csv", "--top-k", "1") != planned


@pytest.mark.parametrize("key", ["fn", "command", "plan", "mode", "no_such_option"])
def test_plan_rejects_keys_that_are_not_options(design_file, tmp_path, capsys, key):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({key: 1}))
    assert run("attack", "relic", "--netlist", str(nl), "--plan", str(plan)) == 2
    assert f"error: plan key {key!r}" in capsys.readouterr().err


_UNREADABLE_PLANS = [None, "{not json", "[1, 2]"]


@pytest.mark.parametrize(
    "command, text",
    [pytest.param("gen", t, id=str(t)) for t in _UNREADABLE_PLANS]
    + [pytest.param("pipeline", t, id=f"pipeline-{t}") for t in _UNREADABLE_PLANS],
)
def test_unreadable_plan_is_a_clean_error(tmp_path, capsys, command, text):
    plan = tmp_path / "plan.json"
    if text is not None:
        plan.write_text(text)
    out = tmp_path / ("d.txt" if command == "gen" else "run")
    assert run(command, "--plan", str(plan), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "Traceback" not in err
    assert f"plan {plan}" in err
    assert not out.exists()


def test_gen_counter_width(tmp_path):
    wide = tmp_path / "wide.txt"
    assert run("gen", "--counter-width", "6", "--out", str(wide)) == 0
    _, dp = parse_design(wide.read_text())
    assert {c.name: c.width for c in dp.counters} == {"cnt": 6, "tmr": 7}


# A self-looping FF alone in its wiring group (its own enable) whose Q is a
# MUX select; ``r`` has no feedback path.
_SINGLETON_NETLIST = """\
input clk
input e
input a
input b
output y
gate NOT g0 n0 s_q
gate MUX m0 y s_q a b
dff s q=s_q d=n0 clk=clk en=e
dff r q=r_q d=y clk=clk
"""


def test_attack_topo_singletons(tmp_path, capsys):
    nl = tmp_path / "single.nl"
    nl.write_text(_SINGLETON_NETLIST)
    assert run("attack", "topo", "--netlist", str(nl)) == 0
    assert capsys.readouterr().out.splitlines()[1] == "run0,-,-,-"
    assert run("attack", "topo", "--netlist", str(nl), "--singletons") == 0
    assert capsys.readouterr().out.splitlines()[1] == "run0,-,-,-,s"


@pytest.mark.parametrize(
    "argv, plan, key, kind",
    [
        (["gen"], {"seed": 2.5}, "seed", "an integer"),
        (["defend", "honeypot"], {"tune": "false"}, "tune", "a boolean"),
        (["pipeline"], {"defense": {"honeypot": "false"}}, "honeypot", "a boolean"),
    ],
    ids=["gen-float-seed", "defend-string-flag", "pipeline-string-bool"],
)
def test_plan_rejects_values_of_the_wrong_json_type(
    design_file, tmp_path, capsys, argv, plan, key, kind
):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps(plan))
    out = tmp_path / "out"
    if argv[0] == "defend":
        argv = argv + ["--design", str(design_file)]
    assert run(*argv, "--plan", str(plan_file), "--out", str(out)) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: plan key {key!r} must be {kind}")
    assert not out.exists()


def test_plan_accepts_null_only_where_the_default_is_none(design_file, tmp_path, capsys):
    nl = tmp_path / "base.nl"
    run("synth", "--design", str(design_file), "--out", str(nl))
    plan = tmp_path / "plan.json"
    for value, code in ((None, 0), (1, 0), ("1", 2), (True, 2)):
        plan.write_text(json.dumps({"expect_sensitivity": value, "depth": 6}))
        assert run("attack", "topo", "--netlist", str(nl), "--plan", str(plan)) == code
    plan.write_text(json.dumps({"depth": None}))
    assert run("attack", "topo", "--netlist", str(nl), "--plan", str(plan)) == 2
    assert "error: plan key 'depth' must be an integer, not null" in capsys.readouterr().err
