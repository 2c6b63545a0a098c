import json

import pytest

from fsmtrap.cli import main


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


def test_defend_ra_cli(design_file, tmp_path):
    nl = tmp_path / "oh.nl"
    gt = tmp_path / "gt.txt"
    run(
        "synth", "--design", str(design_file), "--out", str(nl),
        "--ground-truth", str(gt), "--reencode",
    )
    out = tmp_path / "ra.nl"
    assert run(
        "defend", "ra", "--netlist", str(nl), "--truth", str(gt), "--out", str(out)
    ) == 0
    assert "ra_" in out.read_text()


def test_defend_honeypot_cli(design_file, tmp_path):
    out = tmp_path / "hp.nl"
    gt = tmp_path / "gt.txt"
    assert run(
        "defend", "honeypot", "--design", str(design_file), "--out", str(out),
        "--ground-truth", str(gt), "--seed", "2",
    ) == 0
    assert "honeypot hp_fsm_st0" in gt.read_text()


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


@pytest.mark.parametrize("key", ["encodng", "relic_params"])
def test_pipeline_plan_rejects_unknown_key(tmp_path, capsys, key):
    plan_file = tmp_path / "plan.json"
    plan_file.write_text(json.dumps({key: "one_hot"}))
    code = run("pipeline", "--plan", str(plan_file), "--out", str(tmp_path / "run"))
    assert code != 0
    assert repr(key) in capsys.readouterr().err
    assert not (tmp_path / "run").exists()


def test_error_paths_exit_nonzero(tmp_path, capsys):
    assert run("synth", "--design", str(tmp_path / "missing.txt"), "--out", str(tmp_path / "x")) == 2
    err = capsys.readouterr().err
    assert "error:" in err
