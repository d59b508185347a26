"""Command-line behavior: exit codes and artifact formats."""

import io
import random

import hypothesis.strategies as st
import pytest
from hypothesis import HealthCheck, given, settings

import boolnet as bn
from boolnet.cli import run

import oracles


@pytest.fixture
def files(tmp_path):
    grid = {}
    grid["splittable"] = tmp_path / "splittable.ts"
    grid["splittable"].write_text(
        "ts b\ninitial t0\narc t0 a t1\narc t1 a' t2\n", encoding="utf-8"
    )
    grid["stuck"] = tmp_path / "stuck.ts"
    grid["stuck"].write_text(
        "ts a\ninitial t0\narc t0 a t1\narc t1 a t2\n", encoding="utf-8"
    )
    grid["graph"] = tmp_path / "g.graph"
    grid["graph"].write_text(
        bn.serialize_graph(
            bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
        ),
        encoding="utf-8",
    )
    grid["dir"] = tmp_path
    return grid


def test_check_yes(files, capsys):
    assert run(["check", "--prop", "both", "--type", "nop,inp,swap", str(files["splittable"])]) == 0
    out = capsys.readouterr().out
    assert "region" in out and "sig" in out


def test_check_no(files, capsys):
    assert run(["check", "--prop", "both", "--type", "nop,inp,swap", str(files["stuck"])]) == 1
    assert "(t0,t2)" in capsys.readouterr().out


def test_check_writes_file(files):
    out = files["dir"] / "regions.out"
    code = run(
        ["check", "--prop", "ssp", "--type", "nop,inp,swap", str(files["splittable"]), "--out", str(out)]
    )
    assert code == 0
    assert bn.parse_regions(out.read_text(encoding="utf-8"))


def test_a_no_written_with_out_is_what_stdout_gets(files, capsys):
    # a two-state a-cycle: under nop the two states share their support,
    # and under set both get support 1, so no region separates them
    cycle = files["dir"] / "cycle.ts"
    cycle.write_text("ts c\ninitial s0\narc s0 a s1\narc s1 a s0\n", encoding="utf-8")
    out = files["dir"] / "answer.out"
    args = ["check", "--prop", "ssp", "--type", "nop,set", str(cycle)]
    assert run(args + ["--out", str(out)]) == 1
    assert capsys.readouterr().out == ""
    assert run(args) == 1
    assert out.read_bytes().decode("utf-8") == capsys.readouterr().out
    assert out.read_text(encoding="utf-8") == "no: atom (s0,s1) has no solving region\n"


def test_synth_round_trip(files, capsys):
    assert run(["synth", "--mode", "realize", "--type", "nop,inp,swap", str(files["splittable"])]) == 0
    net = bn.parse_net(capsys.readouterr().out)
    rg = bn.reachability_graph(net)
    assert rg.states == ("(1,0)", "(0,1)", "(0,0)")


def test_synth_no(files, capsys):
    assert run(["synth", "--mode", "embed", "--type", "nop,inp,swap", str(files["stuck"])]) == 1
    assert "no:" in capsys.readouterr().out


def test_synth_dot(files, capsys):
    assert run(
        ["synth", "--mode", "realize", "--type", "nop,inp,swap", str(files["splittable"]), "--format", "dot"]
    ) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_simulate(files, capsys, tmp_path):
    netfile = tmp_path / "n.net"
    assert run(["synth", "--mode", "realize", "--type", "nop,inp,swap", str(files["splittable"]), "--out", str(netfile)]) == 0
    assert run(["simulate", str(netfile)]) == 0
    rg = bn.parse_ts(capsys.readouterr().out)
    assert len(rg.states) == 3


def test_modify_yes(files, capsys):
    assert run(
        ["modify", "--kind", "split", "--mode", "realize", "--kappa", "2", "--type", "nop,inp,swap", str(files["stuck"])]
    ) == 0
    plan = bn.parse_plan(capsys.readouterr().out)
    assert plan.kind == "split" and plan.cost == 2


def test_modify_no(files, capsys):
    assert run(
        ["modify", "--kind", "split", "--mode", "realize", "--kappa", "1", "--type", "nop,inp,swap", str(files["stuck"])]
    ) == 1
    assert "no" in capsys.readouterr().out


def test_modify_budget_exit(files, monkeypatch):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "1")
    g = bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    gts, kappa = bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=1))
    gfile = files["dir"] / "gadget.ts"
    gfile.write_text(bn.serialize_ts(gts), encoding="utf-8")
    code = run(
        ["modify", "--kind", "split", "--mode", "realize", "--kappa", str(kappa), "--type", "nop,inp,swap", str(gfile)]
    )
    assert code == 3


def test_modify_negative_kappa_is_a_usage_error(files, capsys):
    for kappa in ("-1", "abc"):
        argv = ["modify", "--kind", "edge", "--mode", "embed", "--kappa", kappa, "--type", "nop,inp,swap"]
        assert run(argv + [str(files["stuck"])]) == 2
        err = capsys.readouterr().err
        assert "error:" in err and "--kappa" in err and "Traceback" not in err


def test_modify_long_event_run_budget_exit(files, monkeypatch, capsys):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "10000")
    path = files["dir"] / "run.ts"
    path.write_text(bn.serialize_ts(oracles.long_run_ts(1200)), encoding="utf-8")
    argv = ["modify", "--kind", "split", "--mode", "langsim", "--kappa", "3", "--type", "nop,inp,swap"]
    assert run(argv + [str(path)]) == 3
    assert capsys.readouterr().err.startswith("error:")


def test_check_and_synth_budget_exit(files, monkeypatch):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "1")
    chain = files["dir"] / "chain.ts"
    chain.write_text("initial s0\narc s0 a s1\narc s1 b s2\narc s2 c s3\n", encoding="utf-8")
    assert run(["check", "--prop", "both", "--type", "nop,inp,swap", str(chain)]) == 3
    assert run(["synth", "--mode", "realize", "--type", "nop,inp,swap", str(chain)]) == 3


def test_check_and_synth_name_the_canonical_failure_within_the_budget(files, monkeypatch, capsys):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "1000")
    cube = files["dir"] / "cube.ts"
    cube.write_text(bn.serialize_ts(oracles.hypercube_ts(6)), encoding="utf-8")
    for argv in (["check", "--prop", "both"], ["synth", "--mode", "realize"]):
        assert run(argv + ["--type", "nop,set,swap", str(cube)]) == 1
        assert "no: atom (x,q1) has no solving region" in capsys.readouterr().out


@pytest.mark.parametrize("value", ["abc", "1.5", "-5"])
@pytest.mark.parametrize(
    "argv",
    [
        ["check", "--prop", "both", "--type", "nop,inp,swap"],
        ["synth", "--mode", "realize", "--type", "nop,inp,swap"],
        ["modify", "--kind", "split", "--mode", "realize", "--kappa", "2", "--type", "nop,inp,swap"],
    ],
    ids=["check", "synth", "modify"],
)
def test_bad_node_limit_env_is_a_usage_error(files, monkeypatch, capsys, argv, value):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", value)
    assert run(argv + [str(files["stuck"])]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "BOOLNET_NODE_LIMIT" in err


def test_deep_input_check_and_synth(files, capsys):
    deep = files["dir"] / "deep.ts"
    deep.write_text(bn.serialize_ts(oracles.flip_flop_ts(1200)), encoding="utf-8")
    assert run(["check", "--prop", "both", "--type", "nop,inp,swap", str(deep)]) == 0
    assert run(["synth", "--mode", "realize", "--type", "nop,inp,swap", str(deep)]) == 0
    assert "trans e1199" in capsys.readouterr().out


def test_gadget_and_vc(files, capsys):
    assert run(["gadget", "--problem", "edge", "--lambda", "1", str(files["graph"])]) == 0
    gts = bn.parse_ts(capsys.readouterr().out)
    assert len(gts.states) > 3
    assert run(["vc", "--lambda", "2", str(files["graph"])]) == 0
    assert "v0" in capsys.readouterr().out
    assert run(["vc", "--lambda", "1", str(files["graph"])]) == 1


def test_gadget_lambda_out_of_range(files, capsys):
    assert run(["gadget", "--problem", "edge", "--lambda", "9", str(files["graph"])]) == 2
    assert capsys.readouterr().err


def test_vc_negative_lambda_is_a_usage_error(files, capsys):
    assert run(["vc", "--lambda", "-1", str(files["graph"])]) == 2
    err = capsys.readouterr().err
    assert "error:" in err and "--lambda" in err and "Traceback" not in err


def test_parse_error_exit(files, tmp_path, capsys):
    bad = tmp_path / "bad.ts"
    bad.write_text("arc s0 a s1\n", encoding="utf-8")
    assert run(["check", "--prop", "ssp", "--type", "nop", str(bad)]) == 2
    assert capsys.readouterr().err


def test_unreadable_input_is_a_usage_error(tmp_path, capsys):
    for path in (tmp_path / "missing.ts", tmp_path):
        assert run(["check", "--prop", "ssp", "--type", "nop,inp,swap", str(path)]) == 2
        err = capsys.readouterr().err
        assert err.startswith("error:") and str(path) in err and "Traceback" not in err


def test_non_utf8_input_is_a_parse_error(tmp_path, capsys):
    bad = tmp_path / "utf16.ts"
    bad.write_bytes(b"\xff\xfe" + "initial s0\narc s0 a s1\n".encode("utf-16-le"))
    assert run(["check", "--prop", "ssp", "--type", "nop,inp,swap", str(bad)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and "UTF-8" in err


def test_unknown_subcommand_exit(capsys):
    assert run(["frobnicate"]) == 2
    assert capsys.readouterr().err


def test_fixtures_command(capsys):
    assert run(["fixtures"]) == 0
    out = capsys.readouterr().out
    assert "R_0" in out and "R_3" in out


def test_simulate_repeated_type_line_is_a_parse_error(tmp_path, capsys):
    net = tmp_path / "two-types.net"
    net.write_text("type nop,inp\ntype set\nplace p 0\ntrans t\nflow p t set\n", encoding="utf-8")
    assert run(["simulate", str(net)]) == 2
    err = capsys.readouterr().err
    assert "line 2: duplicate type declaration" in err and "Traceback" not in err


def test_simulate_dead_transition_with_a_bad_name_is_a_parse_error(tmp_path, capsys):
    # é never fires (inp needs p marked), yet the file is still malformed
    net = tmp_path / "dead.net"
    net.write_text("type nop,inp\nplace p 0\ntrans ok\ntrans é\nflow p é inp\n", encoding="utf-8")
    assert run(["simulate", str(net)]) == 2
    err = capsys.readouterr().err
    assert "bad transition name 'é'" in err and "Traceback" not in err


def test_simulate_dead_transition_warning_is_one_line(tmp_path, capsys):
    # t needs p marked, so it never fires and is dropped from the graph
    net = tmp_path / "dead.net"
    net.write_text("type nop,inp\nplace p 0\ntrans ok\ntrans t\nflow p t inp\n", encoding="utf-8")
    assert run(["simulate", str(net)]) == 0
    captured = capsys.readouterr()
    assert captured.err == "warning: dropping dead transitions from reachability graph: t\n"
    assert "arc (0) ok (0)" in captured.out


# One list per file format of directives with the words each argument is
# drawn from; repeats weight the draw, and the first entry opens most
# files.  _ODD holds words that are wrong anywhere or almost anywhere: a
# comment mark, glyphs of generated names, a non-ASCII letter, a bad digit.
_S, _P, _T, _V = ("s0", "s1", "s2"), ("p", "q"), ("t", "u"), ("v", "w", "x", "y")
_TAGS = ("nop", "inp", "out", "set", "res", "swap", "used", "free")
_FORMATS = (
    [("initial", [("s0", "s1")])] + [("arc", [_S, ("a", "b"), _S])] * 4 + [("ts", [("A", "B")])],
    [("type", [("nop,inp,swap", "nop,set,res", "swap,used")])]
    + [("place", [_P, ("0", "1")]), ("trans", [_T])] * 2
    + [("flow", [_P, _T, _TAGS]), ("net", [("N", "M")])],
    [("edge", [_V, _V])] * 4 + [("vertex", [_V]), ("graph", [("G", "H")])],
)
_ODD = ("#", "⊥", "ι", "(", ",", "é", "2")
_ARGVS = (
    ["check", "--prop", "both", "--type", "nop,inp,swap"],
    ["synth", "--mode", "realize", "--type", "nop,set,swap"],
    ["synth", "--mode", "embed", "--type", "nop,inp,out"],
    ["simulate"],
    ["modify", "--kind", "split", "--mode", "langsim", "--kappa", "2", "--type", "nop,inp,swap"],
    ["modify", "--kind", "edge", "--mode", "embed", "--kappa", "1", "--type", "nop,swap,used"],
    ["gadget", "--problem", "split", "--lambda", "1"],
    ["vc", "--lambda", "1"],
)


def _cli_text(rng):
    grammar = rng.choice(_FORMATS)
    lines = []
    for k in range(rng.randint(1, 7)):
        kw, pools = grammar[0] if k == 0 and rng.random() < 0.8 else rng.choice(grammar)
        words = [kw] + [rng.choice(pool) for pool in pools]
        flaw = rng.random()
        if flaw < 0.04:
            words.insert(rng.randint(0, len(words)), rng.choice(_ODD))
        elif flaw < 0.08:
            words.pop()
        lines.append(" ".join(words))
    return "\n".join(lines) + "\n"


@settings(max_examples=300, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(seed=st.integers(0, 2**32 - 1))
def test_cli_never_ends_in_a_traceback(tmp_path, monkeypatch, capsys, seed):
    monkeypatch.setenv("BOOLNET_NODE_LIMIT", "300")
    path = tmp_path / "fuzz.in"
    path.write_text(_cli_text(random.Random(seed)), encoding="utf-8")
    for argv in _ARGVS:
        assert run(argv + [str(path)]) in (0, 1, 2, 3)
    capsys.readouterr()


def test_input_dash_reads_stdin(files, monkeypatch, capsys):
    argv = ["check", "--prop", "both", "--type", "nop,inp,swap"]
    assert run(argv + [str(files["splittable"])]) == 0
    from_file = capsys.readouterr().out
    text = files["splittable"].read_text(encoding="utf-8")
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
    assert run(argv + ["-"]) == 0
    assert capsys.readouterr().out == from_file


def test_simulate_and_gadget_dot(files, capsys, tmp_path):
    netfile = tmp_path / "n.net"
    assert run(["synth", "--mode", "realize", "--type", "nop,inp,swap", str(files["splittable"]), "--out", str(netfile)]) == 0
    assert run(["simulate", "--format", "dot", str(netfile)]) == 0
    assert capsys.readouterr().out.startswith("digraph")
    assert run(["gadget", "--problem", "edge", "--lambda", "1", "--format", "dot", str(files["graph"])]) == 0
    assert capsys.readouterr().out.startswith("digraph")


def test_modify_ts_format_is_the_applied_plan(files, capsys):
    argv = ["modify", "--kind", "split", "--mode", "realize", "--kappa", "2", "--type", "nop,inp,swap"]
    assert run(argv + [str(files["stuck"])]) == 0
    plan = bn.parse_plan(capsys.readouterr().out)
    assert run(argv + ["--format", "ts", str(files["stuck"])]) == 0
    got = bn.parse_ts(capsys.readouterr().out)
    want = bn.apply_plan(bn.parse_ts(files["stuck"].read_text(encoding="utf-8")), plan)
    assert got == want and got.name == want.name
