"""Command-line front end.

Exit codes: 0 yes/success, 1 no, 2 usage or parse error, 3 search budget
exceeded.  Decision subcommands never print a "no" verdict with exit 0.
"""

from __future__ import annotations

import argparse
import functools
import sys
import warnings

from .errors import BoolnetError, ParseError, SearchBudgetExceeded
from .gadgets import (
    VARIANTS,
    GadgetSpec,
    Graph3B,
    brute_force_vc,
    build_gadget,
    cover_to_solution,
    parse_graph,
)
from .interactions import BooleanType
from .modify import KINDS, apply_plan, decide, resolve_node_limit, serialize_plan
from .nets import net_to_dot, parse_net, reachability_graph, serialize_net
from .regions import (
    PROPERTIES,
    NodeBudget,
    SeparationAtom,
    Witness,
    decide_property,
    serialize_regions,
    validate_region,
    Region,
)
from .synthesis import synthesize
from .ts import MODES, parse_ts, serialize_ts, ts_to_dot

EXIT_YES = 0
EXIT_NO = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _read(path: str) -> str:
    try:
        if path == "-":
            return sys.stdin.read()
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except UnicodeDecodeError as exc:
        raise ParseError(f"{path}: not UTF-8 text (byte {exc.start}: {exc.reason})") from None


def _emit(text: str, out: str | None) -> None:
    """Write text, ending in a newline, to the file out or to stdout."""
    if not text.endswith("\n"):
        text += "\n"
    if out:
        with open(out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _nonnegative(arg: str) -> int:
    try:
        value = int(arg)
    except ValueError:
        value = -1
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be a nonnegative integer, not {arg!r}")
    return value


def _type(arg: str) -> BooleanType:
    return BooleanType.parse(arg)


def _cmd_check(args) -> int:
    ts = parse_ts(_read(args.ts))
    tau = _type(args.type)
    result = decide_property(ts, tau, args.prop, NodeBudget(resolve_node_limit()))
    if isinstance(result, Witness):
        _emit(serialize_regions(result), args.out)
        return EXIT_YES
    _emit(f"no: atom {result} has no solving region", args.out)
    return EXIT_NO


def _cmd_synth(args) -> int:
    ts = parse_ts(_read(args.ts))
    tau = _type(args.type)
    result = synthesize(ts, tau, args.mode, NodeBudget(resolve_node_limit()))
    if isinstance(result, SeparationAtom):
        _emit(f"no: atom {result} has no solving region", args.out)
        return EXIT_NO
    if args.format == "dot":
        _emit(net_to_dot(result.net), args.out)
    else:
        _emit(serialize_net(result.net), args.out)
    return EXIT_YES


def _cmd_simulate(args) -> int:
    net = parse_net(_read(args.net))
    rg = reachability_graph(net)
    if args.format == "dot":
        _emit(ts_to_dot(rg), args.out)
    else:
        _emit(serialize_ts(rg), args.out)
    return EXIT_YES


def _cmd_modify(args) -> int:
    ts = parse_ts(_read(args.ts))
    tau = _type(args.type)
    plan = decide(ts, tau, args.kind, args.mode, args.kappa)
    if plan is None:
        _emit("no", args.out)
        return EXIT_NO
    if args.format == "ts":
        _emit(serialize_ts(apply_plan(ts, plan)), args.out)
    else:
        _emit(serialize_plan(plan), args.out)
    return EXIT_YES


def _cmd_gadget(args) -> int:
    g = parse_graph(_read(args.graph))
    spec = GadgetSpec(problem=args.problem, variant=args.variant, lam=args.lam)
    ts, kappa = build_gadget(g, spec)
    if args.format == "dot":
        _emit(ts_to_dot(ts), args.out)
    else:
        _emit(f"# kappa {kappa}\n" + serialize_ts(ts), args.out)
    return EXIT_YES


def _cmd_vc(args) -> int:
    g = parse_graph(_read(args.graph))
    cover = brute_force_vc(g, args.lam)
    if cover is None:
        _emit("none", args.out)
        return EXIT_NO
    _emit(" ".join(cover), args.out)
    return EXIT_YES


def _cmd_fixtures(args) -> int:
    """Run the bundled worked examples end to end and report each step."""
    lines = []

    def step(name, ok):
        lines.append(f"{'ok' if ok else 'FAIL'}  {name}")
        return ok

    good = True
    tau = BooleanType.of("nop", "inp", "swap")

    # two copies of one event on a path: not implementable, split fixes it
    a = parse_ts("ts A\ninitial t0\narc t0 a t1\narc t1 a t2\n")
    bad = decide_property(a, tau, "both")
    good &= step("path with repeated event is rejected", isinstance(bad, SeparationAtom))
    b = parse_ts("ts B\ninitial t0\narc t0 a t1\narc t1 a' t2\n")
    wit = decide_property(b, tau, "both")
    good &= step("split path yields a two-region witness",
                 isinstance(wit, Witness) and len(wit.regions) == 2)
    syn = synthesize(b, tau, "realize")
    good &= step("synthesized net realizes the split path",
                 not isinstance(syn, SeparationAtom) and syn.verified)

    # vertex-cover gadget round trip on the worked 4-vertex, 5-edge graph
    g = Graph3B.build(
        [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v2", "v3")]
    )
    spec = GadgetSpec(problem="split", variant="directed", lam=2)
    gts, kappa = build_gadget(g, spec)
    good &= step("split gadget has 13 events and budget 15",
                 len(gts.events) == 13 and kappa == 15)
    cover = brute_force_vc(g, 2)
    good &= step("brute-force cover of size 2 is v0,v2", cover == ("v0", "v2"))
    plan = cover_to_solution(g, spec, cover)
    bg = apply_plan(gts, plan)
    w2 = decide_property(bg, tau, "both")
    good &= step("cover-built system passes both separation properties",
                 isinstance(w2, Witness))

    # the four published example regions on that modified system
    for name, region, event in _fixture_regions():
        ok = validate_region(bg, tau, region)
        solved = ok and any(
            region.solves(SeparationAtom("essp", event, s))
            for s in bg.states
            if (bg.state_index[s], bg.event_index[event]) not in bg.arc_at
        )
        good &= step(f"fixture region {name} validates and separates {event}", ok and solved)

    _emit("\n".join(lines), args.out)
    return EXIT_YES if good else EXIT_NO


def _fixture_regions() -> list[tuple[str, Region, str]]:
    """The four worked example regions on the modified split gadget, with
    the event each one separates."""
    t = [[f"t_{i}.{j}" for j in range(5)] for i in range(5)]
    bots = [f"⊥_{i}" for i in range(5)]
    all_states = [s for row in t for s in row] + bots

    def region(ones, sigs):
        support = {s: (1 if s in ones else 0) for s in all_states}
        signature = {
            "w_0": "nop", "w_1": "nop", "w_2": "nop", "w_3": "nop", "w_4": "nop",
            "⊖_1": "nop", "⊖_2": "nop", "⊖_3": "nop", "⊖_4": "nop",
            "v0": "nop", "v0'": "nop", "v1": "nop", "v2": "nop", "v2'": "nop",
            "v3": "nop",
        }
        signature.update(sigs)
        return Region(support, signature)

    r0 = region(
        {t[0][1], t[0][3], t[1][1], t[1][3], t[1][4], t[2][1], t[2][2],
         t[3][0], t[3][2], t[4][3], t[4][4]},
        {"v1": "inp", "v0": "swap", "v0'": "swap", "v2": "swap", "w_3": "swap"},
    )
    r1 = region(
        {t[0][1], t[0][3], t[1][0], t[1][2], t[2][0], t[2][3], t[2][4],
         t[3][0], t[3][2], t[4][0], t[4][1], t[4][2]},
        {"v1": "inp", "v0": "swap", "v0'": "swap", "v2": "swap",
         "w_1": "swap", "w_2": "swap", "w_3": "swap", "w_4": "swap"},
    )
    r2 = region(
        {t[0][2], t[0][4], t[1][0], t[2][2], t[2][4], t[3][1], t[3][2],
         t[4][2], t[4][3]},
        {"v0": "inp", "v1": "swap", "v3": "swap", "w_1": "swap"},
    )
    r3 = region(
        {t[0][0], t[0][1], t[0][2], t[1][0], t[2][0], t[2][1], t[2][2]},
        {"v0": "inp", "w_0": "swap", "w_1": "swap", "w_2": "swap"},
    )
    return [("R_0", r0, "v1"), ("R_1", r1, "v1"), ("R_2", r2, "v0"), ("R_3", r3, "v0")]


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="boolnet",
        description="Boolean Petri-net synthesis and transition-system modification.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp, fmt_choices):
        sp.add_argument("--out", help="write the artifact to a file instead of stdout")
        sp.add_argument("--format", choices=fmt_choices, default=fmt_choices[0])

    sp = sub.add_parser("check", help="decide a separation property")
    sp.add_argument("--prop", choices=PROPERTIES, required=True)
    sp.add_argument("--type", required=True, help="comma-separated interaction names")
    sp.add_argument("ts", help="transition-system file")
    common(sp, ("regions",))
    sp.set_defaults(fn=_cmd_check)

    sp = sub.add_parser("synth", help="synthesize a net for a mode")
    sp.add_argument("--mode", choices=MODES, required=True)
    sp.add_argument("--type", required=True)
    sp.add_argument("ts")
    common(sp, ("net", "dot"))
    sp.set_defaults(fn=_cmd_synth)

    sp = sub.add_parser("simulate", help="reachability graph of a net")
    sp.add_argument("net")
    common(sp, ("ts", "dot"))
    sp.set_defaults(fn=_cmd_simulate)

    sp = sub.add_parser("modify", help="decide a budgeted modification")
    sp.add_argument("--kind", choices=KINDS, required=True)
    sp.add_argument("--mode", choices=MODES, required=True)
    sp.add_argument("--kappa", type=_nonnegative, required=True)
    sp.add_argument("--type", required=True)
    sp.add_argument("ts")
    common(sp, ("plan", "ts"))
    sp.set_defaults(fn=_cmd_modify)

    sp = sub.add_parser("gadget", help="build a reduction gadget")
    sp.add_argument("--problem", choices=KINDS, required=True)
    sp.add_argument("--variant", choices=VARIANTS, default="directed")
    sp.add_argument("--lambda", dest="lam", type=int, required=True)
    sp.add_argument("graph")
    common(sp, ("ts", "dot"))
    sp.set_defaults(fn=_cmd_gadget)

    sp = sub.add_parser("vc", help="brute-force vertex cover")
    sp.add_argument("--lambda", dest="lam", type=_nonnegative, required=True)
    sp.add_argument("graph")
    common(sp, ("cover",))
    sp.set_defaults(fn=_cmd_vc)

    sp = sub.add_parser("fixtures", help="run the bundled worked examples")
    common(sp, ("report",))
    sp.set_defaults(fn=_cmd_fixtures)

    return p


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The parser of this process, built on first use."""
    return build_parser()


def _warning_line(message, *_) -> None:
    print(f"warning: {message}", file=sys.stderr)


def run(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else 0
    with warnings.catch_warnings():
        # a library warning is one line for the user, not a source location
        warnings.showwarning = _warning_line
        try:
            return args.fn(args)
        except SearchBudgetExceeded as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_BUDGET
        except (BoolnetError, OSError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
