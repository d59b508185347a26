"""Every check on a system with a state its initial state never reaches.

Only the TransitionSystem constructor makes such a system; `build` and the
parsers reject it.  Each check walks the system's spanning tree
(`ts.spanning_tree`) and raises Unreachable naming the lowest-index state the
walk misses.  The removal search skips each candidate whose own check's
walk raises, so a state-removal plan may delete the unreached state, while
edge and event removal never reach it and answer None.  The split search
answers None without a walk only when no candidate reaches a check.

`relaxed_matrix` uses no assert statement, so the same checks run under
`python -O` too, where a bare assert in the library would be gone.
"""

import os
import subprocess
import sys
from pathlib import Path

import pytest

import boolnet as bn

T = bn.TransitionSystem
KERNEL_TAU = bn.BooleanType.of("nop", "inp", "set")  # not linear: the search kernel
LINEAR_TAU = bn.BooleanType.of("nop", "inp", "swap")  # decided by elimination in modify
OVERWRITE_TAU = bn.BooleanType.of("nop", "inp", "set", "swap")
SWAP = bn.BooleanType.of("nop", "swap")

# (system, its lowest-index unreached state, the unreached states)
RELAXED = [
    (T(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1),)), "s2", ("s2",)),
    (T(None, ("s0", "s1", "s2"), ("a",), 0, ((0, 0, 1), (2, 0, 0))), "s2", ("s2",)),
    (T(None, ("s0", "s1", "s2", "s3"), ("a",), 0, ((0, 0, 1), (3, 0, 0))), "s2", ("s2", "s3")),
]
# s2 is unreached, and removing it leaves a system with realize under
# {nop, swap}; the state fast path must not answer "no" for it
FAST = T(None, ("s0", "s1", "s2"), ("a", "b"), 0,
         ((0, 0, 1), (1, 0, 0), (0, 1, 0), (1, 1, 1), (2, 0, 0)))


def _expect(got, want, what):
    if got != want:
        raise AssertionError(f"{what}: got {got!r}, want {want!r}")


def _raises(want, what, fn, *args):
    with pytest.raises(bn.Unreachable) as exc:
        fn(*args)
    _expect(exc.value.state, want, what)


def _reached_part(ts):
    """The system on the states s0 and s1, which every RELAXED system and
    FAST reach."""
    keep = [ts.arc_names(a) for a, (s, _, _) in enumerate(ts.arcs) if s < 2]
    return T.build("s0", keep)


def relaxed_matrix():
    """Run every entry point on every relaxed system; raise AssertionError
    (or pytest's failure) on the first that does not answer as documented."""
    for ts, want, unreached in RELAXED + [(FAST, "s2", ("s2",))]:
        what = repr(ts.arcs)
        for tau in (KERNEL_TAU, LINEAR_TAU, OVERWRITE_TAU, SWAP):
            _raises(want, what, bn.CompiledProblem, ts, tau)
            _raises(want, what, bn.solve_atom, ts, tau, bn.SeparationAtom("ssp", "s0", "s1"))
            for prop in ("ssp", "essp", "both"):
                _raises(want, what, bn.decide_property, ts, tau, prop)
                _raises(want, what, bn.has_property, ts, tau, prop)
            for mode in bn.MODES:
                _raises(want, what, bn.synthesize, ts, tau, mode)
                for kappa in (len(ts.events), len(ts.events) + 2):
                    if ts is not FAST:
                        _raises(want, what, bn.decide, ts, tau, "split", mode, kappa)
        _raises(want, what, bn.complete_region, ts, SWAP, 0, {e: "nop" for e in ts.events})
        target = _reached_part(ts)
        _raises(want, what, bn.induced_simulation, ts, target)
        net = bn.synthesize(target, LINEAR_TAU, "realize").net
        for mode in bn.MODES:
            _raises(want, what, bn.check_relation, ts, target, mode)
            _raises(want, what, bn.verify_implementation, ts, net, mode)

        if ts is FAST:
            continue
        # removal skips the candidates whose checks' walks raise
        for tau in (KERNEL_TAU, LINEAR_TAU):
            for mode in bn.MODES:
                plan = bn.decide(ts, tau, "state", mode, len(unreached))
                want_plan = bn.ModificationPlan(kind="state", cost=len(unreached), states=unreached)
                _expect(plan, want_plan, f"{what} state removal under {tau}, {mode}")
                for kind in ("edge", "event"):
                    got = bn.decide(ts, tau, kind, mode, len(ts.arcs) + len(ts.events))
                    _expect(got, None, f"{what} {kind} removal under {tau}, {mode}")

    # on FAST the even walk s2 a s0 b s0 a s1 b s1 refutes SSP(s2, s1) in
    # the one composition of kappa = |E| before any check: no candidate is
    # walked, and None is exact, as no split reaches s2.  Without a state
    # pair to separate (langsim) the candidate is checked, and raises.
    _expect(bn.decide(FAST, LINEAR_TAU, "split", "embed", 2), None, "FAST split")
    _raises("s2", "FAST split", bn.decide, FAST, LINEAR_TAU, "split", "langsim", 2)
    _raises("s2", "FAST split", bn.decide, FAST, LINEAR_TAU, "split", "embed", 4)

    # the state fast path walks the system before it answers
    for mode in ("langsim", "realize"):
        _raises("s2", "fast path", bn.decide_fast_path, FAST, SWAP, "state", mode)
        _raises("s2", "fast path", bn.decide, FAST, SWAP, "state", mode, 1)
    removed = bn.apply_plan(FAST, bn.ModificationPlan(kind="state", cost=1, states=("s2",)))
    _expect(bn.has_property(removed, SWAP, "both"), True, "FAST without s2")


def test_every_check_raises_unreachable_on_a_relaxed_system():
    relaxed_matrix()


def test_relaxed_matrix_holds_under_python_O():
    """Under -O the library's assert statements are gone: an unreached
    state must still raise, not come back as a region or a plan."""
    here = Path(__file__).resolve().parent
    path = os.pathsep.join([str(here.parent / "src"), str(here), os.environ.get("PYTHONPATH", "")])
    code = "import test_relaxed_systems as m; m.relaxed_matrix(); print(__debug__)"
    out = subprocess.run(
        [sys.executable, "-O", "-c", code],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert out.returncode == 0, out.stderr
    assert out.stdout.split() == ["False"]
