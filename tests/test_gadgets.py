"""Reduction gadgets, the cover oracle, and cover-to-plan conversion."""

import pytest

import boolnet as bn

TAU_D = bn.BooleanType.of("nop", "inp", "swap")
TAU_B = bn.BooleanType.of("nop", "swap", "used")


def worked_graph():
    return bn.Graph3B.build(
        [("v0", "v1"), ("v0", "v2"), ("v0", "v3"), ("v1", "v2"), ("v2", "v3")]
    )


def test_graph_build_and_accessors():
    g = worked_graph()
    assert g.vertices == ("v0", "v1", "v2", "v3")
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 3))
    assert g.edge_names() == [
        ("v0", "v1"),
        ("v0", "v2"),
        ("v0", "v3"),
        ("v1", "v2"),
        ("v2", "v3"),
    ]


@pytest.mark.parametrize(
    "edges,kwargs,exc",
    [
        ([("a", "a")], {}, bn.ParseError),  # self-loop
        ([("a", "b"), ("b", "a")], {}, bn.ParseError),  # duplicate edge
        ([("a", "b"), ("a", "c"), ("a", "d"), ("a", "e")], {}, bn.ParseError),  # degree 4
        ([("a", "b")], {"vertices": ["a", "b", "c"]}, bn.ParseError),  # isolated c
        ([("a", "q")], {"vertices": ["a", "b"]}, bn.UnknownId),
    ],
)
def test_graph_build_rejects(edges, kwargs, exc):
    with pytest.raises(exc):
        bn.Graph3B.build(edges, **kwargs)


def test_graph_serialize_parse_round_trip():
    g = worked_graph()
    back = bn.parse_graph(bn.serialize_graph(g))
    assert back.vertices == g.vertices
    assert back.edges == g.edges


def test_parse_graph_rejects_junk():
    with pytest.raises(bn.ParseError):
        bn.parse_graph("vertex a\nwibble")


def test_parse_graph_rejects_repeated_graph_line():
    with pytest.raises(bn.ParseError, match="line 3: duplicate graph declaration"):
        bn.parse_graph("graph g\nedge a b\ngraph h\n")


# Each input holds one error: the exception class and its whole message,
# `line N:` prefix included, for every error parse_graph raises.
PARSE_GRAPH_ERRORS = {
    "vertex a\nwibble": (bn.ParseError, "line 2: unknown directive 'wibble'"),
    "graph g\nedge a b\ngraph h": (bn.ParseError, "line 3: duplicate graph declaration"),
    "graph\nedge a b": (bn.ParseError, "line 1: expected `graph <name>`"),
    "graph g h\nedge a b": (bn.ParseError, "line 1: expected `graph <name>`"),
    "vertex\nedge a b": (bn.ParseError, "line 1: expected `vertex <v>`"),
    "vertex a b\nedge a b": (bn.ParseError, "line 1: expected `vertex <v>`"),
    "edge a": (bn.ParseError, "line 1: expected `edge <u> <v>`"),
    "edge a b c": (bn.ParseError, "line 1: expected `edge <u> <v>`"),
    "edge a a": (bn.ParseError, "self-loop at 'a'"),
    "edge a b\nedge b a": (bn.ParseError, "duplicate edge 'b' 'a'"),
    "vertex a\nvertex a\nedge a b": (bn.ParseError, "vertex 'a' listed twice"),
    "vertex a\nvertex b\nvertex c\nedge a b": (bn.ParseError, "vertex 'c' has no edge"),
    "vertex a\nedge a b": (bn.UnknownId, "unknown identifier 'b' (edge endpoint)"),
    "edge a b\nedge a c\nedge a d\nedge a e": (
        bn.ParseError,
        "vertex 'a' lies in 4 edges, at most 3 allowed",
    ),
}


@pytest.mark.parametrize("text", list(PARSE_GRAPH_ERRORS))
def test_parse_graph_rejects(text):
    exc, message = PARSE_GRAPH_ERRORS[text]
    with pytest.raises(exc) as info:
        bn.parse_graph(text)
    assert type(info.value) is exc
    assert str(info.value) == message


@pytest.mark.parametrize("name", ["a b", "v#1", "", "tab\tv", "two\nlines", 7])
def test_vertex_names_the_graph_format_cannot_read_back_are_rejected(name):
    for edges, vertices in (
        ([(name, "c")], None),
        ([("c", name)], None),
        ([("c", "d")], ["c", "d", name]),
    ):
        with pytest.raises(bn.ParseError, match="^bad vertex name "):
            bn.Graph3B.build(edges, vertices=vertices)


def test_vertex_names_round_trip_through_the_graph_format():
    names = ["v0", "x.1", "(a,b)", "⊥", "é", "a$", "ι'"]
    for vertices in (None, list(reversed(names))):
        g = bn.Graph3B.build(list(zip(names, names[1:])), vertices=vertices, name="g")
        back = bn.parse_graph(bn.serialize_graph(g))
        assert (back.name, back.vertices, back.edges) == (g.name, g.vertices, g.edges)


def test_brute_force_vc_goldens():
    g = worked_graph()
    assert bn.brute_force_vc(g, 0) is None
    assert bn.brute_force_vc(g, 1) is None
    assert bn.brute_force_vc(g, 2) == ("v0", "v2")
    # the tuple-lexicographic minimum can be larger than necessary
    assert bn.brute_force_vc(g, 3) == ("v0", "v1", "v2")
    k3 = bn.Graph3B.build([("v0", "v1"), ("v0", "v2"), ("v1", "v2")])
    assert bn.brute_force_vc(k3, 1) is None
    assert bn.brute_force_vc(k3, 2) == ("v0", "v1")


def test_brute_force_vc_covers_are_covers():
    g = worked_graph()
    for lam in range(len(g.vertices) + 1):
        cover = bn.brute_force_vc(g, lam)
        if cover is None:
            continue
        assert len(cover) <= lam
        cov = set(cover)
        assert all(a in cov or b in cov for a, b in g.edge_names())


def test_gadget_spec_validation():
    with pytest.raises(bn.ParseError):
        bn.GadgetSpec(problem="merge", variant="directed", lam=0)
    with pytest.raises(bn.ParseError):
        bn.GadgetSpec(problem="split", variant="sideways", lam=0)
    g = worked_graph()
    for lam in (-1, 5):
        with pytest.raises(bn.LambdaOutOfRange):
            bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=lam))


def test_variant_for_type():
    assert bn.variant_for_type(TAU_D) == "directed"
    assert bn.variant_for_type(TAU_B) == "bidirectional"
    assert bn.variant_for_type(bn.BooleanType.of("nop", "swap", "used", "free")) == "bidirectional"
    assert bn.variant_for_type(bn.BooleanType.of("nop", "swap")) == "directed"
    assert bn.variant_for_type(bn.BooleanType.of("nop", "inp", "used")) == "directed"


def test_gadget_shapes_worked_graph():
    g = worked_graph()  # n=4, m=5
    shapes = {}
    for problem in ("split", "edge", "event", "state"):
        for variant in ("directed", "bidirectional"):
            gts, kappa = bn.build_gadget(g, bn.GadgetSpec(problem=problem, variant=variant, lam=2))
            shapes[(problem, variant)] = (
                len(gts.states),
                len(gts.events),
                len(gts.arcs),
                kappa,
            )
    assert shapes[("split", "directed")] == (30, 13, 29, 15)  # kappa = n + 2m - 1 + lam
    assert shapes[("split", "bidirectional")] == (30, 13, 58, 15)
    assert shapes[("edge", "directed")] == (24, 26, 45, 2)  # kappa = lam
    assert shapes[("edge", "bidirectional")] == (24, 26, 90, 4)  # kappa = 2 lam
    assert shapes[("event", "directed")] == (24, 26, 45, 2)
    assert shapes[("event", "bidirectional")] == (24, 26, 90, 2)
    assert shapes[("state", "directed")] == (24, 16, 35, 2)
    assert shapes[("state", "bidirectional")] == (24, 16, 70, 2)


def test_bidirectional_gadgets_pair_every_arc_with_its_reverse():
    g = worked_graph()
    for problem in ("split", "edge", "event", "state"):
        gts, _ = bn.build_gadget(g, bn.GadgetSpec(problem=problem, variant="bidirectional", lam=1))
        for i in range(0, len(gts.arcs), 2):
            s, e, d = gts.arcs[i]
            assert gts.arcs[i + 1] == (d, e, s)


def test_gadget_growth_in_lambda():
    # the split reduction absorbs lam purely in its budget; the edge one
    # adds a tail event per unit
    g = worked_graph()
    split_events, split_kappas = [], []
    edge_events = []
    for lam in range(3):
        gts, kappa = bn.build_gadget(g, bn.GadgetSpec(problem="split", variant="directed", lam=lam))
        split_events.append(len(gts.events))
        split_kappas.append(kappa)
        ets, _ = bn.build_gadget(g, bn.GadgetSpec(problem="edge", variant="directed", lam=lam))
        edge_events.append(len(ets.events))
    assert split_events == [13, 13, 13]
    assert split_kappas == [13, 14, 15]  # n + 2m - 1 + lam
    assert edge_events == [24, 25, 26]


def test_cover_to_solution_goldens():
    g = worked_graph()
    cover = ("v0", "v2")
    plan = bn.cover_to_solution(g, bn.GadgetSpec(problem="split", variant="directed", lam=2), cover)
    assert plan.kind == "split" and plan.cost == 15
    assert plan.splits == (("v0", (1, 0, 0, 1, 1, 0)), ("v2", (0, 1, 0, 1, 1, 0)))
    plan = bn.cover_to_solution(g, bn.GadgetSpec(problem="edge", variant="directed", lam=2), cover)
    assert plan.edges == (("f_0.0", "v0", "f_0.1"), ("f_2.0", "v2", "f_2.1"))
    plan = bn.cover_to_solution(g, bn.GadgetSpec(problem="event", variant="directed", lam=2), cover)
    assert plan.events == ("v0", "v2")
    plan = bn.cover_to_solution(g, bn.GadgetSpec(problem="state", variant="directed", lam=2), cover)
    assert plan.states == ("f_0.1", "f_2.1")


def test_cover_to_solution_plans_apply_and_win():
    g = worked_graph()
    cover = bn.brute_force_vc(g, 2)
    for problem, tau, mode in (
        ("split", TAU_D, "realize"),
        ("edge", TAU_D, "embed"),
        ("event", TAU_B, "langsim"),
        ("state", TAU_B, "realize"),
    ):
        variant = bn.variant_for_type(tau)
        spec = bn.GadgetSpec(problem=problem, variant=variant, lam=2)
        gts, kappa = bn.build_gadget(g, spec)
        plan = bn.cover_to_solution(g, spec, cover)
        assert plan.cost <= kappa
        modified = bn.apply_plan(gts, plan)
        assert bn.has_property(modified, tau, bn.property_for_mode(mode))


@pytest.mark.parametrize(
    "cover,exc",
    [
        (("v0", "zz"), bn.NotACover),
        (("v0", "v0"), bn.NotACover),  # duplicates collapse below cover size
        (("v0", "v1"), bn.NotACover),  # leaves (v2,v3) uncovered
        (("v0", "v1", "v2"), bn.NotACover),  # exceeds lambda
    ],
)
def test_cover_to_solution_rejects(cover, exc):
    g = worked_graph()
    spec = bn.GadgetSpec(problem="split", variant="directed", lam=2)
    with pytest.raises(exc):
        bn.cover_to_solution(g, spec, cover)


def test_check_equivalence_reports():
    k2 = bn.Graph3B.build([("u", "w")])
    rep = bn.check_equivalence(k2, 0, TAU_D, "split", "realize")
    assert rep.agree and rep.cover is None and rep.plan is None
    assert rep.kappa == 3  # n + 2m - 1 + 0
    rep = bn.check_equivalence(k2, 1, TAU_D, "split", "realize")
    assert rep.agree and rep.cover == ("u",) and rep.construction_ok
    assert rep.plan is not None and rep.plan.cost <= rep.kappa
    rep = bn.check_equivalence(k2, 1, TAU_B, "edge", "langsim")
    assert rep.agree and rep.variant == "bidirectional"
