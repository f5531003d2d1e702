import pytest

from percolab import (Configuration, Graph, GraphFormatError, clusters, faces,
                      generate, graph_from_spec, parse_graph, same_face)

TRIANGLE_FILE = """
# a triangle
vertex a
vertex b
vertex c
edge ab a b 0.5
edge bc b c 0.5
edge ca c a 0.5
mark a b c
"""

TRIANGLE_ROTATED = TRIANGLE_FILE + """
rotation a ab ca
rotation b bc ab
rotation c ca bc
outerface ab a
"""


def test_parse_triangle():
    g = parse_graph(TRIANGLE_FILE)
    assert g.n_edges == 3
    assert g.marks == ("a", "b", "c")
    assert all(p == 0.5 for p in g.probs)
    assert g.rotation is None


def test_parse_rotation_and_faces():
    g = parse_graph(TRIANGLE_ROTATED)
    fs = faces(g)
    assert len(fs.faces) == 2  # Euler: 3 - 3 + F = 2
    assert fs.vertices_of(fs.outer_index) == {"a", "b", "c"}


@pytest.mark.parametrize("line,frag", [
    ("edge e1 a a 0.5", "loop"),
    ("edge ab a b 0.5\nedge ab b c 0.5", "duplicate edge"),
    ("edge ab a z 0.5", "unknown vertex"),
    ("edge ab a b 1.5", "outside"),
    ("frobnicate x", "unknown directive"),
])
def test_parse_errors(line, frag):
    text = "vertex a\nvertex b\nvertex c\n" + line + "\nedge bc b c 0.5\nedge ca c a 0.5\nmark a b\n"
    with pytest.raises(GraphFormatError, match=frag):
        parse_graph(text)


def _triangle(**kw):
    """Graph() on the triangle of TRIANGLE_ROTATED, with arguments replaced."""
    args = dict(vertices="abc", edges=[("ab", "a", "b"), ("bc", "b", "c"), ("ca", "c", "a")],
                edge_prob={"ab": 0.5, "bc": 0.5, "ca": 0.5}, marks=("a", "b"),
                rotation={"a": ["ab", "ca"], "b": ["bc", "ab"], "c": ["ca", "bc"]},
                outer_anchor=("ab", "a"))
    args.update(kw)
    return Graph(**args)


_BODY = "vertex a\nvertex b\nedge ab a b 0.5\n"


@pytest.mark.parametrize("build, frag", [
    (lambda: _triangle(vertices=["a", "b", "c", "1x"]), "bad vertex name '1x'"),
    (lambda: _triangle(edges=[("ab", "a", "b"), ("ab", "b", "c"), ("ca", "c", "a")]),
     "duplicate edge id 'ab'"),
    (lambda: _triangle(edges=[("ab", "a", "b"), ("ba", "b", "a"), ("bc", "b", "c")],
                       rotation=None, outer_anchor=None), "parallel edge 'ba'"),
    (lambda: _triangle(edge_prob={"ab": 0.5, "bc": 0.5}), "edge 'ca' has no probability"),
    (lambda: _triangle(marks=("a",)), "need 2 or 3 marked vertices"),
    (lambda: _triangle(marks=("a", "a")), "marks must be distinct"),
    (lambda: _triangle(marks=("a", "z")), "mark 'z' is not a vertex"),
    (lambda: _triangle(rotation={"a": ["ab", "ca"], "b": ["bc", "ab"]}),
     "rotation missing for vertex 'c'"),
    (lambda: _triangle(rotation={"a": ["ab", "ca"], "b": ["bc", "ab"], "c": ["ca", "bc"],
                                 "z": []}), "rotation for unknown vertex 'z'"),
    (lambda: _triangle(rotation=None), "outerface requires rotation lines"),
    (lambda: _triangle(outer_anchor=("zz", "a")), "outerface references unknown edge 'zz'"),
    (lambda: _triangle(outer_anchor=("ab", "c")), "outerface vertex 'c' is not an endpoint"),
    (lambda: same_face(_triangle(), ["a", "z"]), "unknown vertex 'z'"),
    (lambda: parse_graph("vertex a b\n"), "line 1: vertex takes one name"),
    (lambda: parse_graph("vertex a\n\nvertex a\n"), "line 3: duplicate vertex 'a'"),
    (lambda: parse_graph("vertex a\nedge ab a b\n"), "line 2: edge takes: id u v p"),
    (lambda: parse_graph("vertex a\nvertex b\nedge ab a b half\n"),
     "line 3: bad probability 'half'"),
    (lambda: parse_graph(_BODY + "edge ab a b 0.5\n"), "line 4: duplicate edge id 'ab'"),
    (lambda: parse_graph(_BODY + "rotation a\n"), "line 4: rotation takes: vertex edge"),
    (lambda: parse_graph(_BODY + "rotation a ab\nrotation a ab\n"),
     "line 5: duplicate rotation for 'a'"),
    (lambda: parse_graph(_BODY + "outerface ab\n"), "line 4: outerface takes: edge vertex"),
    (lambda: parse_graph(_BODY + "outerface ab a\nouterface ab b\n"),
     "line 5: duplicate outerface line"),
    (lambda: parse_graph(_BODY + "mark a b\nmark a b\n"), "line 5: duplicate mark line"),
    (lambda: parse_graph(_BODY + "mark a b c d\n"), "line 4: mark takes 2 or 3 vertices"),
    (lambda: generate("path", 0, p=0.5), "path needs n >= 1 edges"),
    (lambda: generate("cycle", 2, p=0.5), "cycle needs n >= 3"),
    (lambda: generate("grid", 1, 3, p=0.5), "grid needs w, h >= 2"),
    (lambda: generate("parallel", 0, p=0.5), "parallel needs n >= 1 routes"),
    (lambda: generate("theta", 1, p=0.5), "theta needs k >= 2 disjoint routes"),
    (lambda: generate("complete", 2, p=0.5), "complete needs n >= 3"),
    (lambda: generate("complete", 9, p=0.5), "complete supports n <= 8"),
    (lambda: generate("star", 3, p=0.5), "unknown family 'star'"),
    (lambda: generate("grid", 3, p=0.5), "grid takes 2 integer parameter"),
    (lambda: generate("cycle", 3, q=0.5), "route probability q only applies to parallel"),
    (lambda: generate("parallel", 3, p=0.5, q=0.5), "give p or q, not both"),
    (lambda: generate("parallel", 3, q=1.5), "q outside"),
    (lambda: generate("cycle", 3), "missing edge probability p"),
    (lambda: generate("cycle", 3, p=-0.5), "p outside"),
    (lambda: graph_from_spec("grid:3,3,p=0.5"), "not a family spec"),
    (lambda: graph_from_spec("family:grid"), "family spec needs parameters"),
    (lambda: graph_from_spec("family:grid:3,3,r=0.5"), "unknown family parameter 'r'"),
    (lambda: graph_from_spec("family:grid:3,3,p=half"), "bad value for 'p': 'half'"),
    (lambda: graph_from_spec("family:grid:3,x,p=0.5"), "bad integer parameter 'x'"),
])
def test_refusals_name_their_fault(build, frag):
    with pytest.raises(GraphFormatError) as info:
        build()
    assert frag in str(info.value)


def test_duplicate_vertex_rejected():
    with pytest.raises(GraphFormatError, match="duplicate vertex name"):
        Graph(["a", "b", "a"], [("e", "a", "b")], {"e": 0.5}, ("a", "b"))


def test_vertices_may_come_from_an_iterator():
    g = Graph((v for v in "ab"), [("e", "a", "b")], {"e": 0.5}, ("a", "b"))
    assert g.vertices == ("a", "b")


def test_parse_needs_marks():
    with pytest.raises(GraphFormatError, match="mark"):
        parse_graph("vertex a\nvertex b\nedge ab a b 0.5\n")
    with pytest.raises(GraphFormatError, match="2 or 3"):
        parse_graph("vertex a\nvertex b\nedge ab a b 0.5\nmark a\n")



@pytest.mark.parametrize("spec", ["family:grid:3,3,p=0.5,p=0.25",
                                  "family:parallel:3,q=0.5,q=0.5"])
def test_family_spec_refuses_repeated_parameter(spec):
    with pytest.raises(GraphFormatError, match="repeated family parameter"):
        graph_from_spec(spec)

def test_parse_rejects_disconnected():
    text = ("vertex a\nvertex b\nvertex c\nvertex d\n"
            "edge ab a b 0.5\nedge cd c d 0.5\nmark a b\n")
    with pytest.raises(GraphFormatError, match="not connected"):
        parse_graph(text)


def test_rotation_must_cover_incident_edges():
    bad = TRIANGLE_FILE + "rotation a ab\nrotation b bc ab\nrotation c ca bc\n"
    with pytest.raises(GraphFormatError, match="incident edges"):
        parse_graph(bad)


def test_clusters_examples():
    g = parse_graph(TRIANGLE_FILE)
    assert clusters(g, g.config([])) == [{"a"}, {"b"}, {"c"}]
    assert clusters(g, g.config(["ab"])) == [{"a", "b"}, {"c"}]
    gp = generate("path", 2, p=0.5)
    assert clusters(gp, gp.config(gp.edge_ids)) == [{"a", "b", "x1"}]


def test_clusters_monotone_under_opening():
    g = generate("cycle", 4, p=0.5)
    for mask in range(1 << g.n_edges):
        base = clusters(g, Configuration(g, mask))
        for i in range(g.n_edges):
            up = clusters(g, Configuration(g, mask | (1 << i)))
            # every old cluster sits inside some new cluster
            for cl in base:
                assert any(cl <= cl2 for cl2 in up)


@pytest.mark.parametrize("family,args,p,edges", [
    ("path", (2,), 0.5, 2),
    ("cycle", (3,), 0.5, 3),
    ("grid", (3, 3), 0.5, 12),
    ("parallel", (3,), 0.5, 6),
    ("theta", (3,), 0.5, 5),
    ("complete", (4,), 0.5, 6),
])
def test_family_shapes(family, args, p, edges):
    g = generate(family, *args, p=p)
    assert g.n_edges == edges


@pytest.mark.parametrize("spec", [
    "family:path:3,p=0.5",
    "family:cycle:5,p=0.25",
    "family:grid:3,3,p=0.5",
    "family:grid:2,4,p=0.5",
    "family:parallel:4,q=0.5",
    "family:theta:4,p=0.5",
])
def test_euler_formula_on_families(spec):
    g = graph_from_spec(spec)
    fs = faces(g)
    assert g.n_vertices - g.n_edges + len(fs.faces) == 2


def test_grid_faces_count():
    g = generate("grid", 3, 3, p=0.5)
    assert len(faces(g).faces) == 5  # 4 unit squares + outer


def test_path_single_face():
    g = generate("path", 2, p=0.5)
    assert len(faces(g).faces) == 1


def test_same_face():
    g = generate("cycle", 3, p=0.5)
    assert same_face(g, ["a", "b", "c"], "outer")
    gg = generate("grid", 3, 3, p=0.5)
    assert not same_face(gg, ["v1_1", "a"], "outer")
    assert same_face(gg, ["a", "b"], "outer")
    assert same_face(gg, ["v1_1", "a"], "any")


def test_marks_on_outer_face_for_planar_families():
    for spec in ("family:cycle:4,p=0.5", "family:theta:3,p=0.5",
                 "family:grid:3,2,p=0.5", "family:parallel:3,p=0.5"):
        g = graph_from_spec(spec)
        assert same_face(g, g.marks[:2], "outer"), spec


def test_parallel_routes_marks():
    g = generate("parallel", 3, p=0.5)
    assert g.marks == ("a", "b")
    assert g.n_vertices == 5  # subdivision vertices keep the graph simple


def test_generate_q_parameter():
    g = generate("parallel", 2, q=0.25)
    assert abs(g.probs[0] - 0.5) < 1e-15


def test_configuration_indexing():
    g = parse_graph(TRIANGLE_FILE)
    c = g.config(["ab", "ca"])
    assert c["ab"] and c["ca"] and not c["bc"]
    assert c.open_edges() == {"ab", "ca"}
    with pytest.raises(KeyError):
        c["zz"]


def test_faces_requires_rotation_and_anchor():
    g = parse_graph(TRIANGLE_FILE)
    with pytest.raises(GraphFormatError, match="rotation"):
        faces(g)
    g2 = parse_graph(TRIANGLE_FILE +
                     "rotation a ab ca\nrotation b bc ab\nrotation c ca bc\n")
    with pytest.raises(GraphFormatError, match="anchor"):
        faces(g2)


def test_bad_embedding_rejected():
    # complete(5) admits no plane embedding; any rotation must fail Euler
    g5 = generate("complete", 5, p=0.5)
    rot = {v: list(g5.incident[v]) for v in g5.vertices}
    with pytest.raises(GraphFormatError, match="plane embedding"):
        Graph(g5.vertices, list(g5.edges), dict(g5.edge_prob), g5.marks,
              rotation=rot, outer_anchor=(g5.edge_ids[0], "a"))


@pytest.mark.parametrize("call, exc, fragment", [
    (lambda g: Configuration(g, 1 << g.n_edges), ValueError, "mask out of range"),
    (lambda g: Configuration(g, -1), ValueError, "mask out of range"),
    (lambda g: clusters(g, Configuration(generate("cycle", 3, p=0.5), 0)),
     ValueError, "configuration belongs to a different graph"),
    (lambda g: same_face(g, ["a", "b"], which="inner"),
     ValueError, "which must be 'outer' or 'any'"),
    (lambda g: g.other_end(g.edge_ids[0], "c"), KeyError, "'c' is not an endpoint of"),
])
def test_graph_refusals(call, exc, fragment):
    with pytest.raises(exc, match=fragment):
        call(generate("cycle", 3, p=0.5))
