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
