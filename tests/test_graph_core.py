import builtins
import contextlib
import itertools
import pickle
import random
import re

import pytest

from brooks_sim.errors import (
    BrooksSimError,
    GraphFormatError,
    GraphInvariantError,
    ImproperColoringError,
)
from brooks_sim.graph_core import (
    Graph,
    PartialColoring,
    common_neighbour_pass,
    contains_delta_plus_one_clique,
    generate_instance,
    is_simplicial,
    load_graph_with_header,
    mask_of,
    save_graph,
)
from brooks_sim.graph_core.graph import masks_fit
from brooks_sim.graph_core.measures import _triangle_pass
from oracles import (
    colours_of,
    complete_graph,
    cycle_graph,
    hidden_in_prism,
    measure_slack,
    missing_pairs,
    neighbour_masks,
    path_graph,
    scan_graph_file,
    sequential_graph,
)


def star(leaves: int) -> Graph:
    return Graph(leaves + 1, [(0, i) for i in range(1, leaves + 1)])


class TestGraph:
    def test_rejects_self_loop(self):
        with pytest.raises(GraphInvariantError):
            Graph(3, [(0, 0)])

    def test_rejects_duplicate_edge(self):
        with pytest.raises(GraphInvariantError):
            Graph(3, [(0, 1), (1, 0)])
        # n*n > 128*m: the repeat is found without masks
        with pytest.raises(GraphInvariantError, match=r"duplicate edge \(0,199\)"):
            Graph(200, [(0, 199), (5, 6), (199, 0)])

    @pytest.mark.parametrize("n", [4, 200])
    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, 1), (0, 2), (2, 3), (1, 0)], "duplicate edge (0,1)"),
            # node 0's powers of two 2+2+4+8 carry twice, to the single bit 16
            ([(0, 1), (1, 0), (0, 2), (0, 3)], "duplicate edge (0,1)"),
            ([(2, 3), (0, 1), (3, 2), (1, 0)], "duplicate edge (2,3)"),
        ],
    )
    def test_repeated_edge_message_is_the_same_on_both_sides_of_the_mask_rule(
        self, n, edges, message
    ):
        assert masks_fit(n, len(edges)) == (n == 4)
        with pytest.raises(GraphInvariantError) as err:
            Graph(n, edges)
        assert str(err.value) == message

    def test_rejects_out_of_range(self):
        with pytest.raises(GraphInvariantError):
            Graph(2, [(0, 2)])

    @pytest.mark.parametrize(
        "edges, message",
        [
            ([(0, -1)], "edge (0,-1) out of range for n=3"),
            ([(0, 1), (1, 0), (0, 5)], "duplicate edge (0,1)"),
            ([(0, 5), (0, 1), (1, 0)], "edge (0,5) out of range for n=3"),
            ([(0, 1), (0, 1), (2, 2)], "duplicate edge (0,1)"),
            ([(1.0, 2)], "edge (1.0,2) has a non-int endpoint"),
            ([("1", 2)], "edge ('1',2) has a non-int endpoint"),
            ([(None, 2)], "edge (None,2) has a non-int endpoint"),
            ([(0, 1), (1, 2, 3)], "edge (1, 2, 3) is not a pair of node ids"),
            ([(0, 1), 2], "edge 2 is not a pair of node ids"),
            ([(1.0, 2), (0, 5)], "edge (1.0,2) has a non-int endpoint"),
            ([(0, 5), (1.0, 2)], "edge (0,5) out of range for n=3"),
            ([(0, 1), (1, 0), ("1", 2)], "duplicate edge (0,1)"),
        ],
    )
    def test_error_names_first_bad_edge_in_input_order(self, edges, message):
        with pytest.raises(GraphInvariantError) as err:
            Graph(3, edges)
        assert str(err.value) == message

    def test_rejects_negative_node_count(self):
        with pytest.raises(GraphInvariantError) as err:
            Graph(-1, [])
        assert str(err.value) == "negative node count -1"

    def test_rejects_bool_node_count(self):
        # a bool is an int subclass, but no other int argument of the package takes one
        with pytest.raises(GraphInvariantError) as err:
            Graph(True, [])
        assert str(err.value) == "node count True is not an int"

    @pytest.mark.parametrize("n", [5.0, "5", None])
    def test_rejects_non_int_node_count(self, n):
        with pytest.raises(GraphInvariantError) as err:
            Graph(n, [])
        assert str(err.value) == f"node count {n!r} is not an int"

    def test_int_like_endpoints_give_the_plain_int_graph(self):
        np = pytest.importorskip("numpy")
        edges = [(0, 70), (1, 70), (70, 79)]
        g = Graph(np.int64(80), [(np.int64(u), np.int64(v)) for u, v in edges])
        plain = Graph(80, edges)
        assert (g.n, g.adj, g.masks) == (plain.n, plain.adj, plain.masks)
        assert all(type(v) is int for row in g.adj for v in row)
        assert g.has_edge(0, 70) and g.has_edge(70, 79) and not g.has_edge(0, 1)

    def test_accepts_an_iterator_of_edges(self):
        g = Graph(4, ((v, v + 1) for v in range(3)))
        assert g == Graph(4, [(0, 1), (1, 2), (2, 3)])
        assert g.m == 3

    def test_m_counts_edges(self):
        assert complete_graph(6).m == 15
        assert Graph(5, []).m == 0

    def test_matches_sequential_constructor(self):
        # about a third valid graphs; the rest self-loops, duplicates and
        # out-of-range ids, often several in one edge list
        rng = random.Random(11)
        for _ in range(2000):
            n = rng.randrange(1, 8)

            def node():
                return rng.randrange(-1, n + 1) if rng.random() < 0.03 else rng.randrange(n)

            edges = [(node(), node()) for _ in range(rng.randrange(0, 8))]
            try:
                expected = sequential_graph(n, edges)
            except GraphInvariantError as err:
                with pytest.raises(GraphInvariantError) as got:
                    Graph(n, edges)
                assert str(got.value) == str(err), (n, edges)
                continue
            g = Graph(n, edges)
            assert (g.adj, tuple(neighbour_masks(g)), g.m, g.delta) == expected, (n, edges)

    def test_adjacency_sorted_and_symmetric(self):
        g = Graph(4, [(2, 1), (0, 3), (1, 0)])
        assert g.adj[1] == (0, 2)
        for u in range(4):
            for v in g.adj[u]:
                assert u in g.adj[v]
        # n*n > 128*m: has_edge searches the sorted tuple, and a copy is
        # the same graph before and after a mask is built into its cache,
        # whose copy builds the masks not yet read
        g = Graph(300, [(0, 299), (5, 6), (6, 7)])
        assert not g.small_masks and pickle.loads(pickle.dumps(g)) == g
        assert [g.has_edge(0, 299), g.has_edge(299, 0), g.has_edge(5, 7), g.has_edge(0, 298)] == [
            True,
            True,
            False,
            False,
        ]
        assert g.masks[0] == 1 << 299
        copy = pickle.loads(pickle.dumps(g))
        assert copy == g and copy.masks == g.masks == {0: 1 << 299}
        assert copy.masks[6] == (1 << 5) | (1 << 7) and len(g.masks) == 1

    def test_delta(self):
        assert star(4).delta == 4
        assert cycle_graph(5).delta == 2
        assert Graph(3, []).delta == 0


class TestSparsity:
    def test_k5_node_is_zero(self):
        g = complete_graph(5)
        assert missing_pairs(g, 0) == 0

    def test_star_center(self):
        # m(N(v)) = 0: sparsity (binom(4,2) - 0) / 4 = 3/2, times delta 4
        assert missing_pairs(star(4), 0) == 6

    def test_cycle_node(self):
        # sparsity 1/2 at delta 2
        assert missing_pairs(cycle_graph(5), 0) == 1

    def test_zero_iff_neighborhood_is_delta_clique(self):
        g = complete_graph(6)
        assert all(missing_pairs(g, v) == 0 for v in range(6))
        # remove one edge: the endpoints' neighborhoods stay complete but shrink
        h = Graph(6, [e for e in g.edges() if e != (0, 1)])
        assert missing_pairs(h, 2) > 0

    @pytest.mark.parametrize("d,delta", [(3, 6), (4, 7), (5, 9)])
    def test_simplicial_node_formula(self, d, delta):
        # v in a K_{d+1}, plus a disjoint star forcing the graph's max degree
        k = d + 1
        edges = [(i, j) for i in range(k) for j in range(i + 1, k)]
        hub = k
        edges += [(hub, hub + 1 + i) for i in range(delta)]
        g = Graph(k + 1 + delta, edges)
        assert g.delta == delta
        assert missing_pairs(g, 0) == delta * (delta - 1) // 2 - d * (d - 1) // 2


class TestDeltaPlusOneClique:
    def test_k5(self):
        assert contains_delta_plus_one_clique(complete_graph(5))
        k4 = list(itertools.combinations(range(4), 2))
        g = hidden_in_prism(k4, 4)
        assert g.delta == 3 and contains_delta_plus_one_clique(g)

    def test_k5_minus_edge(self):
        g = complete_graph(5)
        h = Graph(5, [e for e in g.edges() if e != (0, 1)])
        assert not contains_delta_plus_one_clique(h)
        # K_4 minus an edge: its two degree-3 nodes miss the edge in N(v),
        # its two degree-2 nodes are simplicial but below Delta
        k4_minus = [e for e in itertools.combinations(range(4), 2) if e != (0, 1)]
        g = hidden_in_prism(k4_minus, 4)
        assert g.delta == 3
        assert sorted(v for v in range(g.n) if is_simplicial(g, v)) == sorted(
            v for v in range(g.n) if g.degree(v) == 2
        )
        assert not contains_delta_plus_one_clique(g)

    def test_c5(self):
        assert not contains_delta_plus_one_clique(cycle_graph(5))

    def test_embedded_clique_below_delta_not_counted(self):
        # K_4 hanging off a star: delta=5, the K_4 is not a K_6
        edges = [(i, j) for i in range(4) for j in range(i + 1, 4)]
        edges += [(4, 5 + i) for i in range(5)]
        g = Graph(10, edges)
        assert g.delta == 5
        assert not contains_delta_plus_one_clique(g)

    def _brute_force(self, g: Graph) -> bool:
        # every k-subset of each connected component, which holds any clique
        k = g.delta + 1
        seen: set[int] = set()
        for start in range(g.n):
            if start in seen:
                continue
            component, stack = [], [start]
            seen.add(start)
            while stack:
                v = stack.pop()
                component.append(v)
                stack.extend(u for u in g.adj[v] if u not in seen)
                seen.update(g.adj[v])
            for subset in itertools.combinations(component, k):
                if all(g.has_edge(u, v) for u, v in itertools.combinations(subset, 2)):
                    return True
        return False

    def _agrees(self, g: Graph) -> bool:
        expected = self._brute_force(g)
        assert contains_delta_plus_one_clique(g) == expected
        # the pipeline's path: the common-neighbour pass's sums decide it
        inside_twice = common_neighbour_pass(g, 1)[1]
        assert contains_delta_plus_one_clique(g, inside_twice) == expected
        return expected

    def test_agrees_with_exhaustive_enumeration(self):
        import random

        rng = random.Random(7)
        for trial in range(200):
            n = rng.randrange(2, 12)
            p = rng.choice([0.2, 0.5, 0.8, 0.95])
            edges = [
                (u, v)
                for u in range(n)
                for v in range(u + 1, n)
                if rng.random() < p
            ]
            self._agrees(Graph(n, edges))

    def test_agrees_with_exhaustive_enumeration_off_node_0(self):
        # the scan tests only each clique's smallest member: disjoint unions,
        # some behind 300 isolated nodes, relabelled at random after those,
        # put a K_{delta+1} at random and high ids
        rng = random.Random(13)
        cliques = high = 0
        for trial in range(300):
            pad = rng.choice([0, 300])
            edges, n = [], pad
            for _ in range(rng.randrange(1, 4)):
                k = rng.randrange(1, 9)
                p = rng.choice([0.3, 0.7, 0.9, 1.0])
                pairs = itertools.combinations(range(n, n + k), 2)
                edges += [e for e in pairs if rng.random() < p]
                n += k
            label = list(range(n))
            label[pad:] = rng.sample(label[pad:], n - pad)
            g = Graph(n, [(label[u], label[v]) for u, v in edges])
            if self._agrees(g) and g.delta > 0:
                minima = [v for v in range(n) if g.degree(v) == g.delta and is_simplicial(g, v)]
                cliques += minima[0] > 0
                high += minima[0] > 256
        assert cliques >= 60 and high >= 40

    @pytest.mark.parametrize(
        "n, edges, expected",
        [
            (0, [], False),
            (1, [], True),
            (400, [], True),
            (2, [(0, 1)], True),
            (400, [(399, 398), (300, 5)], True),
        ],
    )
    def test_delta_0_and_1(self, n, edges, expected):
        # at delta 0 a node is a K_1; at delta 1 an edge is a K_2
        g = Graph(n, edges)
        assert g.delta == min(len(edges), 1)
        assert self._agrees(g) == expected

    def test_pass_sums_decide_the_simplicial_test(self):
        # N(v) with d nodes is a clique iff inside_twice[v] == d(d-1): on the
        # mask path, and on the triangle listing of the prism copies
        rng = random.Random(11)
        listed = 0
        for trial in range(100):
            k = rng.randrange(2, 12)
            p = rng.choice([0.2, 0.5, 0.8, 0.95])
            edges = [(u, v) for u in range(k) for v in range(u + 1, k) if rng.random() < p]
            for g in (Graph(k, edges), hidden_in_prism(edges, k)):
                inside_twice = common_neighbour_pass(g, 1)[1]
                got = [is_simplicial(g, v, inside_twice) for v in range(g.n)]
                assert got == [is_simplicial(g, v) for v in range(g.n)], (k, edges)
            listed += _triangle_pass(g, 1) is not None
        assert listed >= 90


class TestIO:
    def test_round_trip_identity(self, tmp_path):
        g = complete_graph(5)
        path = tmp_path / "k5.txt"
        save_graph(g, path)
        assert load_graph_with_header(path)[0] == g

    def test_parse_p3(self, tmp_path):
        path = tmp_path / "p3.txt"
        path.write_text("3 2\n0 1\n1 2\n")
        assert load_graph_with_header(path)[0] == path_graph(3)

    def test_duplicate_edge_reports_line(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 3\n0 1\n1 2\n0 1\n")
        with pytest.raises(GraphFormatError) as err:
            load_graph_with_header(path)[0]
        assert err.value.line == 4

    @pytest.mark.parametrize(
        "data, line, message",
        [
            (b"3 3\n0 1\n1 2\n0 1\n0 x\n", 4, "duplicate edge"),
            (b"3 3\n0 1\n0 x\n1 2\n0 1\n", 3, "non-integer edge"),
            # invalid UTF-8 past the first read chunk, after the duplicate
            (b"3 2\n0 1\n0 1\n" + b"# pad\n" * 3000 + b"\xff\n", 3, "duplicate edge"),
        ],
    )
    def test_first_defect_in_file_order_is_reported(self, tmp_path, data, line, message):
        path = tmp_path / "bad.txt"
        path.write_bytes(data)
        with pytest.raises(GraphFormatError, match=message) as err:
            load_graph_with_header(path)
        assert err.value.line == line

    def test_rejects_u_ge_v(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 1\n2 1\n")
        with pytest.raises(GraphFormatError):
            load_graph_with_header(path)[0]

    def test_rejects_wrong_edge_count(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_text("3 2\n0 1\n")
        with pytest.raises(GraphFormatError):
            load_graph_with_header(path)[0]

    def test_comments_and_header_hints(self, tmp_path):
        path = tmp_path / "g.txt"
        path.write_text("# family=clique_minus_edge\n# delta=4\n3 1\n# mid comment\n0 2\n")
        g, header = load_graph_with_header(path)
        assert g.m == 1
        assert header == {"family": "clique_minus_edge", "delta": "4"}

    @pytest.mark.parametrize(
        "key, value",
        [
            ("", "x"),
            ("my key", "x"),
            ("k=1", "v"),
            ("family", "a\nb"),
            ("family", "a\rb"),
            ("note", " padded "),
            ("note", "end\t"),
        ],
    )
    def test_save_rejects_hints_that_would_not_read_back(self, tmp_path, key, value):
        path = tmp_path / "g.txt"
        with pytest.raises(BrooksSimError, match="would not read back") as err:
            save_graph(path_graph(3), path, header={key: value})
        assert err.value.phase == "config"
        assert not path.exists()

    def test_invalid_utf8_is_a_format_error(self, tmp_path):
        path = tmp_path / "bad.txt"
        path.write_bytes(b"3 1\n0 1\n\xff\n")
        with pytest.raises(GraphFormatError, match="UTF-8") as err:
            load_graph_with_header(path)
        assert err.value.phase == "input"
        assert err.value.line is None  # decoding is chunked, so no line is claimed

    @pytest.mark.parametrize(
        "data", [b"3 2\n0 1\n1 2\n", b"3 3\n0 1\n1 2\n0 1\n"], ids=["valid", "duplicate"]
    )
    def test_file_is_opened_once(self, tmp_path, monkeypatch, data):
        path = tmp_path / "g.txt"
        path.write_bytes(data)
        opened = []
        real_open = builtins.open

        def counting_open(file, *args, **kwargs):
            opened.append(file)
            return real_open(file, *args, **kwargs)

        monkeypatch.setattr(builtins, "open", counting_open)
        with contextlib.suppress(GraphFormatError):
            load_graph_with_header(path)
        assert opened == [path]

    def test_matches_line_by_line_reference_on_corrupted_files(self, tmp_path):
        # The loader reads a file in one pass and looks for an earlier repeated
        # edge only when it raises; the reference checks every line as it comes.
        # Both must give the same graph and hints, or the same message and line.
        # Invalid UTF-8 is the one intended difference: the reference lets the
        # UnicodeDecodeError through, the loader raises a line-less error.
        rng = random.Random(20261019)
        path = tmp_path / "g.txt"
        seen = set()
        for _ in range(2000):
            path.write_bytes(corrupted_graph_file(rng))
            expected = load_outcome(scan_graph_file, path)
            got = load_outcome(load_graph_with_header, path)
            if expected == ("undecodable",):
                assert got[0] == "error" and "UTF-8" in got[1], got
                assert got[2:] == (None, "input")
            else:
                assert got == expected, path.read_bytes()
            seen.add(expected[0] if expected[0] != "error" else defect_kind(expected[1]))
        assert seen == {"graph", "undecodable", *GRAPH_FILE_DEFECTS}


GRAPH_FILE_DEFECTS = (
    "expected header",
    "non-integer header",
    "negative n or m",
    "empty file",
    "expected edge",
    "non-integer edge",
    "self-loop",
    "violates",
    "duplicate edge",
    "header declared",
)


def defect_kind(message: str) -> str:
    return next(kind for kind in GRAPH_FILE_DEFECTS if kind in message)


def load_outcome(load, path) -> tuple:
    try:
        g, header = load(path)
    except GraphFormatError as exc:
        return ("error", str(exc), exc.line, exc.phase)
    except UnicodeDecodeError:
        return ("undecodable",)
    return ("graph", g, header)


def corrupted_graph_file(rng: random.Random) -> bytes:
    """A small graph file with up to four random defects or distractions."""
    n = rng.randrange(1, 8)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    lines = [f"{u} {v}" for u, v in rng.sample(pairs, rng.randrange(len(pairs) + 1))]
    lines.insert(0, f"{n} {len(lines)}")
    for _ in range(rng.randrange(5)):
        at = rng.randrange(len(lines) + 1)
        kind = rng.randrange(8)
        if kind == 0 and len(lines) > 1:  # a repeated line, maybe with its ids swapped
            tokens = rng.choice(lines[1:]).split()
            if rng.random() < 0.5:
                tokens.reverse()
            lines.insert(at, " ".join(tokens))
        elif kind == 1 and lines:  # a bad token, or a token too many or too few
            i = rng.randrange(len(lines))
            tokens = lines[i].split() or ["0"]
            tokens[rng.randrange(len(tokens))] = rng.choice(("x", "1.5", "-1", "+1", "\u0663"))
            if rng.random() < 0.3:
                tokens = tokens[:1] if rng.random() < 0.5 else tokens + ["2"]
            lines[i] = " ".join(tokens)
        elif kind == 2:  # a self-loop, an id out of range or ids out of order
            u = rng.randrange(-1, n + 2)
            lines.insert(at, rng.choice((f"{u} {u}", f"{u} {n}", f"{u} {u - 1}")))
        elif kind == 3 and lines:  # a header count off by one
            tokens = lines[0].split()
            if len(tokens) == 2 and tokens[1].isdigit():
                lines[0] = f"{tokens[0]} {int(tokens[1]) + rng.choice((-1, 1))}"
        elif kind == 4:  # a comment, which may be a header hint
            lines.insert(at, rng.choice(("# family=mixed", "#", "  # k = v", "#a b=c", "#d=4")))
        elif kind == 5:  # a blank line
            lines.insert(at, rng.choice(("", "   ", "\t")))
        elif kind == 6 and lines:  # the header, or the first line, dropped
            del lines[0]
        elif kind == 7:  # a bad header if it lands first, a bad edge after
            lines.insert(at, rng.choice(("-1 0", "3", "a b", "2 -1")))
    data = (rng.choice(("\n", "\r\n")).join(lines) + "\n").encode()
    if rng.random() < 0.15:  # an undecodable byte anywhere
        at = rng.randrange(len(data) + 1)
        data = data[:at] + b"\xff" + data[at:]
    return data


class TestPartialColoring:
    def test_propriety_enforced(self):
        g = path_graph(3)
        col = PartialColoring(g)
        col.assign(0, 1)
        with pytest.raises(ImproperColoringError):
            col.assign(1, 1)
        col.assign(1, 0)
        col.assign(2, 1)
        assert col.is_total()

    @pytest.mark.parametrize("n", [3, 300])
    def test_is_total_on_both_sides_of_the_mask_rule(self, n):
        g = path_graph(n)
        assert g.small_masks == (n == 3)
        col = PartialColoring(g)
        for v in range(n):
            assert not col.is_total()
            col.assign(v, v % 2)
        assert col.is_total()

    def test_color_range_enforced(self):
        col = PartialColoring(path_graph(2))
        with pytest.raises(ImproperColoringError):
            col.assign(0, 1)

    def test_no_double_assign(self):
        col = PartialColoring(path_graph(3))
        col.assign(0, 0)
        with pytest.raises(ImproperColoringError):
            col.assign(0, 1)

    def test_palette_and_repetitions(self):
        g = star(4)
        col = PartialColoring(g)  # delta 4
        col.assign(1, 2)
        col.assign(2, 2)
        col.assign(3, 1)
        assert col.palette_mask(0).bit_count() == 2
        assert col.palette_mask(0) == mask_of((0, 3))
        # one repeated color: colored neighbors minus distinct colors among them
        colored = [u for u in g.adj[0] if col.is_colored(u)]
        assert len(colored) == 3
        assert len(colored) - (col.delta - col.palette_mask(0).bit_count()) == 1

    def test_uncolored_degree_masks(self):
        g = star(4)
        col = PartialColoring(g)
        full = frozenset(range(g.n))
        # with every node left out the slack is the palette size, so the drop
        # from it to the slack in G is the uncolored degree
        assert col.slack_in(0, full) - col.slack_in(0) == 4
        col.assign(1, 0)
        assert col.slack_in(0, full) - col.slack_in(0) == 3
        assert col.slack_in(0) == 4 - 1 - 3  # palette 3, uncolored degree 3

    def test_slack_in_builds_each_left_out_mask_once(self, monkeypatch):
        # the slack gate alternates outside_vo with the empty set; each mask is
        # built on the set's first use only, and an equal new set finds it too
        from brooks_sim.graph_core import coloring

        builds = []

        def counted(nodes):
            builds.append(nodes)
            return mask_of(nodes)

        monkeypatch.setattr(coloring, "mask_of", counted)
        g = generate_instance("matched_cliques", 16, 0).graph
        assert g.small_masks
        col = PartialColoring(g)
        left_out = frozenset(range(0, g.n, 3))
        for v in range(g.n):
            assert col.slack_in(v, left_out) == measure_slack(g, col, v, set(range(g.n)) - left_out)
            assert col.slack_in(v) == measure_slack(g, col, v, range(g.n))
        assert col.slack_in(1, frozenset(left_out)) == col.slack_in(1, left_out)
        assert builds == [left_out, frozenset()]

    @pytest.mark.parametrize(
        "family, delta, params",
        [
            pytest.param("clique_minus_edge", 8, {}, id="clique_minus_edge-8"),
            pytest.param("matched_cliques", 6, {}, id="matched_cliques-6"),
            pytest.param("guarded_pair", 12, {}, id="guarded_pair-12"),
            pytest.param("random_gnd", 8, {}, id="random_gnd-8"),
            # n*n > 128*m: no masks, slack counted from the colour list
            pytest.param("random_gnd", 8, {"n": 600}, id="random_gnd-8-n600"),
        ],
    )
    def test_palettes_and_slack_match_recount(self, family, delta, params):
        rng = random.Random(delta)
        base = generate_instance(family, delta, seed=1, **params).graph
        lone = base.n  # a neighbourless extra node
        g = Graph(base.n + 1, base.edges())
        assert g.small_masks == (not params)

        def recount(col, v):
            """v's palette as a colour tuple, from the colour list alone."""
            held = {col.color[x] for x in g.adj[v]}
            return tuple(c for c in range(delta) if c not in held)

        for _ in range(5):
            col = PartialColoring(g)
            for v in rng.sample(range(g.n), g.n):
                free = colours_of(col.palette_mask(v))
                if free and rng.random() < 0.6:
                    col.assign(v, rng.choice(free))
            assert col.palette_mask(lone) == mask_of(range(delta))
            for _ in range(40):
                u, w = rng.randrange(g.n), rng.choice([lone, rng.randrange(g.n)])
                assert col.palette_mask(u) == mask_of(recount(col, u))
                both = set(recount(col, u)) & set(recount(col, w))
                assert col.palette_mask(u, w) == mask_of(both)
            sub = [v for v in range(g.n) if rng.random() < 0.7]
            left_out = frozenset(range(g.n)) - set(sub)
            for v in col.uncolored_in(range(g.n)):
                assert col.slack_in(v, left_out) == measure_slack(g, col, v, sub)
                assert col.slack_in(v) == measure_slack(g, col, v, range(g.n))

        # the used-colour record, rechecked after every call of a random
        # sequence of assigns, improper ones included
        col = PartialColoring(g)
        improper = 0
        for v in rng.sample(range(g.n), min(g.n, 60)):
            held = sorted({col.color[x] for x in g.adj[v]} - {None})
            if held and rng.random() < 0.5:
                c = rng.choice(held)
                first = next(u for u in g.adj[v] if col.color[u] == c)
                message = f"edge ({first},{v}) would be monochromatic in {c}"
                with pytest.raises(ImproperColoringError, match=re.escape(message)):
                    col.assign(v, c)
                improper += 1
            free = recount(col, v)
            if free:
                col.assign(v, rng.choice(free))
            for x in range(g.n):
                assert col.palette_mask(x) == mask_of(recount(col, x))
            for _ in range(10):
                u, w = rng.randrange(g.n), rng.randrange(g.n)
                both = set(recount(col, u)) & set(recount(col, w))
                assert col.palette_mask(u, w) == mask_of(both)
            sub = [x for x in range(g.n) if rng.random() < 0.7]
            left_out = frozenset(range(g.n)) - set(sub)
            uncolored = col.uncolored_in(range(g.n))
            for x in rng.sample(uncolored, min(len(uncolored), 10)):
                assert col.slack_in(x, left_out) == measure_slack(g, col, x, sub)
        assert improper
