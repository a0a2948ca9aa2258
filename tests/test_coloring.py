"""Coloring model: parameters, verification semantics, certificates."""

import json
import random
import time

import pytest

from equitree import (
    ClassCheck,
    InputFormatError,
    Params,
    PreconditionError,
    TreeColoring,
    UNBOUNDED,
    certificate_from_coloring,
    coloring_from_certificate,
    complete_bipartite,
    component_diameter_max,
    construct,
    construct_knn,
    cycle,
    graph_from_edges,
    is_forest,
    maximal_outerplanar_random,
    path,
    remove_vertices,
    verify,
)
from equitree.coloring import _sweep


class TestParams:
    def test_defaults_unbounded(self):
        p = Params(3)
        assert p.k == UNBOUNDED and p.d == UNBOUNDED

    @pytest.mark.parametrize("bad", [0, -1, "3", 2.0, True])
    def test_bad_t_rejected(self, bad):
        with pytest.raises(PreconditionError):
            Params(bad)

    @pytest.mark.parametrize("bad", [-1, 1.5, "inf", True])
    def test_bad_caps_rejected(self, bad):
        with pytest.raises(PreconditionError):
            Params(2, k=bad)
        with pytest.raises(PreconditionError):
            Params(2, d=bad)

    def test_zero_caps_allowed(self):
        Params(2, 0, 0)

    def test_float_infinity_is_unbounded(self):
        inf = float("inf")
        assert Params(3, inf, 2) == Params(3, UNBOUNDED, 2)
        coloring = construct_knn(8, 5, inf, 2)
        assert coloring == construct_knn(8, 5, UNBOUNDED, 2)
        params = Params(5, inf, inf)
        assert verify(complete_bipartite(8), coloring, params).verdict
        # The certificate writes null, never the non-JSON token Infinity.
        text = json.dumps(certificate_from_coloring(coloring, params))
        assert '"k": null, "d": null' in text and "Infinity" not in text
        assert coloring_from_certificate(json.loads(text)) == (params, coloring)
        with pytest.raises(PreconditionError):
            Params(3, -inf, 2)


class TestTreeColoring:
    def test_color_range_enforced(self):
        with pytest.raises(InputFormatError):
            TreeColoring((0, 1), 2)
        with pytest.raises(InputFormatError):
            TreeColoring((1, 3), 2)
        with pytest.raises(InputFormatError):
            TreeColoring((True, 1), 2)
        with pytest.raises(InputFormatError, match="t must be"):
            TreeColoring((), 0)

    def test_colors_must_be_a_tuple(self):
        with pytest.raises(InputFormatError, match="colors must be a tuple, got list"):
            TreeColoring([1, 2], 2)

    @pytest.mark.parametrize("colors, message", [
        ((1, 2, True), "vertex 2 has color True, outside 1..3"),
        ((1, 0, 2), "vertex 1 has color 0, outside 1..3"),
        ((3, 1, 4, 2), "vertex 2 has color 4, outside 1..3"),
        ((1, 2.0), "vertex 1 has color 2.0, outside 1..3"),
    ])
    def test_first_bad_color_named(self, colors, message):
        with pytest.raises(InputFormatError) as info:
            TreeColoring(colors, 3)
        assert str(info.value) == message

    def test_int_subclass_colors_accepted(self):
        class Color(int):
            pass

        assert TreeColoring((Color(1), 2), 2).colors == (1, 2)

    def test_class_queries(self):
        c = TreeColoring((1, 2, 1, 3), 3)
        assert c.n == 4
        assert c.class_sizes() == [2, 1, 1]
        assert c.color_class(1) == [0, 2]
        assert c.color_class(3) == [3]

    def test_empty_coloring(self):
        c = TreeColoring((), 2)
        assert c.class_sizes() == [0, 0]


class TestVerify:
    def test_valid_two_coloring_of_path(self):
        g = path(4)
        rep = verify(g, TreeColoring((1, 1, 2, 2), 2), Params(2, 1, 1))
        assert rep.verdict and rep.equitable
        assert rep.first_violation == ""

    def test_cycle_in_class_detected(self):
        g = cycle(3)
        rep = verify(g, TreeColoring((1, 1, 1), 1), Params(1))
        assert not rep.verdict
        assert "cycle" in rep.first_violation

    def test_degree_cap(self):
        star = graph_from_edges(4, [(0, 1), (0, 2), (0, 3)])
        coloring = TreeColoring((1, 1, 1, 1), 1)
        assert verify(star, coloring, Params(1, 3, 2)).verdict
        rep = verify(star, coloring, Params(1, 2, 2))
        assert not rep.verdict
        assert "degree" in rep.first_violation

    def test_diameter_cap(self):
        g = path(4)
        coloring = TreeColoring((1, 1, 1, 1), 1)
        assert verify(g, coloring, Params(1, 2, 3)).verdict
        rep = verify(g, coloring, Params(1, 2, 2))
        assert not rep.verdict
        assert "diameter" in rep.first_violation

    def test_equity_violation(self):
        g = path(4)
        rep = verify(g, TreeColoring((1, 1, 1, 2), 2), Params(2))
        assert not rep.verdict and not rep.equitable
        assert "size" in rep.first_violation

    def test_empty_classes_fine_when_t_exceeds_n(self):
        g = path(3)
        rep = verify(g, TreeColoring((1, 2, 3), 5), Params(5))
        assert rep.verdict
        assert rep.classes == (ClassCheck(1, True, 0, 0),) * 3 + (
            ClassCheck(0, True, 0, 0),) * 2

    def test_per_class_measurements(self):
        g = path(4)
        rep = verify(g, TreeColoring((1, 1, 2, 2), 2), Params(2))
        first, second = rep.classes
        assert (first.size, first.is_forest, first.max_degree,
                first.diameter) == (2, True, 1, 1)
        assert second.diameter == 1

    def test_mismatches_raise(self):
        g = path(4)
        with pytest.raises(InputFormatError):
            verify(g, TreeColoring((1, 2, 1), 2), Params(2))
        with pytest.raises(InputFormatError):
            verify(g, TreeColoring((1, 2, 1, 2), 2), Params(3))

    def test_looser_caps_preserve_verdict(self):
        """Monotonicity: relaxing k or d never turns a pass into a fail."""
        rng = random.Random(7)
        graphs = [path(6), cycle(6), complete_bipartite(3),
                  maximal_outerplanar_random(9, 2)]
        for g in graphs:
            for _ in range(40):
                t = rng.randint(1, 4)
                sizes = [g.n // t + (1 if i < g.n % t else 0)
                         for i in range(t)]
                bag = [c + 1 for c, s in enumerate(sizes) for _ in range(s)]
                rng.shuffle(bag)
                coloring = TreeColoring(tuple(bag), t)
                k = rng.randint(0, 3)
                d = rng.randint(0, 3)
                if verify(g, coloring, Params(t, k, d)).verdict:
                    assert verify(g, coloring, Params(t, k + 1, d)).verdict
                    assert verify(g, coloring, Params(t, k, d + 1)).verdict
                    assert verify(g, coloring,
                                  Params(t, UNBOUNDED, UNBOUNDED)).verdict

    def test_zero_caps_mean_proper_coloring(self):
        """(t,0,0) accepts exactly the equitable proper colorings."""
        rng = random.Random(13)
        graphs = [path(5), cycle(4), cycle(5), complete_bipartite(2),
                  graph_from_edges(5, [(0, 1), (0, 2), (0, 3), (0, 4)])]
        for g in graphs:
            for _ in range(60):
                t = rng.randint(1, 4)
                sizes = [g.n // t + (1 if i < g.n % t else 0)
                         for i in range(t)]
                bag = [c + 1 for c, s in enumerate(sizes) for _ in range(s)]
                rng.shuffle(bag)
                coloring = TreeColoring(tuple(bag), t)
                proper = all(
                    coloring.colors[u] != coloring.colors[v]
                    for u, v in g.edges()
                )
                assert verify(g, coloring, Params(t, 0, 0)).verdict == proper


class TestClassCheckSemantics:
    """What each ClassCheck field reports, pinned on small classes."""

    def test_independent_set(self):
        g = complete_bipartite(3)
        rep = verify(g, TreeColoring((1, 1, 1, 2, 2, 2), 2), Params(2, 0, 0))
        assert rep.verdict
        assert rep.classes == (ClassCheck(3, True, 0, 0),) * 2

    def test_bare_cycle_reports_no_diameter(self):
        rep = verify(cycle(5), TreeColoring((1,) * 5, 1), Params(1))
        assert rep.classes == (ClassCheck(5, False, 2, None),)
        assert rep.first_violation == "class 1 contains a cycle"

    def test_cycle_with_pendant_path_reports_no_diameter(self):
        # C4 on 0..3 with the path 0-4-5-6 hanging off vertex 0: the degree
        # is still measured over the whole class.
        g = graph_from_edges(7, [(0, 1), (1, 2), (2, 3), (3, 0),
                                 (0, 4), (4, 5), (5, 6)])
        rep = verify(g, TreeColoring((1,) * 7, 1), Params(1))
        assert rep.classes == (ClassCheck(7, False, 3, None),)

    def test_cyclic_and_tree_components_in_one_class(self):
        # A path on four vertices, then a triangle, plus an isolated vertex:
        # the path is measured first, but a class with a cycle reports no
        # diameter.
        g = graph_from_edges(8, [(0, 1), (1, 2), (2, 3),
                                 (4, 5), (5, 6), (6, 4)])
        rep = verify(g, TreeColoring((1,) * 8, 1), Params(1))
        assert rep.classes == (ClassCheck(8, False, 2, None),)

    def test_edge_class_over_degree_cap(self):
        rep = verify(path(4), TreeColoring((1, 1, 2, 2), 2), Params(2, 0))
        assert not rep.verdict
        assert rep.classes == (ClassCheck(2, True, 1, 1),) * 2
        assert rep.first_violation == "class 1 has induced degree 1, above the cap 0"

    def test_edge_class_over_diameter_cap(self):
        rep = verify(path(4), TreeColoring((1, 1, 2, 2), 2), Params(2, 1, 0))
        assert not rep.verdict
        assert rep.first_violation == (
            "class 1 has a component of diameter 1, above the cap 0")

    def test_triangle_class(self):
        # Class 1 is independent; class 2 is the triangle 0-1-2.
        g = graph_from_edges(6, [(0, 1), (1, 2), (2, 0)])
        rep = verify(g, TreeColoring((2, 2, 2, 1, 1, 1), 2), Params(2))
        assert not rep.verdict
        assert rep.classes == (ClassCheck(3, True, 0, 0), ClassCheck(3, False, 2, None))
        assert rep.first_violation == "class 2 contains a cycle"


def _count_sweeps(monkeypatch):
    calls = []
    monkeypatch.setattr("equitree.coloring._sweep",
                        lambda inside, root: calls.append(root) or _sweep(inside, root))
    return calls


class TestCyclicClassCost:
    """A class with a cycle fails every cap pair, so its check stops at the
    first cyclic component: one sweep, whatever the size of the class."""

    def test_cycle_class_takes_one_sweep(self, monkeypatch):
        calls = _count_sweeps(monkeypatch)
        rep = verify(cycle(1000), TreeColoring((1,) * 1000, 1), Params(1))
        assert rep.first_violation == "class 1 contains a cycle"
        assert len(calls) == 1

    def test_single_class_refusal_takes_one_sweep(self, monkeypatch):
        calls = _count_sweeps(monkeypatch)
        with pytest.raises(PreconditionError,
                           match="^no supported construction meets the requested "
                                 "bounds: class 1 contains a cycle$"):
            construct(maximal_outerplanar_random(2000, 0), Params(1))
        assert len(calls) == 1


def _induced(g, members):
    keep = set(members)
    return remove_vertices(g, [v for v in range(g.n) if v not in keep])[0]


def _expected_check(h):
    """The ClassCheck of a class inducing h, from graph.py's own checkers."""
    forest = is_forest(h)
    return ClassCheck(h.n, forest, max(h.degrees(), default=0),
                      component_diameter_max(h) if forest else None)


def test_class_checks_match_independent_graph_queries():
    """Every ClassCheck agrees with graph.py's own checkers on the induced
    subgraph, on seeded random graphs dense enough to give cyclic classes."""
    rng = random.Random(2024)
    start = time.monotonic()
    cyclic = 0
    for _ in range(300):
        n = rng.randint(1, 24)
        p = rng.choice((0.05, 0.1, 0.2, 0.35))
        g = graph_from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        t = rng.randint(1, 5)
        coloring = TreeColoring(
            tuple(rng.randint(1, t) for _ in range(n)), t)
        rep = verify(g, coloring, Params(t))
        for c, check in enumerate(rep.classes, start=1):
            h = _induced(g, coloring.color_class(c))
            assert check == _expected_check(h)
            cyclic += not check.is_forest
    assert cyclic >= 50
    assert time.monotonic() - start < 5.0


def test_small_class_checks_match_independent_graph_queries():
    """With t up to n most classes have at most three vertices: each of the
    eight (size, induced edges) rows of sizes 0 to 3, the triangle included,
    must occur and agree with graph.py's own checkers."""
    rng = random.Random(2025)
    start = time.monotonic()
    rows = set()
    for _ in range(400):
        n = rng.randint(1, 16)
        p = rng.choice((0.2, 0.5, 0.8, 1.0))
        g = graph_from_edges(n, [(u, v) for u in range(n)
                                 for v in range(u + 1, n) if rng.random() < p])
        t = rng.randint(1, n + 2)
        coloring = TreeColoring(
            tuple(rng.randint(1, t) for _ in range(n)), t)
        rep = verify(g, coloring, Params(t))
        for c, check in enumerate(rep.classes, start=1):
            h = _induced(g, coloring.color_class(c))
            assert check == _expected_check(h)
            if h.n <= 3:
                rows.add((h.n, h.m))
    assert rows == {(0, 0), (1, 0), (2, 0), (2, 1),
                    (3, 0), (3, 1), (3, 2), (3, 3)}
    assert time.monotonic() - start < 5.0


class TestCertificates:
    def test_round_trip_finite(self):
        coloring = TreeColoring((1, 2, 2, 1), 2)
        params = Params(2, 1, 1)
        cert = certificate_from_coloring(coloring, params)
        assert cert == {"n_vertices": 4, "t": 2, "k": 1, "d": 1,
                        "colors": [1, 2, 2, 1]}
        back_params, back = coloring_from_certificate(cert)
        assert back_params == params
        assert back == coloring

    def test_round_trip_unbounded(self):
        cert = certificate_from_coloring(TreeColoring((1,), 1), Params(1))
        assert cert["k"] is None and cert["d"] is None
        back_params, _ = coloring_from_certificate(cert)
        assert back_params.k == UNBOUNDED and back_params.d == UNBOUNDED

    @pytest.mark.parametrize("mutate", [
        lambda c: c.pop("t"),
        lambda c: c.update(t=0),
        lambda c: c.update(t=True),
        lambda c: c.update(k=-1),
        lambda c: c.update(k=1.5),
        lambda c: c.update(colors=[1, 2]),
        lambda c: c.update(colors="12"),
        lambda c: c.update(colors=[1, 2, 3, 9]),
        lambda c: c.update(n_vertices=-1),
    ])
    def test_malformed_certificates_rejected(self, mutate):
        cert = certificate_from_coloring(TreeColoring((1, 2, 2, 1), 2),
                                         Params(2, 1, 1))
        mutate(cert)
        with pytest.raises(InputFormatError):
            coloring_from_certificate(cert)

    @pytest.mark.parametrize("t", [0, True, "2", 2.0, None])
    def test_bad_t_reported_by_the_coloring(self, t):
        cert = certificate_from_coloring(TreeColoring((1, 2, 2, 1), 2),
                                         Params(2, 1, 1))
        cert["t"] = t
        with pytest.raises(InputFormatError, match=r"^t must be an int >= 1$"):
            coloring_from_certificate(cert)

    @pytest.mark.parametrize("coloring, t", [
        (TreeColoring((1, 3, 2), 3), 2),
        (TreeColoring((1, 2, 2, 1), 2), 5),
    ])
    def test_certificate_refuses_a_t_mismatch(self, coloring, t):
        # verify refuses the same pair, and the certificate's inverse would
        # reject t=2 or read five classes where the coloring has two.
        with pytest.raises(InputFormatError,
                           match=rf"^coloring declares t={coloring.t} but parameters say t={t}$"):
            certificate_from_coloring(coloring, Params(t))
        with pytest.raises(InputFormatError, match="^coloring declares"):
            verify(graph_from_edges(coloring.n, []), coloring, Params(t))

    def test_non_object_rejected(self):
        with pytest.raises(InputFormatError):
            coloring_from_certificate([1, 2, 3])
