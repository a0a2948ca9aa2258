"""Feasibility formulas and constructions for balanced complete bipartite graphs."""

import random
from functools import lru_cache
from itertools import product
from math import isqrt

import pytest

from equitree import (
    InfeasibleVectorError,
    InputFormatError,
    Params,
    PreconditionError,
    SolutionPair,
    TreeColoring,
    UNBOUNDED,
    complete_bipartite,
    construct_knn,
    construct_knn_11,
    construct_knn_inf2,
    cross_check_bipartite,
    cycle,
    detect_balanced_biclique,
    even_t_coloring,
    exact_va11,
    exact_vainf2,
    feasible_11,
    feasible_counts,
    feasible_inf2,
    graph_from_edges,
    infeasible_by_divisibility,
    make_class_counts,
    odd_q_11_coloring,
    odd_q_inf2_counts,
    path,
    realize_class_counts,
    relabel_for_sides,
    solve_linear,
    two_solution_coloring,
    va11_upper,
    vainf2_upper,
    verify,
)
from equitree.bipartite import _SHAPE_NAMES, _layout, _star_ok, _threshold, _witness_counts


def _check_11(n, q, coloring):
    rep = verify(complete_bipartite(n), coloring, Params(q, 1, 1))
    assert rep.verdict, rep.first_violation


def _check_inf2(n, q, coloring):
    rep = verify(complete_bipartite(n), coloring, Params(q, UNBOUNDED, 2))
    assert rep.verdict, rep.first_violation


class TestSolveLinear:
    def test_no_solution(self):
        assert solve_linear(3, 5) == []

    def test_matches_exhaustive_enumeration(self):
        for a in range(1, 7):
            for n in range(0, 60):
                got = [(s.x, s.y) for s in solve_linear(a, n)]
                want = [
                    (x, y)
                    for x in range(n + 1)
                    for y in range(n + 1)
                    if a * x + (a + 1) * y == n
                ]
                assert got == sorted(want)

    def test_pair_size_total(self):
        for s in solve_linear(3, 43):
            assert s.z == s.x + s.y


class TestClassCounts:
    def test_valid_vector_accepted(self):
        vec = make_class_counts(65, 9, x2p=5, y1=4)
        assert (vec.a, vec.r) == (14, 4)
        assert vec.counts() == (0, 0, 0, 5, 4, 0, 0, 0)

    def test_negative_count_rejected(self):
        with pytest.raises(InfeasibleVectorError, match="negative"):
            make_class_counts(65, 9, x2p=6, y1=-1, y2=4)

    @pytest.mark.parametrize("value", ["1", 1.0, True])
    def test_non_int_count_rejected(self, value):
        with pytest.raises(InfeasibleVectorError, match="count x1"):
            make_class_counts(3, 2, x1=value, y1=1)

    def test_wrong_total_rejected(self):
        with pytest.raises(InfeasibleVectorError, match="sum"):
            make_class_counts(65, 9, x2p=5, y1=3)

    def test_side_equation_rejected(self):
        with pytest.raises(InfeasibleVectorError, match="consumption"):
            make_class_counts(65, 9, x2p=4, y1=5)

    def test_a_zero_excludes_depleted_shapes(self):
        with pytest.raises(InfeasibleVectorError, match="a=0"):
            make_class_counts(2, 5, x1=2, y1=2, x2p=1)

    def test_a_zero_valid_vector(self):
        vec = make_class_counts(2, 5, x1=2, x2=1, y1=2)
        assert vec.a == 0

    def test_realize_frozen_witness(self):
        vec = make_class_counts(65, 9, x2p=5, y1=4)
        coloring = realize_class_counts(65, 9, vec)
        _check_inf2(65, 9, coloring)

    def test_realize_rejects_invalid_vector(self):
        from equitree import ClassCountVector
        bad = ClassCountVector(14, 4, x2p=5, y1=3)
        with pytest.raises(InfeasibleVectorError):
            realize_class_counts(65, 9, bad)

    def test_realize_round_trips_shape_census(self):
        """Counting realized classes by side signature recovers the vector."""
        for n, q in ((65, 9), (65, 11), (50, 9)):
            vec = (feasible_inf2(n, q) if q == 9 and n == 65
                   else odd_q_inf2_counts(n, q))
            coloring = realize_class_counts(n, q, vec)
            a = vec.a
            census = {
                (a + 1, 0): 0, (a, 0): 0, (a, 1): 0, (a - 1, 1): 0,
                (0, a + 1): 0, (0, a): 0, (1, a): 0, (1, a - 1): 0,
            }
            for c in range(1, q + 1):
                members = coloring.color_class(c)
                xs = sum(1 for v in members if v < n)
                ys = len(members) - xs
                census[(xs, ys)] += 1
            assert (
                census[(a + 1, 0)], census[(a, 0)], census[(a, 1)],
                census[(a - 1, 1)], census[(0, a + 1)], census[(0, a)],
                census[(1, a)], census[(1, a - 1)],
            ) == vec.counts()


class TestEvenT:
    def test_small_profile(self):
        coloring = even_t_coloring(5, 4)
        assert sorted(coloring.class_sizes()) == [2, 2, 3, 3]
        assert coloring.colors == (1, 1, 1, 2, 2, 3, 3, 3, 4, 4)
        rep = verify(complete_bipartite(5), coloring, Params(4, 0, 0))
        assert rep.verdict

    def test_one_sided_classes_satisfy_any_caps(self):
        for n, t in ((3, 2), (7, 6), (10, 4), (9, 8)):
            coloring = even_t_coloring(n, t)
            rep = verify(complete_bipartite(n), coloring, Params(t, 0, 0))
            assert rep.verdict, (n, t, rep.first_violation)

    def test_odd_t_rejected(self):
        with pytest.raises(PreconditionError):
            even_t_coloring(5, 3)


class TestOddQ11:
    def test_below_n_uses_edges_and_triples(self):
        coloring = odd_q_11_coloring(7, 5)
        sizes = sorted(coloring.class_sizes())
        assert sizes == [2, 3, 3, 3, 3]
        assert coloring.colors == (1, 2, 2, 2, 3, 3, 3,
                                   1, 4, 4, 4, 5, 5, 5)
        _check_11(7, 5, coloring)

    def test_between_n_and_2n(self):
        coloring = odd_q_11_coloring(5, 7)
        assert sorted(coloring.class_sizes()) == [1, 1, 1, 1, 2, 2, 2]
        assert coloring.colors == (1, 2, 3, 4, 5, 1, 2, 3, 6, 7)
        _check_11(5, 7, coloring)

    def test_at_least_2n_gives_singletons(self):
        coloring = odd_q_11_coloring(3, 7)
        assert sorted(coloring.class_sizes()) == [0, 1, 1, 1, 1, 1, 1]
        assert coloring.colors == (1, 2, 3, 4, 5, 6)
        _check_11(3, 7, coloring)

    def test_below_threshold_rejected(self):
        with pytest.raises(PreconditionError):
            odd_q_11_coloring(7, 3)

    def test_sweep_verifies(self):
        for n in (1, 2, 3, 6, 10, 17):
            start = 2 * ((n + 1) // 3) + 1
            for q in range(start, 2 * n + 4, 2):
                _check_11(n, q, odd_q_11_coloring(n, q))


class TestTwoSolution:
    def test_builds_from_two_pairs(self):
        s1, s2 = SolutionPair(1, 10), SolutionPair(5, 7)
        coloring = two_solution_coloring(43, s1, s2)
        assert coloring.t == s1.z + s2.z == 23
        _check_11(43, 23, coloring)
        small = two_solution_coloring(5, SolutionPair(1, 2), SolutionPair(3, 1))
        assert small.colors == (1, 2, 2, 3, 3, 4, 5, 6, 7, 7)

    def test_same_pair_twice(self):
        s = SolutionPair(5, 7)
        coloring = two_solution_coloring(43, s, s)
        assert coloring.t == 24
        _check_11(43, 24, coloring)

    def test_mismatched_moduli_rejected(self):
        with pytest.raises(PreconditionError):
            two_solution_coloring(43, SolutionPair(1, 10),
                                  SolutionPair(2, 13))

    def test_unsolvable_pair_rejected(self):
        with pytest.raises(PreconditionError):
            two_solution_coloring(43, SolutionPair(2, 10),
                                  SolutionPair(1, 10))


class TestOddQInf2Counts:
    def test_case_small_q(self):
        vec = odd_q_inf2_counts(65, 11)
        assert vec.counts() == (5, 0, 0, 0, 0, 1, 4, 1)
        _check_inf2(65, 11, realize_class_counts(65, 11, vec))

    def test_case_middle_q(self):
        vec = odd_q_inf2_counts(50, 9)
        assert vec.counts() == (0, 0, 0, 5, 1, 3, 0, 0)
        _check_inf2(50, 9, realize_class_counts(50, 9, vec))

    def test_case_large_q(self):
        vec = odd_q_inf2_counts(8, 5)
        assert vec.counts() == (0, 2, 0, 0, 0, 1, 1, 1)
        coloring = realize_class_counts(8, 5, vec)
        assert coloring.colors == (1, 1, 1, 2, 2, 2, 4, 5,
                                   3, 3, 3, 4, 4, 4, 5, 5)
        _check_inf2(8, 5, coloring)

    def test_gap_instance_raises(self):
        with pytest.raises(InfeasibleVectorError):
            odd_q_inf2_counts(10, 7)

    def test_even_or_out_of_range_rejected(self):
        with pytest.raises(PreconditionError):
            odd_q_inf2_counts(65, 10)
        with pytest.raises(PreconditionError):
            odd_q_inf2_counts(65, 65)

    def test_all_successes_verify(self):
        for n in range(3, 40):
            t = vainf2_upper(n) // 2 * 2
            low = max(3, t - 1 if t else 3)
            for q in range(low, n, 2):
                try:
                    vec = odd_q_inf2_counts(n, q)
                except (PreconditionError, InfeasibleVectorError):
                    continue
                _check_inf2(n, q, realize_class_counts(n, q, vec))


class TestBoundsAndPredicates:
    def test_frozen_upper_bounds(self):
        assert va11_upper(43) == 28
        assert vainf2_upper(65) == 10
        assert vainf2_upper(20) == 6

    def test_feasible_beyond_upper_bounds(self):
        for n in range(1, 41):
            for q in range(va11_upper(n), 2 * n + 3):
                if q >= 1:
                    assert feasible_11(n, q), (n, q)
            for q in range(vainf2_upper(n), 2 * n + 3):
                if q >= 1:
                    assert feasible_inf2(n, q) is not None, (n, q)

    def test_divisibility_obstruction_examples(self):
        assert infeasible_by_divisibility(9, 3)
        assert infeasible_by_divisibility(20, 5)
        assert not infeasible_by_divisibility(65, 13)
        assert not infeasible_by_divisibility(9, 2)

    def test_divisibility_obstruction_implies_formula_says_no(self):
        for n in range(1, 61):
            for t in range(1, 2 * n + 1):
                if infeasible_by_divisibility(n, t):
                    assert feasible_inf2(n, t) is None, (n, t)

    def test_matching_variant_implies_star_variant(self):
        """A (q,1,1)-coloring is also a (q,inf,2)-coloring, so the
        feasibility regions must nest."""
        for n in range(1, 31):
            for q in range(1, 2 * n + 3):
                if feasible_11(n, q):
                    assert feasible_inf2(n, q) is not None, (n, q)

    def test_frozen_11_values(self):
        assert not feasible_11(8, 5)
        assert not feasible_11(5, 3)
        assert not feasible_11(2, 1)
        assert feasible_11(1, 1)

    def test_frozen_inf2_values(self):
        witness = feasible_inf2(65, 9)
        assert witness is not None
        assert witness.counts() == (0, 0, 0, 5, 4, 0, 0, 0)

    def test_inf2_witnesses_always_realize(self):
        for n in range(1, 36):
            for q in range(1, 2 * n + 3):
                witness = feasible_inf2(n, q)
                if witness is not None:
                    _check_inf2(n, q, realize_class_counts(n, q, witness))


class TestExactThresholds:
    def test_frozen_values(self):
        assert exact_va11(5) == 4
        assert exact_va11(1) == 1
        assert exact_va11(2) == 2
        # The notation finding: with a finite degree cap the threshold at
        # n = 400 is 134, near n/3; with none it is 26, growing like sqrt(n).
        for k, d in ((1, 1), (2, UNBOUNDED), (3, UNBOUNDED)):
            assert _threshold(400, k, d) == 134, (k, d)
        for k, d in ((UNBOUNDED, 2), (UNBOUNDED, 3), (UNBOUNDED, UNBOUNDED)):
            assert _threshold(400, k, d) == 26, (k, d)
        # At n = 20,000 the same split: 2n/3 with a finite degree cap, near
        # sqrt(2n) without one.
        assert _threshold(20000, 1, 1) == 13334
        for k, d in ((2, UNBOUNDED), (3, UNBOUNDED)):
            assert _threshold(20000, k, d) == 6668, (k, d)
        for k, d in ((UNBOUNDED, 2), (UNBOUNDED, 3), (UNBOUNDED, UNBOUNDED)):
            assert _threshold(20000, k, d) == 188, (k, d)

    def test_definition_against_feasibility_scan(self):
        for n in range(1, 26):
            s = exact_va11(n)
            assert all(feasible_11(n, q) for q in range(s, 2 * n + 5))
            assert s == 1 or not feasible_11(n, s - 1)
            s2 = exact_vainf2(n)
            assert all(
                feasible_inf2(n, q) is not None for q in range(s2, 2 * n + 5)
            )
            assert s2 == 1 or feasible_inf2(n, s2 - 1) is None

    def test_thresholds_below_upper_bounds(self):
        for n in range(1, 301):
            assert exact_va11(n) <= max(1, va11_upper(n))
            assert exact_vainf2(n) <= max(1, vainf2_upper(n))
            assert exact_vainf2(n) <= exact_va11(n)

    def test_va11_upper_is_sharp_at_2_mod_3(self):
        # The paper's bound 2*floor((n+1)/3) is attained for n = 2 (mod 3).
        for n in range(2, 301, 3):
            assert exact_va11(n) == va11_upper(n), n


class TestConstructDrivers:
    def test_11_sweep(self):
        for n in (1, 2, 4, 7, 12, 19):
            for q in range(exact_va11(n), 2 * n + 4):
                _check_11(n, q, construct_knn_11(n, q))

    def test_inf2_sweep(self):
        for n in (1, 2, 4, 7, 12, 19):
            for q in range(exact_vainf2(n), 2 * n + 4):
                _check_inf2(n, q, construct_knn_inf2(n, q))

    def test_infeasible_requests_raise(self):
        with pytest.raises(PreconditionError):
            construct_knn_11(8, 5)
        with pytest.raises(PreconditionError):
            construct_knn_inf2(65, 7)
        with pytest.raises(PreconditionError):
            construct_knn_inf2(9, 3)

    def test_gap_instance_still_constructs(self):
        """(10, 7) defeats the odd_q_inf2_counts case formulas but is
        feasible, so the driver builds it from the feasible_counts witness."""
        _check_inf2(10, 7, construct_knn_inf2(10, 7))


class TestBicliqueDetection:
    def test_canonical_layout(self):
        sides = detect_balanced_biclique(complete_bipartite(4))
        assert sides == (list(range(4)), list(range(4, 8)))

    def test_shuffled_biclique_detected_and_colorable(self):
        rng = random.Random(99)
        for n in (2, 3, 5):
            base = complete_bipartite(n)
            perm = list(range(2 * n))
            rng.shuffle(perm)
            g = graph_from_edges(
                2 * n, [(perm[u], perm[v]) for u, v in base.edges()]
            )
            sides = detect_balanced_biclique(g)
            assert sides is not None
            xs, ys = sides
            expect = {frozenset(perm[v] for v in range(n)),
                      frozenset(perm[v] for v in range(n, 2 * n))}
            assert {frozenset(xs), frozenset(ys)} == expect
            coloring = relabel_for_sides(even_t_coloring(n, 2), xs, ys)
            rep = verify(g, coloring, Params(2, 0, 0))
            assert rep.verdict, rep.first_violation

    def test_four_cycle_is_k22(self):
        sides = detect_balanced_biclique(cycle(4))
        assert sides is not None
        assert {frozenset(s) for s in sides} == {
            frozenset({0, 2}), frozenset({1, 3})
        }

    @pytest.mark.parametrize("g", [
        path(4),
        cycle(5),
        cycle(6),
        graph_from_edges(5, [(0, 2), (0, 3), (0, 4), (1, 2), (1, 3), (1, 4)]),
        graph_from_edges(2, []),
        # The triangular prism: 3-regular on 6 vertices, but not bipartite.
        graph_from_edges(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                             (0, 3), (1, 4), (2, 5)]),
    ])
    def test_non_bicliques_rejected(self, g):
        assert detect_balanced_biclique(g) is None

    def test_matches_two_coloring_reference(self):
        rng = random.Random(31)
        graphs = [graph_from_edges(0, []), path(1), path(2),
                  graph_from_edges(4, [(0, 1), (2, 3)])]
        for n in range(1, 41):
            graphs += [complete_bipartite(n), _shuffled(complete_bipartite(n), rng)]
            if n >= 2:
                graphs += [_edge_swapped(n), _shuffled(_edge_swapped(n), rng)]
                jumps = [1, 2, *rng.sample(range(3, n), n // 2 - 2)] if n >= 4 else [1]
                if n % 2:
                    jumps.append(n)  # the antipodal jump adds 1 to each degree
                graphs.append(_shuffled(_circulant(2 * n, jumps), rng))
            m = rng.choice([v for v in range(1, 41) if v != n])
            graphs.append(graph_from_edges(
                m + n, [(i, m + j) for i in range(m) for j in range(n)]))
        for _ in range(300):
            n = rng.randint(1, 24)
            p = rng.random()
            graphs.append(graph_from_edges(
                n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p]))
        found = 0
        for g in graphs:
            expected = _reference_detect(g)
            assert detect_balanced_biclique(g) == expected, g.adjacency
            found += expected is not None
        assert found >= 80  # every K_{n,n} above, canonical and shuffled


def _reference_detect(g):
    """detect_balanced_biclique as a BFS 2-coloring, kept as the reference."""
    total = g.n
    if total == 0 or total % 2:
        return None
    half = total // 2
    if any(g.degree(v) != half for v in range(total)):
        return None
    side = [-1] * total
    side[0] = 0
    queue = [0]
    for u in queue:
        for w in g.adjacency[u]:
            if side[w] < 0:
                side[w] = 1 - side[u]
                queue.append(w)
            elif side[w] == side[u]:
                return None
    xs = [v for v in range(total) if side[v] == 0]
    ys = [v for v in range(total) if side[v] == 1]
    return xs, ys


def _shuffled(g, rng):
    perm = list(range(g.n))
    rng.shuffle(perm)
    return graph_from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges()])


def _edge_swapped(n):
    """K_{n,n} with x0y0, x1y1 swapped for x0x1, y0y1: n-regular, not bipartite."""
    edges = set(complete_bipartite(n).edges()) - {(0, n), (1, n + 1)}
    return graph_from_edges(2 * n, [*edges, (0, 1), (n, n + 1)])


def _circulant(total, jumps):
    return graph_from_edges(total, {tuple(sorted((v, (v + j) % total)))
                                    for v in range(total) for j in jumps})


class TestInstanceValidation:
    def test_bad_instances_raise(self):
        with pytest.raises(PreconditionError):
            feasible_11(0, 3)
        with pytest.raises(PreconditionError):
            feasible_inf2(5, 0)
        with pytest.raises(PreconditionError):
            exact_va11(0)
        with pytest.raises(PreconditionError):
            even_t_coloring(0, 2)

    @pytest.mark.parametrize("call, args", [
        (feasible_11, (2.5, 3)),
        (feasible_11, (3, True)),
        (exact_vainf2, (True,)),
        (va11_upper, (4.5,)),
        (vainf2_upper, (True,)),
        (exact_va11, (7.5,)),
        (feasible_counts, (4, 3.0)),
        (even_t_coloring, (4, 2.0)),
        (cross_check_bipartite, (1.5, 2)),
    ])
    def test_non_int_sizes_rejected(self, call, args):
        with pytest.raises(PreconditionError, match="int"):
            call(*args)

    @pytest.mark.parametrize("call, message", [
        (lambda: odd_q_11_coloring(7, 6), "needs odd q"),
        (lambda: two_solution_coloring(5, SolutionPair(0, 0), SolutionPair(5, 0)),
         "not a usable solution pair"),
        (lambda: two_solution_coloring(5, SolutionPair("5", 0), SolutionPair(5, 0)),
         "not a usable solution pair"),
        (lambda: two_solution_coloring(5, SolutionPair(True, 2), SolutionPair(5, 0)),
         "not a usable solution pair"),
        (lambda: relabel_for_sides(even_t_coloring(2, 2), [0], [1, 2]),
         "side lists do not match"),
        (lambda: relabel_for_sides(even_t_coloring(2, 2), [0, 5], [1, 2]),
         "each int id 0..3 once"),
        (lambda: relabel_for_sides(even_t_coloring(2, 2), [-1, 0], [1, 2]),
         "each int id 0..3 once"),
        (lambda: relabel_for_sides(even_t_coloring(2, 2), [0, 0], [1, 2]),
         "each int id 0..3 once"),
        (lambda: relabel_for_sides(even_t_coloring(2, 2), [0, True], [2, 3]),
         "each int id 0..3 once"),
    ], ids=["odd_q_11-even-q", "two_solution-empty-pair", "two_solution-str-count",
            "two_solution-bool-count", "relabel-unbalanced-sides",
            "relabel-id-too-large", "relabel-negative-id", "relabel-repeated-id",
            "relabel-bool-id"])
    def test_unusable_arguments_rejected(self, call, message):
        with pytest.raises(PreconditionError, match=message):
            call()


# ---- an independent reference: sumsets of allowed class shapes ----------


def _shape_ok(x, y, k, d):
    """K_{x,y} is a forest exactly when min(x, y) <= 1.  With no edge it
    meets every cap; else its degree is max(x, y) and its diameter 1 (an
    edge) or 2 (a larger star)."""
    if min(x, y) == 0:
        return True
    return min(x, y) == 1 and max(x, y) <= k and (1 if x == y else 2) <= d


def _reference_feasible(n, q, k, d):
    """Each of the r classes of size a+1 and q-r of size a picks an allowed
    X-count; feasible exactly when the X-counts can total n."""
    a, r = divmod(2 * n, q)
    mask = (1 << (n + 1)) - 1
    reach = 1
    for copies, size in ((r, a + 1), (q - r, a)):
        options = [x for x in range(size + 1) if _shape_ok(x, size - x, k, d)]
        for _ in range(copies):
            step = reach
            for x in options:
                step |= reach << x
            # 0 is always an option, so a fixed point stays fixed.
            if step & mask == reach:
                break
            reach = step & mask
    return bool(reach >> n & 1)


REFERENCE_N = 200
CAPS = {"11": (1, 1), "inf2": (UNBOUNDED, 2)}
CAP_VALUES = (0, 1, 2, 3, UNBOUNDED)


@lru_cache(maxsize=None)
def _reference_table(k, d, n_max=REFERENCE_N):
    return {(n, q): _reference_feasible(n, q, k, d)
            for n in range(1, n_max + 1) for q in range(1, 2 * n + 3)}


def _reference_threshold(k, d, n, n_max=REFERENCE_N):
    """Scan down from t = 2n, where every class is at most one vertex."""
    table = _reference_table(k, d, n_max)
    t = 2 * n
    while t > 1 and table[n, t - 1]:
        t -= 1
    return t


def _builds(build, *args):
    try:
        build(*args)
    except PreconditionError:
        return False
    return True


class TestAgainstShapeReference:
    def test_reference_controls(self):
        assert _reference_feasible(3, 3, 1, 1)  # three disjoint edges
        assert not _reference_feasible(5, 3, 1, 1)
        assert _reference_feasible(4, 2, 0, 0)  # the two sides
        assert not _reference_feasible(2, 1, UNBOUNDED, UNBOUNDED)  # a C4
        assert not _reference_feasible(9, 3, UNBOUNDED, 2)

    def test_feasibility_verdicts(self):
        for (n, q), expected in _reference_table(*CAPS["11"]).items():
            assert feasible_11(n, q) == expected, (n, q)
        for (n, q), expected in _reference_table(*CAPS["inf2"]).items():
            assert (feasible_inf2(n, q) is not None) == expected, (n, q)

    def test_exact_thresholds(self):
        for n in range(1, REFERENCE_N + 1):
            assert exact_va11(n) == _reference_threshold(*CAPS["11"], n), n
            assert exact_vainf2(n) == _reference_threshold(*CAPS["inf2"], n), n
        for k, d in product((1, 2, 3, UNBOUNDED), repeat=2):
            for n in range(1, 61):
                expected = _reference_threshold(k, d, n, 60)
                assert _threshold(n, k, d) == expected, (k, d, n)

    @pytest.mark.parametrize("variant, build", [
        ("11", construct_knn_11), ("inf2", construct_knn_inf2),
    ])
    def test_constructors_raise_exactly_when_infeasible(self, variant, build):
        for (n, q), expected in _reference_table(*CAPS[variant], 60).items():
            assert _builds(build, n, q) == expected, (n, q)

    @pytest.mark.parametrize("k, d", product(CAP_VALUES, repeat=2))
    def test_every_cap_pair(self, k, d):
        for (n, q), expected in _reference_table(k, d, 60).items():
            witness = feasible_counts(n, q, k, d)
            assert (witness is not None) == expected, (n, q)
            if witness is not None:
                assert all(_shape_ok(x, y, k, d)
                           for count, x, y in witness._shapes() if count), (n, q)
                # feasible_counts does not re-check its witness; the validator
                # must accept it and rebuild the same vector.
                assert make_class_counts(
                    n, q, **dict(zip(_SHAPE_NAMES, witness.counts()))) == witness, (n, q)
            assert _builds(construct_knn, n, q, k, d) == expected, (n, q)


class TestLayoutPassesTheColoringCheck:
    """_layout builds its coloring without TreeColoring's check."""

    def test_every_small_construction(self):
        built = 0
        for k, d in product(CAP_VALUES, repeat=2):
            for n in range(1, 13):
                for q in range(1, 2 * n + 3):
                    try:
                        coloring = construct_knn(n, q, k, d)
                    except PreconditionError:
                        continue
                    assert TreeColoring(**vars(coloring)) == coloring, (n, q, k, d)
                    built += 1
        assert built > 3000

    def test_shapes_past_q_raise(self):
        with pytest.raises(InputFormatError, match="q must be an int >= 3 .* got 2"):
            _layout(2, ((2, 1, 0), (1, 0, 1)))


# ---- the decider's witness against the sx walk it replaced ----------------


def _reference_count_scan(n, q, k, d):
    """The earlier decider, which walks sx down to the first value that
    passes; _witness_counts computes that value directly."""
    a, r = divmod(2 * n, q)
    if a == 0:
        return (n, q - 2 * n, 0, 0, n, 0, 0, 0)
    eb = int(_star_ok(a + 1, k, d))
    es = int(_star_ok(a, k, d))
    m = 1 - eb + es
    # No larger sx passes: it would need r - sy > (c + es*sx) // m.
    for sx in range(min(q, (n + m * (q - r)) // (a + m - es)), -1, -1):
        sy = q - sx
        c = n - a * sx
        b_lo = max(0, r - sy, -((es * (sy - r) + eb * r - c) // m))
        b_hi = min(sx, r, (c + es * sx) // m)
        if b_lo > b_hi:
            continue
        bx = b_hi
        by = r - bx
        ex = max(0, bx - c)
        ey = max(0, c - bx)
        x1p = max(0, ex - es * (sx - bx))
        y1p = max(0, ey - es * (sy - by))
        return (bx - x1p, sx - bx - ex + x1p, x1p, ex - x1p,
                by - y1p, sy - by - ey + y1p, y1p, ey - y1p)
    return None


class TestWitnessAgainstWalk:
    """The witness is what `feasible --json` prints, so pin it exactly."""

    def test_every_small_instance(self):
        for k, d in product(CAP_VALUES, repeat=2):
            for n in range(1, 61):
                for q in range(1, 2 * n + 3):
                    assert (_witness_counts(n, q, k, d)
                            == _reference_count_scan(n, q, k, d)), (n, q, k, d)

    def test_seeded_large_instances(self):
        rng = random.Random(2000)
        for _ in range(2000):
            n = rng.randint(1, 20000)
            # Half the draws near sqrt(2n), where the uncapped thresholds are.
            q = rng.randint(1, rng.choice((2 * n + 2, 2 * isqrt(2 * n) + 2)))
            k, d = rng.choice(CAP_VALUES), rng.choice(CAP_VALUES)
            assert (_witness_counts(n, q, k, d)
                    == _reference_count_scan(n, q, k, d)), (n, q, k, d)
