import itertools

import pytest

from cslinks.diagrams import (THETA, Diagram, _compositions,
                              _graphs_with_valences, _relabellings,
                              _rotated_umaps, is_connected,
                              canonical_diagram, canonical_form,
                              canonical_maps, degree, enumerate_diagrams,
                              automorphism_count,
                              half_edge_count_check, is_principal,
                              is_subprincipal, quotient_diagram, std_oriented,
                              canonical_oriented, tripod)
from cslinks.errors import CapabilityError, DiagramError
from cslinks.support import CIRCLE, LINE, R1, S1, Support, circles

CIRCLE_LINE = Support((("0", CIRCLE), ("1", LINE)))


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def w3_wheel(support=S1):
    return Diagram(support, ((0, 1, 2),), frozenset({3, 4, 5}),
                   fs((0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (3, 5)))


def crossed_chords():
    return Diagram(S1, ((0, 1, 2, 3),), frozenset(), fs((0, 2), (1, 3)))


def parallel_chords():
    return Diagram(S1, ((0, 1, 2, 3),), frozenset(), fs((0, 1), (2, 3)))


class TestDegree:
    def test_empty(self):
        empty = enumerate_diagrams(S1, 0)[0]
        assert degree(empty) == 0

    def test_theta(self):
        assert degree(THETA) == 1

    def test_tripod(self):
        assert degree(tripod()) == 2

    def test_malformed_rejected(self):
        with pytest.raises(DiagramError):
            Diagram(S1, ((0,),), frozenset(), frozenset())  # dangling vertex

    def test_loops_rejected(self):
        with pytest.raises(DiagramError):
            Diagram(S1, ((0, 1),), frozenset({2}),
                    fs((0, 1)) | {frozenset({2})})

    def test_double_edges_rejected(self):
        # two trivalent vertices joined twice plus two legs
        with pytest.raises(DiagramError):
            Diagram(S1, ((0, 1),), frozenset({2, 3}),
                    frozenset({frozenset((0, 2)), frozenset((1, 3)),
                               frozenset((2, 3))}))

    def test_component_missing_support_rejected(self):
        with pytest.raises(DiagramError):
            # triangle of trivalent vertices with no leg
            Diagram(S1, ((0, 1),), frozenset({2, 3, 4}),
                    fs((0, 1), (2, 3), (3, 4), (2, 4)))


class TestHalfEdgeCount:
    def test_theta_univalent_pair(self):
        assert half_edge_count_check(THETA, THETA.univalent) == (1, 0)

    def test_tripod_center(self):
        y = tripod()
        assert half_edge_count_check(y, y.trivalent) == (0, 3)

    def test_w3_triangle(self):
        w3 = w3_wheel()
        assert half_edge_count_check(w3, {3, 4, 5}) == (3, 3)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_identity_over_all_subsets(self, n):
        for d in enumerate_diagrams(S1, n):
            verts = sorted(d.vertices)
            for r in range(1, len(verts) + 1):
                for A in itertools.combinations(verts, r):
                    half_edge_count_check(d, A)


class TestPrincipality:
    def test_chord_diagrams_principal(self):
        assert is_principal(crossed_chords())
        assert is_principal(parallel_chords())

    def test_tripod_principal(self):
        assert is_principal(tripod())

    def test_w3_not_principal_but_subprincipal(self):
        w3 = w3_wheel()
        assert not is_principal(w3)
        assert is_subprincipal(w3)

    def test_two_disjoint_triangles_not_subprincipal(self):
        # two w3-type triangles on one circle: two disjoint minimal triples
        edges = fs((0, 6), (1, 7), (2, 8), (6, 7), (7, 8), (6, 8),
                   (3, 9), (4, 10), (5, 11), (9, 10), (10, 11), (9, 11))
        d = Diagram(S1, (tuple(range(6)),), frozenset(range(6, 12)), edges)
        assert not is_subprincipal(d)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_connected_matches_full_enumeration(self, n):
        for d in enumerate_diagrams(S1, n):
            assert is_principal(d) == is_principal(d, connected_only=False)
            assert is_subprincipal(d) == is_subprincipal(d, connected_only=False)

    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_principal_implies_subprincipal(self, n):
        for d in enumerate_diagrams(S1, n):
            if is_principal(d):
                assert is_subprincipal(d)


class TestAutomorphisms:
    def test_theta(self):
        assert automorphism_count(THETA) == 2

    def test_tripod(self):
        assert automorphism_count(tripod()) == 3

    def test_empty(self):
        assert automorphism_count(enumerate_diagrams(S1, 0)[0]) == 1

    def test_chords(self):
        assert automorphism_count(crossed_chords()) == 4
        assert automorphism_count(parallel_chords()) == 2

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_orbit_stabilizer(self, n):
        # |Aut| divides the number of admissible labelled representatives
        import math
        for d in enumerate_diagrams(S1, n):
            t = len(d.trivalent)
            rotations = max(len(d.univalent), 1)
            total = rotations * math.factorial(t)
            assert total % automorphism_count(d) == 0


class TestEnumeration:
    def test_degree0_single_empty(self):
        ds = enumerate_diagrams(S1, 0)
        assert len(ds) == 1 and not ds[0].vertices

    def test_degree1_single_theta(self):
        ds = enumerate_diagrams(S1, 1)
        assert len(ds) == 1
        assert canonical_form(ds[0]) == canonical_form(THETA)

    def test_degree2_classes(self):
        ds = enumerate_diagrams(S1, 2)
        # crossed chords, parallel chords, and the tripod; excluding
        # double edges rules out any 2-trivalent diagram at this degree
        assert len(ds) == 3
        keys = {canonical_form(d) for d in ds}
        assert canonical_form(crossed_chords()) in keys
        assert canonical_form(parallel_chords()) in keys
        assert canonical_form(tripod()) in keys

    def test_deterministic_and_duplicate_free(self):
        a = enumerate_diagrams(S1, 3)
        b = enumerate_diagrams(S1, 3)
        assert [canonical_form(d) for d in a] == [canonical_form(d) for d in b]
        keys = [canonical_form(d) for d in a]
        assert len(keys) == len(set(keys))

    def test_closed_under_canonicalization(self):
        for d in enumerate_diagrams(S1, 3):
            assert canonical_diagram(d) == d

    def test_line_support_counts(self):
        assert len(enumerate_diagrams(R1, 2, connected_only=True)) == 1
        # aabb, abab, abba patterns, the wheel, and two 4-trivalent graphs
        assert len(enumerate_diagrams(R1, 3, connected_only=True)) == 6

    def test_capability_bound(self):
        with pytest.raises(CapabilityError):
            enumerate_diagrams(S1, 5)

    def test_returned_list_is_private(self):
        a = enumerate_diagrams(S1, 2)
        expected = list(a)
        a.pop()
        a.append(THETA)
        a.reverse()
        assert enumerate_diagrams(S1, 2) == expected

    def test_two_component_degree1(self):
        ds = enumerate_diagrams(circles(2), 1)
        assert len(ds) == 3  # theta on either circle, chord across

    def test_brute_force_oracle_degree2(self):
        # independent generator: all valid graphs over explicit vertex pools
        found = set()
        univ_pool = [0, 1, 2, 3]
        for t in range(0, 4):
            u = 4 - t
            verts = univ_pool[:u] + [10 + i for i in range(t)]
            halves = []
            for v in verts:
                halves += [v] * (1 if v < 10 else 3)
            n = len(halves)
            for perm in itertools.permutations(range(n)):
                if any(perm[2 * i] > perm[2 * i + 1] for i in range(n // 2)):
                    continue
                pairs = [(halves[perm[2 * i]], halves[perm[2 * i + 1]])
                         for i in range(n // 2)]
                if any(a == b for a, b in pairs):
                    continue
                edges = fs(*pairs)
                if len(edges) != n // 2:
                    continue
                try:
                    d = Diagram(S1, (tuple(univ_pool[:u]),),
                                frozenset(verts[u:]), edges)
                except DiagramError:
                    continue
                found.add(canonical_form(d))
        expected = {canonical_form(d) for d in enumerate_diagrams(S1, 2)}
        assert found == expected


class TestCanonicalForm:
    def test_renamed_theta_equal(self):
        renamed = Diagram(S1, ((7, 4),), frozenset(), fs((7, 4)))
        assert canonical_form(renamed) == canonical_form(THETA)

    def test_crossed_ne_parallel(self):
        assert canonical_form(crossed_chords()) != canonical_form(parallel_chords())

    def test_stable_across_runs(self):
        assert canonical_form(tripod()) == canonical_form(tripod(S1))

    def test_orientation_sign_flip(self):
        od = std_oriented(tripod())
        t = next(iter(od.diagram.trivalent))
        key1, s1 = canonical_oriented(od)
        key2, s2 = canonical_oriented(od.flip_vertex(t))
        assert key1 == key2 and s1 == -s2

    def test_double_flip_restores(self):
        od = std_oriented(tripod())
        t = next(iter(od.diagram.trivalent))
        assert canonical_oriented(od) == canonical_oriented(
            od.flip_vertex(t).flip_vertex(t))


def labelled_graphs(support, n):
    """Every valid labelled diagram the enumerator visits at degree n."""
    for t in range(0, 2 * n):
        u = 2 * n - t
        for sizes in _compositions(u, support.n_components):
            placements, start = [], 0
            for k in sizes:
                placements.append(tuple(range(start, start + k)))
                start += k
            for g in _graphs_with_valences(u, t):
                try:
                    yield Diagram(support, tuple(placements),
                                  frozenset(range(u, u + t)), g)
                except DiagramError:
                    pass


def brute_force_canonical(d):
    """Least segment list over every rotation x trivalent permutation, with
    the encoding read off the segments and every map that reaches it."""
    best, maps = None, set()
    for umap in _rotated_umaps(d.support, d.placements):
        inv = sorted(umap, key=umap.get)
        for perm in itertools.permutations(sorted(d.trivalent)):
            order = inv + list(perm)
            segs = [tuple(int(frozenset((order[j], v)) in d.edges)
                          for j in range(k)) for k, v in enumerate(order)]
            vmap = tuple(sorted((v, k) for k, v in enumerate(order)))
            if best is None or segs < best:
                best, maps = segs, {vmap}
            elif segs == best:
                maps.add(vmap)
    edges = tuple((j, k) for k, seg in enumerate(best)
                  for j, bit in enumerate(seg) if bit)
    key = (d.support, tuple(len(c) for c in d.placements), len(d.trivalent),
           tuple(sorted(edges)))
    return key, maps


class TestCanonicalOracle:
    @pytest.mark.parametrize("support", [S1, R1, circles(2)])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_brute_force(self, support, n):
        checked = 0
        for d in labelled_graphs(support, n):
            key, maps = canonical_maps(d)
            got = [tuple(sorted(m.items())) for m in maps]
            assert len(got) == len(set(got))
            assert (key, set(got)) == brute_force_canonical(d)
            checked += 1
        assert checked > 0


class TestOrbitSkipping:
    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("support", [S1, R1, circles(2), CIRCLE_LINE],
                             ids=["S1", "R1", "S1x2", "S1+R1"])
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_matches_canonicalising_every_graph(self, support, n,
                                                connected_only):
        reference = {}
        for d in labelled_graphs(support, n):
            if connected_only and not is_connected(d.vertices, d.edges):
                continue
            key = canonical_form(d)
            if key not in reference:
                reference[key] = canonical_diagram(d)
        expected = [reference[k] for k in sorted(reference)]
        assert enumerate_diagrams(support, n, connected_only) == expected

    @pytest.mark.parametrize("support, n", [(S1, 3), (R1, 3),
                                            (CIRCLE_LINE, 2)],
                             ids=["S1-3", "R1-3", "S1+R1-2"])
    def test_relabelling_orbit_is_class(self, support, n):
        graphs = list(labelled_graphs(support, n))
        classes = {}
        for d in graphs:
            classes.setdefault(canonical_form(d), set()).add(d.edges)
        for d in graphs:
            orbit = {frozenset(frozenset(p[v] for v in e) for e in d.edges)
                     for p in _relabellings(support, d.placements,
                                            len(d.trivalent))}
            assert orbit == classes[canonical_form(d)]


class TestQuotient:
    def test_theta_collapse(self):
        q = quotient_diagram(THETA, THETA.univalent)
        assert q.edges == ()
        assert q.touches_support

    def test_crossed_chord_collapse(self):
        d = crossed_chords()
        q = quotient_diagram(d, {0, 2})
        assert len(q.edges) == 1  # the other chord survives
        assert q.collapsed_set == frozenset({0, 2})

    def test_w3_triangle_gives_tripod_skeleton(self):
        w3 = w3_wheel()
        q = quotient_diagram(w3, {3, 4, 5})
        assert len(q.edges) == 3
        assert all(q.collapsed in e for e in q.edges)
