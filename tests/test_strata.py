import itertools

import pytest

from cslinks.diagrams import Diagram, enumerate_diagrams, tripod
from cslinks.errors import ClassificationError, DiagramError
from cslinks.strata import (StratumFamily, classify_face,
                            enumerate_faces, enumerate_strata)
from cslinks.support import S1, circles


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def brute_force_families(vertices, edges):
    """Filter all subsets of R by the nesting predicate (oracle)."""
    from cslinks.diagrams import connected_subsets
    vertices = frozenset(vertices)
    R = [a for a in connected_subsets(vertices, fs(*edges))
         if a != vertices]
    out = []
    for r in range(len(R) + 1):
        for combo in itertools.combinations(R, r):
            ok = all((not (a & b)) or a <= b or b <= a
                     for a, b in itertools.combinations(combo, 2))
            if ok:
                out.append(frozenset(combo) | {frozenset(vertices)})
    return {frozenset(f) for f in out}


class TestStrata:
    def test_single_edge(self):
        fams = enumerate_strata({0, 1}, [(0, 1)])
        assert len(fams) == 1
        assert fams[0].sets == frozenset({frozenset({0, 1})})

    def test_path(self):
        fams = enumerate_strata({0, 1, 2}, [(0, 1), (1, 2)])
        assert len(fams) == 3

    def test_triangle(self):
        fams = enumerate_strata({0, 1, 2}, [(0, 1), (1, 2), (0, 2)])
        # the three 2-subsets pairwise overlap, so at most one joins V
        assert len(fams) == 4

    @pytest.mark.parametrize("edges", [
        [(0, 1), (1, 2), (2, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 0)],
        [(0, 1), (0, 2), (0, 3)],
        [(0, 1), (1, 2), (2, 3), (3, 4)],
        [(0, 1), (1, 2), (2, 3), (3, 4), (4, 0)],
        [(0, 1), (1, 2), (2, 0), (2, 3)],
    ])
    def test_matches_brute_force(self, edges):
        verts = {v for e in edges for v in e}
        fams = enumerate_strata(verts, edges)
        got = {f.sets for f in fams}
        assert got == brute_force_families(verts, edges)

    def test_disconnected_rejected(self):
        with pytest.raises(DiagramError):
            enumerate_strata({0, 1, 2, 3}, [(0, 1), (2, 3)])

    def test_tree_order(self):
        fam = enumerate_strata({0, 1, 2}, [(0, 1), (1, 2)])[-1]
        inner = next(s for s in fam.sets if len(s) == 2)
        assert fam.parent(inner) == frozenset({0, 1, 2})
        assert fam.smallest_containing({0}) <= frozenset({0, 1, 2})

    def test_nesting_validated(self):
        with pytest.raises(DiagramError):
            StratumFamily(frozenset({0, 1, 2}), fs((0, 1), (1, 2)),
                          frozenset({frozenset({0, 1, 2}), frozenset({0, 1}),
                                     frozenset({1, 2})}))


def crossed_chords():
    return Diagram(S1, ((0, 1, 2, 3),), frozenset(), fs((0, 2), (1, 3)))


def w3_wheel():
    return Diagram(S1, ((0, 1, 2),), frozenset({3, 4, 5}),
                   fs((0, 3), (1, 4), (2, 5), (3, 4), (4, 5), (3, 5)))


class TestFaces:
    def test_consecutive_univalent_pair_is_c2(self):
        f = classify_face(crossed_chords(), {0, 1})
        assert f.type == "c2" and not f.degenerate

    def test_triangle_edge_pair_is_c1(self):
        f = classify_face(w3_wheel(), {3, 4})
        assert f.type == "c1" and not f.degenerate

    def test_theta_pair_on_two_components_is_a_prime(self):
        support = circles(2)
        d = Diagram(support, ((0, 1), (2, 3)), frozenset(),
                    fs((0, 1), (2, 3)))
        f = classify_face(d, {0, 1})
        assert f.type == "a'"
        assert not f.degenerate  # connected anomalous face

    def test_full_collapse_is_type_a(self):
        f = classify_face(tripod(), None)
        assert f.type == "a" and not f.degenerate

    def test_type_a_disconnected_degenerate(self):
        d = Diagram(S1, ((0, 1, 2, 3),), frozenset(), fs((0, 1), (2, 3)))
        f = classify_face(d, None)
        assert f.type == "a" and f.degenerate

    def test_type_b_degenerate(self):
        # all univalent vertices plus the trivalent center: U inside A
        y = tripod()
        f = classify_face(y, {0, 1, 2})
        assert f.type == "b" and f.degenerate

    def test_type_d_univalent_carrier_degenerate(self):
        # degree-3 H diagram, A = two consecutive legs and one vertex: the
        # second leg's edge leaves A from a univalent vertex
        h = Diagram(S1, ((0, 1, 2, 3),), frozenset({4, 5}),
                    fs((0, 4), (1, 4), (2, 5), (3, 5), (4, 5)))
        f = classify_face(h, {1, 2, 4})
        assert f.type == "d" and f.degenerate

    def test_type_d_with_leg_inside_nondegenerate(self):
        # w3 with the triangle plus one leg: both outgoing edges leave from
        # trivalent vertices that are bivalent inside A
        w3 = w3_wheel()
        f = classify_face(w3, {0, 3, 4, 5})
        assert f.type == "d" and not f.degenerate

    def test_type_d_nondegenerate_window(self):
        w3 = w3_wheel()
        f = classify_face(w3, {3, 4, 5})
        # triangle: all of E'_A leaves from bivalent-in-A trivalent vertices
        assert f.type == "d" and not f.degenerate

    def test_nonconsecutive_pair_rejected(self):
        with pytest.raises(ClassificationError):
            classify_face(crossed_chords(), {0, 2})

    def test_cross_component_pair_rejected(self):
        support = circles(2)
        d = Diagram(support, ((0, 1), (2, 3)), frozenset(),
                    fs((0, 2), (1, 3)))
        with pytest.raises(ClassificationError):
            classify_face(d, {0, 2})

    def test_disconnected_subset_rejected(self):
        w3 = w3_wheel()
        # univalent 0 and trivalent 4 share no edge, and only univalent
        # pairs are joined in the augmented graph
        with pytest.raises(ClassificationError):
            classify_face(w3, {4, 0})

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_types_partition(self, n):
        for d in enumerate_diagrams(S1, n):
            if not d.vertices:
                continue
            for f in enumerate_faces(d):
                assert f.type in ("a", "a'", "b", "c1", "c2", "d")
