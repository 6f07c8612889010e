import hashlib
import itertools

import pytest

from cslinks import algebra, diagrams
from cslinks.diagrams import (THETA, Diagram, _canonical_cached,
                              _enumerate_cached, _graphs_with_valences,
                              _rotated_orders, is_connected,
                              canonical_diagram, canonical_form,
                              canonical_maps, degree, edge_counts,
                              enumerate_diagrams, automorphism_count,
                              half_edge_count_check, is_principal,
                              is_subprincipal, quotient_diagram, std_oriented,
                              canonical_oriented, tripod)
from cslinks.errors import CapabilityError, DiagramError
from cslinks.support import CIRCLE, LINE, R1, S1, Support, circles

CIRCLE_LINE = Support((("0", CIRCLE), ("1", LINE)))


def fs(*pairs):
    return frozenset(frozenset(p) for p in pairs)


def connected_diagrams(support, n, connected_only=True):
    """enumerate_diagrams(support, n), only the connected diagrams if
    connected_only (n >= 1: the empty diagram counts as disconnected)."""
    return [d for d in enumerate_diagrams(support, n)
            if not connected_only or is_connected(d.vertices, d.edges)]


def trivalent_subsets(d):
    """Every set of two or more trivalent vertices, connected or not."""
    return [frozenset(c) for r in range(2, len(d.trivalent) + 1)
            for c in itertools.combinations(sorted(d.trivalent), r)]


def principal_by_all_subsets(d):
    """is_principal's definition read over every subset of T (oracle)."""
    return all(edge_counts(d, A)[1] >= 4 for A in trivalent_subsets(d))


def subprincipal_by_all_subsets(d):
    """is_subprincipal's definition read over every subset of T (oracle)."""
    half_edges = {A: edge_counts(d, A)[1] for A in trivalent_subsets(d)}
    minimal = [A for A, e in half_edges.items() if e == 3]
    return (all(e >= 3 for e in half_edges.values())
            and all(A & B for A, B in itertools.combinations(minimal, 2)))


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
            assert is_principal(d) == principal_by_all_subsets(d)
            assert is_subprincipal(d) == subprincipal_by_all_subsets(d)

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
        assert len(connected_diagrams(R1, 2)) == 1
        # aabb, abab, abba patterns, the wheel, and two 4-trivalent graphs
        assert len(connected_diagrams(R1, 3)) == 6

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

    def test_cold_enumeration_leaves_no_canonical_forms_cached(self):
        # the raw graphs it canonicalises are seldom met again (the returned
        # diagrams are rebuilt from their keys), so they are not kept
        _enumerate_cached.cache_clear()
        _canonical_cached.cache_clear()
        ds = enumerate_diagrams(circles(2), 3)
        assert len(ds) > 0
        assert _canonical_cached.cache_info().currsize == 0

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


def all_graphs_with_valences(u, t):
    """Every loop-free, double-edge-free graph on univalent vertices 0..u-1
    (degree 1) and trivalent vertices u..u+t-1 (degree 3)."""
    verts = list(range(u + t))
    target = {v: (1 if v < u else 3) for v in verts}
    results = []

    def rec(edges, remaining):
        active = [v for v in verts if remaining[v] > 0]
        if not active:
            results.append(frozenset(edges))
            return
        v = active[0]
        need = remaining[v]
        partners = [w for w in active[1:] if frozenset((v, w)) not in edges]
        if len(partners) < need:
            return
        for combo in itertools.combinations(partners, need):
            new_edges = edges | {frozenset((v, w)) for w in combo}
            new_rem = dict(remaining)
            new_rem[v] = 0
            ok = True
            for w in combo:
                new_rem[w] -= 1
                if new_rem[w] < 0:
                    ok = False
            if ok:
                rec(new_edges, new_rem)

    rec(frozenset(), target)
    return results


def labelled_graphs(support, n):
    """Every valid labelled diagram of degree n in normal form."""
    for t in range(0, 2 * n):
        u = 2 * n - t
        for sizes in itertools.product(range(u + 1),
                                       repeat=support.n_components):
            if sum(sizes) != u:
                continue
            placements, start = [], 0
            for k in sizes:
                placements.append(tuple(range(start, start + k)))
                start += k
            for g in all_graphs_with_valences(u, t):
                try:
                    yield Diagram(support, tuple(placements),
                                  frozenset(range(u, u + t)), g)
                except DiagramError:
                    pass


def rotated_umaps(support, placements):
    """Univalent relabelings onto normal-form names, {vertex: label}: every
    rotation per circle component, in itertools.product order."""
    bases = []
    acc = 0
    for comp in placements:
        bases.append(acc)
        acc += len(comp)
    rot_choices = [range(len(comp)) if comp and support.is_circle(i)
                   else range(1) for i, comp in enumerate(placements)]
    for rots in itertools.product(*rot_choices):
        umap = {}
        for i, comp in enumerate(placements):
            k = len(comp)
            for j in range(k):
                umap[comp[(j + rots[i]) % k]] = bases[i] + j
        yield umap


def searched_canonical(d):
    """The branch-and-bound search that reads every rotation's head by
    pairwise segments and skips only heads above the best found so far
    (oracle): (encoding, vertex maps in search order)."""
    adj = {v: set() for v in d.vertices}
    for a, b in map(tuple, d.edges):
        adj[a].add(b)
        adj[b].add(a)
    u_total = len(d.univalent)
    best = {"segs": None, "maps": []}

    def segment(v, order):
        seg = 0
        for w in order:
            seg = seg << 1 | (w in adj[v])
        return seg

    def dfs(order, segs, prefix):
        if not segs:
            if best["segs"] is None or prefix < best["segs"]:
                best["segs"] = prefix
                best["maps"] = [order]
            elif prefix == best["segs"]:
                best["maps"].append(order)
            return
        least = min(segs.values())
        prefix = prefix + [least]
        for v in sorted(segs):
            if segs[v] != least:
                continue
            if best["segs"] is not None and prefix > best["segs"][:len(prefix)]:
                return
            dfs(order + [v], {w: s << 1 | (w in adj[v])
                              for w, s in segs.items() if w != v}, prefix)

    for umap in rotated_umaps(d.support, d.placements):
        inv = sorted(umap, key=umap.get)
        head = [segment(v, inv[:k]) for k, v in enumerate(inv)]
        if best["segs"] is not None and head > best["segs"][:u_total]:
            continue
        dfs(inv, {t: segment(t, inv) for t in d.trivalent}, head)

    maps = [{v: k for k, v in enumerate(order)} for order in best["maps"]]
    return diagrams._encode(d, maps[0]), [dict(sorted(m.items()))
                                          for m in maps]


def brute_force_canonical(d):
    """Least segment list over every rotation x trivalent permutation, with
    the encoding read off the segments and every map that reaches it."""
    best, maps = None, set()
    for umap in rotated_umaps(d.support, d.placements):
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


    @pytest.mark.parametrize("support", [S1, R1, circles(2), CIRCLE_LINE],
                             ids=["S1", "R1", "S1x2", "S1+R1"])
    def test_rotated_orders_are_the_umaps(self, support):
        # one order per rotation, in the same rotation order
        for d in labelled_graphs(support, 3):
            assert list(_rotated_orders(d.support, d.placements)) == [
                sorted(umap, key=umap.get)
                for umap in rotated_umaps(d.support, d.placements)]

    def test_matches_search_on_gluing_diagrams(self, monkeypatch):
        # every graph a cold degree-4 gluing check canonicalises (the
        # enumeration's raw graphs, the resolutions and the faces): the
        # same key and the same maps in the same order as the search over
        # every rotation, and the brute force's key and maps where it
        # reaches (at most three trivalent vertices)
        seen = []
        cached = _canonical_cached

        def record(d):
            seen.append(d)
            return cached(d)

        record.cache_clear, record.cache_info = (cached.cache_clear,
                                                 cached.cache_info)
        monkeypatch.setattr(diagrams, "_canonical_cached", record)
        caches = (_enumerate_cached, cached, algebra._faces,
                  algebra.reduction, algebra.representative)
        for cache in caches:
            cache.cache_clear()
        try:
            for k in range(3, 9):
                assert algebra.check_ihx_prime(S1, 4, k)
                assert algebra.check_stu_prime(S1, 4, k)
        finally:
            for cache in caches:
                cache.cache_clear()
        graphs = set(seen)
        assert len(graphs) > 900
        brute = 0
        for d in graphs:
            key, maps = canonical_maps(d)
            assert (key[1:], maps) == searched_canonical(d)
            if len(d.trivalent) <= 3:
                assert (key, {tuple(sorted(m.items())) for m in maps}) \
                    == brute_force_canonical(d)
                brute += 1
        assert brute > 0


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
        assert connected_diagrams(support, n, connected_only) == expected


SUPPORTS = {"S1": S1, "R1": R1, "S1x2": circles(2), "S1x3": circles(3),
            "S1+R1": CIRCLE_LINE}
# degree 4, connected_only False and True: the class count and the sha256
# of the repr of the ordered canonical keys, pinned from the enumerator
# that canonicalised one labelled graph per relabelling orbit
DEGREE4 = {
    "S1": ((69, "a9ea85bb14ddcd2c76a3d7e49be132683de8d931a0961b0d72c4282b2d87dbf8"),
           (19, "1bf85900e4f7211119c59fa82bbf8201f2be0b7a99614783d0dfa2b2dd149fc4")),
    "R1": ((324, "dd7821efc2c55a156b5cbc423c312c5a590d3bb0c54d30228f6e9813cd63289b"),
           (40, "cb9b3e7c95b0ad88c9b82e30ec1374aace0e6c74d2be7c1c28f6ae373555fb80")),
    "S1x2": ((426, "e3ab301a8aa4c4820243022cb9e8e8876eba84dc99c0777bb63b854ab217ab82"),
             (80, "027bcd7ec0406ac22b431f7a5b7f7a31304579b08f770118c49d422501d4b57c")),
    "S1x3": ((1823, "87d9c41a3f81f09e6ee4015ca848e9a37ecbaefa85ab77a7f53dd60d3a09030b"),
             (241, "e5548cbab32c8302f3ee7034fa13c03f7463a7893f8975a1418a1982d7e961c7")),
    "S1+R1": ((1200, "7e429b2218b83c297b0fa8c8c851ce2d2283cc617efbb81b0ab34c588529f3bf"),
              (128, "85bccf83148b0385f02d11cff5000afb003907d758a3439df4349c8bc380a5a0")),
}


class TestDegree4:
    @pytest.mark.parametrize("connected_only", [False, True])
    @pytest.mark.parametrize("name", sorted(DEGREE4))
    def test_counts_and_keys_pinned(self, name, connected_only):
        ds = connected_diagrams(SUPPORTS[name], 4, connected_only)
        keys = [canonical_form(d) for d in ds]
        digest = hashlib.sha256(repr(keys).encode()).hexdigest()
        assert (len(ds), digest) == DEGREE4[name][connected_only]


class TestGenerator:
    @pytest.mark.parametrize("u, t", [(u, t) for u in range(1, 7)
                                      for t in range(0, 7 - u)
                                      if (u + 3 * t) % 2 == 0])
    def test_every_graph_is_a_renaming_of_a_generated_one(self, u, t):
        generated = set(_graphs_with_valences(u, t))
        valid = []
        for g in all_graphs_with_valences(u, t):
            try:
                Diagram(S1, (tuple(range(u)),), frozenset(range(u, u + t)), g)
            except DiagramError:
                continue
            valid.append(g)
        assert generated <= set(valid)
        renamings = [dict(zip(range(u, u + t), p))
                     for p in itertools.permutations(range(u, u + t))]
        for g in valid:
            assert any(frozenset(frozenset(p.get(v, v) for v in e) for e in g)
                       in generated for p in renamings)


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
