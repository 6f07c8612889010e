"""Diagrams with support on a union of circles/lines: the combinatorial core.

A diagram is a graph with univalent vertices placed on the support (up to
isotopy, i.e. only the cyclic order per circle / total order per line
matters) and trivalent vertices free in space.  Loops and double edges are
excluded, and every connected component of the graph must reach the support.

Vertices are small integers.  A diagram is in *normal form* when the
univalent vertices are numbered 0..u-1 consecutively along the components
(in component order) and the trivalent vertices are u..u+t-1.  Enumeration
and canonicalisation always produce normal forms.
"""

import itertools
from dataclasses import dataclass
from functools import lru_cache

from .errors import CapabilityError, DiagramError
from .support import S1, Support

MAX_DEGREE = 4


@dataclass(frozen=True)
class Diagram:
    support: Support
    placements: tuple      # per component: tuple of univalent vertex ids in order
    trivalent: frozenset
    edges: frozenset       # frozensets {a, b}

    def __post_init__(self):
        if len(self.placements) != self.support.n_components:
            raise DiagramError("one placement tuple per support component required")
        univ = [v for comp in self.placements for v in comp]
        if len(set(univ)) != len(univ):
            raise DiagramError("univalent vertices must be distinct")
        uset = frozenset(univ)
        if uset & self.trivalent:
            raise DiagramError("univalent and trivalent vertex sets must be disjoint")
        adj = {v: [] for v in uset | self.trivalent}
        for e in self.edges:
            if len(e) != 2:
                raise DiagramError(f"loop or malformed edge {set(e)}")
            for v in e:
                if v not in adj:
                    raise DiagramError(f"edge endpoint {v} is not a vertex")
            a, b = e
            adj[a].append(b)
            adj[b].append(a)
        if len(set(map(frozenset, self.edges))) != len(self.edges):
            raise DiagramError("double edges are excluded")
        for v in univ:
            if len(adj[v]) != 1:
                raise DiagramError(f"univalent vertex {v!r} lies in {len(adj[v])} edges")
        for v in sorted(self.trivalent):
            if len(adj[v]) != 3:
                raise DiagramError(f"trivalent vertex {v!r} lies in {len(adj[v])} edges")
        # every component reaches the support: the support's vertices reach all
        reached, stack = set(uset), list(uset)
        while stack:
            for w in adj[stack.pop()]:
                if w not in reached:
                    reached.add(w)
                    stack.append(w)
        if len(reached) != len(adj):
            raise DiagramError("a connected component misses the support")

    @property
    def univalent(self):
        return frozenset(v for comp in self.placements for v in comp)

    @property
    def vertices(self):
        return self.univalent | self.trivalent

    def component_of(self, v):
        for i, comp in enumerate(self.placements):
            if v in comp:
                return i
        raise KeyError(v)

    def neighbors(self, v):
        return adjacency(self, (v,))[v]

    def internal_edges(self):
        """Edges with both endpoints trivalent."""
        return [e for e in self.edges if e <= self.trivalent]


def adjacency(d: Diagram, vertices):
    """{v: sorted list of v's neighbours} for each of `vertices`, from one
    pass over the edges."""
    adj = {v: [] for v in vertices}
    for a, b in d.edges:
        if a in adj:
            adj[a].append(b)
        if b in adj:
            adj[b].append(a)
    for nbrs in adj.values():
        nbrs.sort()
    return adj


def degree(d: Diagram) -> int:
    """Half the vertex count; the two other paper formulas must agree."""
    u = sum(map(len, d.placements))    # validation keeps U and T disjoint
    n2 = u + len(d.trivalent)
    by_vertices, by_edges = n2 // 2, len(d.edges) - len(d.trivalent)
    by_count = (len(d.edges) + u) // 3
    if n2 % 2 or by_vertices != by_edges or by_vertices != by_count:
        raise DiagramError("degree formulas disagree; malformed diagram")
    return by_vertices


def edge_counts(d: Diagram, A) -> tuple:
    """(#E_A, #E'_A): edges inside A and edges with exactly one end in A."""
    A = frozenset(A)
    if not A:
        raise DiagramError("A must be nonempty")
    e_in = sum(1 for e in d.edges if e <= A)
    e_half = sum(1 for e in d.edges if len(e & A) == 1)
    return e_in, e_half


def half_edge_count_check(d: Diagram, A) -> tuple:
    """Return (#E_A, #E'_A), asserting 2#E_A + #E'_A = 3#(A∩T) + #(A∩U)."""
    A = frozenset(A)
    e_in, e_half = edge_counts(d, A)
    lhs = 2 * e_in + e_half
    rhs = 3 * len(A & d.trivalent) + len(A & d.univalent)
    if lhs != rhs:
        raise DiagramError(f"half-edge count {lhs} != {rhs} for A={sorted(A)}")
    return e_in, e_half


def graph_components(vertices, edges):
    """Connected components of a plain graph, as a list of frozensets."""
    parent = {v: v for v in vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for e in edges:
        a, b = tuple(e)
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb
    groups = {}
    for v in vertices:
        groups.setdefault(find(v), set()).add(v)
    return [frozenset(g) for g in groups.values()]


def is_connected(vertices, edges):
    vertices = frozenset(vertices)
    if not vertices:
        return False
    return len(graph_components(vertices, edges)) == 1


def connected_subsets(vertices, edges):
    """All subsets of 2+ `vertices` that are connected in the induced subgraph."""
    vertices = sorted(vertices)
    adj = {v: set() for v in vertices}
    vset = set(vertices)
    for e in edges:
        a, b = tuple(e)
        if a in vset and b in vset:
            adj[a].add(b)
            adj[b].add(a)
    found = set()
    # grow from each seed, only ever adding vertices > seed to avoid duplicates
    for seed in vertices:
        frontier = [frozenset([seed])]
        seen = {frozenset([seed])}
        while frontier:
            cur = frontier.pop()
            if len(cur) >= 2:
                found.add(cur)
            ext = set()
            for v in cur:
                ext |= {w for w in adj[v] if w > seed and w not in cur}
            for w in ext:
                nxt = cur | {w}
                if nxt not in seen:
                    seen.add(nxt)
                    frontier.append(nxt)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


def is_principal(d: Diagram) -> bool:
    """Every A ⊆ T with #A > 1 has #E'_A >= 4 (connected A suffice)."""
    return all(edge_counts(d, A)[1] >= 4 for A in _trivalent_subsets(d))


def is_subprincipal(d: Diagram) -> bool:
    """#E'_A >= 3 for all A ⊆ T, #A > 1; minimal (=3) subsets pairwise meet."""
    minimal = []
    for A in _trivalent_subsets(d):
        e_half = edge_counts(d, A)[1]
        if e_half < 3:
            return False
        if e_half == 3:
            minimal.append(A)
    for A, B in itertools.combinations(minimal, 2):
        if not A & B:
            return False
    return True


def _trivalent_subsets(d):
    t_edges = [e for e in d.edges if e <= d.trivalent]
    return connected_subsets(d.trivalent, t_edges)


def augmented_edges(d: Diagram):
    """Edges of the compactification graph G: diagram edges plus all
    pairs of univalent vertices (keeps U connected across components)."""
    extra = {frozenset(p) for p in itertools.combinations(sorted(d.univalent), 2)}
    return frozenset(d.edges) | extra


# ---------------------------------------------------------------------------
# Orientations

@dataclass(frozen=True)
class OrientedDiagram:
    """A diagram with vertex orientations.

    The orientation of a trivalent vertex is a cyclic order of its three
    incident edges, stored as a tuple of the three neighbour vertex ids (no
    double edges, so neighbours identify edges).  The orientation of a
    univalent vertex is a local orientation of the support, +1 meaning the
    component's own orientation.
    """

    diagram: Diagram
    triv_orient: tuple   # sorted tuple of (t, (a, b, c)) cyclic neighbour order
    univ_orient: tuple   # sorted tuple of (u, ±1)

    def __post_init__(self):
        d = self.diagram
        to = dict(self.triv_orient)
        uo = dict(self.univ_orient)
        if set(to) != set(d.trivalent) or set(uo) != set(d.univalent):
            raise DiagramError("orientation data must cover exactly the vertex set")
        adj = adjacency(d, to)
        for t, cyc in to.items():
            if sorted(cyc) != adj[t]:
                raise DiagramError(f"cyclic order at {t!r} does not list its neighbours")
        if any(s not in (1, -1) for s in uo.values()):
            raise DiagramError("univalent orientations are ±1")

    def triv_cyclic(self, t):
        return dict(self.triv_orient)[t]

    def univ_sign(self, u):
        return dict(self.univ_orient)[u]

    def flip_vertex(self, v):
        """AS flip: reverse the orientation of one vertex."""
        if v in self.diagram.trivalent:
            to = [(t, (c[0], c[2], c[1]) if t == v else c) for t, c in self.triv_orient]
            return OrientedDiagram(self.diagram, tuple(to), self.univ_orient)
        uo = [(u, -s if u == v else s) for u, s in self.univ_orient]
        return OrientedDiagram(self.diagram, self.triv_orient, tuple(uo))


def std_oriented(d: Diagram) -> OrientedDiagram:
    """The standard orientation: all univalent +1, cyclic orders sorted."""
    adj = adjacency(d, d.trivalent)
    to = tuple(sorted((t, tuple(adj[t])) for t in d.trivalent))
    uo = tuple(sorted((u, 1) for u in d.univalent))
    return OrientedDiagram(d, to, uo)


def _cyclic_sign(cyc):
    """Normalise a 3-cycle of distinct ints to sorted order; sign of the move."""
    a, b, c = cyc
    m = min(cyc)
    while cyc[0] != m:
        cyc = (cyc[1], cyc[2], cyc[0])
    return (1, tuple(sorted((a, b, c)))) if cyc[1] < cyc[2] else (-1, tuple(sorted((a, b, c))))


# ---------------------------------------------------------------------------
# Canonical form, isomorphism, automorphisms

def _rotated_orders(support, placements):
    """The univalent vertices in normal-form label order, once per rotation
    of every circle component (total orders on lines are kept), rotations
    in itertools.product order.  Components never permute."""
    choices = [[comp[r:] + comp[:r] for r in range(len(comp))]
               if comp and support.is_circle(i) else [comp]
               for i, comp in enumerate(placements)]
    for parts in itertools.product(*choices):
        yield [v for part in parts for v in part]


def _encode(d: Diagram, vmap):
    edges = tuple(sorted(tuple(sorted((vmap[a], vmap[b]))) for a, b in map(tuple, d.edges)))
    sizes = tuple(len(c) for c in d.placements)
    return (sizes, len(d.trivalent), edges)


@lru_cache(maxsize=None)
def _canonical_cached(d: Diagram):
    """Minimal labeling by branch-and-bound on incremental adjacency vectors.

    A labeling gives each vertex a segment: its adjacency bits against the
    vertices labeled before it, kept as an int built by seg << 1 | adjacent
    (for equal lengths ints order like the bit tuples).  The univalent
    vertices take the first labels, in the order of one rotation per
    circle, so their segments (the head) cost O(u): the leg at position k
    reads 1 << (k - 1 - j) when its partner is the leg at an earlier
    position j, else 0.  Only rotations whose head is least can start the
    minimal labeling, so only they are searched, in rotation order.  For
    such a rotation, trivalent slots are filled one at a time, only by
    vertices whose segment is the least available (any other choice gives a
    larger labeling), and a prefix above the best one found is cut.
    Returns the minimal encoding and the vertex order of every labeling
    achieving it, in search order (canonical_maps turns them into the
    vertex maps that automorphisms and orientation-sign transport need).
    """
    adj = adjacency(d, d.vertices)
    best = {"segs": None, "orders": []}

    def dfs(order, segs, prefix):
        # segs: the segment of every unlabeled vertex against order
        if not segs:
            if best["segs"] is None or prefix < best["segs"]:
                best["segs"] = prefix
                best["orders"] = [order]
            elif prefix == best["segs"]:
                best["orders"].append(order)
            return
        least = min(segs.values())
        prefix = prefix + [least]
        for v in sorted(segs):
            if segs[v] != least:
                continue
            # checked before every child: best may have moved below prefix
            if best["segs"] is not None and prefix > best["segs"][:len(prefix)]:
                return
            dfs(order + [v], {w: s << 1 | (w in adj[v])
                              for w, s in segs.items() if w != v}, prefix)

    chords = [(a, b) for a, b in d.edges
              if a not in d.trivalent and b not in d.trivalent]
    rotations = []
    for order in _rotated_orders(d.support, d.placements):
        pos = {v: k for k, v in enumerate(order)}
        head = [0] * len(order)    # a leg on a trivalent vertex reads 0
        for a, b in chords:
            j, k = pos[a], pos[b]
            if j > k:
                j, k = k, j
            head[k] = 1 << (k - 1 - j)
        rotations.append((head, order, pos))
    least = min(head for head, _, _ in rotations)
    top = len(least) - 1
    for head, order, pos in rotations:
        if head == least:
            dfs(order, {t: sum(1 << (top - pos[w]) for w in adj[t] if w in pos)
                        for t in d.trivalent}, head)

    orders = tuple(map(tuple, best["orders"]))
    return _encode(d, _labels(orders[0])), orders


def _labels(order):
    """The vertex map {vertex: label} of a labeling's vertex order."""
    return {v: k for k, v in enumerate(order)}


def canonical_form(d: Diagram):
    """Canonical encoding; equal iff diagrams are isomorphic."""
    enc, _ = _canonical_cached(d)
    return (d.support,) + enc


def canonical_maps(d: Diagram):
    enc, orders = _canonical_cached(d)
    return (d.support,) + enc, [_labels(order) for order in orders]


def _normal_placements(sizes):
    """Univalent vertices 0..u-1 numbered consecutively along the components."""
    bases = [sum(sizes[:i]) for i in range(len(sizes))]
    return tuple(tuple(range(b, b + k)) for b, k in zip(bases, sizes))


def diagram_from_key(key) -> Diagram:
    """The normal-form diagram that a canonical key encodes."""
    support, sizes, t_count, edges = key
    u_total = sum(sizes)
    return Diagram(support, _normal_placements(sizes),
                   frozenset(range(u_total, u_total + t_count)),
                   frozenset(frozenset(e) for e in edges))


def canonical_diagram(d: Diagram) -> Diagram:
    """A normal-form representative of the isomorphism class of d."""
    key, _ = canonical_maps(d)
    return diagram_from_key(key)


def _orientation_sign(od: OrientedDiagram, vmap):
    """Sign relating the transported orientation to the standard one."""
    sign = 1
    for u, s in od.univ_orient:
        if s < 0:
            sign = -sign
    for t, cyc in od.triv_orient:
        mapped = tuple(vmap[x] for x in cyc)
        s, _ = _cyclic_sign(mapped)
        sign *= s
    return sign


def canonical_oriented(od: OrientedDiagram):
    """(key, sign): the class of [od] is sign times the standard class of key.

    sign = 0 when the class dies: some automorphism reverses the orientation
    (the AS relation then forces the class to vanish).
    """
    key, maps = canonical_maps(od.diagram)
    signs = {_orientation_sign(od, m) for m in maps}
    if len(signs) == 2:
        return key, 0
    return key, signs.pop()


def automorphism_count(d: Diagram) -> int:
    """Number of vertex bijections preserving edges, U/T and the placement
    class.  Component permutations are never allowed."""
    _, maps = canonical_maps(d)
    return len(maps)


# ---------------------------------------------------------------------------
# Enumeration

def _graphs_with_valences(u, t):
    """Loop-free, double-edge-free graphs on univalent vertices 0..u-1
    (degree 1) and trivalent vertices u..u+t-1 (degree 3), each component
    reaching a univalent vertex: at least one per class under renaming the
    trivalent vertices.  The lowest unfinished vertex takes all its partners
    at once, so no edge repeats: unfinished vertices already reached, and
    untouched trivalent vertices only as the next labels, which numbers them
    in the order they are first reached."""
    results = []

    def rec(edges, remaining, fresh):
        v = next((w for w in range(fresh) if remaining[w]), None)
        if v is None:
            # untouched vertices left could only form components off the support
            if fresh == u + t:
                results.append(frozenset(edges))
            return
        need = remaining[v]
        reached = [w for w in range(v + 1, fresh) if remaining[w]]
        for k in range(min(need, u + t - fresh) + 1):
            for combo in itertools.combinations(reached, need - k):
                partners = combo + tuple(range(fresh, fresh + k))
                rest = list(remaining)
                rest[v] = 0
                for w in partners:
                    rest[w] -= 1
                rec(edges | {frozenset((v, w)) for w in partners}, rest,
                    fresh + k)

    rec(frozenset(), [1] * u + [3] * t, u)
    return results


def enumerate_diagrams(support: Support, n: int):
    """One normal-form representative per isomorphism class of degree n.

    Deterministic order (sorted by canonical encoding).  Degrees above
    MAX_DEGREE are refused: the number of classes grows exponentially.
    Memoised per (support, n); each call gets a fresh list.
    """
    check_degree(n)
    return list(_enumerate_cached(support, n))


def check_degree(n):
    """Refuse a degree that enumeration cannot serve."""
    if n > MAX_DEGREE:
        raise CapabilityError(f"diagram enumeration supports degree <= {MAX_DEGREE}")
    if n < 0:
        raise CapabilityError("degree must be nonnegative")


def check_k(n, k):
    """Refuse a k outside 0..2n, where A_n^k's N = 3n - k labels live."""
    if k > 2 * n:
        raise DiagramError("k must be at most 2n")
    if k < 0:
        raise DiagramError("k must be nonnegative")


def _least_rotations(support, placements, neighbours):
    """Whether on every circle the legs' descriptors read least among their
    rotations.  A leg's descriptor is the component its partner lies on and,
    on the same circle, the partner's offset; for a trivalent partner, the
    sorted offsets of that vertex's other legs on the same circle.  Renaming
    trivalent vertices or rotating other components changes no descriptor,
    and rotating a circle rotates its sequence, so every class keeps a graph
    that passes."""
    where = {v: (i, j) for i, comp in enumerate(placements)
             for j, v in enumerate(comp)}
    for i, comp in enumerate(placements):
        if not support.is_circle(i):
            continue
        k, seq = len(comp), []
        for j, v in enumerate(comp):
            (p,) = neighbours[v]
            if p in where:
                m, jp = where[p]
                seq.append((m, (jp - j) % k if m == i else 0))
            else:
                seq.append((-1,) + tuple(sorted(
                    (where[w][1] - j) % k for w in neighbours[p]
                    if w != v and w in comp)))
        if any(seq[r:] + seq[:r] < seq for r in range(1, k)):
            return False
    return True


@lru_cache(maxsize=None)
def _enumerate_cached(support, n):
    """Canonicalises the graphs of `_graphs_with_valences` that pass
    `_least_rotations` on each placement: every isomorphism class keeps at
    least one.  Then empties the canonical-form cache: the raw graphs are
    seldom met again, and the returned diagrams are rebuilt from the keys."""
    if n == 0:
        return (Diagram(support, tuple(() for _ in support.components),
                        frozenset(), frozenset()),)
    keys = set()
    for t in range(0, 2 * n):
        u = 2 * n - t
        vertices = range(u + t)
        graphs = _graphs_with_valences(u, t)
        neighbours = [[[w for e in g if v in e for w in e - {v}]
                       for v in vertices] for g in graphs]
        for sizes in itertools.product(range(u + 1), repeat=support.n_components):
            if sum(sizes) != u:
                continue
            placements = _normal_placements(sizes)
            for g, nb in zip(graphs, neighbours):
                if _least_rotations(support, placements, nb):
                    keys.add(canonical_form(Diagram(
                        support, placements, frozenset(vertices[u:]), g)))
    _canonical_cached.cache_clear()
    return tuple(diagram_from_key(k) for k in sorted(keys))


# ---------------------------------------------------------------------------
# Quotients (Notation: identify A to one vertex, delete E_A)

@dataclass(frozen=True)
class QuotientGraph:
    vertices: frozenset
    edges: tuple            # sorted tuple of sorted pairs; multi-edges kept
    collapsed: int          # id of the vertex replacing A
    collapsed_set: frozenset
    touches_support: bool   # whether A contained a univalent vertex


def quotient_diagram(d: Diagram, A) -> QuotientGraph:
    A = frozenset(A)
    if not A or not A <= d.vertices:
        raise DiagramError("A must be a nonempty vertex subset")
    cid = max(d.vertices) + 1
    vmap = {v: (cid if v in A else v) for v in d.vertices}
    edges = []
    for e in d.edges:
        if e <= A:
            continue
        a, b = tuple(e)
        edges.append(tuple(sorted((vmap[a], vmap[b]))))
    verts = frozenset(vmap.values())
    return QuotientGraph(verts, tuple(sorted(edges)), cid, A,
                         bool(A & d.univalent))


THETA = canonical_diagram(Diagram(S1, ((0, 1),), frozenset(),
                                  frozenset({frozenset((0, 1))})))


def tripod(support=S1) -> Diagram:
    """One trivalent vertex with three legs on the first component."""
    placements = tuple(((0, 1, 2) if i == 0 else ())
                       for i in range(support.n_components))
    edges = frozenset(frozenset((i, 3)) for i in range(3))
    return canonical_diagram(Diagram(support, placements, frozenset({3}), edges))


def tripod_positive(support=S1) -> OrientedDiagram:
    """The tripod oriented so its round-circle integral is +1/8: the cyclic
    edge order at the trivalent vertex is the reverse of the circle order
    of the legs (with the frame conventions of the integrator)."""
    od = std_oriented(tripod(support))
    t = next(iter(od.diagram.trivalent))
    return od.flip_vertex(t)
