"""The graded diagram spaces A_n(M) and A_n^k(M) over exact rationals.

Classes of oriented diagrams are stored by canonical encoding; the AS
relation is applied eagerly (orientation normalisation carries a sign, and
classes killed by an orientation-reversing automorphism are dropped).  The
quotient by STU is realised by exact Gaussian elimination with
high-trivalent pivots, so the surviving basis consists of chord diagram
classes.  Classes are ranked by their position in the elimination order: a
row's lead is its least-ranked class, and a pivot's tail holds only classes
ranked after its lead.  Reducing a vector substitutes each pivot's expansion
in basis coordinates, which is built on demand from the pivot tails and
memoised per echelon.  The IHX relators are not eliminated: every diagram
meets the support, so IHX follows from STU (Bar-Natan, Topology 34, 1995)
and an IHX row could never add a pivot; the tests check both facts.  Each quotient
A_n^k extends the one STU echelon of (support, n) by unit rows.  The IHX'
and STU' gluing faces of each class are built once; a k adds only the beta
weights and the quotient.
"""

import copy
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from math import factorial

from .diagrams import (Diagram, OrientedDiagram, adjacency,
                       canonical_oriented, check_degree, check_k, degree,
                       diagram_from_key, enumerate_diagrams, is_principal,
                       is_subprincipal, std_oriented)
from .errors import DiagramError
from .support import R1


@lru_cache(maxsize=None)
def representative(key) -> OrientedDiagram:
    """The standard-oriented normal-form diagram of a class key."""
    return std_oriented(diagram_from_key(key))


class ClassVector:
    """A formal linear combination of diagram classes of one degree.

    Coefficients are Fractions for everything exact; floats are allowed for
    Monte Carlo results passing through the same reductions.
    """

    __slots__ = ("support", "degree", "terms")

    def __init__(self, support, degree, terms=None):
        self.support = support
        self.degree = degree
        self.terms = {}
        if terms:
            for key, coeff in terms.items():
                self._add_term(key, coeff)

    def _add_term(self, key, coeff):
        if not coeff:
            return
        new = self.terms.get(key, 0) + coeff
        if new:
            self.terms[key] = new
        else:
            self.terms.pop(key, None)

    @classmethod
    def zero(cls, support, degree):
        return cls(support, degree)

    @classmethod
    def of(cls, od: OrientedDiagram, coeff=Fraction(1)):
        deg = degree(od.diagram)
        key, sign = canonical_oriented(od)
        v = cls(od.diagram.support, deg)
        if sign:
            v._add_term(key, sign * coeff)
        return v

    def __add__(self, other):
        self._check(other)
        out = ClassVector(self.support, self.degree, dict(self.terms))
        for key, c in other.terms.items():
            out._add_term(key, c)
        return out

    def __sub__(self, other):
        return self + other.scale(-1)

    def scale(self, c):
        return ClassVector(self.support, self.degree,
                           {k: c * v for k, v in self.terms.items()})

    def _check(self, other):
        if self.support != other.support or self.degree != other.degree:
            raise DiagramError("class vectors must share degree and support")

    def is_zero(self):
        return not self.terms

    def __eq__(self, other):
        return (isinstance(other, ClassVector) and self.support == other.support
                and self.degree == other.degree and self.terms == other.terms)

    def __repr__(self):
        if not self.terms:
            return "<0>"
        bits = [f"{c}*{key[1]}t{key[2]}e{len(key[3])}" for key, c in sorted(self.terms.items())]
        return "<" + " + ".join(bits) + ">"


class Series(dict):
    """Degree -> ClassVector, for truncated exponentials and Z-type sums."""

    def __init__(self, support, data=None):
        super().__init__(data or {})
        self.support = support

    def vector(self, n):
        return self.get(n, ClassVector.zero(self.support, n))

    def add_vector(self, v: ClassVector):
        if v.degree in self:
            self[v.degree] = self[v.degree] + v
        else:
            self[v.degree] = v


# ---------------------------------------------------------------------------
# Local STU / IHX surgeries

def _require_plus_bit(od, u0):
    if od.univ_sign(u0) != 1:
        raise DiagramError("resolutions expect the stem vertex oriented by M")


def _fresh_ids(d, count):
    top = max(d.vertices) + 1 if d.vertices else 0
    return list(range(top, top + count))


def stu_resolutions(od: OrientedDiagram, t, u0):
    """Resolve trivalent vertex t along its stem edge to the univalent
    vertex u0.  With the cyclic order at t rotated to (u0, a, b), the first
    resolution puts a's new foot before b's along the component direction at
    u0's slot, the second the other way.  STU reads [Γ] = [first] - [second].
    """
    d = od.diagram
    _require_plus_bit(od, u0)
    cyc = od.triv_cyclic(t)
    if u0 not in cyc or u0 not in d.univalent:
        raise DiagramError("u0 must be a univalent neighbour of t")
    while cyc[0] != u0:
        cyc = (cyc[1], cyc[2], cyc[0])
    a, b = cyc[1], cyc[2]
    pa, pb = _fresh_ids(d, 2)
    # a's foot keeps id p_a, b's keeps p_b; only their order on M differs
    u_res = _build_resolution(od, t, u0, a, b, pa, pb, order=(pa, pb))
    s_res = _build_resolution(od, t, u0, a, b, pa, pb, order=(pb, pa))
    return u_res, s_res


def _build_resolution(od, t, u0, a, b, pa, pb, order):
    d = od.diagram
    ci = d.component_of(u0)
    pos = d.placements[ci].index(u0)
    comp = list(d.placements[ci])
    comp[pos:pos + 1] = list(order)
    placements = tuple(tuple(comp) if i == ci else p
                       for i, p in enumerate(d.placements))
    edges = {e for e in d.edges if t not in e}
    edges |= {frozenset((pa, a)), frozenset((pb, b))}
    new_d = Diagram(d.support, placements, d.trivalent - {t}, frozenset(edges))
    to = []
    for v, cyc in od.triv_orient:
        if v == t:
            continue
        # a (or b) may be trivalent and had t as a neighbour
        repl = pa if v == a else pb if v == b else None
        to.append((v, tuple(repl if x == t else x for x in cyc)))
    uo = tuple(sorted([(u, s) for u, s in od.univ_orient if u != u0]
                      + [(pa, 1), (pb, 1)]))
    return OrientedDiagram(new_d, tuple(sorted(to)), uo)


def ihx_replacements(od: OrientedDiagram, e):
    """The H and X local replacements of an internal edge e = {x, y}.

    With cyclic orders rotated to (y, a1, a2) at x and (x, b1, b2) at y, the
    H term joins (a1, b2) and (a2, b1) across the new edge and the X term
    joins (a1, b1) and (a2, b2); orientations as written below.  The IHX
    relator is [I] - [H] + [X] (verified against the STU quotient).
    """
    d = od.diagram
    x, y = tuple(e)
    if not {x, y} <= d.trivalent:
        raise DiagramError("IHX applies to internal edges only")
    cx = od.triv_cyclic(x)
    while cx[0] != y:
        cx = (cx[1], cx[2], cx[0])
    a1, a2 = cx[1], cx[2]
    cy = od.triv_cyclic(y)
    while cy[0] != x:
        cy = (cy[1], cy[2], cy[0])
    b1, b2 = cy[1], cy[2]

    def rebuild(p_pair, q_pair, orient_p, orient_q):
        # new trivalent vertices reuse the ids x (joined to p_pair) and y
        edges = {ed for ed in d.edges if x not in ed and y not in ed}
        edges.add(frozenset((x, y)))
        for n in p_pair:
            edges.add(frozenset((x, n)))
        for n in q_pair:
            edges.add(frozenset((y, n)))
        if len(edges) != len(d.edges):
            raise DiagramError("replacement created a double edge")
        new_d = Diagram(d.support, d.placements, d.trivalent, frozenset(edges))
        to = []
        for v, cyc in od.triv_orient:
            if v == x:
                to.append((v, orient_p))
            elif v == y:
                to.append((v, orient_q))
            else:
                to.append((v, cyc))
        return OrientedDiagram(new_d, tuple(sorted(to)), od.univ_orient)

    h = rebuild((a1, b2), (a2, b1), (y, a1, b2), (x, b1, a2))
    xterm = rebuild((a1, b1), (a2, b2), (y, a1, b1), (x, b2, a2))
    return h, xterm


# ---------------------------------------------------------------------------
# Relation sets and reduction

def stu_relators(support, n):
    """One STU relator per (diagram class, trivalent vertex, stem): the
    diagram minus its two resolutions."""
    out = []
    for d in enumerate_diagrams(support, n):
        od = std_oriented(d)
        adj, univalent = adjacency(d, d.trivalent), d.univalent
        for t in sorted(d.trivalent):
            for u0 in adj[t]:
                if u0 not in univalent:
                    continue
                u_res, s_res = stu_resolutions(od, t, u0)
                vec = (ClassVector.of(od) - ClassVector.of(u_res)
                       + ClassVector.of(s_res))
                out.append(vec)
    return out


def _ihx_instances(d):
    """(I, H, X) for each internal edge of the class d whose H and X terms
    need no double edge; I is the class's standard orientation."""
    od = std_oriented(d)
    for e in sorted(d.internal_edges(), key=lambda e: tuple(sorted(e))):
        try:
            h, xterm = ihx_replacements(od, e)
        except DiagramError:
            continue    # replacement would need a double edge
        yield od, h, xterm


def ihx_relators(support, n):
    """One IHX relator per (diagram class, internal edge)."""
    return [ClassVector.of(od) - ClassVector.of(h) + ClassVector.of(xterm)
            for d in enumerate_diagrams(support, n)
            for od, h, xterm in _ihx_instances(d)]


class Reduction:
    """Echelon form of the degree-n STU relators (the space A_n), which
    reduces vectors to a deterministic basis of chord diagram classes;
    quotient(k) extends it to A_n^k.  `rank` gives each class its position
    in `order`.  Immutable once built, apart from the memo of pivot
    expansions that reduce fills."""

    def __init__(self, support, n):
        check_degree(n)
        self.support = support
        self.n = n
        keys = []    # every class that AS leaves alive; relators hold no other
        for d in enumerate_diagrams(support, n):
            keys.extend(ClassVector.of(std_oriented(d)).terms)
        # high-trivalent classes (key[2]) go first so chord diagrams survive
        self.order = sorted(keys, key=lambda key: (-key[2], key))
        self.rank = {key: i for i, key in enumerate(self.order)}
        self.pivots = {}
        self._expansions = {}
        for vec in stu_relators(support, n):
            self._insert(vec.terms)
        self.basis = tuple(key for key in self.order if key not in self.pivots)

    def quotient(self, k):
        """A_n^k: this echelon with the subprincipal classes of u_Γ = k - 1
        set to 0.  Shares `order`, `rank` and the pivot rows (_insert never
        changes a stored row) and inserts only those classes' unit rows.
        The unit rows change the pivots' expansions, so the memo is new."""
        check_k(self.n, k)
        q = copy.copy(self)
        q.pivots = dict(self.pivots)
        q._expansions = {}
        for d in enumerate_diagrams(self.support, self.n):
            if len(d.univalent) == k - 1 and is_subprincipal(d):
                q._insert(ClassVector.of(std_oriented(d)).terms)
        q.basis = tuple(key for key in q.order if key not in q.pivots)
        return q

    def _insert(self, row):
        row = dict(row)
        rank = self.rank.__getitem__
        while row:
            lead = min(row, key=rank)
            if lead in self.pivots:
                _eliminate(row, lead, self.pivots[lead])
            else:
                c = row.pop(lead)
                self.pivots[lead] = {key: v / c for key, v in row.items()}
                return

    def _expansion(self, lead):
        """The basis coordinates of the pivot class lead: minus its tail,
        each tail class that is itself a pivot replaced by its expansion.
        Tail classes rank after their lead, so the depth-first walk below
        ends; every expansion it builds is memoised."""
        memo, pivots = self._expansions, self.pivots
        stack = [lead]
        while stack:
            top = stack[-1]
            missing = [key for key in pivots[top]
                       if key in pivots and key not in memo]
            if missing:
                stack.extend(missing)
                continue
            stack.pop()
            if top in memo:
                continue
            out = {}
            for key, v in pivots[top].items():
                for b, w in (memo[key].items() if key in pivots
                             else ((key, 1),)):
                    out[b] = out.get(b, 0) - v * w
            memo[top] = {b: c for b, c in out.items() if c}
        return memo[lead]

    def reduce(self, vec: ClassVector):
        """Coordinates of [vec] in the chord-diagram basis, as a ClassVector:
        each pivot class of vec is replaced by its memoised expansion."""
        if vec.degree != self.n or vec.support != self.support:
            raise DiagramError("vector degree/support does not match the reduction")
        out = {}
        for key, c in vec.terms.items():
            if key in self.pivots:
                for b, w in self._expansion(key).items():
                    out[b] = out.get(b, 0) + c * w
            else:
                out[key] = out.get(key, 0) + c
        return ClassVector(self.support, self.n, out)

    @property
    def dimension(self):
        return len(self.basis)


def _eliminate(row, lead, pivot):
    """Eliminate lead from row in place: a pivot row reads
    lead + sum(v * key) = 0, so lead expands to minus its stored tail."""
    c = row.pop(lead)
    for key, v in pivot.items():
        new = row.get(key, 0) - c * v
        if new:
            row[key] = new
        else:
            row.pop(key, None)


def reduction(support, n, k=None) -> Reduction:
    """A_n (k None) or A_n^k of (support, n), memoised under one key
    whether or not k = None is passed; every k extends one STU echelon."""
    return _reduction(support, n, k)


@lru_cache(maxsize=None)
def _reduction(support, n, k):
    if k is None:
        return Reduction(support, n)
    return _reduction(support, n, None).quotient(k)


reduction.cache_info = _reduction.cache_info
reduction.cache_clear = _reduction.cache_clear


def reduce_to_basis(vec: ClassVector):
    return reduction(vec.support, vec.degree).reduce(vec)


def quotient_A_n_k(vec: ClassVector, k):
    return reduction(vec.support, vec.degree, k).reduce(vec)


def dim_A_n(support, n, k=None):
    return reduction(support, n, k).dimension


# ---------------------------------------------------------------------------
# Independent oracle: chord diagrams modulo 4T

def _chord_classes(support, n):
    return [d for d in enumerate_diagrams(support, n) if not d.trivalent]


def four_t_relators(support, n):
    """The four-term relation among chord diagrams, derived from a double
    STU resolution: moving a chord end past an endpoint of another chord.

    [foot after a] - [foot before a] - [foot before b] + [foot after b] = 0
    for a chord {a, b} and a third endpoint's foot.
    """
    out = []
    for d in _chord_classes(support, n):
        univ = sorted(d.univalent)
        for e in sorted(d.edges, key=lambda e: tuple(sorted(e))):
            a, b = tuple(sorted(e))
            for x in univ:
                if x in e:
                    continue
                partner = d.neighbors(x)[0]
                if partner in e:
                    continue   # moving end attached to the same chord
                terms = []
                for anchor, offset, sgn in ((a, 1, 1), (a, 0, -1),
                                            (b, 0, -1), (b, 1, 1)):
                    nd = _replace_foot(d, x, anchor, offset)
                    terms.append((nd, sgn))
                vec = ClassVector.zero(support, n)
                for nd, sgn in terms:
                    vec = vec + ClassVector.of(std_oriented(nd), Fraction(sgn))
                out.append(vec)
    return out


def _replace_foot(d: Diagram, x, anchor, offset):
    """Move univalent vertex x so it sits next to `anchor` (offset 0: just
    before, 1: just after) on anchor's component."""
    placements = [list(c) for c in d.placements]
    for comp in placements:
        if x in comp:
            comp.remove(x)
    ci = d.component_of(anchor)
    pos = placements[ci].index(anchor)
    placements[ci].insert(pos + offset, x)
    return Diagram(d.support, tuple(tuple(c) for c in placements),
                   d.trivalent, d.edges)


def dim_chords_mod_4t(support, n):
    """Dimension oracle: chord diagram classes modulo the 4T relation."""
    keys = set()
    for d in _chord_classes(support, n):
        key, sign = canonical_oriented(std_oriented(d))
        if sign:
            keys.add(key)
    order = sorted(keys)
    pivots = {}
    for vec in four_t_relators(support, n):
        row = dict(vec.terms)
        while row:
            lead = next(key for key in order if key in row)
            if lead in pivots:
                c = row.pop(lead)
                for key, v in pivots[lead].items():
                    new = row.get(key, 0) - c * v
                    if new:
                        row[key] = new
                    else:
                        row.pop(key, None)
            else:
                c = row.pop(lead)
                pivots[lead] = {key: v / c for key, v in row.items()}
                break
    return len(order) - len(pivots)


# ---------------------------------------------------------------------------
# Product, insertion, exponential action

def _shift_ids(od: OrientedDiagram, offset):
    d = od.diagram
    placements = tuple(tuple(v + offset for v in c) for c in d.placements)
    edges = frozenset(frozenset(v + offset for v in e) for e in d.edges)
    triv = frozenset(v + offset for v in d.trivalent)
    nd = Diagram(d.support, placements, triv, edges)
    to = tuple(sorted((t + offset, tuple(x + offset for x in cyc))
                      for t, cyc in od.triv_orient))
    uo = tuple(sorted((u + offset, s) for u, s in od.univ_orient))
    return OrientedDiagram(nd, to, uo)


def product(u: ClassVector, v: ClassVector) -> ClassVector:
    """Concatenation product on the interval algebra A(J)."""
    for vec in (u, v):
        if vec.support != R1:
            raise DiagramError("product is defined on the interval support")
    out = ClassVector.zero(R1, u.degree + v.degree)
    for k1, c1 in u.terms.items():
        od1 = representative(k1)
        for k2, c2 in v.terms.items():
            # v's line goes after the last foot of u's line
            od = _insert_once(representative(k2), od1, 0,
                              slot=len(od1.diagram.placements[0]))
            out = out + ClassVector.of(od, c1 * c2)
    return out


def insert(a: ClassVector, v: ClassVector, m) -> ClassVector:
    """The A(J)-module action: insert the interval class a into component m
    of v's support.  The place of insertion is immaterial modulo relations;
    this uses the slot before the component's first univalent vertex."""
    out = None
    for k2, c2 in v.terms.items():
        od = representative(k2)
        for k1, c1 in a.terms.items():
            ins = _insert_once(representative(k1), od, m, slot=0)
            t = ClassVector.of(ins, c1 * c2)
            out = t if out is None else out + t
    if out is None:
        return ClassVector.zero(v.support, v.degree + a.degree)
    return out


def _insert_once(line_od: OrientedDiagram, od: OrientedDiagram, m, slot=0):
    d = od.diagram
    mi = d.support.index_of(m) if isinstance(m, str) else m
    offset = (max(d.vertices) + 1) if d.vertices else 0
    shifted = _shift_ids(line_od, offset)
    sd = shifted.diagram
    seq = sd.placements[0]
    placements = []
    for i, comp in enumerate(d.placements):
        if i == mi:
            comp = comp[:slot] + seq + comp[slot:]
        placements.append(tuple(comp))
    nd = Diagram(d.support, tuple(placements), d.trivalent | sd.trivalent,
                 d.edges | sd.edges)
    return OrientedDiagram(nd, tuple(sorted(od.triv_orient + shifted.triv_orient)),
                           tuple(sorted(od.univ_orient + shifted.univ_orient)))


def line_unit():
    empty = Diagram(R1, ((),), frozenset(), frozenset())
    return ClassVector.of(std_oriented(empty))


def exp_action(a: ClassVector, x, v, m, max_degree) -> Series:
    """v · exp(x · a^{(m)}) truncated at max_degree.

    v may be a Series or a single ClassVector.  Exact when x is a Fraction;
    float coefficients propagate otherwise.
    """
    if isinstance(v, ClassVector):
        series = Series(v.support)
        series.add_vector(v)
        v = series
    powers = [line_unit()]
    while len(powers) <= max_degree and (len(powers) - 1) * max(a.degree, 1) <= max_degree:
        powers.append(product(powers[-1], a))
    out = Series(v.support)
    for deg_v, vec in v.items():
        for j, aj in enumerate(powers):
            deg = deg_v + aj.degree
            if deg > max_degree:
                continue
            coeff = x ** j / factorial(j) if j else 1
            if j == 0:
                out.add_vector(vec)
            else:
                term = insert(aj, vec, m).scale(coeff)
                out.add_vector(term)
    return out


# ---------------------------------------------------------------------------
# The beta map and labelled diagrams

@dataclass(frozen=True)
class LabelledDiagram:
    """A diagram with labelled edges e_1..e_N, possibly with absent labels.

    Stored as an oriented diagram plus its parameters (n, k); the edge
    labelling itself never affects beta or the integrals, so only the count
    of visible edges is retained from it.
    """

    oriented: OrientedDiagram
    n: int
    k: int

    def __post_init__(self):
        d = self.oriented.diagram
        if degree(d) != self.n:
            raise DiagramError("degree mismatch")
        check_k(self.n, self.k)
        if len(d.edges) > self.N:
            raise DiagramError("more visible edges than labels")
        if len(d.univalent) != self.absent_count + self.k:
            raise DiagramError("u_Γ = #E^a + k must hold")
        if not is_subprincipal(d):
            raise DiagramError("labelled diagrams must be subprincipal")

    @property
    def N(self):
        return 3 * self.n - self.k

    @property
    def visible_count(self):
        return len(self.oriented.diagram.edges)

    @property
    def absent_count(self):
        return self.N - self.visible_count


def beta_coefficient(n, k, e_count) -> Fraction:
    N = 3 * n - k
    if e_count > N:
        raise DiagramError("e_Γ must be at most N")
    return Fraction(factorial(N - e_count), factorial(N) * 2 ** e_count)


@dataclass(frozen=True)
class BetaValue:
    coefficient: Fraction
    vector: ClassVector      # coefficient * [Γ], projected to A_n^k on demand


def beta(ld: LabelledDiagram) -> BetaValue:
    """(N - e)! / (N! 2^e) times the class of the diagram."""
    c = beta_coefficient(ld.n, ld.k, ld.visible_count)
    return BetaValue(c, ClassVector.of(ld.oriented, c))


def lattice_generators(support, n, k):
    """BetaValues of the principal degree-n diagrams, reduced in A_n^k."""
    red = reduction(support, n, k)
    out = []
    for d in enumerate_diagrams(support, n):
        if not is_principal(d):
            continue
        u_count = len(d.univalent)
        if u_count < k:
            continue    # more edges than labels: not in D_{n,k}
        ld = LabelledDiagram(std_oriented(d), n, k)
        bv = beta(ld)
        out.append(BetaValue(bv.coefficient, red.reduce(bv.vector)))
    return out


# ---------------------------------------------------------------------------
# Gluing identities (IHX' and STU')

def check_ihx_prime(support, n, k):
    """The type (c1) gluing: for every internal edge of every degree-n class,
    the six labelled expansions of the collapsed edge satisfy
    beta(ih) + beta(ib) = beta(hd) + beta(hg) - beta(xd) - beta(xg),
    i.e. 2c([I] - [H] + [X]) = 0 in A_n^k.  Instances involving a
    non-subprincipal diagram are skipped (their faces are degenerate)."""
    return _glued(support, n, k, "ihx")


def check_stu_prime(support, n, k):
    """The type (c2) gluing: for every skeleton with one bivalent vertex on M,
    beta(u) - beta(s) = sum over absent labels of (beta(th) + beta(tb)).

    Skeleta are enumerated from the u-side: a degree-n class with a pair of
    consecutive univalent vertices (no edge between them).  Skipped when any
    of the three STU diagrams is non-subprincipal or the trivalent expansion
    would need a double edge (such faces are self-glued)."""
    return _glued(support, n, k, "stu")


def _glued(support, n, k, kind):
    """Whether c(e)·a - 2(N - e)·c(e + 1)·b reduces to 0 in A_n^k for each
    `kind` face (a, b) of each class with e <= N = 3n - k edges, c being
    beta_coefficient; the second term is dropped when e = N."""
    red = reduction(support, n, k)
    N = 3 * n - k
    for d in enumerate_diagrams(support, n):
        e = len(d.edges)
        if e > N:
            continue    # not realisable with N labels
        c = beta_coefficient(n, k, e)
        c_t = 2 * (N - e) * beta_coefficient(n, k, e + 1) if e < N else 0
        for a, b in _faces(d)[kind]:
            if not red.reduce(a.scale(c) - b.scale(c_t)).is_zero():
                return False
    return True


@lru_cache(maxsize=None)
def _faces(d: Diagram):
    """The k-independent gluing faces (a, b) of the class d: "ihx" has
    (2([I] - [H] + [X]), 0) per internal edge, "stu" ([u] - [s], [t]) per
    chordless pair of consecutive feet, u being d.  No face has a
    non-subprincipal diagram (degenerate) or a double edge (self-glued)."""
    if not is_subprincipal(d):
        return {"ihx": [], "stu": []}
    od = std_oriented(d)
    u = ClassVector.of(od)
    zero = ClassVector.zero(d.support, degree(d))
    ihx = [((u - ClassVector.of(h) + ClassVector.of(xterm)).scale(2), zero)
           for _, h, xterm in _ihx_instances(d)
           if is_subprincipal(h.diagram) and is_subprincipal(xterm.diagram)]
    stu = []
    for ci, comp in enumerate(d.placements):
        m = len(comp)
        # pairs wrap round a circle, but a two-leg circle keeps one arc: its
        # other arc gives the same identity with the sign of [t] flipped
        for i in range(m if d.support.is_circle(ci) and m > 2 else m - 1):
            p, q = comp[i], comp[(i + 1) % m]
            if frozenset((p, q)) in d.edges:
                continue
            s_od = _swap_consecutive(od, ci, p, q)
            t_od = _contract_pair(od, ci, p, q)    # None: a double edge
            if (t_od is not None and is_subprincipal(s_od.diagram)
                    and is_subprincipal(t_od.diagram)):
                stu.append((u - ClassVector.of(s_od), ClassVector.of(t_od)))
    return {"ihx": ihx, "stu": stu}


def _swap_consecutive(od: OrientedDiagram, ci, p, q):
    """Exchange which of the two edges lands first on M (the S term)."""
    d = od.diagram
    comp = list(d.placements[ci])
    i = comp.index(p)
    j = comp.index(q)
    comp[i], comp[j] = comp[j], comp[i]
    placements = tuple(tuple(comp) if idx == ci else c
                       for idx, c in enumerate(d.placements))
    nd = Diagram(d.support, placements, d.trivalent, d.edges)
    return OrientedDiagram(nd, od.triv_orient, od.univ_orient)


def _contract_pair(od: OrientedDiagram, ci, p, q):
    """Expand the collapsed pair into a trivalent vertex with a stem foot,
    oriented so that resolving it returns (u, s) in that order.  None when
    the expansion would create a double edge."""
    d = od.diagram
    (wp,), (wq,) = adjacency(d, (p, q)).values()
    if wp == wq:
        return None
    t_new, foot = _fresh_ids(d, 2)
    comp = list(d.placements[ci])
    comp[comp.index(p)] = foot     # foot takes the pair's slot
    comp.remove(q)
    placements = tuple(tuple(comp) if idx == ci else c
                       for idx, c in enumerate(d.placements))
    edges = {e for e in d.edges if p not in e and q not in e}
    edges |= {frozenset((t_new, wp)), frozenset((t_new, wq)),
              frozenset((t_new, foot))}
    nd = Diagram(d.support, placements, d.trivalent | {t_new},
                 frozenset(edges))
    to = []
    for v, cyc in od.triv_orient:
        cyc = tuple(t_new if x in (p, q) else x for x in cyc)
        to.append((v, cyc))
    to.append((t_new, (foot, wp, wq)))
    uo = tuple(sorted([(u, s) for u, s in od.univ_orient if u not in (p, q)]
                      + [(foot, 1)]))
    return OrientedDiagram(nd, tuple(sorted(to)), uo)
