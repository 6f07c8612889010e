"""Stratum families of the compactification and the codimension-1 face types.

Strata of the compactified configuration space are labelled by nested
families S of connected vertex subsets of the graph G (the diagram's graph
augmented with all pairs of univalent vertices).  Codimension-1 faces come
from S = {V} with the extra scale coordinate (type a) or S = {V, A}; the
six face types and the degeneracy verdicts follow the combinatorial
predicates of the classification.
"""

import itertools
from dataclasses import dataclass

from .diagrams import (Diagram, augmented_edges, connected_subsets, edge_counts,
                       is_connected)
from .errors import ClassificationError, DiagramError


@dataclass(frozen=True)
class StratumFamily:
    vertices: frozenset
    edges: frozenset
    sets: frozenset     # frozenset of frozensets, pairwise nested or disjoint

    def __post_init__(self):
        if self.vertices not in self.sets:
            raise DiagramError("a stratum family must contain the full vertex set")
        for A, B in itertools.combinations(self.sets, 2):
            if A & B and not (A <= B or B <= A):
                raise DiagramError("family members must be nested or disjoint")

    def smallest_containing(self, A):
        """Ā: the smallest member containing A (well-defined by nesting)."""
        A = frozenset(A)
        cands = [S for S in self.sets if A <= S]
        return min(cands, key=len)

    def parent(self, A):
        """Â: the smallest member strictly containing A ∈ S − {V}."""
        A = frozenset(A)
        cands = [S for S in self.sets if A < S]
        if not cands:
            raise KeyError("A has no strict superset in the family")
        return min(cands, key=len)


def enumerate_strata(vertices, edges):
    """All nested-or-disjoint families of connected subsets (size >= 2)
    containing V, for a connected graph; deterministic order."""
    vertices = frozenset(vertices)
    edges = frozenset(frozenset(e) for e in edges)
    if len(vertices) < 2 or not is_connected(vertices, edges):
        raise DiagramError("graph must be connected with at least 2 vertices")
    R = [A for A in connected_subsets(vertices, edges) if A != vertices]
    families = []

    def rec(idx, chosen):
        if idx == len(R):
            families.append(StratumFamily(
                vertices, edges, frozenset(chosen) | {vertices}))
            return
        rec(idx + 1, chosen)
        A = R[idx]
        if all((not (A & B)) or A <= B or B <= A for B in chosen):
            rec(idx + 1, chosen + [A])

    rec(0, [])
    return sorted(families,
                  key=lambda f: (len(f.sets),
                                 sorted(tuple(sorted(s)) for s in f.sets)))


@dataclass(frozen=True)
class FaceLabel:
    diagram: Diagram
    subset: object      # frozenset of vertices, or None for the type (a) face
    type: str
    degenerate: bool


def _univalent_part_valid(d: Diagram, A):
    """Univalent vertices of a collapsing cluster must sit consecutively on a
    single component (an embedding keeps distinct components apart)."""
    au = A & d.univalent
    if not au:
        return True
    comps = {d.component_of(u) for u in au}
    if len(comps) > 1:
        return False
    comp = d.placements[comps.pop()]
    k = len(comp)
    positions = sorted(comp.index(u) for u in au)
    m = len(positions)
    # contiguous arc in the cyclic order
    for start in range(k):
        if sorted((start + j) % k for j in range(m)) == positions:
            return True
    return False


def classify_face(d: Diagram, A=None) -> FaceLabel:
    """Classify a codimension-1 face: the type (a) face (A=None) or F(Γ, A).

    Type (e) faces require a boundary point of M; links have none, so no
    input can produce one here.
    """
    if not d.vertices:
        raise ClassificationError("the empty diagram has no faces")
    if A is None:
        deg = not is_connected(d.vertices, d.edges)
        return FaceLabel(d, None, "a", deg)
    A = frozenset(A)
    if not 2 <= len(A) < len(d.vertices) or not A <= d.vertices:
        raise ClassificationError("A must be a proper subset with at least 2 vertices")
    if not is_connected(A, [e for e in augmented_edges(d) if e <= A]):
        raise ClassificationError("A must be connected in the augmented graph")
    univ = d.univalent
    if not univ <= A and not _univalent_part_valid(d, A):
        raise ClassificationError(
            "univalent vertices of A must be consecutive on one component")
    _, e_half = edge_counts(d, A)
    if univ <= A:
        ftype = "b"
    elif e_half == 0:
        ftype = "a'"
    elif len(A) == 2:
        ftype = "c1" if A <= d.trivalent else "c2"
    else:
        ftype = "d"
    return FaceLabel(d, A, ftype, _is_degenerate(d, A, ftype))


def _is_degenerate(d: Diagram, A, ftype):
    if ftype == "b":
        return True
    if ftype in ("c1", "c2"):
        return False
    if ftype == "a'":
        return not is_connected(A, [e for e in d.edges if e <= A])
    # type d: non-degenerate only if every outgoing edge leaves from a
    # trivalent vertex that is bivalent inside A, with the E'_A count in
    # the allowed window
    _, e_half = edge_counts(d, A)
    window = (3, 4) if A <= d.trivalent else (1, 2)
    if not window[0] <= e_half <= window[1]:
        return True
    for e in d.edges:
        if len(e & A) == 1:
            (v,) = tuple(e & A)
            if v in d.univalent:
                return True
            inside = sum(1 for f in d.edges if v in f and f <= A)
            if inside != 2:
                return True
    return False


def enumerate_faces(d: Diagram):
    """All codimension-1 faces of the compactified configuration space of d:
    the type (a) face plus every admissible F(Γ, A)."""
    faces = [classify_face(d, None)]
    aug = augmented_edges(d)
    for A in connected_subsets(d.vertices, aug):
        if A == d.vertices:
            continue
        try:
            faces.append(classify_face(d, A))
        except ClassificationError:
            continue
    return faces
