"""Plain-text diagram format.

One diagram per file or stream record::

    # lines starting with '#' are comments
    component 0: a b c      # cyclic order of univalent vertex names
    component 1 line: d e   # 'line' marks an interval/line component
    trivalent: t u
    edges: a-t b-t c-u d-u e-u t-u
    orient t: a b u         # cyclic order of edges at t, by far endpoint

Univalent orientations default to the component orientation.  Vertex names
are arbitrary whitespace-free tokens without '-'.
"""

from fractions import Fraction

from .diagrams import Diagram, OrientedDiagram, std_oriented
from .errors import DiagramError
from .support import CIRCLE, LINE, Support


def parse_diagram(text: str) -> OrientedDiagram:
    comps = []          # (ident, kind, name list)
    trivalent_names = []
    edge_pairs = []
    orient_lines = {}
    for raw in text.splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        head, _, rest = line.partition(":")
        head = head.split() or [""]     # an empty head is unrecognised
        rest = rest.split()
        if head[0] == "component":
            if len(head) == 2:
                comps.append((head[1], CIRCLE, rest))
            elif len(head) == 3 and head[2] == "line":
                comps.append((head[1], LINE, rest))
            else:
                raise DiagramError(f"bad component line: {raw!r}")
        elif head[0] == "trivalent" and len(head) == 1:
            trivalent_names.extend(rest)
        elif head[0] == "edges" and len(head) == 1:
            for tok in rest:
                a, _, b = tok.partition("-")
                if not a or not b:
                    raise DiagramError(f"bad edge token {tok!r}")
                edge_pairs.append((tok, a, b))
        elif head[0] == "orient" and len(head) == 2:
            orient_lines[head[1]] = rest
        else:
            raise DiagramError(f"unrecognised line: {raw!r}")
    if not comps:
        raise DiagramError("no components given")

    ids = {}
    for _, _, names in comps:
        for name in names:
            if name in ids:
                raise DiagramError(f"vertex {name!r} placed twice")
            ids[name] = len(ids)
    for name in trivalent_names:
        if name in ids:
            raise DiagramError(f"vertex {name!r} both univalent and trivalent")
        ids[name] = len(ids)

    edges = {}
    for tok, a, b in edge_pairs:
        _check_declared(ids, f"edge {tok!r}", (a, b))
        if a == b:
            raise DiagramError(f"edge {tok!r} is a loop at vertex {a!r}")
        edge = frozenset((a, b))
        if edge in edges:
            raise DiagramError(f"edge {tok!r} repeats edge {edges[edge]!r}")
        edges[edge] = tok
    for name, neigh in orient_lines.items():
        if name not in trivalent_names:
            raise DiagramError(f"orient line for non-trivalent vertex {name!r}")
        _check_declared(ids, f"orient line of {name!r}", neigh)

    # built in the file's names first, so that an error names its vertices;
    # a vertex's default cyclic order is its neighbours' declaration order
    support = Support(tuple((ident, kind) for ident, kind, _ in comps))
    named = Diagram(support, tuple(tuple(names) for _, _, names in comps),
                    frozenset(trivalent_names), frozenset(edges))
    cyclic = {t: tuple(orient_lines[t]) if t in orient_lines
              else tuple(sorted(named.neighbors(t), key=ids.get))
              for t in trivalent_names}
    OrientedDiagram(named, tuple(cyclic.items()),
                    tuple((v, 1) for v in named.univalent))

    def number(names):
        return tuple(ids[n] for n in names)

    d = Diagram(support, tuple(number(names) for _, _, names in comps),
                frozenset(number(trivalent_names)),
                frozenset(frozenset(number(e)) for e in edges))
    return OrientedDiagram(
        d, tuple(sorted((ids[t], number(c)) for t, c in cyclic.items())),
        std_oriented(d).univ_orient)


def _check_declared(ids, where, names):
    """Raise DiagramError naming where and the first of names that no
    component or trivalent line declares."""
    for name in names:
        if name not in ids:
            raise DiagramError(f"{where} names undeclared vertex {name!r}")


def serialize_diagram(od: OrientedDiagram) -> str:
    d = od.diagram
    names = {}
    for comp in d.placements:
        for v in comp:
            names[v] = f"u{v}"
    for v in sorted(d.trivalent):
        names[v] = f"t{v}"
    out = []
    for i, comp in enumerate(d.placements):
        ident, kind = d.support.components[i]
        mark = " line" if kind == LINE else ""
        out.append(f"component {ident}{mark}: " + " ".join(names[v] for v in comp))
    out.append("trivalent: " + " ".join(names[v] for v in sorted(d.trivalent)))
    out.append("edges: " + " ".join(
        "-".join(names[v] for v in sorted(e)) for e in
        sorted(d.edges, key=lambda e: tuple(sorted(e)))))
    for t, cyc in od.triv_orient:
        out.append(f"orient {names[t]}: " + " ".join(names[v] for v in cyc))
    return "\n".join(out) + "\n"


def parse_class_vector(text: str):
    """Parse 'coeff p/q' + diagram-block records separated by blank lines.

    Returns a list of (Fraction, OrientedDiagram).
    """
    records = []
    block = []
    for raw in text.splitlines() + [""]:
        if raw.strip() == "":
            if block:
                records.append("\n".join(block))
                block = []
        else:
            block.append(raw)
    terms = []
    for rec in records:
        lines = rec.splitlines()
        head = lines[0].split()
        if len(head) != 2 or head[0] != "coeff":
            raise DiagramError("each record must start with 'coeff p/q'")
        try:
            coeff = Fraction(head[1])
        except (ValueError, ZeroDivisionError):
            raise DiagramError(f"bad coefficient {head[1]!r} (use p/q with "
                               "q nonzero)") from None
        od = parse_diagram("\n".join(lines[1:]))
        terms.append((coeff, od))
    return terms


def serialize_class_vector(terms) -> str:
    parts = []
    for coeff, od in terms:
        parts.append(f"coeff {coeff}\n" + serialize_diagram(od))
    return "\n".join(parts)
