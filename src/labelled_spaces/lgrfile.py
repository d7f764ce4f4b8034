"""The .lgr text format for labelled spaces.

Grammar (one directive per line, comments start with '#'):

    vertices v1 v2 ...
    edge SRC LABEL DST            edge id auto-assigned as e1, e2, ... in order
    edge ID: SRC LABEL DST        explicit edge id
    family powerset
    family explicit {a b}{c}{}...
    family closure {a}{b c}...

Parsing and printing round-trip byte-stably on canonical files.
"""

from .errors import InputError, ParseError
from .family import AccommodatingFamily, closure, powerset_family
from .graph import Edge, LabelledGraph
from .util import format_vset, parse_vset_list


def parse_graph_file(text):
    """Parse an .lgr document into (LabelledGraph, AccommodatingFamily)."""
    vertices = None
    edges = []
    family_spec = None
    auto = 0
    seen_ids = set()
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        head, _, rest = line.partition(" ")
        rest = rest.strip()
        if head == "vertices":
            if vertices is not None:
                raise ParseError("duplicate vertices line", lineno)
            vertices = tuple(rest.split())
            if len(set(vertices)) != len(vertices):
                raise ParseError("duplicate vertex ids", lineno)
            if not vertices:
                raise ParseError("at least one vertex is required", lineno)
        elif head == "edge":
            if vertices is None:
                raise ParseError("edge before vertices line", lineno)
            parts = rest.split()
            if len(parts) == 4 and parts[0].endswith(":"):
                eid, src, label, dst = parts[0][:-1], parts[1], parts[2], parts[3]
            elif len(parts) == 3:
                auto += 1
                eid, (src, label, dst) = "e%d" % auto, parts
            else:
                raise ParseError("expected 'edge [ID:] SRC LABEL DST'", lineno)
            if eid in seen_ids:
                raise ParseError("duplicate edge id %r" % eid, lineno)
            seen_ids.add(eid)
            if src not in vertices or dst not in vertices:
                raise ParseError("edge uses unknown vertex", lineno)
            edges.append(Edge(eid, src, label, dst))
        elif head == "family":
            if family_spec is not None:
                raise ParseError("duplicate family line", lineno)
            family_spec = (rest, lineno)
        else:
            raise ParseError("unknown directive %r" % head, lineno)
    if vertices is None:
        raise ParseError("missing vertices line")
    if family_spec is None:
        raise ParseError("missing family line")
    try:
        graph = LabelledGraph(vertices, tuple(edges))
    except Exception as exc:
        raise ParseError(str(exc))
    spec, lineno = family_spec
    kind, _, body = spec.partition(" ")
    body = body.strip()
    try:
        if kind == "powerset":
            fam = powerset_family(graph)
        elif kind == "explicit":
            fam = AccommodatingFamily(graph, tuple(parse_vset_list(body)))
        elif kind == "closure":
            fam = closure(graph, tuple(parse_vset_list(body)))
        else:
            raise ParseError("unknown family kind %r" % kind, lineno)
    except ParseError:
        raise
    except Exception as exc:
        raise ParseError(str(exc), lineno)
    return graph, fam


def format_graph_file(graph, fam, family_kind="explicit"):
    """Canonical .lgr text for a labelled space."""
    lines = ["vertices %s" % " ".join(graph.vertices)]
    for e in graph.edges:
        lines.append("edge %s: %s %s %s" % (e.eid, e.src, e.label, e.dst))
    if family_kind == "powerset":
        lines.append("family powerset")
    else:
        lines.append("family explicit %s" % "".join(format_vset(s) for s in fam.sets))
    return "\n".join(lines) + "\n"


def load_graph_file(path):
    """Read and parse an .lgr file; unreadable files are input errors."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            text = handle.read()
    except UnicodeDecodeError as exc:
        raise ParseError("%s is not UTF-8 text: %s" % (path, exc.reason))
    except OSError as exc:
        raise InputError("cannot read graph file %s: %s" % (path, exc.strerror or exc))
    return parse_graph_file(text)
