"""EPG text format and DOT export.

EPG (embedded planar graph) is a whitespace-separated text format::

    epg 1
    # comment
    v 0: 1 2
    v 1: 2 0
    v 2: 0 1
    outer 0 1

One ``v`` line per vertex giving the full clockwise rotation (empty for
isolated vertices), one ``outer u v`` line per edged component naming its
outer dart.  Serialization is canonical (sorted vertices, rotations
starting at the smallest neighbor, sorted outer darts), so embedding ->
text -> embedding round-trips exactly and equal embeddings serialize to
identical bytes.
"""

from __future__ import annotations

from .embedding import Dart, Embedding, _Rotations
from .errors import FormatError

HEADER = "epg 1"


def format_epg(emb: Embedding) -> str:
    lines = [HEADER]
    for v in emb.vertices:
        ns = " ".join(str(w) for w in emb.rotation(v))
        lines.append(f"v {v}:" + (f" {ns}" if ns else ""))
    for u, w in emb.outer_darts:
        lines.append(f"outer {u} {w}")
    return "\n".join(lines) + "\n"


def parse_epg(text: str) -> Embedding:
    rotations = _Rotations()  # int tuples: the constructor skips its type pass
    outer: list[Dart] = []
    saw_header = False
    comments = "#" in text
    # on such a text ``int`` reads a token exactly as the grammar does
    plain = text.isascii() and "+" not in text and "_" not in text
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = (raw.split("#", 1)[0] if comments else raw).strip()
        if not line:
            continue
        tokens = line.replace(":", " : ").split()
        if not saw_header:
            if tokens != ["epg", "1"]:
                raise FormatError(f"line {lineno}: expected header '{HEADER}'")
            saw_header = True
            continue
        if tokens[0] == "v":
            if len(tokens) < 3 or tokens[2] != ":":
                raise FormatError(f"line {lineno}: malformed vertex line")
            v = _int(tokens[1], lineno)
            if v in rotations:
                raise FormatError(f"line {lineno}: duplicate vertex {v}")
            rotations[v] = _ints(tokens[3:], lineno, plain)
        elif tokens[0] == "outer":
            if len(tokens) != 3:
                raise FormatError(f"line {lineno}: malformed outer line")
            outer.append((_int(tokens[1], lineno), _int(tokens[2], lineno)))
        else:
            raise FormatError(f"line {lineno}: unknown directive {tokens[0]!r}")
    if not saw_header:
        raise FormatError("empty input: missing EPG header")
    return Embedding(rotations, outer)


def _int(token: str, lineno: int) -> int:
    # EPG integers are ASCII -?[0-9]+; ``int`` alone would also take "1_0",
    # "+0" and non-ASCII digits; it rejects tokens over Python's 4,300-digit
    # limit, which are no EPG integers here either
    if token.isascii() and (token.isdigit() or token[:1] == "-" and token[1:].isdigit()):
        try:
            return int(token)
        except ValueError:
            pass
    shown = token if len(token) <= 40 else f"{token[:20]}...({len(token)} characters)"
    raise FormatError(f"line {lineno}: not an integer: {shown!r}")


def _ints(tokens: list[str], lineno: int, plain: bool) -> tuple[int, ...]:
    """The EPG integers ``tokens``, by plain ``int`` when ``plain``.

    ``plain`` says the text is ASCII without "+" or "_"; then ``int``
    takes a whitespace-free token exactly when it is ``-?[0-9]+``, and a
    token it rejects is named by :func:`_int`.
    """
    if plain:
        try:
            return tuple(map(int, tokens))
        except ValueError:
            pass
    return tuple(_int(t, lineno) for t in tokens)


def to_dot(emb: Embedding, name: str = "embedding") -> str:
    """DOT rendering of the graph, with face walks annotated as comments."""
    lines = [f"graph {name} {{"]
    for i, f in enumerate(emb.faces):
        kind = "outer" if f.is_outer else "inner"
        cycle = " ".join(str(v) for v in f.vertices)
        lines.append(f"  // face {i} ({kind}): {cycle}")
    for v in emb.vertices:
        if emb.degree(v) == 0:
            lines.append(f"  {v};")
    for u, v in emb.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"
