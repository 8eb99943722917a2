import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from onionpeel import (
    Embedding,
    errors,
    format_epg,
    gen_counterexample,
    gen_random_kouter,
    parse_epg,
    to_dot,
)
from onionpeel import epg

TRIANGLE_TEXT = """epg 1
v 0: 1 2
v 1: 0 2
v 2: 0 1
outer 0 1
"""


def test_canonical_triangle_text():
    emb = Embedding({0: [1, 2], 1: [2, 0], 2: [0, 1]}, [(0, 1)])
    assert format_epg(emb) == TRIANGLE_TEXT
    assert parse_epg(TRIANGLE_TEXT) == emb


def test_parse_tolerates_comments_and_whitespace():
    text = "# leading comment\nepg 1\n\n  v 0 : 1 2  # rot\nv 1: 2 0\nv 2: 0 1\nouter 1 2\n"
    emb = parse_epg(text)
    assert emb.edge_count == 3
    assert format_epg(parse_epg(format_epg(emb))) == format_epg(emb)


def test_round_trip_corpus(corpus):
    for label, emb in corpus:
        text = format_epg(emb)
        again = parse_epg(text)
        assert again == emb, label
        assert format_epg(again) == text, label


def test_round_trip_with_isolated_vertex():
    emb = Embedding({0: [1, 2], 1: [2, 0], 2: [0, 1], 9: []}, [(0, 1)])
    assert "v 9:" in format_epg(emb)
    assert parse_epg(format_epg(emb)) == emb


def test_parse_errors():
    with pytest.raises(errors.FormatError):
        parse_epg("")
    with pytest.raises(errors.FormatError):
        parse_epg("epg 2\nv 0:\n")
    with pytest.raises(errors.FormatError):
        parse_epg("epg 1\nv 0 1 2\n")
    with pytest.raises(errors.FormatError):
        parse_epg("epg 1\nv 0: x\n")
    # Python's int() takes these; the EPG grammar is ASCII -?[0-9]+
    for token in ("1_0", "+0", "\u0663"):
        with pytest.raises(errors.FormatError):
            parse_epg(f"epg 1\nv {token}: 2\nv 2: {token}\nouter 2 {token}\n")
    with pytest.raises(errors.FormatError):
        parse_epg("epg 1\nv 0: 1\nv 1: 0\nv 0: 1\nouter 0 1\n")
    with pytest.raises(errors.FormatError):
        parse_epg("epg 1\nwhat 1 2\n")
    # domain errors surface from validation, not the parser
    with pytest.raises(errors.AsymmetricAdjacency):
        parse_epg("epg 1\nv 0: 1\nv 1:\nouter 0 1\n")


@pytest.mark.parametrize("lines", [
    "v 0:1 2",
    "v\t0:\t1\t2",
    "v\x1c0:\x1c1\x1c2",
    "v 0: +1 2",
    "v 0: 1_0 2",
    "v 0: \u0663 2",
    "v 0: - 2",
    "v 0: --1 2",
    "v 0: 1: 2",
    "v 0: 1-2 2",
    "v 0: 0x1 2",
    "v 0: 1 2\nv 0: 1 2",
])
def test_vertex_line_fast_path_matches_token_checks(lines):
    text = f"epg 1\n{lines}\nv 1: 2 0\nv 2: 0 1\nouter 0 1\n"

    def parse(text):
        try:
            return parse_epg(text)
        except errors.FormatError as exc:
            return str(exc)

    # a "+" anywhere, here in a trailing comment, sends every token
    # through the per-token checks
    assert parse(text) == parse(text + "# +\n")


def test_canonical_vertex_lines_take_the_fast_path(corpus, monkeypatch):
    checked = []  # tokens read by the per-token checks
    token_check = epg._int
    monkeypatch.setattr(epg, "_int", lambda t, n: checked.append(t) or token_check(t, n))
    isolated = Embedding({-3: [-2, -1], -2: [-1, -3], -1: [-3, -2], 9: []}, [(-3, -2)])
    for label, emb in [*corpus, ("isolated", isolated)]:
        checked.clear()
        assert parse_epg(format_epg(emb)) == emb, label
        # only each vertex line's own id and the outer darts
        assert len(checked) == emb.vertex_count + 2 * len(emb.outer_darts), label


def test_dot_export_mentions_faces_and_edges():
    dot = to_dot(gen_counterexample(2))
    assert dot.startswith("graph embedding {")
    assert "// face 0" in dot and "(outer)" in dot
    assert "0 -- 1;" in dot
    iso = Embedding({0: [1, 2], 1: [2, 0], 2: [0, 1], 9: []}, [(0, 1)])
    assert "  9;" in to_dot(iso)


@settings(max_examples=30, derandomize=True)
@given(k=st.integers(1, 3), w=st.integers(3, 6), seed=st.integers(0, 10**6))
def test_round_trip_random(k, w, seed):
    emb = gen_random_kouter(k, w, seed)
    assert parse_epg(format_epg(emb)) == emb
