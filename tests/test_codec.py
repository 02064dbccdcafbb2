"""graph6 and edge-list codecs."""

import random
import tracemalloc
from types import SimpleNamespace

import pytest

import zforce as zf
from zforce.codec import Graph6Error, looks_like_graph6, parse_edge_list, parse_graph6, to_graph6
from zforce.graph import Graph, bits


def reference_graph6(n: int, edges) -> str:
    """Independent encoder used as the round-trip oracle: edge {u, v}
    with u < v sets bit v(v-1)/2 + u of the column-major upper triangle,
    and an order above 62 takes the header "~" and three six-bit digits."""
    stream = bytearray(b"0" * ((n * (n - 1) // 2 + 5) // 6 * 6))
    for e in edges:
        u, v = sorted(e)
        stream[v * (v - 1) // 2 + u] = ord("1")
    chunks = [chr(int(stream[i:i + 6], 2) + 63) for i in range(0, len(stream), 6)]
    head = chr(n + 63) if n <= 62 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    return head + "".join(chunks)


def reference_parse_graph6(text: str) -> Graph:
    """The per-byte decoder the table-driven one replaced: one ``format``
    per data byte, one reversed slice per column.  Its error offsets count
    from the start of ``text``, leading whitespace and header included."""
    s = text.strip()
    skip = len(text) - len(text.lstrip())
    if s.startswith(">>graph6<<"):
        s = s[len(">>graph6<<"):]
        skip += len(">>graph6<<")
    if not s:
        raise Graph6Error("empty input", skip)
    for i, c in enumerate(s):
        if not 63 <= ord(c) <= 126:
            raise Graph6Error(f"byte {ord(c)!r} outside graph6 range 63..126", skip + i)
    if s[0] != "~":
        n = ord(s[0]) - 63
        body = 1
    elif len(s) >= 2 and s[1] != "~":
        if len(s) < 4:
            raise Graph6Error("truncated 3-byte length header", skip + len(s))
        n = 0
        for i in range(1, 4):
            n = n << 6 | (ord(s[i]) - 63)
        body = 4
    else:
        raise Graph6Error("length headers beyond 3 bytes are not supported", skip)
    if n < 1:
        raise Graph6Error("graph6 order must be at least 1", skip)
    nbits = n * (n - 1) // 2
    need = (nbits + 5) // 6
    if len(s) - body < need:
        raise Graph6Error(f"need {need} data bytes, found {len(s) - body}", skip + len(s))
    if len(s) - body > need:
        raise Graph6Error("trailing garbage after graph data", skip + body + need)
    stream = "".join(format(ord(c) - 63, "06b") for c in s[body:])
    if "1" in stream[nbits:]:
        raise Graph6Error("nonzero padding bits", skip + body + need - 1)
    rows = [0] * n
    pos = 0
    for v in range(1, n):
        col = int(stream[pos:pos + v][::-1], 2)
        pos += v
        rows[v] |= col
        for u in bits(col):
            rows[u] |= 1 << v
    return Graph(n, tuple(rows))


def test_single_vertex_is_at_sign():
    g = parse_graph6("@")
    assert g.n == 1 and g.edge_count() == 0
    assert to_graph6(g) == "@"


def test_k23_code_matches_reference_encoder():
    edges = [(0, 3), (1, 3), (2, 3), (0, 4), (1, 4), (2, 4)]
    assert reference_graph6(5, edges) == "DFw"
    g = parse_graph6("DFw")
    assert sorted(g.edges()) == sorted(tuple(sorted(e)) for e in edges)


def test_known_codes():
    assert to_graph6(zf.complete(4)) == "C~"
    assert to_graph6(zf.cycle(5)) == "Dhc"
    assert parse_graph6("Bg").edges() == [(0, 1), (1, 2)]


def test_encoder_agrees_with_reference_on_corpus(random_corpus, named_graphs):
    for g in list(named_graphs.values()) + random_corpus[:100]:
        assert to_graph6(g) == reference_graph6(g.n, g.edges())


def test_encoder_streams_in_memory_linear_in_its_output():
    g = zf.path(4000)
    tracemalloc.start()
    try:
        code = to_graph6(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(code)
    assert code == reference_graph6(g.n, g.edges())
    for n in (63, 100, 201):
        g = zf.random_gnp(n, 0.5, n)
        assert to_graph6(g) == reference_graph6(n, g.edges())


def test_decoder_holds_memory_linear_in_its_input():
    # The body is decoded in blocks; path(4000) spans 326 of them.
    g = zf.path(4000)
    code = to_graph6(g)
    tracemalloc.start()
    try:
        decoded = parse_graph6(code)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * len(code)
    assert decoded == g
    rng = random.Random(32)
    for seed in range(300):
        code = to_graph6(zf.random_gnp(rng.randint(1, 200), rng.random(), seed))
        assert parse_graph6(code) == reference_parse_graph6(code), code
    # Columns that straddle blocks, and padding checked after the last block.
    code = to_graph6(zf.random_gnp(401, 0.5, 401))
    assert parse_graph6(code) == reference_parse_graph6(code)
    padded = code[:-1] + chr(ord(code[-1]) + 1)
    with pytest.raises(Graph6Error, match="^nonzero padding bits") as exc:
        parse_graph6(padded)
    assert exc.value.offset == len(code) - 1


def test_roundtrip_on_corpus(random_corpus, named_graphs):
    for g in list(named_graphs.values()) + random_corpus[:100]:
        code = to_graph6(g)
        assert parse_graph6(code) == g
        assert to_graph6(parse_graph6(code)) == code


def test_header_prefix_accepted():
    assert parse_graph6(">>graph6<<C~") == zf.complete(4)


def test_three_byte_length_header():
    g = zf.path(80)
    code = to_graph6(g)
    assert code.startswith("~")
    assert parse_graph6(code) == g


def test_errors_carry_byte_offsets():
    with pytest.raises(Graph6Error) as exc:
        parse_graph6("C~\x7f")
    assert exc.value.offset == 2
    with pytest.raises(Graph6Error):
        parse_graph6("C")  # truncated data
    with pytest.raises(Graph6Error, match="trailing garbage"):
        parse_graph6("C~~~")
    with pytest.raises(Graph6Error, match="padding"):
        parse_graph6("D?A")  # nonzero bits beyond the triangle


def test_error_offsets_count_the_header_and_leading_whitespace():
    for text, offset in ((">>graph6<<A!", 11), ("  A!", 3), ("A!", 1),
                         (" >>graph6<< ", 11), ("\t>>graph6<<C~~~", 13), (" D?A", 3)):
        with pytest.raises(Graph6Error) as exc:
            parse_graph6(text)
        assert exc.value.offset == offset, text
        assert str(exc.value).endswith(f"(byte offset {offset})")


def test_edge_list_with_and_without_order_line():
    g = parse_edge_list("5\n0 3\n1 3\n2 4\n")
    assert g.n == 5 and g.edge_count() == 3
    g2 = parse_edge_list("0 1 1 2")
    assert g2.n == 3 and g2.edges() == [(0, 1), (1, 2)]
    with pytest.raises(ValueError):
        parse_edge_list("0 x")
    with pytest.raises(ValueError):
        parse_edge_list("")


def test_edge_list_order_above_the_graph6_limit_is_rejected():
    # The overflow comes first: without the order check it fails at once,
    # where the next input would try to fill memory with rows.
    for text in ("99999999999999999999 1", "3000000000", "258048", "258048\n0 1\n"):
        with pytest.raises(ValueError, match="order .* exceeds 258047"):
            parse_edge_list(text)


@pytest.mark.parametrize("call, message", [
    (lambda: parse_graph6("~?"), r"^truncated 3-byte length header \(byte offset 2\)$"),
    # No rows: past the order check the encoder would index them and fail
    # at once, where a real graph would have it build an n^2/2-bit stream.
    (lambda: to_graph6(SimpleNamespace(n=258048, adj=None)),
     "^n=258048 exceeds the supported graph6 range$"),
    (lambda: parse_edge_list("3\n0 -1"), "^negative vertex index in edge list$"),
], ids=["truncated_length_header", "order_above_graph6", "negative_edge_list_index"])
def test_codec_input_checks(call, message):
    with pytest.raises(ValueError, match=message):
        call()


def test_edge_list_roundtrip(named_graphs):
    for g in named_graphs.values():
        assert parse_edge_list(zf.to_edge_list(g)) == g


def test_sniffer_distinguishes_formats():
    assert looks_like_graph6("DFw")
    assert looks_like_graph6(">>graph6<<DFw")
    assert not looks_like_graph6("5")
    assert not looks_like_graph6("0 1")
