"""graph6 and edge-list text formats.

graph6 packs the upper triangle of the adjacency matrix column-major,
six bits per printable byte with an offset of 63.  Decoding errors
report the byte offset at which the input went wrong.
"""

from __future__ import annotations

import re
from math import isqrt

from .graph import Graph

_HEADER = ">>graph6<<"
_MAX_ORDER = 258047  # the largest order a 3-byte graph6 length header holds


class Graph6Error(ValueError):
    """Malformed graph6 input; ``offset`` is the failing byte position."""

    def __init__(self, message: str, offset: int):
        super().__init__(f"{message} (byte offset {offset})")
        self.offset = offset


_BAD_BYTE = re.compile("[^?-~]")  # outside 63..126
_SIX_BITS = {63 + k: format(k, "06b") for k in range(64)}
_OCTAL_DIGITS = bytes.maketrans(b"01234567", bytes(range(8)))
_BLOCK = 4096  # data bytes decoded at a time; a 200-vertex line has 3,317


def parse_graph6(text: str) -> Graph:
    """Decode one graph6 line into a Graph.

    Error offsets count from the start of ``text``, leading whitespace
    and the optional header included.
    """
    s = text.strip()
    skip = len(text) - len(text.lstrip())
    if s.startswith(_HEADER):
        s = s[len(_HEADER):]
        skip += len(_HEADER)
    if not s:
        raise Graph6Error("empty input", skip)
    bad = _BAD_BYTE.search(s)
    if bad is not None:
        raise Graph6Error(f"byte {ord(bad.group())!r} outside graph6 range 63..126",
                          skip + bad.start())
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
    # The body is spelled out as '0'/'1' text a block at a time, the bits
    # of an unfinished column carried into the next; reversed, a block
    # reads column v (bits (0,v), ..., (v-1,v)) as one binary numeral with
    # bit u set iff u ~ v.  Columns 1..w-1 end by bit w(w-1)/2.
    rows = [0] * n
    first, stream = 1, ""
    for start in range(body, body + need, _BLOCK):
        stream += s[start:start + _BLOCK].translate(_SIX_BITS)
        last = min(n, (isqrt(48 * (start + _BLOCK - body) + 1) + 1) // 2)
        reverse = stream[::-1]
        end = len(stream)  # column v ends here in the reversed block
        for v in range(first, last):
            col = int(reverse[end - v:end], 2)
            end -= v
            rows[v] = col
            while col:
                low = col & -col
                rows[low.bit_length() - 1] |= 1 << v
                col ^= low
        first, stream = last, stream[len(stream) - end:]
    if "1" in stream:  # the padding, in the last byte only
        raise Graph6Error("nonzero padding bits", skip + body + need - 1)
    return Graph(n, tuple(rows))


def to_graph6(g: Graph) -> str:
    """Encode a Graph as a canonical-length graph6 string."""
    n = g.n
    if n <= 62:
        head = chr(n + 63)
    elif n <= _MAX_ORDER:
        head = "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    else:
        raise ValueError(f"n={n} exceeds the supported graph6 range")
    # Column v holds bits (0,v), ..., (v-1,v): bit u of adj[v] below v,
    # least significant first.  Each column joins the bits still pending,
    # and the complete six-bit groups are written out as pairs of octal
    # digits, so only the output and under n + 6 pending bits are held.
    adj = g.adj
    out, pending = bytearray(head, "ascii"), ""
    for v in range(1, n):
        pending += format(adj[v] & ((1 << v) - 1), f"0{v}b")[::-1]
        groups = len(pending) // 6
        if groups:
            octal = format(int(pending[:6 * groups], 2), f"0{2 * groups}o")
            digits = octal.encode().translate(_OCTAL_DIGITS)
            out.extend([63 + 8 * hi + lo for hi, lo in zip(digits[::2], digits[1::2])])
            pending = pending[6 * groups:]
    if pending:
        out.append(63 + int(pending.ljust(6, "0"), 2))
    return out.decode("ascii")


def parse_edge_list(text: str) -> Graph:
    """Parse whitespace-separated "u v" pairs, optionally preceded by "n".

    Without a leading order line the order is one more than the largest
    index mentioned.  Orders above the largest that ``to_graph6`` writes
    are rejected before any memory is set aside for them.
    """
    tokens = text.split()
    if not tokens:
        raise ValueError("empty edge-list input")
    try:
        values = [int(t) for t in tokens]
    except ValueError as exc:
        raise ValueError(f"non-integer token in edge list: {exc}") from None
    if len(values) % 2 == 1:
        n, values = values[0], values[1:]
    else:
        n = max(values) + 1 if values else 1
    if n > _MAX_ORDER:
        raise ValueError(f"edge-list order {n} exceeds {_MAX_ORDER}, the largest graph6 order")
    if any(v < 0 for v in values):
        raise ValueError("negative vertex index in edge list")
    pairs = list(zip(values[::2], values[1::2]))
    return Graph.from_edges(n, pairs)


def to_edge_list(g: Graph) -> str:
    lines = [str(g.n)]
    lines += [f"{u} {v}" for u, v in g.edges()]
    return "\n".join(lines) + "\n"


def to_dot(g: Graph) -> str:
    """DOT rendering for external visualization tools."""
    lines = ["graph G {"]
    lines += [f"  {v};" for v in range(g.n) if not g.adj[v]]
    lines += [f"  {u} -- {v};" for u, v in g.edges()]
    lines.append("}")
    return "\n".join(lines) + "\n"


def looks_like_graph6(line: str) -> bool:
    """Cheap sniff to distinguish graph6 from edge-list content."""
    s = line.strip()
    if s.startswith(_HEADER):
        return True
    return bool(s) and not all(tok.isdigit() for tok in s.split())
