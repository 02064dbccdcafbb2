"""Independent checks for the benchmark, written without importing zforce.

Graphs are ``(n, adj)`` pairs with ``adj[v]`` the neighbourhood of v as a
bitmask, the same encoding graph6 describes.  Nothing here shares code
with the package under test, so a defect in its forcing engine cannot
hide itself by also breaking the check.
"""

from __future__ import annotations

from itertools import combinations


def decode_graph6(text: str) -> tuple[int, list[int]]:
    """(n, adjacency bitmasks) of one graph6 line; n < 63 or a 3-byte header."""
    s = text.strip()
    if s[0] == "~":
        n = (ord(s[1]) - 63) << 12 | (ord(s[2]) - 63) << 6 | (ord(s[3]) - 63)
        body = s[4:]
    else:
        n, body = ord(s[0]) - 63, s[1:]
    stream = "".join(format(ord(c) - 63, "06b") for c in body)
    adj = [0] * n
    pos = 0
    for v in range(1, n):
        for u in range(v):
            if stream[pos] == "1":
                adj[u] |= 1 << v
                adj[v] |= 1 << u
            pos += 1
    return n, adj


def encode_graph6(n: int, adj: list[int]) -> str:
    head = chr(n + 63) if n < 63 else "~" + "".join(chr((n >> s & 63) + 63) for s in (12, 6, 0))
    stream = "".join("1" if adj[v] >> u & 1 else "0" for v in range(1, n) for u in range(v))
    stream += "0" * (-len(stream) % 6)
    return head + "".join(chr(int(stream[i:i + 6], 2) + 63) for i in range(0, len(stream), 6))


def relabel(n: int, adj: list[int], perm: list[int]) -> list[int]:
    """Adjacency of the same graph with vertex v renamed perm[v]."""
    out = [0] * n
    for v in range(n):
        for u in range(n):
            if adj[v] >> u & 1:
                out[perm[v]] |= 1 << perm[u]
    return out


def forces(adj: list[int], z: int) -> bool:
    """True iff repeatedly letting a filled vertex fill its one unfilled
    neighbour, starting from z, fills every vertex."""
    full = (1 << len(adj)) - 1
    filled = z
    changed = True
    while changed:
        changed = False
        for v in range(len(adj)):
            un = adj[v] & ~filled
            if filled >> v & 1 and un and not un & (un - 1):
                filled |= un
                changed = True
    return filled == full


def brute_force_z(adj: list[int]) -> int:
    """Smallest k such that some k-subset forces, by plain enumeration."""
    n = len(adj)
    for k in range(n + 1):
        for combo in combinations(range(n), k):
            if forces(adj, sum(1 << v for v in combo)):
                return k
    raise AssertionError("the full vertex set always forces")


def girth(adj: list[int]) -> int | None:
    """Length of a shortest cycle (None for forests), by BFS from every vertex."""
    n = len(adj)
    best = None
    for root in range(n):
        dist = {root: 0}
        parent = {root: -1}
        queue = [root]
        for v in queue:
            for u in range(n):
                if not adj[v] >> u & 1 or u == parent[v]:
                    continue
                if u in dist:
                    cand = dist[u] + dist[v] + 1
                    best = cand if best is None else min(best, cand)
                else:
                    dist[u], parent[u] = dist[v] + 1, v
                    queue.append(u)
    return best


def connected(adj: list[int]) -> bool:
    seen, frontier = 1, 1
    while frontier:
        grow = 0
        for v in range(len(adj)):
            if frontier >> v & 1:
                grow |= adj[v]
        frontier = grow & ~seen
        seen |= frontier
    return seen == (1 << len(adj)) - 1


def verify_record(line: int, g6: str, exact_limit: int = 12) -> dict:
    """The record ``zforce verify`` printed at the seed commit for one line.

    Proven bounds never exceed Z, so ``violations`` is empty.  With Z known
    (n <= exact_limit) the two conjectured catalog entries are flagged
    when Z contradicts them, in catalog order.
    """
    n, adj = decode_graph6(g6)
    record = {"line": line, "graph6": g6, "n": n, "violations": [], "conjecture_flags": []}
    if n > exact_limit:
        return record
    z = brute_force_z(adj)
    degrees = [a.bit_count() for a in adj]
    gir = girth(adj)
    if gir is not None and gir not in (4, 5, 6) and min(degrees) >= 2 \
            and (gir - 2) * (min(degrees) - 2) + 2 > z:
        record["conjecture_flags"].append("girth_degree")
    if connected(adj) and max(degrees) == 3 and 3 * z > n + 6:
        record["conjecture_flags"].append("third_plus_two")
    record["z"] = z
    return record


def verify_summary(graphs: int) -> dict:
    return {"summary": True, "graphs": graphs, "violations": 0,
            "parse_errors": 0, "conjecture_counterexamples": 0}


def subcubic_bound_ok(n: int, size: int) -> bool:
    """size <= n/2 - n/(24 log2 n + 6) + 2, decided in integers.

    With t = size - 2 and s = n - 2t the bound reads s (12 log2 n + 3) >= n,
    that is n**(12 s) >= 2**(n - 3 s) once s > 0 and 3 s < n.
    """
    t = size - 2
    s = n - 2 * t
    return t < 0 or (s > 0 and (3 * s >= n or n ** (12 * s) >= 1 << (n - 3 * s)))
