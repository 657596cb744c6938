"""Red/blue edge colorings of complete graphs.

A coloring of K_n lives in a single Python integer: edge {i,j} with i < j
occupies bit ``i*(2n-i-1)/2 + (j-i-1)`` (row-major upper triangle), set for
red, clear for blue.  Blue is always the complement of red, so only the red
bitset is stored.

The on-disk format is a two-line ASCII header-plus-hex payload::

    RMC1 <n>\\n
    <hex of ceil(C(n,2)/8) bytes, high bit first>\\n

Trailing pad bits must be zero.  A red edge on K_2 serializes to
``RMC1 2\\n80\\n``.

Split colorings chi(a, b) put blue cliques on A = {0..a-1} and
B = {a..a+b-1} with all A-B edges red; optional flips toggle single edges
afterwards.
"""

from __future__ import annotations

from itertools import product
from random import Random
from typing import Callable, Iterable, Sequence

from .errors import CapabilityError, DomainError, InvalidSpecError
from .graph import SimpleGraph, _bits

RED = "red"
BLUE = "blue"

CANONICAL_MAX_N = 12

MAGIC = b"RMC1"

# byte -> the same byte with its bit order reversed
_REVERSE_BITS = bytes(int(f"{b:08b}"[::-1], 2) for b in range(256))


def job_seed(*parts: object) -> int:
    """64-bit seed of one job: blake2b of its parts joined by ':'."""
    import hashlib  # loads OpenSSL, so only the seeded layers pay for it

    text = ":".join(map(str, parts))
    return int.from_bytes(hashlib.blake2b(text.encode(), digest_size=8).digest(), "big")


def payload_bytes(n: int) -> Callable[[int], bytes]:
    """The map from red bits on K_n to their RMC1 payload before its hex
    encoding.  For one n, the order of payloads is the order of the
    serialized forms, since the header is the same and hex keeps byte order."""
    nbytes = (pair_count(n) + 7) // 8
    # little-endian bytes put edge 8i in the low bit of byte i; RMC1 puts it
    # in the high bit
    return lambda red_bits: red_bits.to_bytes(nbytes, "little").translate(_REVERSE_BITS)


def pair_count(n: int) -> int:
    return n * (n - 1) // 2


def pair_index(n: int, i: int, j: int) -> int:
    """Bit position of edge {i,j} in the packed representation."""
    if i > j:
        i, j = j, i
    if i == j or not (0 <= i < n and 0 <= j < n):
        raise DomainError(f"({i},{j}) is not an edge of K_{n}")
    return i * (2 * n - i - 1) // 2 + (j - i - 1)


class EdgeColoring:
    """Immutable two-coloring of the edges of K_n."""

    __slots__ = ("n", "red_bits", "_masks")

    def __init__(self, n: int, red_bits: int = 0):
        if n < 0:
            raise DomainError("n must be nonnegative")
        if red_bits < 0 or red_bits >> pair_count(n):
            raise DomainError("red_bits has bits outside the edge range")
        self.n = n
        self.red_bits = red_bits
        self._masks: dict[str, tuple[int, ...]] = {}

    # -- construction ------------------------------------------------------

    @classmethod
    def from_red_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "EdgeColoring":
        bits = 0
        for i, j in edges:
            bits |= 1 << pair_index(n, i, j)
        return cls(n, bits)

    @classmethod
    def random(cls, n: int, rng: Random) -> "EdgeColoring":
        nbits = pair_count(n)
        return cls(n, rng.getrandbits(nbits) if nbits else 0)

    # -- queries -----------------------------------------------------------

    def is_red(self, i: int, j: int) -> bool:
        return bool(self.red_bits >> pair_index(self.n, i, j) & 1)

    def color_of(self, i: int, j: int) -> str:
        return RED if self.is_red(i, j) else BLUE

    @property
    def red_edge_count(self) -> int:
        return self.red_bits.bit_count()

    @property
    def blue_edge_count(self) -> int:
        return pair_count(self.n) - self.red_edge_count

    def adj_masks(self, color: str) -> tuple[int, ...]:
        """Per-vertex neighbor bitmasks in the given color (cached).  Red takes
        row i of the layout whole, i's n - 1 - i pairs above i from bit
        ``pair_index(n, i, i + 1)``, and sets bit i in each red neighbour."""
        cached = self._masks.get(color)
        if cached is not None:
            return cached
        n = self.n
        if color == BLUE:
            full = (1 << n) - 1
            out = tuple(full & ~m & ~(1 << v) for v, m in enumerate(self.adj_masks(RED)))
        elif color == RED:
            masks = [0] * n
            for i in range(n - 1):
                above = (self.red_bits >> pair_index(n, i, i + 1) & (1 << n - 1 - i) - 1) << i + 1
                masks[i] |= above
                for j in _bits(above):
                    masks[j] |= 1 << i
            out = tuple(masks)
        else:
            raise DomainError(f"unknown color {color!r}")
        self._masks[color] = out
        return out

    def view(self, color: str) -> SimpleGraph:
        """The graph of one color class, on a copy of the cached masks."""
        return SimpleGraph(self.n, self.adj_masks(color))

    # -- transformations ---------------------------------------------------

    def with_flipped(self, pairs: Sequence[tuple[int, int]]) -> "EdgeColoring":
        """Toggle the listed edges, in order.  Loops, pairs out of range and
        duplicate pairs are rejected."""
        bits = self.red_bits
        seen = set()
        for i, j in pairs:
            try:
                e = pair_index(self.n, i, j)
            except DomainError:
                raise InvalidSpecError(f"flip ({i},{j}) is not an edge of K_{self.n}") from None
            if e in seen:
                raise InvalidSpecError(f"duplicate flip ({i},{j})")
            seen.add(e)
            bits ^= 1 << e
        return EdgeColoring(self.n, bits)

    def complemented(self) -> "EdgeColoring":
        full = (1 << pair_count(self.n)) - 1
        return EdgeColoring(self.n, full ^ self.red_bits)

    def relabeled(self, perm: Sequence[int]) -> "EdgeColoring":
        """Relabel vertices: new edge {i,j} takes the color of {perm[i],perm[j]}."""
        if sorted(perm) != list(range(self.n)):
            raise DomainError("perm must be a permutation of the vertex set")
        return EdgeColoring(self.n, _bits_from_adj(_apply_perm(self.adj_masks(RED), perm), self.n))

    # -- serialization -----------------------------------------------------

    def serialize(self) -> bytes:
        raw = payload_bytes(self.n)(self.red_bits)
        return MAGIC + b" " + str(self.n).encode() + b"\n" + raw.hex().encode() + b"\n"

    @classmethod
    def parse(cls, data: bytes) -> "EdgeColoring":
        lines = data.split(b"\n")
        if len(lines) != 3 or lines[2] != b"":
            raise DomainError("expected exactly two newline-terminated lines")
        header, payload = lines[0], lines[1]
        parts = header.split(b" ")
        if len(parts) != 2 or parts[0] != MAGIC:
            raise DomainError("bad magic line")
        if not parts[1].isdigit():
            raise DomainError("vertex count must be a decimal integer")
        if parts[1] != b"0" and parts[1].startswith(b"0"):
            raise DomainError("vertex count must not have a leading zero")
        n = int(parts[1])
        nbits = pair_count(n)
        nbytes = (nbits + 7) // 8
        if len(payload) != 2 * nbytes:
            raise DomainError(f"payload must be {2 * nbytes} hex digits for n={n}")
        if payload.lower() != payload:
            raise DomainError("payload hex must be lowercase")
        try:
            raw = bytes.fromhex(payload.decode("ascii"))
        except ValueError as exc:
            raise DomainError("payload is not valid hex") from exc
        bits = int.from_bytes(raw.translate(_REVERSE_BITS), "little")
        # every bit beyond the edge range must be zero
        if bits >> nbits:
            raise DomainError("nonzero padding bits")
        return cls(n, bits)

    # -- dunder ------------------------------------------------------------

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, EdgeColoring)
            and self.n == other.n
            and self.red_bits == other.red_bits
        )

    def __hash__(self) -> int:
        return hash((self.n, self.red_bits))

    def __repr__(self) -> str:
        return f"EdgeColoring(n={self.n}, red={self.red_edge_count}, blue={self.blue_edge_count})"


class ColorView(SimpleGraph):
    """One color class as a graph, the same as ``coloring.view(color)``.

    Nothing in the package uses it; perfbench/workloads.py still builds its
    views this way.
    """

    __slots__ = ()

    def __init__(self, coloring: EdgeColoring, color: str):
        super().__init__(coloring.n, coloring.adj_masks(color))

    def graph(self) -> SimpleGraph:
        return SimpleGraph(self.n, self.adj)


def split_coloring(a: int, b: int, flips: Sequence[tuple[int, int]] = ()) -> EdgeColoring:
    """chi(a, b): blue cliques A, B with red A-B edges, then the listed flips."""
    flips = [tuple(f) for f in flips]
    if a < 0 or b < 0:
        raise InvalidSpecError("part sizes must be nonnegative")
    for flip in flips:
        if len(flip) != 2:
            raise InvalidSpecError(f"flip {flip!r} is not a pair")
    n = a + b
    return EdgeColoring.from_red_edges(n, product(range(a), range(a, n))).with_flipped(flips)


# ---------------------------------------------------------------------------
# relabeling
# ---------------------------------------------------------------------------

def _apply_perm(adj: Sequence[int], perm: Sequence[int]) -> tuple[int, ...]:
    """Adjacency after relabeling: new vertex p is old vertex perm[p]."""
    n = len(adj)
    out = []
    for p in range(n):
        a = adj[perm[p]]
        m = 0
        for q in range(n):
            if a >> perm[q] & 1:
                m |= 1 << q
        out.append(m)
    return tuple(out)


def _bits_from_adj(adj: Sequence[int], n: int) -> int:
    """Red bits of K_n whose red graph on vertices 0..len(adj)-1 is adj and
    whose other edges are all blue: row i of the layout is adj[i]'s bits
    above i, written at ``pair_index(n, i, i + 1)``."""
    return sum(a >> i + 1 << pair_index(n, i, i + 1) for i, a in enumerate(adj[:-1]))


# ---------------------------------------------------------------------------
# canonical keys (isomorphism-invariant serialization)
# ---------------------------------------------------------------------------

def _least_labeling(
    adj: Sequence[int], n: int, own: bool = False
) -> list[int] | list[list[int]] | None:
    """A labeling (position -> original vertex) with the least adjacency string.

    The string is column-major: each placed vertex contributes its row, its
    adjacency to the vertices placed before it, first placed first.  The
    least row sequence is unique, so every labeling attaining it gives the
    same relabeled graph.

    A depth-first descent keeps an incumbent row per depth and holds the
    unplaced vertices as cells: one (row, mask) pair per distinct row
    against the placed prefix, in increasing row order.  At a node only the
    first cell's row is compared: a larger row loses whatever follows, since
    every node at one depth has the same prefix rows; a smaller one becomes
    the incumbent and clears the incumbents below it; and on a tie the
    cell's vertices are descended in increasing order.  Placing v splits
    each cell into the part not adjacent to v (row << 1) and the part
    adjacent to it (row << 1 | 1), which keeps the order, so a node costs
    one step per cell, not per vertex.  Twins (neighbourhoods equal apart
    from each other) have equal rows and are swapped by an automorphism
    fixing the prefix, so only the first of each twin group in the tied
    cell is tried; this keeps cliques and complete multipartite graphs
    cheap.  The tree is the one a scan of every unplaced vertex's row
    would give: the first cell holds the least row and exactly its ties.

    With own=True the incumbents are adj's own rows and are never replaced:
    the result is None at the first smaller row, when adj is not canonical.
    Otherwise it is a list of automorphisms of adj that generate its group,
    as perms in the same position -> vertex form: the perm at every leaf
    the descent reaches (each ties adj's own string, so it maps adj to
    itself) and a transposition of each vertex with its next twin, which
    stands for the twin swaps the descent skipped.
    """
    twin = [0] * n
    for v in range(n):
        for w in range(v + 1, n):
            if adj[v] & ~(1 << w) == adj[w] & ~(1 << v):
                twin[v] |= 1 << w
                twin[w] |= 1 << v
    unset = 1 << n  # above every row
    best = [unset] * n
    if own:  # row p: p's neighbours among 0..p-1, vertex 0 the top bit
        for p in range(n):
            r = 0
            for q in range(p):
                r = (r << 1) | (adj[p] >> q & 1)
            best[p] = r
    perm = [0] * n
    least: list[int] = []
    leaves: list[list[int]] = []

    def rec(depth: int, cells: list[tuple[int, int]]) -> bool:
        if depth == n:
            if own:
                leaves.append(perm[:])
            else:
                least[:] = perm
            return True
        row, ties = cells[0]
        if row > best[depth]:
            return True
        if row < best[depth]:
            if own:
                return False
            best[depth] = row
            best[depth + 1:] = [unset] * (n - depth - 1)
        tried = 0
        while ties:
            b = ties & -ties
            ties ^= b
            v = b.bit_length() - 1
            if twin[v] & tried:
                continue
            tried |= b
            perm[depth] = v
            av = adj[v]
            off = ~(av | b)
            nxt = []
            for r, c in cells:
                if lo := c & off:
                    nxt.append((r << 1, lo))
                if hi := c & av:
                    nxt.append((r << 1 | 1, hi))
            if not rec(depth + 1, nxt):
                return False
        return True

    if not rec(0, [(0, (1 << n) - 1)] if n else []):
        return None
    if not own:
        return least
    for v in range(n):
        later = twin[v] >> v + 1
        if later:
            w = v + (later & -later).bit_length()
            swap = list(range(n))
            swap[v], swap[w] = w, v
            leaves.append(swap)
    return leaves


def canonical_key(coloring: EdgeColoring, swap_colors: bool = False) -> bytes:
    """Serialization of a canonical relabeling; equal iff colorings are isomorphic.

    With swap_colors=True the key is additionally invariant under exchanging
    red and blue.  The key serializes the relabeling by ``_least_labeling``,
    so every isomorphic coloring gets the same bytes.  Guarded to
    n <= CANONICAL_MAX_N: the search is exponential in the worst case even
    with pruning.
    """
    n = coloring.n
    if n > CANONICAL_MAX_N:
        raise CapabilityError(f"canonical_key limited to n <= {CANONICAL_MAX_N} (got {n})")
    perm = _least_labeling(coloring.adj_masks(RED), n)
    key = coloring.relabeled(perm).serialize()
    if swap_colors:
        comp = coloring.complemented()
        perm2 = _least_labeling(comp.adj_masks(RED), n)
        key = min(key, comp.relabeled(perm2).serialize())
    return key
