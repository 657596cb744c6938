"""Undirected simple graphs with bitmask adjacency, and their one numpy reader.

A graph has vertex set ``0..n-1`` and stores its adjacency as one Python-int
bitmask per vertex.  ``_bits`` lists a mask's members, ``_bit_matrix`` is the
one reader of such masks into numpy, for the searches' red counts, the exact
regularity scan and the dense walk kernel, and ``_numpy`` is the one place
the package imports numpy.  Everything here is color-agnostic: a coloring's
color class is a `SimpleGraph` (:mod:`ramseykit.coloring`), and matchings and
path families on it live in :mod:`ramseykit.structure`.  This module imports
only the standard library and :mod:`ramseykit.errors`, so the layers that
count read it without compiling the matching code.
"""

from __future__ import annotations

import os
import sys
from typing import Iterable, Sequence

from .errors import DomainError

# the variables OpenBLAS reads for its thread count when numpy loads it
_BLAS_THREAD_VARS = ("OPENBLAS_NUM_THREADS", "GOTO_NUM_THREADS", "OMP_NUM_THREADS")


def _bits(mask: int) -> Iterable[int]:
    while mask:
        b = mask & -mask
        mask ^= b
        yield b.bit_length() - 1


def _numpy():
    """The numpy module, imported on first use with one BLAS thread.

    No BLAS call of the package is meant to be threaded: the dense walk
    kernel keeps its float64 products under OpenBLAS's threading threshold,
    and the searches and the exact regularity scan use integer arrays, which
    do not go through BLAS.  OpenBLAS starts its worker threads when numpy
    loads it, about half of numpy's import time, so when no thread variable
    is set, OPENBLAS_NUM_THREADS=1 is set for the import only and the
    environment ends as it began.  A caller who set one of those variables,
    or imported numpy first, keeps their BLAS as it is."""
    np = sys.modules.get("numpy")
    if np is None:
        pin = not any(name in os.environ for name in _BLAS_THREAD_VARS)
        if pin:
            os.environ["OPENBLAS_NUM_THREADS"] = "1"
        try:
            import numpy as np
        finally:
            if pin:
                del os.environ["OPENBLAS_NUM_THREADS"]
    return np


def _bit_matrix(masks: Sequence[int], width: int):
    """(len(masks), width) uint8 array with bit j of masks[i] at [i, j];
    every mask must be below 2**width."""
    np = _numpy()

    nbytes = (width + 7) // 8
    raw = b"".join(m.to_bytes(nbytes, "little") for m in masks)
    rows = np.frombuffer(raw, np.uint8).reshape(len(masks), nbytes)
    return np.unpackbits(rows, axis=1, count=width, bitorder="little")


class SimpleGraph:
    """Undirected simple graph with bitmask adjacency."""

    __slots__ = ("n", "adj")

    def __init__(self, n: int, adj: Sequence[int] | None = None):
        if n < 0:
            raise DomainError("vertex count must be nonnegative")
        self.n = n
        self.adj = list(adj) if adj is not None else [0] * n
        if len(self.adj) != n:
            raise DomainError("adjacency list length must equal n")

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[tuple[int, int]]) -> "SimpleGraph":
        g = cls(n)
        for u, v in edges:
            g._add_edge(u, v)
        return g

    def _add_edge(self, u: int, v: int) -> None:
        if u == v:
            raise DomainError("self-loops are not allowed")
        if not (0 <= u < self.n and 0 <= v < self.n):
            raise DomainError(f"edge ({u},{v}) out of range for n={self.n}")
        self.adj[u] |= 1 << v
        self.adj[v] |= 1 << u

    def has_edge(self, u: int, v: int) -> bool:
        return bool(self.adj[u] >> v & 1)

    def neighbors(self, v: int) -> list[int]:
        return list(_bits(self.adj[v]))

    def degree(self, v: int) -> int:
        return self.adj[v].bit_count()

    def edges(self) -> list[tuple[int, int]]:
        out = []
        for u in range(self.n):
            rest = self.adj[u] >> (u + 1)
            for off in _bits(rest):
                out.append((u, u + 1 + off))
        return out

    @property
    def edge_count(self) -> int:
        return sum(m.bit_count() for m in self.adj) // 2

    def induced(self, vertices: Sequence[int]) -> tuple["SimpleGraph", list[int]]:
        """Induced subgraph plus the new-index -> old-index mapping."""
        verts = sorted(set(vertices))
        pos = {v: i for i, v in enumerate(verts)}
        sub = SimpleGraph(len(verts))
        for i, v in enumerate(verts):
            m = 0
            a = self.adj[v]
            for w in verts:
                if a >> w & 1:
                    m |= 1 << pos[w]
            sub.adj[i] = m
        return sub, verts

    def ball(self, v: int, radius: int) -> list[int]:
        """Vertices at BFS distance <= radius from v (v included)."""
        seen = 1 << v
        frontier = [v]
        for _ in range(radius):
            nxt = 0
            for u in frontier:
                nxt |= self.adj[u] & ~seen
            if not nxt:
                break
            seen |= nxt
            frontier = list(_bits(nxt))
        return list(_bits(seen))

    def __eq__(self, other: object) -> bool:
        return isinstance(other, SimpleGraph) and self.n == other.n and self.adj == other.adj

    def __repr__(self) -> str:
        return f"SimpleGraph(n={self.n}, edges={self.edge_count})"
