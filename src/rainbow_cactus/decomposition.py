"""Block decomposition: cut vertices, blocks, bridges, block-cut tree.

Blocks are found with an iterative low-link DFS and ordered by the DFS step
at which their first edge is traversed, so downstream iteration orders are
reproducible for a given edge list.
"""

from __future__ import annotations

import gc
from contextlib import contextmanager
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress

from .graph import EdgeId, Graph, VertexId


@contextmanager
def gc_paused():
    """Pause the cyclic garbage collector for a bulk build of acyclic data.

    Building hundreds of thousands of tuples, frozensets and records that
    survive the build triggers repeated full collections, each a pass over
    the whole heap, that can find nothing: the data has no reference cycles,
    and temporaries are freed by reference counting as before. The
    collector's previous state is restored on exit.

    Used as a decorator (`@gc_paused()`), the function's local temporaries
    are already freed when the collector resumes, so its first pass only
    visits what the function returned.
    """
    if not gc.isenabled():
        yield
        return
    gc.disable()
    try:
        yield
    finally:
        gc.enable()


class BlockKind(Enum):
    CUT_EDGE = "cut_edge"
    CYCLE = "cycle"
    # 2-connected but not a cycle; only appears on inputs that are later rejected
    OTHER = "other"


@dataclass(frozen=True)
class Block:
    """One block of the graph.

    For CYCLE blocks `vertices` is the canonical cyclic traversal (lowest id
    first, moving toward its lower-id neighbor) and `ordered_edges[i]` joins
    `vertices[i]` to `vertices[(i + 1) % length]`.
    """

    index: int
    kind: BlockKind
    vertices: tuple[VertexId, ...]
    edges: frozenset[EdgeId]
    ordered_edges: tuple[EdgeId, ...]

    @property
    def length(self) -> int:
        return len(self.edges)

    @property
    def is_cycle(self) -> bool:
        return self.kind is BlockKind.CYCLE


@dataclass(frozen=True, eq=False)
class BlockCutTree:
    """Bipartite adjacency between blocks and the cut vertices they contain."""

    block_cuts: tuple[tuple[VertexId, ...], ...]
    cut_blocks: dict[VertexId, tuple[int, ...]]

    @property
    def node_count(self) -> int:
        return len(self.block_cuts) + len(self.cut_blocks)

    @property
    def edge_count(self) -> int:
        return sum(len(cs) for cs in self.block_cuts)

    def block_degree(self, block_index: int) -> int:
        return len(self.block_cuts[block_index])


@dataclass(frozen=True, eq=False)
class Decomposition:
    cut_vertices: frozenset[VertexId]
    blocks: tuple[Block, ...]
    cut_edges: frozenset[EdgeId]
    bct: BlockCutTree
    block_of_edge: tuple[int, ...]

    @cached_property
    def classification(self) -> Classification:
        """Tree / odd cycle / general odd cactus, or a rejection with a witness.

        The one place the case split is made; `classify` and both solver
        entries read it from here.
        """
        for b in self.blocks:
            if b.kind is BlockKind.OTHER:
                reason = RejectionReason.NOT_CACTUS
            elif b.is_cycle and b.length % 2 == 0:
                reason = RejectionReason.CONTAINS_EVEN_CYCLE
            else:
                continue
            return Classification(
                GraphClass.REJECTED, reason=reason, witness_block=b.index, witness_edge=min(b.edges)
            )
        if all(b.kind is BlockKind.CUT_EDGE for b in self.blocks):
            return Classification(GraphClass.TREE)
        if len(self.blocks) == 1:
            return Classification(GraphClass.ODD_CYCLE, cycle_length=self.blocks[0].length)
        return Classification(GraphClass.GENERAL_ODD_CACTUS)


class GraphClass(Enum):
    TREE = "Tree"
    ODD_CYCLE = "OddCycle"
    GENERAL_ODD_CACTUS = "GeneralOddCactus"
    REJECTED = "Rejected"


class RejectionReason(Enum):
    CONTAINS_EVEN_CYCLE = "ContainsEvenCycle"
    NOT_CACTUS = "NotCactus"


@dataclass(frozen=True)
class Classification:
    tag: GraphClass
    cycle_length: int | None = None
    reason: RejectionReason | None = None
    witness_block: int | None = None
    witness_edge: int | None = None

    @property
    def accepted(self) -> bool:
        return self.tag is not GraphClass.REJECTED


@gc_paused()
def decompose(g: Graph) -> Decomposition:
    """Cut vertices, blocks and block-cut tree of any connected simple graph.

    The DFS records, per edge, whether it is a back edge and, for a tree
    edge, the child it discovered. A block's edges then sit on the edge stack
    in push order, tree edge into the block first. A block with exactly one
    back edge is a cycle, and its stack slice is already a cyclic traversal:
    the tree path from the block's top vertex, closed by the back edge.
    """
    n = g.vertex_count
    m = g.edge_count
    adj = g.adjacency
    disc = [-1] * n
    low = [0] * n
    parent_eid = [-1] * n
    stack_pos = [0] * n  # where the tree edge into a vertex sits on the edge stack
    tree_child = [-1] * m
    is_back = bytearray(m)
    is_cut = bytearray(n)
    estack: list[int] = []
    # a block's edge list, filed under the DFS step of its first edge: the
    # tree edge into the block, pushed when its child was discovered
    comp_at: list[list[int] | None] = [None] * n
    timer = 1
    root_children = 0

    disc[0] = low[0] = 0
    vstack = [0]
    iters = [iter(adj[0])]
    while iters:
        v = vstack[-1]
        dv = disc[v]
        pe = parent_eid[v]
        for w, eid in iters[-1]:
            dw = disc[w]
            if dw < 0:
                parent_eid[w] = eid
                tree_child[eid] = w
                stack_pos[w] = len(estack)
                estack.append(eid)
                disc[w] = low[w] = timer
                timer += 1
                vstack.append(w)
                iters.append(iter(adj[w]))
                break
            if dw < dv and eid != pe:
                is_back[eid] = 1
                estack.append(eid)
                if dw < low[v]:
                    low[v] = dw
        else:
            iters.pop()
            vstack.pop()
            if not vstack:
                break
            u = vstack[-1]
            lv = low[v]
            if lv < low[u]:
                low[u] = lv
            if lv >= disc[u]:
                k = stack_pos[v]
                comp_at[disc[v]] = estack[k:]
                del estack[k:]
                if u == 0:
                    root_children += 1
                else:
                    is_cut[u] = 1
    if root_children > 1:
        is_cut[0] = 1

    comps = list(filter(None, comp_at))

    cut_vertices = frozenset(compress(range(n), is_cut))
    cut_blocks: dict[int, list[int]] = {v: [] for v in sorted(cut_vertices)}
    in_cuts = is_cut.__getitem__
    edges_arr = g.edges
    blocks: list[Block] = []
    block_cuts: list[tuple[int, ...]] = []
    block_of_edge = [-1] * m
    cut_edge_ids: list[int] = []
    cut_edge, cycle, other = BlockKind.CUT_EDGE, BlockKind.CYCLE, BlockKind.OTHER
    for bidx, comp in enumerate(comps):
        for e in comp:
            block_of_edge[e] = bidx
        if len(comp) == 1:
            e = comp[0]
            a, b = ab = edges_arr[e]
            blocks.append(Block(bidx, cut_edge, ab, frozenset(comp), (e,)))
            cut_edge_ids.append(e)
            if is_cut[a]:
                cs = (a, b) if is_cut[b] else (a,)
            else:
                cs = (b,) if is_cut[b] else ()
        else:
            if sum(map(is_back.__getitem__, comp)) != 1:
                verts_set = {x for e in comp for x in edges_arr[e]}
                cverts = tuple(sorted(verts_set))
                blocks.append(Block(bidx, other, cverts, frozenset(comp), ()))
            else:
                # a 2-connected block with one back edge has |V| == |E|: a
                # cycle. comp is [tree edges down the path..., back edge up].
                a, b = edges_arr[comp[0]]
                top = a if tree_child[comp[0]] == b else b
                verts = (top, *map(tree_child.__getitem__, comp[:-1]))
                # canonical order: lowest id first, toward its lower-id neighbour
                i = verts.index(min(verts))
                if verts[(i + 1) % len(verts)] < verts[i - 1]:
                    cverts = verts[i:] + verts[:i]
                    cedges = comp[i:] + comp[:i]
                else:
                    cverts = verts[i::-1] + verts[:i:-1]
                    cedges = comp[i - 1 :: -1] + comp[: i - 1 : -1]
                blocks.append(Block(bidx, cycle, cverts, frozenset(comp), tuple(cedges)))
            cs = tuple(sorted(compress(cverts, map(in_cuts, cverts))))
        block_cuts.append(cs)
        for v in cs:
            cut_blocks[v].append(bidx)
    bct = BlockCutTree(tuple(block_cuts), {v: tuple(bs) for v, bs in cut_blocks.items()})
    return Decomposition(cut_vertices, tuple(blocks), frozenset(cut_edge_ids), bct, tuple(block_of_edge))


def classify(g: Graph, d: Decomposition) -> Classification:
    """Tree / odd cycle / general odd cactus, or a rejection with a witness.

    The answer depends on the decomposition alone and is cached on it; `g`
    is accepted for the call shape and not read.
    """
    return d.classification


def leaf_blocks(d: Decomposition) -> tuple[Block, ...]:
    """Blocks whose block-cut-tree node has degree at most 1."""
    return tuple(b for b in d.blocks if d.bct.block_degree(b.index) <= 1)
