"""Block decomposition: cut vertices, blocks, bridges, the rooted block tree.

Blocks are found with an iterative low-link DFS and ordered by the DFS step
at which their first edge is traversed, so downstream iteration orders are
reproducible for a given edge list.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from itertools import compress

from .errors import NotOddCactusError
from .graph import EdgeId, Graph, VertexId, gc_paused


class BlockKind(Enum):
    CUT_EDGE = "cut_edge"
    CYCLE = "cycle"
    # 2-connected but not a cycle; only appears on inputs that are later rejected
    OTHER = "other"


@dataclass(frozen=True)
class Block:
    """One block of the graph; its edges are stored once, in `ordered_edges`.

    For CYCLE blocks `vertices` is the canonical cyclic traversal (lowest id
    first, moving toward its lower-id neighbor) and `ordered_edges[i]` joins
    `vertices[i]` to `vertices[(i + 1) % length]`. A CUT_EDGE block holds its
    one edge; an OTHER block holds its edges in ascending id order.
    """

    index: int
    kind: BlockKind
    vertices: tuple[VertexId, ...]
    ordered_edges: tuple[EdgeId, ...]

    @property
    def edges(self) -> frozenset[EdgeId]:
        return frozenset(self.ordered_edges)

    @property
    def length(self) -> int:
        return len(self.ordered_edges)

    @property
    def is_cycle(self) -> bool:
        return self.kind is BlockKind.CYCLE


# codes of `Decomposition.block_kind`, positions in BlockKind's order
_CUT_EDGE, _CYCLE, _OTHER = range(3)
_KINDS = tuple(BlockKind)


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Blocks, cut vertices and the rooted block tree, held in flat arrays.

    Cycle c is block `cycle_block[c]`; its canonical vertex order (the
    order of `Block.vertices`) is `cycle_vertices[cycle_start[c]:
    cycle_start[c + 1]]`, and `cycle_edges` over the same range holds its
    edges in `Block.ordered_edges` order. `blocks` and `cut_vertices` are
    views built from these arrays on first read; the solver reads neither.
    """

    graph_edges: tuple[tuple[VertexId, VertexId], ...]
    is_cut: bytes  # per vertex: 1 for a cut vertex
    cut_edges: frozenset[EdgeId]
    block_kind: bytes  # per block: the position of its kind in BlockKind
    block_of_edge: tuple[int, ...]
    # the block-cut tree rooted at block 0: block b > 0 hangs from its top
    # vertex, a cut vertex of its parent block; both are -1 for block 0
    block_top: tuple[VertexId, ...]
    block_parent: tuple[int, ...]
    cycle_block: tuple[int, ...]
    cycle_start: tuple[int, ...]
    cycle_vertices: tuple[VertexId, ...]
    cycle_edges: tuple[EdgeId, ...]
    cycle_cut: bytes  # per position of cycle_vertices: 1 for a cut vertex

    @cached_property
    def cut_vertices(self) -> frozenset[VertexId]:
        return frozenset(compress(range(len(self.is_cut)), self.is_cut))

    def cycles(self) -> Iterator[tuple[int, tuple[VertexId, ...], tuple[EdgeId, ...]]]:
        """(block index, vertices, edges) of each cycle, in block order."""
        cv, ce, starts = self.cycle_vertices, self.cycle_edges, self.cycle_start
        for b, s, t in zip(self.cycle_block, starts, starts[1:]):
            yield b, cv[s:t], ce[s:t]

    @cached_property
    def blocks(self) -> tuple[Block, ...]:
        edges = self.graph_edges
        cyc = {b: (verts, oedges) for b, verts, oedges in self.cycles()}
        members: list[list[EdgeId]] = [[] for _ in self.block_kind]
        for e, b in enumerate(self.block_of_edge):
            members[b].append(e)
        return tuple(
            Block(b, _KINDS[kind], *cyc[b]) if b in cyc
            else Block(b, _KINDS[kind], tuple(sorted({x for e in es for x in edges[e]})), tuple(es))
            for b, (kind, es) in enumerate(zip(self.block_kind, members))
        )

    @cached_property
    def classification(self) -> Classification:
        """Tree / odd cycle / general odd cactus, or a rejection with a witness.

        The one place the case split is made; `classify` and both solver
        entries read it from here. The witness is the first block, in block
        order, that is not an odd cycle or a bridge, with its lowest edge id.
        """
        starts = self.cycle_start
        even = next((b for b, s, t in zip(self.cycle_block, starts, starts[1:]) if (t - s) % 2 == 0), -1)
        other = self.block_kind.find(_OTHER)
        bad = [b for b in (even, other) if b >= 0]
        if bad:
            b = min(bad)
            return Classification(
                GraphClass.REJECTED,
                reason=RejectionReason.NOT_CACTUS if b == other else RejectionReason.CONTAINS_EVEN_CYCLE,
                witness_block=b,
                witness_edge=self.block_of_edge.index(b),
            )
        if not self.cycle_block:
            return Classification(GraphClass.TREE)
        if len(self.block_kind) == 1:
            return Classification(GraphClass.ODD_CYCLE, cycle_length=starts[1])
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


@gc_paused
def decompose(g: Graph) -> Decomposition:
    """Cut vertices, blocks and the rooted block tree of a connected simple graph.

    The DFS records, per edge, whether it is a back edge and, for a tree
    edge, the child it discovered. A block's edges then sit on the edge stack
    in push order, tree edge into the block first. A block with exactly one
    back edge is a cycle, and its stack slice is already a cyclic traversal:
    the tree path from the block's top vertex, closed by the back edge.

    Blocks are numbered in DFS preorder, by the step at which the tree edge
    into each block is traversed. So each block b but block 0 shares exactly
    one vertex, its top, with the blocks before it, and the blocks reached
    from b's other vertices in G - top(b) are b, b+1, ..., b+size-1: in the
    block-cut tree rooted at block 0, a block's subtree is an index range.
    `block_top[b]` is that shared vertex, the one the DFS pops b at, and
    `block_parent[b]` the earlier block holding the tree edge into it.
    """
    n = g.vertex_count
    m = g.edge_count
    rows = g.rows
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
    # each vertex's row, read as (neighbour, edge) pairs
    it = iter(rows[0])
    iters = [zip(it, it)]
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
                it = iter(rows[w])
                iters.append(zip(it, it))
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

    edges_arr = g.edges
    block_kind = bytearray(len(comps))  # _CUT_EDGE unless set below
    block_of_edge = [-1] * m
    block_top: list[int] = []
    block_parent: list[int] = []
    cut_edge_ids: list[int] = []
    cycle_block: list[int] = []
    cycle_start = [0]
    cycle_vertices: list[int] = []
    cycle_edges: list[int] = []
    for bidx, comp in enumerate(comps):
        # comp[0] is the tree edge from the vertex the DFS popped the block
        # at, its top, down into the block
        first = comp[0]
        a, b = edges_arr[first]
        top = a if tree_child[first] == b else b
        block_top.append(top)
        # the block holding the tree edge into top, filed earlier; the root
        # has no such edge and only hangs blocks from block 0
        block_parent.append(block_of_edge[parent_eid[top]] if top else 0)
        for e in comp:
            block_of_edge[e] = bidx
        if len(comp) == 1:
            cut_edge_ids.append(first)
        elif sum(map(is_back.__getitem__, comp)) != 1:
            block_kind[bidx] = _OTHER
        else:
            # a 2-connected block with one back edge has |V| == |E|: a
            # cycle. comp is [tree edges down the path..., back edge up].
            block_kind[bidx] = _CYCLE
            verts = [top, *map(tree_child.__getitem__, comp[:-1])]
            # canonical order: lowest id first, toward its lower-id neighbour
            i = verts.index(min(verts))
            if verts[(i + 1) % len(verts)] < verts[i - 1]:
                cycle_vertices += verts[i:] + verts[:i]
                cycle_edges += comp[i:] + comp[:i]
            else:
                cycle_vertices += verts[i::-1] + verts[:i:-1]
                cycle_edges += comp[i - 1 :: -1] + comp[: i - 1 : -1]
            cycle_block.append(bidx)
            cycle_start.append(len(cycle_edges))
    # block 0 is popped at the root too, but hangs from nothing
    block_top[0] = block_parent[0] = -1
    return Decomposition(
        edges_arr, bytes(is_cut), frozenset(cut_edge_ids), bytes(block_kind),
        tuple(block_of_edge), tuple(block_top), tuple(block_parent),
        tuple(cycle_block), tuple(cycle_start), tuple(cycle_vertices), tuple(cycle_edges),
        bytes(map(is_cut.__getitem__, cycle_vertices)),
    )


def classify(g: Graph, d: Decomposition) -> Classification:
    """Tree / odd cycle / general odd cactus, or a rejection with a witness.

    The answer depends on the decomposition alone and is cached on it; `g`
    is accepted for the call shape and not read.
    """
    return d.classification


def require_odd_cactus(d: Decomposition) -> Classification:
    """The classification of an accepted graph; raises NotOddCactusError,
    naming the reason and the witness block, for a rejected one."""
    cls = d.classification
    if not cls.accepted:
        raise NotOddCactusError(f"input rejected: {cls.reason.value} (block {cls.witness_block})")
    return cls


def leaf_blocks(d: Decomposition) -> tuple[Block, ...]:
    """Blocks with at most one cut vertex: leaves of the block-cut tree."""
    cuts = d.cut_vertices
    return tuple(b for b in d.blocks if len(cuts.intersection(b.vertices)) <= 1)
