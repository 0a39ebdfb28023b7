"""Block decomposition: cut vertices, blocks, bridges, the rooted block tree.

Blocks are found with an iterative low-link DFS and ordered by the DFS step
at which their first edge is traversed, so downstream iteration orders are
reproducible for a given edge list.
"""

from __future__ import annotations

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


@dataclass(frozen=True, eq=False)
class Decomposition:
    cut_vertices: frozenset[VertexId]
    blocks: tuple[Block, ...]
    cut_edges: frozenset[EdgeId]
    block_of_edge: tuple[int, ...]
    # the block-cut tree rooted at block 0: block b > 0 hangs from its top
    # vertex, a cut vertex of its parent block; both are -1 for block 0
    block_top: tuple[VertexId, ...]
    block_parent: tuple[int, ...]

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
                GraphClass.REJECTED,
                reason=reason,
                witness_block=b.index,
                witness_edge=min(b.ordered_edges),
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
    edges_arr = g.edges
    blocks: list[Block] = []
    block_of_edge = [-1] * m
    block_top: list[int] = []
    block_parent: list[int] = []
    cut_edge_ids: list[int] = []
    cut_edge, cycle, other = BlockKind.CUT_EDGE, BlockKind.CYCLE, BlockKind.OTHER
    for bidx, comp in enumerate(comps):
        # comp[0] is the tree edge from the vertex the DFS popped the block
        # at, its top, down into the block
        first = comp[0]
        a, b = ab = edges_arr[first]
        top = a if tree_child[first] == b else b
        block_top.append(top)
        # the block holding the tree edge into top, filed earlier; the root
        # has no such edge and only hangs blocks from block 0
        block_parent.append(block_of_edge[parent_eid[top]] if top else 0)
        for e in comp:
            block_of_edge[e] = bidx
        if len(comp) == 1:
            blocks.append(Block(bidx, cut_edge, ab, (first,)))
            cut_edge_ids.append(first)
        elif sum(map(is_back.__getitem__, comp)) != 1:
            cverts = tuple(sorted({x for e in comp for x in edges_arr[e]}))
            blocks.append(Block(bidx, other, cverts, tuple(sorted(comp))))
        else:
            # a 2-connected block with one back edge has |V| == |E|: a
            # cycle. comp is [tree edges down the path..., back edge up].
            verts = (top, *map(tree_child.__getitem__, comp[:-1]))
            # canonical order: lowest id first, toward its lower-id neighbour
            i = verts.index(min(verts))
            if verts[(i + 1) % len(verts)] < verts[i - 1]:
                cverts = verts[i:] + verts[:i]
                cedges = comp[i:] + comp[:i]
            else:
                cverts = verts[i::-1] + verts[:i:-1]
                cedges = comp[i - 1 :: -1] + comp[: i - 1 : -1]
            blocks.append(Block(bidx, cycle, cverts, tuple(cedges)))
    # block 0 is popped at the root too, but hangs from nothing
    block_top[0] = block_parent[0] = -1
    return Decomposition(cut_vertices, tuple(blocks), frozenset(cut_edge_ids),
                         tuple(block_of_edge), tuple(block_top), tuple(block_parent))


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
