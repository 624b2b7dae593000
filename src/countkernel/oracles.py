"""Exponential-time ground-truth counters.

Everything here is deliberately dumb: exact enumeration, correctness
over speed.  These oracles define ground truth for the kernels, the
compositions, and the parameter transformations, so none of them may
share a clever identity with the code they check.  Each enumerating
oracle lists every candidate set and checks each one in full against
its definition; only the check is fast, done on whole-graph bit masks
(a mask per edge, or a vertex's neighbors as one integer) instead of
a Python loop per edge.  Nothing is memoized between candidates or
calls.  Each reads a graph's endpoint columns, never its edge set.

Enumerations refuse inputs whose candidate space exceeds
``SUBSET_LIMIT`` rather than hanging; treewidth is capped at 12
vertices.  All counts are exact Python integers.
"""

from __future__ import annotations

import random
from fractions import Fraction
from itertools import chain, combinations
from math import comb

# Defined in framework, so that the CLI catches it without importing this module.
from .framework import OracleSizeError, exceeds_subset_count
from .graphs import Graph, TerminalPair, TreeDecomposition

SUBSET_LIMIT = 1 << 26
TREEWIDTH_LIMIT = 12


def _adjacency_masks(g: Graph) -> list[int]:
    masks = [0] * g.n
    for u, v in zip(*g.columns()):
        masks[u] |= 1 << v
        masks[v] |= 1 << u
    return masks


def guard_subsets(n: int, k: int, what: str) -> None:
    """Refuse to enumerate the subsets of at most k of n vertices if
    there are more than ``SUBSET_LIMIT``.  The count stops once it
    passes the limit, so a huge n or k is refused at once."""
    if not exceeds_subset_count(SUBSET_LIMIT + 1, n, k):
        raise OracleSizeError(
            f"{what}: more than {SUBSET_LIMIT} candidate subsets of at most {k} of {n} vertices")


def _guard(candidates: int, what: str) -> None:
    if candidates > SUBSET_LIMIT:
        raise OracleSizeError(f"{what}: {candidates} candidates exceed limit {SUBSET_LIMIT}")


def _subset_masks(n: int, sizes: range):
    """Bit mask of every subset of range(n) whose size lies in ``sizes``,
    by size and then in ``combinations`` order, summed in C by ``map``."""
    bits = [1 << v for v in range(n)]
    return chain.from_iterable(map(sum, combinations(bits, size)) for size in sizes)


def _is_bipartite_masked(adj: list[int], n: int, removed: int) -> bool:
    """Whether the graph minus ``removed`` is 2-colorable.

    Each component is 2-colored one BFS layer at a time on vertex
    masks, a layer taking the color opposite to the one before.  Every
    edge joins one layer to itself or to the next, so an edge joins two
    vertices of one color iff some layer's neighborhood meets that
    layer's own color class.
    """
    unseen = ((1 << n) - 1) & ~removed
    while unseen:
        layer = unseen & -unseen
        unseen ^= layer
        same, other = layer, 0  # the layer's color class and the other one
        while layer:
            nbrs = 0
            while layer:
                low = layer & -layer
                nbrs |= adj[low.bit_length() - 1]
                layer ^= low
            if nbrs & same:
                return False
            layer = nbrs & unseen
            unseen ^= layer
            same, other = other | layer, same
    return True


def _is_connected_masked(adj: list[int], n: int, removed: int) -> bool:
    alive = [v for v in range(n) if not removed >> v & 1]
    if len(alive) <= 1:
        return True
    seen = 1 << alive[0]
    stack = [alive[0]]
    count = 1
    while stack:
        u = stack.pop()
        nbrs = adj[u] & ~removed & ~seen
        while nbrs:
            v = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            seen |= 1 << v
            count += 1
            stack.append(v)
    return count == len(alive)


# ---------------------------------------------------------------------------
# Vertex covers
# ---------------------------------------------------------------------------

def _count_covers(g: Graph, sizes: range) -> int:
    """Vertex covers whose size lies in ``sizes``: candidate vertex sets
    that meet every edge's two-bit mask."""
    edge_masks = [(1 << u) | (1 << v) for u, v in zip(*g.columns())]
    return sum(all(map(mask.__and__, edge_masks)) for mask in _subset_masks(g.n, sizes))


def count_vertex_covers(g: Graph, k: int) -> int:
    """Number of vertex covers of size at most k."""
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_vertex_covers")
    return _count_covers(g, range(min(k, g.n) + 1))


def count_vertex_covers_of_size(g: Graph, size: int) -> int:
    """Number of vertex covers of size exactly ``size``."""
    if size < 0 or size > g.n:
        return 0
    _guard(comb(g.n, size), "count_vertex_covers_of_size")
    return _count_covers(g, range(size, size + 1))


def count_minimal_vertex_covers(g: Graph, k: int) -> int:
    """Number of minimal vertex covers of size at most k.

    A cover is minimal when no proper subset covers; equivalently every
    chosen vertex keeps a neighbor outside the cover, that is, every
    vertex's closed neighborhood leaves the cover.  A candidate is
    checked against every edge's mask and then every vertex's closed
    neighborhood mask.
    """
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_minimal_vertex_covers")
    edge_masks = [(1 << u) | (1 << v) for u, v in zip(*g.columns())]
    closed = [(1 << v) | nbrs for v, nbrs in enumerate(_adjacency_masks(g))]
    return sum(all(map(mask.__and__, edge_masks)) and all(map((~mask).__and__, closed))
               for mask in _subset_masks(g.n, range(min(k, g.n) + 1)))


# ---------------------------------------------------------------------------
# Odd cycle transversals
# ---------------------------------------------------------------------------

def count_odd_cycle_transversals(g: Graph, k: int) -> int:
    """Number of sets S, |S| <= k, whose removal leaves a bipartite graph."""
    if k < 0:
        return 0
    guard_subsets(g.n, k, "count_odd_cycle_transversals")
    adj = _adjacency_masks(g)
    return sum(1 for removed in _subset_masks(g.n, range(min(k, g.n) + 1))
               if _is_bipartite_masked(adj, g.n, removed))


def is_nice_oct_instance(g: Graph, k: int) -> bool:
    """True iff every transversal of size at most k leaves the graph connected.

    The null graph does not count as connected here: a transversal that
    deletes every vertex leaves nothing to 2-color, which is exactly
    the degenerate case the downstream doubling transformation cannot
    survive.
    """
    if k < 0:
        return True
    guard_subsets(g.n, k, "is_nice_oct_instance")
    adj = _adjacency_masks(g)
    everything = (1 << g.n) - 1
    for removed in _subset_masks(g.n, range(min(k, g.n) + 1)):
        if _is_bipartite_masked(adj, g.n, removed):
            if removed == everything or not _is_connected_masked(adj, g.n, removed):
                return False
    return True


# ---------------------------------------------------------------------------
# Minimum (s,t)-cuts
# ---------------------------------------------------------------------------

def min_cut_size(g: Graph, st: TerminalPair) -> int:
    """Minimum number of edges separating s from t (0 when already apart).

    Computed by augmenting-path max-flow with unit capacities; by
    Menger's theorem this equals the number of edge-disjoint s-t paths.
    """
    st.check_in(g)
    cap: dict[tuple[int, int], int] = {}
    adj: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in zip(*g.columns()):
        cap[(u, v)] = 1
        cap[(v, u)] = 1
        adj[u].append(v)
        adj[v].append(u)
    flow = 0
    while True:
        parent = [-1] * g.n
        parent[st.s] = st.s
        queue = [st.s]
        head = 0
        while head < len(queue) and parent[st.t] == -1:
            u = queue[head]
            head += 1
            for v in adj[u]:
                if parent[v] == -1 and cap[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if parent[st.t] == -1:
            return flow
        v = st.t
        while v != st.s:
            u = parent[v]
            cap[(u, v)] -= 1
            cap[(v, u)] += 1
            v = u
        flow += 1


def count_min_st_cuts(g: Graph, st: TerminalPair) -> tuple[int, int]:
    """Count of edge sets of exactly minimum-cut size that separate s,t.

    Returns ``(count, cut_size)``; the empty cut gives count 1 when the
    terminals are already separated.  Every edge set of that size is
    checked by an explicit connectivity re-check: the adjacency masks
    lose the set's edges, and s's reach grows one frontier at a time
    until it holds t or stops growing.
    """
    st.check_in(g)
    k = min_cut_size(g, st)
    if k == 0:
        return 1, 0
    edges = g.sorted_edges()
    _guard(comb(len(edges), k), "count_min_st_cuts")
    adj = _adjacency_masks(g)
    s_bit, t_bit = 1 << st.s, 1 << st.t
    count = 0
    for cut in combinations(edges, k):
        kept = adj.copy()
        for u, v in cut:
            kept[u] ^= 1 << v
            kept[v] ^= 1 << u
        reach = frontier = s_bit
        while frontier and not reach & t_bit:
            nbrs = 0
            while frontier:
                low = frontier & -frontier
                nbrs |= kept[low.bit_length() - 1]
                frontier ^= low
            frontier = nbrs & ~reach
            reach |= frontier
        count += not reach & t_bit
    return count, k


# ---------------------------------------------------------------------------
# Matching and the vertex-cover LP
# ---------------------------------------------------------------------------

MATCHING_LIMIT = 26


def max_matching_size(g: Graph) -> int:
    """Maximum matching size by exhaustive branching over vertices."""
    if g.n > MATCHING_LIMIT:
        raise OracleSizeError(
            f"max_matching_size limited to {MATCHING_LIMIT} vertices, got {g.n}")
    adj = _adjacency_masks(g)
    memo: dict[int, int] = {}

    def rec(avail: int) -> int:
        if not avail:
            return 0
        cached = memo.get(avail)
        if cached is not None:
            return cached
        u = (avail & -avail).bit_length() - 1
        rest = avail & ~(1 << u)
        best = rec(rest)
        nbrs = adj[u] & rest
        while nbrs:
            v = (nbrs & -nbrs).bit_length() - 1
            nbrs &= nbrs - 1
            best = max(best, 1 + rec(rest & ~(1 << v)))
        memo[avail] = best
        return best

    return rec((1 << g.n) - 1)


def lp_vc_value(g: Graph) -> Fraction:
    """Optimum of the vertex-cover LP (half-integral).

    Equals half the minimum vertex cover of the bipartite double cover,
    which by Koenig duality equals half its maximum matching.
    """
    # Double cover: left copy u pairs with right copy v for each edge {u,v}.
    adj_left: list[list[int]] = [[] for _ in range(g.n)]
    for u, v in zip(*g.columns()):
        adj_left[u].append(v)
        adj_left[v].append(u)
    match_right = [-1] * g.n
    matched = 0
    for root in range(g.n):
        # Depth-first search for an augmenting path, on an explicit stack:
        # lefts[i] reached right vertex path[i], whose partner is lefts[i + 1].
        visited = [False] * g.n
        lefts, path, todo = [root], [], [iter(adj_left[root])]
        while todo:
            for v in todo[-1]:
                if not visited[v]:
                    break
            else:
                todo.pop()
                lefts.pop()
                if path:
                    path.pop()
                continue
            visited[v] = True
            path.append(v)
            if match_right[v] == -1:
                for u, w in zip(lefts, path):
                    match_right[w] = u
                matched += 1
                break
            lefts.append(match_right[v])
            todo.append(iter(adj_left[match_right[v]]))
    return Fraction(matched, 2)


# ---------------------------------------------------------------------------
# Exact treewidth
# ---------------------------------------------------------------------------

def exact_treewidth(g: Graph) -> tuple[int, TreeDecomposition]:
    """Treewidth by exhaustive search over elimination orderings.

    Enforces n <= 12.  Also emits a witness decomposition built from an
    optimal ordering; the witness always validates at the returned
    width.  The empty graph yields width 0 with a single empty bag.

    ``best(done)`` is the least width of eliminating the vertices
    outside ``done`` after those in it: the minimum over each remaining
    v of max(degree of v in the fill graph, best(done | v)).  It tries
    the vertices in increasing (degree, vertex) order and stops at the
    first degree at or above the minimum found so far.  That vertex
    and every later one give a maximum at least their degree, so none
    can lower the minimum: each memo value is still the exact
    ``best(done)``, and the recovered ordering and witness are the
    ones the unpruned search gives.
    """
    n = g.n
    if n > TREEWIDTH_LIMIT:
        raise OracleSizeError(f"exact_treewidth limited to {TREEWIDTH_LIMIT} vertices, got {n}")
    if n == 0:
        td = TreeDecomposition(nodes=("root",), links=frozenset(), bags={"root": frozenset()})
        return 0, td
    adj = _adjacency_masks(g)
    full = (1 << n) - 1

    def elim_degree(done: int, v: int) -> int:
        # Neighbors of v in the fill graph: vertices outside done reachable
        # from v through done.
        seen = 1 << v
        stack = [v]
        out = 0
        while stack:
            u = stack.pop()
            nbrs = adj[u] & ~seen
            while nbrs:
                w = (nbrs & -nbrs).bit_length() - 1
                nbrs &= nbrs - 1
                seen |= 1 << w
                if done >> w & 1:
                    stack.append(w)
                else:
                    out |= 1 << w
        return bin(out).count("1")

    memo: dict[int, int] = {full: -1}

    def best(done: int) -> int:
        cached = memo.get(done)
        if cached is not None:
            return cached
        candidates = []
        todo = full & ~done
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            candidates.append((elim_degree(done, v), v))
        candidates.sort()
        result = n
        for d, v in candidates:
            if d >= result:
                break
            result = min(result, max(d, best(done | (1 << v))))
        memo[done] = result
        return result

    width = best(0)

    order: list[int] = []
    done = 0
    while done != full:
        todo = full & ~done
        while todo:
            v = (todo & -todo).bit_length() - 1
            todo &= todo - 1
            if max(elim_degree(done, v), best(done | (1 << v))) == best(done):
                order.append(v)
                done |= 1 << v
                break

    # Standard clique-tree construction along the ordering, with fill-in.
    position = {v: i for i, v in enumerate(order)}
    work = [set() for _ in range(n)]
    for u, v in zip(*g.columns()):
        work[u].add(v)
        work[v].add(u)
    bags: dict[int, frozenset[int]] = {}
    links: set[frozenset] = set()
    for idx, v in enumerate(order):
        up = {w for w in work[v] if position[w] > idx}
        bags[v] = frozenset({v} | up)
        for a in up:
            work[a].discard(v)
            for b in up:
                if b != a:
                    work[a].add(b)
        if up:
            parent = min(up, key=position.__getitem__)
        elif idx + 1 < n:
            parent = order[idx + 1]
        else:
            parent = None
        if parent is not None:
            links.add(frozenset({v, parent}))
    td = TreeDecomposition(nodes=tuple(order), links=frozenset(links), bags=bags)
    return width, td


# ---------------------------------------------------------------------------
# Instance generation
# ---------------------------------------------------------------------------

def random_graph(n: int, p: float, seed: int) -> Graph:
    """G(n, p) with a fixed edge scan order; deterministic per seed."""
    if not 0.0 <= p <= 1.0:
        raise ValueError("edge probability must be in [0, 1]")
    rng = random.Random(seed)
    us: list[int] = []
    vs: list[int] = []
    for u in range(n):
        for v in range(u + 1, n):
            if rng.random() < p:
                us.append(u)
                vs.append(v)
    return Graph._from_columns(n, us, vs)
