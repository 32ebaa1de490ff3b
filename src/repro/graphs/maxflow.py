"""Maximum flow by bounded shortest augmenting paths.

This is the flow engine behind vertex-connectivity computation
(:mod:`repro.graphs.connectivity`): local connectivity κ(s, t) equals
the max flow in the standard vertex-split digraph by Menger's theorem
[20 in the paper].  Capacities in that construction are 0/1/∞ and the
flows are small (κ, often truncated at a cutoff near t), so one
breadth-first search per flow unit, bounded by the cutoff and by the
terminals' residual capacity, beats building level graphs.
"""

from __future__ import annotations

from collections import deque

#: Stand-in for infinite capacity; larger than any cut in our graphs.
INFINITY = 10**9


class FlowNetwork:
    """A directed flow network with integer capacities.

    Vertices are dense integers ``0 .. vertex_count-1``; edges are
    added with :meth:`add_edge`, which also creates the residual
    reverse edge.
    """

    def __init__(self, vertex_count: int) -> None:
        if vertex_count < 1:
            raise ValueError("a flow network needs at least one vertex")
        self.vertex_count = vertex_count
        # Edge arrays: edge i goes to _to[i] with residual capacity
        # _capacity[i]; edge i ^ 1 is its reverse.
        self._to: list[int] = []
        self._capacity: list[int] = []
        self._outgoing: list[list[int]] = [[] for _ in range(vertex_count)]
        # Scratch array for the augmenting-path search, allocated once
        # per network and reset in place from the template: the
        # vertex-connectivity sweeps run O(n²) flows of several
        # augmentations each, so per-search list allocation shows up.
        self._parent_edge = [-1] * vertex_count
        self._unvisited = [-1] * vertex_count

    def add_edge(self, source: int, target: int, capacity: int) -> None:
        """Add a directed edge and its zero-capacity residual twin."""
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        for endpoint in (source, target):
            if not 0 <= endpoint < self.vertex_count:
                raise ValueError(f"vertex {endpoint} out of range")
        self._outgoing[source].append(len(self._to))
        self._to.append(target)
        self._capacity.append(capacity)
        self._outgoing[target].append(len(self._to))
        self._to.append(source)
        self._capacity.append(0)

    # ------------------------------------------------------------------
    # Capacity snapshots (reusable networks)
    # ------------------------------------------------------------------
    def capacity_template(self) -> list[int]:
        """A snapshot of the current residual capacities.

        Callers that run many max-flow queries on the same arc
        structure (vertex connectivity re-terminalises one shared
        vertex-split network per (s, t) pair) snapshot the pristine
        capacities once and restore them with
        :meth:`reset_capacities` instead of rebuilding the network.
        """
        return self._capacity.copy()

    def reset_capacities(self, template: list[int]) -> None:
        """Restore residual capacities from a template, in place."""
        if len(template) != len(self._capacity):
            raise ValueError("capacity template does not match edge count")
        self._capacity[:] = template

    def set_edge_capacity(self, edge_index: int, capacity: int) -> None:
        """Overwrite one arc's residual capacity (template patching).

        Arc indices follow insertion order: the i-th :meth:`add_edge`
        call creates the forward arc ``2 * i`` and its residual twin
        ``2 * i + 1``.
        """
        if capacity < 0:
            raise ValueError("capacity must be non-negative")
        self._capacity[edge_index] = capacity

    def residual_reachable(self, source: int) -> set[int]:
        """Vertices reachable from ``source`` in the residual network.

        Call after :meth:`max_flow` to extract a minimum cut: the cut
        edges are exactly the saturated edges crossing the boundary of
        this set (max-flow/min-cut theorem).
        """
        seen = {source}
        queue = deque([source])
        while queue:
            vertex = queue.popleft()
            for edge_index in self._outgoing[vertex]:
                target = self._to[edge_index]
                if self._capacity[edge_index] > 0 and target not in seen:
                    seen.add(target)
                    queue.append(target)
        return seen

    def max_flow(self, source: int, sink: int, cutoff: int | None = None) -> int:
        """Compute the maximum flow from ``source`` to ``sink``.

        Args:
            source: flow source vertex.
            sink: flow sink vertex.
            cutoff: optional early-exit bound — once the flow reaches
                ``cutoff`` the exact value no longer matters to the
                caller (used by connectivity, which only needs to know
                whether κ(s, t) is below the current minimum).

        Returns:
            The max-flow value, possibly truncated at ``cutoff``.
        """
        if source == sink:
            raise ValueError("source and sink must differ")
        # The flow cannot exceed the residual capacity leaving the
        # source or entering the sink, and the caller needs no more
        # than ``cutoff``: the loop stops at that bound without the
        # final, fruitless search that would prove maximality.
        bound = self._residual_out_capacity(source, cutoff)
        bound = self._residual_in_capacity(sink, bound)
        total = 0
        while total < bound:
            pushed = self._augment_shortest(source, sink, bound - total)
            if pushed == 0:
                break
            total += pushed
        return total

    def _residual_out_capacity(self, vertex: int, limit: int | None) -> int:
        """Residual capacity leaving ``vertex``, saturated at ``limit``."""
        capacity = self._capacity
        total = 0
        for edge_index in self._outgoing[vertex]:
            if capacity[edge_index] > 0:
                total += capacity[edge_index]
                if limit is not None and total >= limit:
                    return limit
        return total

    def _residual_in_capacity(self, vertex: int, limit: int) -> int:
        """Residual capacity entering ``vertex``, saturated at ``limit``.

        Each incoming edge's index is the reverse (``^ 1``) of an index
        listed in the vertex's outgoing adjacency.
        """
        capacity = self._capacity
        total = 0
        for edge_index in self._outgoing[vertex]:
            if capacity[edge_index ^ 1] > 0:
                total += capacity[edge_index ^ 1]
                if total >= limit:
                    return limit
        return total

    def _augment_shortest(self, source: int, sink: int, limit: int) -> int:
        """One Edmonds–Karp step: push along a shortest residual path.

        Returns the amount pushed, at most ``limit`` (0 when the sink is
        unreachable).  The search stops as soon as it reaches the sink.
        """
        parent_edge = self._parent_edge
        parent_edge[:] = self._unvisited
        parent_edge[source] = -2
        queue = deque([source])
        capacity = self._capacity
        to = self._to
        outgoing = self._outgoing
        while queue and parent_edge[sink] == -1:
            vertex = queue.popleft()
            for edge_index in outgoing[vertex]:
                target = to[edge_index]
                if capacity[edge_index] > 0 and parent_edge[target] == -1:
                    parent_edge[target] = edge_index
                    queue.append(target)
        if parent_edge[sink] == -1:
            return 0
        # Walk back to find the bottleneck, then apply it.
        bottleneck = limit
        vertex = sink
        while vertex != source:
            edge_index = parent_edge[vertex]
            bottleneck = min(bottleneck, capacity[edge_index])
            vertex = to[edge_index ^ 1]
        vertex = sink
        while vertex != source:
            edge_index = parent_edge[vertex]
            capacity[edge_index] -= bottleneck
            capacity[edge_index ^ 1] += bottleneck
            vertex = to[edge_index ^ 1]
        return bottleneck
