"""k-regular k-connected graphs (Sec. V-B, first topology family).

The paper evaluates NECTAR on "k-regular k-connected graphs [24]",
which "ensure that the graph's connectivity is exactly k (with the
minimum number of edges) and that each node has exactly k neighbors".

* :func:`harary_graph` is the deterministic classical construction
  H_{k,n} achieving exactly this optimum (Harary 1962).
* :func:`random_regular_graph` samples random k-regular graphs with
  the pairing model (in the spirit of Steger & Wormald [24]); such
  graphs are k-connected asymptotically almost surely, and the
  generator can verify and resample.  Dense degrees are sampled
  through the sparse complement.
"""

from __future__ import annotations

import random

from repro.errors import TopologyError
from repro.graphs.connectivity import vertex_connectivity
from repro.graphs.graph import Graph, complete_graph_edges
from repro.types import Edge


def circulant_graph(n: int, offsets) -> Graph:
    """The circulant graph C_n(offsets): i ~ i ± o (mod n) for each offset."""
    if n < 3:
        raise TopologyError("a circulant graph needs at least 3 nodes")
    edges: list[Edge] = []
    for offset in sorted(set(offsets)):
        if not 1 <= offset <= n // 2:
            raise TopologyError(f"offset {offset} outside [1, {n // 2}]")
        for i in range(n):
            edges.append((i, (i + offset) % n))
    return Graph(n, edges)


def harary_graph(k: int, n: int) -> Graph:
    """The Harary graph H_{k,n}: k-connected with ⌈kn/2⌉ edges.

    Classical three-case construction:

    * k even: circulant with offsets 1 .. k/2;
    * k odd, n even: the k-1 case plus all diameters i ~ i + n/2;
    * k odd, n odd: the k-1 case plus a near-diameter matching.

    Raises:
        TopologyError: if ``k >= n`` or ``k < 1``.
    """
    if k < 1:
        raise TopologyError("connectivity parameter k must be >= 1")
    if k >= n:
        raise TopologyError(f"H_{{k,n}} needs k < n, got k={k}, n={n}")
    if k == 1:
        # Degenerate case: a path is the 1-connected minimum graph.
        return Graph(n, [(i, i + 1) for i in range(n - 1)])

    half = k // 2
    edges: list[Edge] = []
    for offset in range(1, half + 1):
        for i in range(n):
            edges.append((i, (i + offset) % n))
    if k % 2 == 1:
        if n % 2 == 0:
            for i in range(n // 2):
                edges.append((i, i + n // 2))
        else:
            # Odd k, odd n: connect node i to i + (n - 1) / 2 ... for the
            # first half, plus the extra edge (0, (n-1)/2) companion —
            # the standard construction adds ⌈n/2⌉ near-diameters.
            for i in range(n // 2 + 1):
                edges.append((i, (i + (n - 1) // 2) % n))
    return Graph(n, edges)


def _pairing_model_sample(n: int, k: int, rng: random.Random) -> Graph | None:
    """One Steger–Wormald style draw; None when the attempt gets stuck.

    The naive configuration model rejects whole samples on any loop or
    multi-edge, which is hopeless beyond small k (acceptance decays as
    e^(-(k²-1)/4)).  Following Steger & Wormald [24] we instead match
    stubs incrementally, discarding only the *unsuitable* pairs of each
    matching wave and retrying with the leftover stubs.
    """
    edges: set[Edge] = set()
    stubs = [node for node in range(n) for _ in range(k)]
    while stubs:
        rng.shuffle(stubs)
        progress = False
        leftover: list[int] = []
        for i in range(0, len(stubs) - 1, 2):
            u, v = stubs[i], stubs[i + 1]
            edge = (u, v) if u < v else (v, u)
            if u == v or edge in edges:
                leftover.extend((u, v))
                continue
            edges.add(edge)
            progress = True
        if len(stubs) % 2 == 1:  # pragma: no cover - n*k is even
            leftover.append(stubs[-1])
        if not progress and leftover:
            return None  # stuck: every remaining pair is unsuitable
        stubs = leftover
    return Graph(n, edges)


def random_regular_graph(
    n: int,
    k: int,
    seed: int = 0,
    require_connectivity: bool = False,
    max_tries: int = 4000,
) -> Graph:
    """A uniform-ish random k-regular graph via the pairing model.

    The pairing model gets stuck on dense graphs, so for k > (n − 1)/2
    it draws an (n − 1 − k)-regular graph and returns its complement.
    Complementing is a bijection between the two degree classes, so a
    uniform sparse draw gives a uniform dense graph.

    Args:
        n: node count; ``n * k`` must be even and ``k < n``.
        k: degree.
        seed: RNG seed.
        require_connectivity: when True, resample until κ = k (random
            regular graphs are k-connected a.a.s., so this rarely loops;
            it is O(expensive) for large k and mostly useful in tests).
        max_tries: bound on resampling.

    Raises:
        TopologyError: on inconsistent parameters or when sampling
            fails to produce a valid graph within ``max_tries``.
    """
    if k < 1 or k >= n:
        raise TopologyError(f"need 1 <= k < n, got k={k}, n={n}")
    if (n * k) % 2 != 0:
        raise TopologyError(f"n*k must be even, got n={n}, k={k}")
    rng = random.Random(("random-regular", n, k, seed).__repr__())
    dense = 2 * k > n - 1
    for _ in range(max_tries):
        graph = _pairing_model_sample(n, n - 1 - k if dense else k, rng)
        if graph is None:
            continue
        if dense:
            sparse = graph.edges()
            graph = Graph(
                n, (edge for edge in complete_graph_edges(n) if edge not in sparse)
            )
        if not graph.is_connected():
            continue
        if require_connectivity and vertex_connectivity(graph, cutoff=k) != k:
            continue
        return graph
    raise TopologyError(
        f"could not sample a k-regular graph with n={n}, k={k} "
        f"in {max_tries} tries"
    )
