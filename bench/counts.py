"""Expected answers for the benchmark, derived from planted structure.

Nothing here imports countkernel.  The kernel workloads plant a known
core (a disjoint union of stars, a perfect matching, or disjoint
cliques) behind forced hubs, so the original vertex-cover count and the
count of the reduced blowup follow from closed forms.  The blowup
multiplicities use inclusion-exclusion over copy classes taken whole,
an independent route to the numbers the kernel's lift divides by.  The
cut workloads check the composition and transformation outputs against
closed forms in the input sizes.
"""

from __future__ import annotations

from math import comb


def poly_mul(a: list[int], b: list[int], cap: int) -> list[int]:
    """Product of two coefficient lists, truncated after degree ``cap``."""
    out = [0] * (cap + 1)
    for i, x in enumerate(a[:cap + 1]):
        if x:
            for j, y in enumerate(b[:cap + 1 - i]):
                out[i + j] += x * y
    return out


def star_cover_poly(leaves: int, cap: int) -> list[int]:
    """Vertex covers of a star with ``leaves`` leaves, by size.

    A cover either takes the centre and any subset of the leaves,
    x * (1 + x)^leaves, or leaves the centre out and takes every leaf,
    x^leaves.  A single edge is the star with one leaf.
    """
    poly = [0] * (cap + 1)
    for j in range(leaves + 1):
        if 1 + j <= cap:
            poly[1 + j] += comb(leaves, j)
    if leaves <= cap:
        poly[leaves] += 1
    return poly


def star_forest_cover_counts(star_leaves: list[int], cap: int) -> list[int]:
    """y[i] = number of vertex covers of size exactly i, for i <= cap,
    of the disjoint union of stars with the given leaf counts."""
    counts = [1] + [0] * cap
    for leaves in star_leaves:
        counts = poly_mul(counts, star_cover_poly(leaves, cap), cap)
    return counts


def blowup_parameters(n2: int, k2: int) -> tuple[int, int, int]:
    """(d, t, k3) of the padded blowup of a core with n2 vertices and
    budget k2: d copies per core vertex, t padding vertices, budget d*k2."""
    d = n2
    return d, d + d * k2 + 2 * (d * k2) ** 2, d * k2


def partial_binomial_sum(n: int, r_max: int) -> int:
    """sum_{r=0}^{r_max} C(n, r), built term by term."""
    total = 0
    term = 1
    for r in range(min(r_max, n) + 1):
        total += term
        term = term * (n - r) // (r + 1)
    return total


def blowup_multiplicity(i: int, d: int, t: int, k2: int, n2: int) -> int:
    """Extensions of one core cover of size i to a blowup cover of size
    at most d*k2.

    Pick at most spend = d*(k2 - i) vertices among the l = n2 - i
    uncovered copy classes (d vertices each) and the t padding vertices,
    never a whole class.  Inclusion-exclusion over the j classes taken
    whole gives sum_j (-1)^j C(l, j) sum_{r <= spend - d*j} C(d*(l-j) + t, r).
    """
    l = n2 - i
    spend = d * (k2 - i)
    total = 0
    for j in range(l + 1):
        if d * j > spend:
            break
        term = comb(l, j) * partial_binomial_sum(d * (l - j) + t, spend - d * j)
        total += -term if j % 2 else term
    return total


def kernel_counts(core_counts: list[int], n2: int, k2: int, free: int) -> tuple[int, int]:
    """(original count, reduced blowup count) for a planted instance.

    ``core_counts[i]`` counts the core's covers of size exactly i;
    ``free`` is the number of vertices that survive the high-degree rule
    but touch no core edge.  Every original cover of size at most k
    holds the forced hubs, a core cover of size i and at most k2 - i
    free vertices.  The reduced count is sum_i y_i * w_i.
    """
    original = 0
    reduced = 0
    d, t, _ = blowup_parameters(n2, k2)
    for i in range(min(k2, n2) + 1):
        y = core_counts[i] if i < len(core_counts) else 0
        if not y:
            continue
        original += y * partial_binomial_sum(free, k2 - i)
        reduced += y * blowup_multiplicity(i, d, t, k2, n2)
    return original, reduced


def blowup_size(n2: int, m2: int, k2: int) -> tuple[int, int, int]:
    """(n3, m3, k3) of the padded blowup of a core with n2 vertices and m2 edges."""
    d, t, k3 = blowup_parameters(n2, k2)
    return n2 * d + t, m2 * d * d, k3


ZERO_INSTANCE = (2, 1, 0)
"""(n, m, k) of the constant instance the kernel emits when the count is 0."""


def exact_composition(counts: list[int], sizes: list[tuple[int, int]],
                      ) -> tuple[int, int, int]:
    """(composed count, composed n, composed m) of the exact composition.

    With ell inputs of (n_i, m_i) and m = 2 * max m_i, input i (1-based)
    gets m*(i-1) terminal paths with three inner vertices and
    m*(ell-1) - m*(i-1) with one; the chain glues t_i to s_{i+1}.  A
    minimum cut takes one edge of every path outside one copy, so the
    count is sum_i q_i * 2^(m*(i-1) + m*(ell-1)).
    """
    ell = len(counts)
    m = 2 * max(mi for _, mi in sizes)
    count = sum(q << (m * (i - 1) + m * (ell - 1)) for i, q in enumerate(counts, start=1))
    n_out = sum(ni for ni, _ in sizes) - (ell - 1)
    m_out = sum(mi for _, mi in sizes)
    for i in range(1, ell + 1):
        longs = m * (i - 1)
        shorts = m * (ell - 1) - longs
        n_out += 3 * longs + shorts
        m_out += 4 * longs + 2 * shorts
    return count, n_out, m_out


def mincut_to_oct_size(n: int, m: int, cut: int) -> tuple[int, int, int]:
    """(n, m, k) of the transversal instance built from a connected cut
    instance: subdivide every edge, blow each original vertex up into
    cut+1 twins, then add cut+1 pendant x-y pairs joined to the s- and
    t-twins."""
    c = cut + 1
    return n * c + m + 2 * c, 2 * m * c + c + 2 * c * c, cut


def oct_to_vc_size(n: int, m: int, k: int) -> tuple[int, int, int]:
    """(n, m, k) of two copies of the graph joined by a perfect matching,
    with budget n + k."""
    return 2 * n, 2 * m + n, n + k
