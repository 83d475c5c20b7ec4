"""Independent brute-force reference implementations for the tests.

Everything here works on plain image tuples (or small-int indices backed by a
locally built multiplication table) with its own composition function.  No
code is shared with the package under test, so any disagreement points at a
real bug on one side or the other.
"""

from __future__ import annotations

import itertools
from math import gcd


def compose(a, b):
    """Left-to-right product: apply a first, then b."""
    return tuple(b[x] for x in a)


def invert(a):
    out = [0] * len(a)
    for i, x in enumerate(a):
        out[x] = i
    return tuple(out)


def identity(d):
    return tuple(range(d))


def element_order(a):
    x = a
    k = 1
    ident = identity(len(a))
    while x != ident:
        x = compose(x, a)
        k += 1
    return k


def generated(degree, gens):
    """All products of the given permutations, by plain word BFS."""
    ident = identity(degree)
    seen = {ident}
    frontier = [ident]
    gens = [tuple(g) for g in gens if tuple(g) != ident]
    while frontier:
        nxt = []
        for w in frontier:
            for g in gens:
                p = compose(w, g)
                if p not in seen:
                    seen.add(p)
                    nxt.append(p)
        frontier = nxt
    return frozenset(seen)


class NaiveTable:
    """Full multiplication table over an explicit element list."""

    def __init__(self, elements):
        self.elems = sorted(tuple(e) for e in elements)
        self.n = len(self.elems)
        self.index = {t: i for i, t in enumerate(self.elems)}
        assert self.elems[0] == identity(len(self.elems[0]))
        self.mul = [[self.index[compose(a, b)] for b in self.elems] for a in self.elems]
        self.inv = [self.index[invert(a)] for a in self.elems]
        self.order_of = [element_order(a) for a in self.elems]

    def conj(self, x, g):
        return self.mul[self.mul[self.inv[g]][x]][g]

    def span(self, seed):
        """Subgroup generated by the seed indices, word BFS over the table."""
        gens = sorted(set(seed) - {0})
        seen = {0}
        frontier = [0]
        while frontier:
            nxt = []
            for w in frontier:
                row = self.mul[w]
                for g in gens:
                    p = row[g]
                    if p not in seen:
                        seen.add(p)
                        nxt.append(p)
            frontier = nxt
        return frozenset(seen)

    def conjugacy_classes(self):
        seen = set()
        out = []
        for x in range(self.n):
            if x in seen:
                continue
            cls = {self.conj(x, g) for g in range(self.n)}
            seen |= cls
            out.append(frozenset(cls))
        return out

    def normal_closure(self, seed):
        current = self.span(seed)
        while True:
            extra = {self.conj(x, g) for x in current for g in range(self.n)} - current
            if not extra:
                return current
            current = self.span(current | extra)

    def is_normal(self, subset):
        return all(self.conj(x, g) in subset for x in subset for g in range(self.n))


def all_subgroups_naive(table: NaiveTable):
    """Every subgroup, as a frozenset of indices.

    One-element extensions from the trivial group reach everything: any chain
    1 < <x1> < <x1,x2> < ... realizes its endpoint.  Extension candidates are
    deduplicated by coset, since <H, x> = <H, hx>.
    """
    triv = frozenset({0})
    found = {triv}
    frontier = [triv]
    while frontier:
        H = frontier.pop()
        covered = set(H)
        for x in range(table.n):
            if x in covered:
                continue
            M = table.span(H | {x})
            covered |= {table.mul[h][x] for h in H}
            if M not in found:
                found.add(M)
                frontier.append(M)
    return found


def all_subgroups_powerset(table: NaiveTable):
    """Subgroups by exhaustive subset filtering; only sane for tiny orders."""
    assert table.n <= 12
    out = set()
    for r in range(1, table.n + 1):
        if table.n % r:
            continue
        for combo in itertools.combinations(range(table.n), r):
            s = set(combo)
            if 0 not in s:
                continue
            if all(table.mul[a][b] in s for a in s for b in s):
                out.add(frozenset(s))
    return out


def normal_subgroups_naive(table: NaiveTable):
    """All normal subgroups, by normal-closure extensions over class reps."""
    reps = [min(c) for c in table.conjugacy_classes()]
    triv = frozenset({0})
    found = {triv}
    frontier = [triv]
    while frontier:
        N = frontier.pop()
        for g in reps:
            if g in N:
                continue
            M = table.normal_closure(N | {g})
            if M not in found:
                found.add(M)
                frontier.append(M)
    return found


def is_supersolvable_naive(table: NaiveTable):
    """Search for an ascending chain of G-normal subgroups with cyclic steps.

    From a normal term N, any candidate next term is <N, x> for some x, and
    the step factor is automatically cyclic (generated by the image of x);
    the chain is valid when every term is normal in the whole group.
    """
    normals = normal_subgroups_naive(table)
    full = frozenset(range(table.n))
    memo = {}

    def reach(N):
        if N == full:
            return True
        got = memo.get(N)
        if got is not None:
            return got
        memo[N] = False
        covered = set(N)
        for x in range(table.n):
            if x in covered:
                continue
            M = table.span(N | {x})
            covered |= {table.mul[nn][x] for nn in N}
            if M in normals and reach(M):
                memo[N] = True
                return True
        return False

    return reach(frozenset({0}))


def normalizer_naive(table: NaiveTable, subset):
    subset = frozenset(subset)
    return frozenset(g for g in range(table.n)
                     if all(table.conj(x, g) in subset for x in subset))


def coset_table_naive(table: NaiveTable, d, l):
    """D/L from the table: the cosets yL of L in D, numbered by their least
    members, and their products, (yL)(zL) = (yz)L, as a list of rows.  Also
    returns each element's coset number."""
    cosets = sorted({frozenset(table.mul[y][x] for x in l) for y in d}, key=min)
    where = {x: i for i, c in enumerate(cosets) for x in c}
    return [[where[table.mul[min(a)][min(b)]] for b in cosets] for a in cosets], where


def centralizer_naive(table: NaiveTable, subset):
    return frozenset(g for g in range(table.n)
                     if all(table.mul[x][g] == table.mul[g][x] for x in subset))


def brute_isomorphic(elems_a, elems_b, *, map_budget=2_000_000):
    """Bijection search constrained only by element orders.

    Order profiles must match (isomorphisms preserve element order); within
    that constraint every bijection is tried and checked as a homomorphism
    on all pairs.  Refuses to run past `map_budget` candidate maps.
    """
    if len(elems_a) != len(elems_b):
        return False
    ta, tb = NaiveTable(elems_a), NaiveTable(elems_b)
    buckets_a: dict[int, list[int]] = {}
    buckets_b: dict[int, list[int]] = {}
    for i in range(ta.n):
        buckets_a.setdefault(ta.order_of[i], []).append(i)
    for i in range(tb.n):
        buckets_b.setdefault(tb.order_of[i], []).append(i)
    if {k: len(v) for k, v in buckets_a.items()} != {k: len(v) for k, v in buckets_b.items()}:
        return False
    total = 1
    for v in buckets_a.values():
        for m in range(2, len(v) + 1):
            total *= m
    if total > map_budget:
        raise RuntimeError(f"bijection count {total} exceeds the oracle budget")
    orders = sorted(buckets_a)
    source = [i for o in orders for i in buckets_a[o]]
    for parts in itertools.product(*(itertools.permutations(buckets_b[o]) for o in orders)):
        img = [i for part in parts for i in part]
        phi = {s: t for s, t in zip(source, img)}
        if all(phi[ta.mul[x][y]] == tb.mul[phi[x]][phi[y]]
               for x in range(ta.n) for y in range(ta.n)):
            return True
    return False


def abelian_order_counts_match(elems, dims):
    """Order statistics of an abelian group against a product of cyclics.

    In a direct product of cyclic groups of sizes d_i, the number of elements
    x with x^m = 1 is the product of gcd(d_i, m); for finite abelian groups
    these counts pin down the isomorphism class.
    """
    n = len(elems)
    orders = [element_order(e) for e in elems]
    for m in range(1, n + 1):
        if n % m:
            continue
        have = sum(1 for o in orders if m % o == 0)
        want = 1
        for d in dims:
            want *= gcd(d, m)
        if have != want:
            return False
    return True


def det_cofactor(F, rows):
    """Determinant by cofactor expansion along the first row."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = 0
    for j in range(n):
        if rows[0][j] == 0:
            continue
        minor = [[rows[i][c] for c in range(n) if c != j] for i in range(1, n)]
        term = F.mul(rows[0][j], det_cofactor(F, minor))
        total = F.add(total, term) if j % 2 == 0 else F.sub(total, term)
    return total


def matrix_action_naive(p, f, modulus, matrices, points, projective):
    """Each matrix's action on the points, one point at a time: the list of
    image indices per matrix.  Elements of GF(p^f) are integers whose base-p
    digits, little-endian, are polynomial coefficients; sums are digit-wise,
    products are polynomial products reduced by the monic `modulus`
    (coefficients little-endian), and an inverse is a power a^(q-2).  A
    projective image is scaled to leading coordinate 1.  ValueError when an
    image is not one of the points."""
    q = p ** f

    def digits(a):
        return [(a // p ** k) % p for k in range(f)]

    def number(coeffs):
        return sum(c * p ** k for k, c in enumerate(coeffs))

    def add(a, b):
        return number([(x + y) % p for x, y in zip(digits(a), digits(b))])

    def mul(a, b):
        prod = [0] * (2 * f - 1)
        for i, x in enumerate(digits(a)):
            for j, y in enumerate(digits(b)):
                prod[i + j] = (prod[i + j] + x * y) % p
        for top in range(2 * f - 2, f - 1, -1):
            c = prod[top]
            for k, m in enumerate(modulus):
                prod[top - f + k] = (prod[top - f + k] - c * m) % p
        return number(prod[:f])

    def inv(a):
        result, e = 1, q - 2
        while e:
            if e & 1:
                result = mul(result, a)
            a, e = mul(a, a), e >> 1
        return result

    index = {tuple(pt): i for i, pt in enumerate(points)}
    out = []
    for rows in matrices:
        images = []
        for v in points:
            w = [0] * len(v)
            for i, vi in enumerate(v):
                w = [add(x, mul(vi, m)) for x, m in zip(w, rows[i])]
            lead = next((x for x in w if x), 0)
            if projective and lead:
                w = [mul(inv(lead), x) for x in w]
            if tuple(w) not in index:
                raise ValueError(f"matrix image {w} lies outside the point set")
            images.append(index[tuple(w)])
        out.append(images)
    return out


# Generators of the Sylow 2-normalizer of SL(3, 4), in the vector action (on
# the 63 nonzero vectors, `triangular_instance(3, GF(4)).vec_group`) and in the
# projective action (21 points), as image tuples. They were recorded from
# `groups.normalizer` when its orbit was walked on frozensets of image tuples,
# so they pin the block walk to the same Schreier generators and the same
# reduction.
SL34_SYLOW_NORMALIZER_GENERATORS = {
    "vec": [
        (0, 1, 2, 39, 40, 41, 42, 59, 60, 61, 62, 19, 20, 21, 22, 47, 48, 49, 50, 23,
         24, 25, 26, 11, 12, 13, 14, 35, 36, 37, 38, 15, 16, 17, 18, 55, 56, 57, 58, 43,
         44, 45, 46, 3, 4, 5, 6, 31, 32, 33, 34, 7, 8, 9, 10, 27, 28, 29, 30, 51, 52,
         53, 54),
        (4, 9, 14, 19, 16, 29, 26, 39, 44, 33, 38, 59, 56, 53, 50, 15, 20, 25, 30, 3, 0,
         13, 10, 55, 60, 49, 54, 43, 40, 37, 34, 31, 36, 41, 46, 51, 48, 61, 58, 7, 12,
         1, 6, 27, 24, 21, 18, 47, 52, 57, 62, 35, 32, 45, 42, 23, 28, 17, 22, 11, 8, 5,
         2),
        (4, 9, 14, 23, 28, 17, 22, 43, 40, 37, 34, 51, 48, 61, 58, 47, 52, 57, 62, 39,
         44, 33, 38, 27, 24, 21, 18, 3, 0, 13, 10, 15, 20, 25, 30, 7, 12, 1, 6, 59, 56,
         53, 50, 35, 32, 45, 42, 31, 36, 41, 46, 55, 60, 49, 54, 11, 8, 5, 2, 19, 16,
         29, 26),
        (5, 10, 12, 19, 17, 30, 24, 39, 45, 34, 36, 59, 57, 54, 48, 47, 53, 58, 60, 35,
         33, 46, 40, 23, 29, 18, 20, 11, 9, 6, 0, 15, 21, 26, 28, 3, 1, 14, 8, 55, 61,
         50, 52, 43, 41, 38, 32, 31, 37, 42, 44, 51, 49, 62, 56, 7, 13, 2, 4, 27, 25,
         22, 16),
    ],
    "proj": [
        (0, 9, 12, 10, 11, 5, 7, 8, 6, 13, 14, 15, 16, 1, 3, 4, 2, 17, 20, 18, 19),
        (2, 9, 6, 19, 16, 5, 10, 15, 20, 1, 0, 4, 3, 17, 11, 8, 14, 13, 12, 18, 7),
        (2, 13, 18, 7, 12, 5, 15, 20, 10, 9, 16, 6, 19, 17, 14, 11, 8, 1, 0, 4, 3),
    ],
}


def normal_closure(degree, gens, xs):
    """The smallest subgroup containing xs and normalized by the permutations
    gens, by word BFS: an element joins the generators when it falls outside
    their span, and its conjugates by gens are queued."""
    seeds = []
    span = generated(degree, seeds)
    pending = list(xs)
    while pending:
        x = pending.pop()
        if x not in span:
            seeds.append(x)
            span = generated(degree, seeds)
            pending += [compose(compose(invert(g), x), g) for g in gens]
    return span


def is_nilpotent_lower_central(G):
    """Lower central series by word BFS: G is nilpotent when
    G > [G, G] > [G, [G, G]] > ... reaches 1.  Each term is the normal
    closure of the commutators of G's generators with the last term."""
    gens = [g.images for g in G.generators]
    current = generated(G.degree, gens)
    while len(current) > 1:
        commutators = [compose(compose(invert(g), invert(h)), compose(g, h))
                       for g in gens for h in current]
        nxt = normal_closure(G.degree, gens, commutators)
        if len(nxt) == len(current):
            return False
        current = nxt
    return True
