"""Exhaustive generation of small categories up to isomorphism.

The generator is mechanical on purpose: enumerate composition tables on
bounded data and filter by the axioms, so that claims of the form "for
every category with at most so many objects and morphisms" are backed by
an actual exhaustive list rather than a hand-curated one.

One-object categories are monoids, and almost all of the catalog mass
sits there (2237 isomorphism classes at six morphisms alone), so their
Cayley tables get a dedicated cell-at-a-time depth-first search with
incremental associativity checking and symmetry breaking.  Categories
with two or more objects have so few non-identity morphisms within the
bounds that a plain Python search over typed composition tables
suffices.  Its isomorphism duplicates are removed by the canonical form
of polydyn.comonoid (_canonical_form), the one cat_isomorphic decides
isomorphism by, and each class is listed in its canonical labelling.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

from polydyn.comonoid import FinCat, _canonical_form
from polydyn.core import FinSet

__all__ = [
    "monoid_tables",
    "generate_categories",
]


def _associative_so_far(t, occ, a, b) -> bool:
    """False when the value just put in cell (a,b) breaks a defined triple.

    Only triples involving that cell can newly fail: (a,b,z) and (x,a,b)
    directly, and those whose outer product passes through it, found from
    the occurrence lists occ[a] and occ[b] of cells holding a and b.
    """
    c = t[a][b]
    ta, tb, tc = t[a], t[b], t[c]
    for z, bz in enumerate(tb):
        if bz >= 0:
            lhs = tc[z]
            rhs = ta[bz]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    for tx in t:
        xa = tx[a]
        if xa >= 0:
            lhs = t[xa][b]
            rhs = tx[c]
            if lhs >= 0 and rhs >= 0 and lhs != rhs:
                return False
    # triples (x,y,b) with t[x][y] = a, and (a,x,y) with t[x][y] = b
    for x, y in occ[a]:
        yb = t[y][b]
        if yb >= 0:
            lhs = t[x][yb]
            if lhs >= 0 and lhs != c:
                return False
    for x, y in occ[b]:
        ax = ta[x]
        if ax >= 0:
            lhs = t[ax][y]
            if lhs >= 0 and lhs != c:
                return False
    return True


def _relabeling_smaller(t, perm, inv, rows, first) -> bool:
    """Whether relabeling t by perm (inverse inv) gives a smaller table.

    Tables are compared lexicographically on the given rows, each read
    from column first on; every cell read must be filled.
    """
    for i in rows:
        row = t[i]
        moved = t[perm[i]]
        for j in range(first, len(row)):
            cand = inv[moved[perm[j]]]
            if cand != row[j]:
                return cand < row[j]
    return False


def _search_monoids(n, perms, fix1, fix12):
    """Enumerate monoid Cayley tables of order n >= 2 up to isomorphism.

    The identity element is fixed at index 0, so row 0 and column 0 are
    forced and the search runs over the remaining (n-1)^2 cells in row
    order, trying values in increasing order, so tables come out in
    ascending lexicographic order.  Associativity is checked
    incrementally as each cell is filled (_associative_so_far).  Two
    symmetry-breaking cuts keep the tree small (t[1][1] <= 2, and
    completed rows 1 and 1-2 must be prefix-minimal under relabelings
    that fix the cells already forced); a final full minimality pass over
    all relabelings fixing 0 leaves exactly the lexicographically least
    table of each class.

    perms holds (permutation, inverse) pairs for every permutation of
    0..n-1 fixing 0; fix1 and fix12 hold those that also fix 1,
    respectively 1 and 2.  -1 marks an empty cell.
    """
    t = [[-1] * n for _ in range(n)]
    for i in range(n):
        t[0][i] = i
        t[i][0] = i
    # cells holding each value; appended and popped in step with the DFS
    occ = [[(0, i), (i, 0)] for i in range(n)]
    occ[0] = [(0, 0)]
    m = n - 1
    last = m * m - 1
    val = [-1] * (last + 1)
    out = []
    k = 0
    while k >= 0:
        a = 1 + k // m
        b = 1 + k % m
        old = val[k]
        if old >= 0:
            occ[old].pop()
            t[a][b] = -1
        v = old + 1
        if v >= n:
            val[k] = -1
            k -= 1
            continue
        val[k] = v
        t[a][b] = v
        occ[v].append((a, b))
        if not _associative_so_far(t, occ, a, b):
            continue
        if k == 0 and v > 2:
            continue  # t[1][1] <= 2 in any lex-minimal table
        if b == m and a == 1 and any(
            _relabeling_smaller(t, p, inv, (1,), 1) for p, inv in fix1
        ):
            continue
        if b == m and a == 2 and any(
            _relabeling_smaller(t, p, inv, (1, 2), 1) for p, inv in fix12
        ):
            continue
        if k == last:
            if not any(_relabeling_smaller(t, p, inv, range(n), 0) for p, inv in perms):
                out.append(tuple(tuple(row) for row in t))
            continue
        k += 1
    return tuple(out)


@lru_cache(maxsize=None)
def monoid_tables(order: int) -> tuple:
    """All monoid multiplication tables of the given order up to isomorphism.

    Returns a tuple of tables, each a tuple of row tuples of ints.  The
    identity is element 0 and table[a][b] is the product a*b, so reading
    b as "first" and a as "second" makes the table a one-object
    composition table.  Each class is represented by its
    lexicographically least table among relabelings fixing 0, and the
    tables come in ascending order.  Practical through order 6; the
    counts for orders 1..6 are 1, 2, 7, 35, 228, 2237.
    """
    n = int(order)
    if n < 1:
        raise ValueError("order must be at least 1")
    if n == 1:
        return (((0,),),)
    perms = []
    for tail in itertools.permutations(range(1, n)):
        p = (0,) + tail
        inv = [0] * n
        for i, v in enumerate(p):
            inv[v] = i
        perms.append((p, inv))
    fix1 = [q for q in perms if q[0][:2] == (0, 1)]
    fix12 = [q for q in perms if q[0][:3] == (0, 1, 2)]
    return _search_monoids(n, perms, fix1, fix12)


# ---------------------------------------------------------------------------
# Categories with two or more objects.
#
# A typing assigns each non-identity morphism a (dom, cod) slot; identity
# composites are forced, so a composition table is determined by its values
# on composable pairs of non-identity morphisms.  Chains through an identity
# are automatically associative, which leaves chains of three non-identity
# morphisms as the only constraints to check.


def _typed_tables(num_objects: int, dom, cod):
    """Yield every associative composition table for the given typing.

    Morphisms are 0..n-1 with the first num_objects being the identities
    (identity of object i is morphism i).  Tables are represented as
    comp[g][f] = g after f, -1 off the composable pairs.  The yielded
    list of lists is reused between yields; callers must copy or consume
    immediately.
    """
    n = len(dom)
    extras = range(num_objects, n)
    comp = [[-1] * n for _ in range(n)]
    for f in range(n):
        comp[f][dom[f]] = f
        comp[cod[f]][f] = f
    cells = [(g, f) for g in extras for f in extras if cod[f] == dom[g]]
    cands = []
    for g, f in cells:
        cs = tuple(h for h in range(n) if dom[h] == dom[f] and cod[h] == cod[g])
        if not cs:
            return  # a composite has nowhere to land; no category has this typing
        cands.append(cs)
    # Each chain (f, g, h) reads comp[g][f] = u, comp[h][g] = v, comp[h][u]
    # and comp[v][f].  It is listed under every cell among those it can
    # read, for any candidate u and v, so after a cell is filled only the
    # chains through it are checked; the rest were consistent before.
    cell_index = {cell: idx for idx, cell in enumerate(cells)}
    through = [[] for _ in cells]
    for f in extras:
        for g in extras:
            if cod[f] != dom[g]:
                continue
            for h in extras:
                if cod[g] != dom[h]:
                    continue
                reads = {(g, f), (h, g)}
                reads.update((h, u) for u in cands[cell_index[(g, f)]])
                reads.update((v, f) for v in cands[cell_index[(h, g)]])
                for cell in reads:
                    if cell in cell_index:
                        through[cell_index[cell]].append((f, g, h))

    def consistent(idx: int) -> bool:
        for f, g, h in through[idx]:
            u = comp[g][f]
            v = comp[h][g]
            if u < 0 or v < 0:
                continue
            left = comp[h][u]
            right = comp[v][f]
            if left >= 0 and right >= 0 and left != right:
                return False
        return True

    def walk(idx: int):
        if idx == len(cells):
            yield comp
            return
        g, f = cells[idx]
        for h in cands[idx]:
            comp[g][f] = h
            if consistent(idx):
                yield from walk(idx + 1)
        comp[g][f] = -1

    yield from walk(0)


def _build_fincat(num_objects: int, dom, cod, comp) -> FinCat:
    objects = FinSet(tuple(f"o{i}" for i in range(num_objects)))
    n = len(dom)
    labels = [f"m{j}" for j in range(n)]
    morphisms = [(labels[j], f"o{dom[j]}", f"o{cod[j]}") for j in range(n)]
    identity = {f"o{i}": labels[i] for i in range(num_objects)}
    compose = {}
    for g in range(n):
        for f in range(n):
            if cod[f] == dom[g]:
                compose[(labels[g], labels[f])] = labels[comp[g][f]]
    return FinCat(objects, morphisms, identity, compose)


@lru_cache(maxsize=None)
def _multi_object_keys(num_objects: int, num_extra: int) -> tuple:
    """Sorted canonical keys of the classes with this many objects and
    non-identity morphisms.

    Every typing of the non-identity morphisms, up to their order, has its
    associative tables enumerated by _typed_tables; tables of one class
    share the key of comonoid._canonical_form, which cat_isomorphic uses
    too.
    """
    k = num_objects
    all_slots = [(a, b) for a in range(k) for b in range(k)]
    keys = set()
    for spec in itertools.combinations_with_replacement(all_slots, num_extra):
        dom = list(range(k)) + [s[0] for s in spec]
        cod = list(range(k)) + [s[1] for s in spec]
        for comp in _typed_tables(k, dom, cod):
            keys.add(_canonical_form(k, dom, cod, comp)[0])
    return tuple(sorted(keys))


def _from_key(num_objects: int, key) -> FinCat:
    slots, table = key
    n = num_objects + len(slots)
    dom = list(range(num_objects)) + [s[0] for s in slots]
    cod = list(range(num_objects)) + [s[1] for s in slots]
    comp = [table[a * n : (a + 1) * n] for a in range(n)]
    return _build_fincat(num_objects, dom, cod, comp)


@lru_cache(maxsize=None)
def generate_categories(max_objects: int = 3, max_morphisms: int = 6) -> tuple:
    """Every category within the size bounds, one per isomorphism class.

    Identities count toward the morphism bound, so a category with k
    objects carries at most max_morphisms - k non-identity morphisms.
    The empty category is included (it is the one category with zero
    objects).  Objects are labeled o0, o1, ..; morphisms m0, m1, .. with
    the identity of oi being mi.

    The result is a tuple in a deterministic order: by object count,
    then morphism count, then canonical table.  One-object categories
    come from monoid_tables; larger ones from an exhaustive search over
    typed composition tables with canonical-form deduplication.
    """
    if max_objects < 0 or max_morphisms < 0:
        raise ValueError("bounds must be non-negative")
    cats = [_build_fincat(0, [], [], [])]
    if max_objects >= 1:
        for n in range(1, max_morphisms + 1):
            for table in monoid_tables(n):
                cats.append(_build_fincat(1, [0] * n, [0] * n, table))
    for k in range(2, max_objects + 1):
        for m in range(max_morphisms - k + 1):
            for key in _multi_object_keys(k, m):
                cats.append(_from_key(k, key))
    return tuple(cats)
