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
suffices; isomorphism duplicates are removed by canonical form.
"""

from __future__ import annotations

import itertools
from functools import lru_cache

import numpy as np

from polydyn.comonoid import FinCat
from polydyn.core import FinSet

__all__ = [
    "monoid_tables",
    "generate_categories",
]


def _search_monoids(n, perms, invperms, pfix1, pfix12):
    """Enumerate monoid Cayley tables of order n up to isomorphism.

    The identity element is fixed at index 0, so row 0 and column 0 are
    forced and the search runs over the remaining (n-1)^2 cells in row
    order.  Associativity is checked incrementally: when cell (a,b) gets
    value c, only triples involving that cell can newly fail, and the
    triples whose outer product passes through c are found from an
    occurrence list of cells per value.  Two symmetry-breaking cuts keep
    the tree small (t[1][1] <= 2, and completed rows 1 and 1-2 must be
    prefix-minimal under relabelings that fix the cells already forced);
    a final full minimality pass over all relabelings fixing 0 leaves
    exactly the lexicographically least table of each class.

    perms/invperms hold every permutation of 0..n-1 fixing 0; pfix1 and
    pfix12 index those that also fix 1, respectively 1 and 2.
    """
    UNDEF = -1
    t = np.full((n, n), UNDEF, dtype=np.int8)
    for i in range(n):
        t[0, i] = i
        t[i, 0] = i
    m = n - 1
    ncells = m * m
    # occurrence stacks per value: packed x*n+y, LIFO matches the DFS undo
    occ = np.empty((n, ncells + 2 * n), dtype=np.int16)
    onum = np.zeros(n, dtype=np.int64)
    for i in range(n):
        occ[i, 0] = 0 * n + i
        occ[i, 1] = i * n + 0
        onum[i] = 2
    onum[0] = 1  # cell (0,0) exists once
    occ[0, 0] = 0

    val = np.full(ncells, -1, dtype=np.int8)
    cap = 4096
    out = np.empty((cap, n, n), dtype=np.int8)
    nfound = 0
    k = 0
    while k >= 0:
        a = 1 + k // m
        b = 1 + k % m
        old = val[k]
        if old >= 0:
            onum[old] -= 1
            t[a, b] = UNDEF
        v = old + 1
        val[k] = v
        if v >= n:
            val[k] = -1
            k -= 1
            continue
        t[a, b] = v
        occ[v, onum[v]] = a * n + b
        onum[v] += 1
        c = v
        ok = True
        # triples (a,b,z) and (x,a,b)
        for z in range(n):
            bz = t[b, z]
            if bz != UNDEF:
                lhs = t[c, z]
                rhs = t[a, bz]
                if lhs != UNDEF and rhs != UNDEF and lhs != rhs:
                    ok = False
                    break
        if ok:
            for x in range(n):
                xa = t[x, a]
                if xa != UNDEF:
                    lhs = t[xa, b]
                    rhs = t[x, c]
                    if lhs != UNDEF and rhs != UNDEF and lhs != rhs:
                        ok = False
                        break
        # triples (x,y,b) with t[x][y] = a, and (a,x,y) with t[x][y] = b
        if ok:
            for s in range(onum[a]):
                xy = occ[a, s]
                x = xy // n
                y = xy % n
                yb = t[y, b]
                if yb != UNDEF:
                    lhs = t[x, yb]
                    if lhs != UNDEF and lhs != c:
                        ok = False
                        break
        if ok:
            for s in range(onum[b]):
                xy = occ[b, s]
                x = xy // n
                y = xy % n
                ax = t[a, x]
                if ax != UNDEF:
                    lhs = t[ax, y]
                    if lhs != UNDEF and lhs != c:
                        ok = False
                        break
        if ok and k == 0 and n > 2 and v > 2:
            ok = False  # t[1][1] <= 2 in any lex-minimal table
        if ok and b == m and a == 1 and n > 2:
            # row 1 complete: must not beat itself under a perm fixing 0,1
            for s in range(pfix1.shape[0]):
                pi = pfix1[s]
                cmp = 0
                for j in range(1, n):
                    cand = invperms[pi, t[1, perms[pi, j]]]
                    cur = t[1, j]
                    if cand < cur:
                        cmp = -1
                        break
                    elif cand > cur:
                        cmp = 1
                        break
                if cmp == -1:
                    ok = False
                    break
        if ok and b == m and a == 2 and n > 3:
            # rows 1-2 complete: prefix-minimal under perms fixing 0,1,2
            for s in range(pfix12.shape[0]):
                pi = pfix12[s]
                cmp = 0
                for i in range(1, 3):
                    if cmp != 0:
                        break
                    for j in range(1, n):
                        cand = invperms[pi, t[perms[pi, i], perms[pi, j]]]
                        cur = t[i, j]
                        if cand < cur:
                            cmp = -1
                            break
                        elif cand > cur:
                            cmp = 1
                            break
                if cmp == -1:
                    ok = False
                    break
        if not ok:
            continue
        if k == ncells - 1:
            minimal = True
            for pi in range(perms.shape[0]):
                cmp = 0
                for i in range(n):
                    if cmp != 0:
                        break
                    for j in range(n):
                        cand = invperms[pi, t[perms[pi, i], perms[pi, j]]]
                        cur = t[i, j]
                        if cand < cur:
                            cmp = -1
                            break
                        elif cand > cur:
                            cmp = 1
                            break
                if cmp == -1:
                    minimal = False
                    break
            if minimal:
                if nfound >= cap:
                    newcap = cap * 2
                    newout = np.empty((newcap, n, n), dtype=np.int8)
                    newout[:cap] = out
                    out = newout
                    cap = newcap
                out[nfound] = t.copy()
                nfound += 1
            continue
        k += 1
    return out[:nfound]


@lru_cache(maxsize=None)
def monoid_tables(order: int) -> np.ndarray:
    """All monoid multiplication tables of the given order up to isomorphism.

    Returns a read-only int8 array of shape (count, order, order).  The
    identity is element 0 and table[a][b] is the product a*b, so reading
    b as "first" and a as "second" makes the table a one-object
    composition table.  Each class is represented by its
    lexicographically least table among relabelings fixing 0.  Practical
    through order 6; the counts for orders 1..6 are 1, 2, 7, 35, 228,
    2237.
    """
    n = int(order)
    if n < 1:
        raise ValueError("order must be at least 1")
    if n == 1:
        out = np.zeros((1, 1, 1), dtype=np.int8)
        out.setflags(write=False)
        return out
    ps = [(0,) + p for p in itertools.permutations(range(1, n))]
    perms = np.array(ps, dtype=np.int8)
    invperms = np.empty_like(perms)
    for pi, p in enumerate(ps):
        for i, v in enumerate(p):
            invperms[pi, v] = i
    pfix1 = np.array([i for i, p in enumerate(ps) if p[1] == 1], dtype=np.int64)
    pfix12 = np.array(
        [i for i, p in enumerate(ps) if n > 2 and p[1] == 1 and p[2] == 2],
        dtype=np.int64,
    )
    out = _search_monoids(n, perms, invperms, pfix1, pfix12)
    out.setflags(write=False)
    return out


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
    comp[g][f] = g after f, None off the composable pairs.  The yielded
    list of lists is reused between yields; callers must copy or consume
    immediately.
    """
    n = len(dom)
    extras = range(num_objects, n)
    comp = [[None] * n for _ in range(n)]
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
    chains = [
        (f, g, h)
        for f in extras
        for g in extras
        for h in extras
        if cod[f] == dom[g] and cod[g] == dom[h]
    ]

    def consistent() -> bool:
        for f, g, h in chains:
            u = comp[g][f]
            v = comp[h][g]
            if u is None or v is None:
                continue
            left = comp[h][u]
            right = comp[v][f]
            if left is not None and right is not None and left != right:
                return False
        return True

    def walk(idx: int):
        if idx == len(cells):
            yield comp
            return
        g, f = cells[idx]
        for h in cands[idx]:
            comp[g][f] = h
            if consistent():
                yield from walk(idx + 1)
        comp[g][f] = None

    yield from walk(0)


def _canonical_key(num_objects: int, dom, cod, comp):
    """Canonical form of a typed composition table under isomorphism.

    An isomorphism may permute objects (carrying identities along) and
    permute the non-identity morphisms within each (dom, cod) slot.  The
    key is the least (slot multiset, flattened table) over all of these,
    with -1 marking non-composable pairs, so two tables get equal keys
    exactly when the categories are isomorphic.
    """
    n = len(dom)
    extras = list(range(num_objects, n))
    best = None
    for sigma in itertools.permutations(range(num_objects)):
        inv_sigma = [0] * num_objects
        for i, v in enumerate(sigma):
            inv_sigma[v] = i
        groups: dict = {}
        for e in extras:
            groups.setdefault((sigma[dom[e]], sigma[cod[e]]), []).append(e)
        slot_order = sorted(groups)
        slots = tuple(s for s in slot_order for _ in groups[s])
        for taus in itertools.product(
            *(itertools.permutations(groups[s]) for s in slot_order)
        ):
            old_of_new = inv_sigma + [e for tau in taus for e in tau]
            new_of_old = [0] * n
            for j, e in enumerate(old_of_new):
                new_of_old[e] = j
            table = []
            for a in range(n):
                row = comp[old_of_new[a]]
                for b in range(n):
                    v = row[old_of_new[b]]
                    table.append(-1 if v is None else new_of_old[v])
            key = (slots, tuple(table))
            if best is None or key < best:
                best = key
    return best


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
    """Sorted canonical keys for all classes with this shape."""
    k = num_objects
    all_slots = [(a, b) for a in range(k) for b in range(k)]
    keys = set()
    for spec in itertools.combinations_with_replacement(all_slots, num_extra):
        dom = list(range(k)) + [s[0] for s in spec]
        cod = list(range(k)) + [s[1] for s in spec]
        for comp in _typed_tables(k, dom, cod):
            keys.add(_canonical_key(k, dom, cod, comp))
    return tuple(sorted(keys))


def _from_key(num_objects: int, key) -> FinCat:
    slots, table = key
    n = num_objects + len(slots)
    dom = list(range(num_objects)) + [s[0] for s in slots]
    cod = list(range(num_objects)) + [s[1] for s in slots]
    comp = [[None] * n for _ in range(n)]
    for a in range(n):
        for b in range(n):
            v = table[a * n + b]
            if v >= 0:
                comp[a][b] = v
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
            tables = sorted(
                tuple(int(x) for x in t.reshape(-1)) for t in monoid_tables(n)
            )
            for flat in tables:
                comp = [[flat[a * n + b] for b in range(n)] for a in range(n)]
                cats.append(_build_fincat(1, [0] * n, [0] * n, comp))
    for k in range(2, max_objects + 1):
        for m in range(max_morphisms - k + 1):
            for key in _multi_object_keys(k, m):
                cats.append(_from_key(k, key))
    return tuple(cats)
