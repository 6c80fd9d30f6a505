import gc
import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
import time
import tracemalloc
from collections import Counter
from collections.abc import MutableMapping
from pathlib import Path

import numpy as np
import pytest

from polydyn.core import FinSet
from polydyn.comonoid import (
    FinCat,
    _canonical_form,
    _canonical_labels,
    _direct_isomorphism,
    _invariants,
    cat_isomorphic,
    category_to_comonoid,
    check_category,
    check_cofunctor,
    check_comonoid_laws,
    check_comonoid_morphism,
    comonoid_to_category,
    contractible,
    discrete_comonoid,
    fincat_from_json,
    fincat_to_json,
    is_cat_isomorphism,
    lens_to_cofunctor,
)
from polydyn.catalog import (
    _multi_object_keys,
    _search,
    generate_categories,
    monoid_tables,
)

from conftest import all_lenses, direct_isomorphism_labels, random_lens


# ---------------------------------------------------------------------------
# Independent oracles.  The library searches with pruning and symmetry
# breaking; these enumerate everything and filter afterwards, so agreement
# pins the clever search to the definitions.


def _canon_monoid(table):
    """Least relabeling of a multiplication table fixing the identity."""
    n = len(table)
    best = None
    for tail in itertools.permutations(range(1, n)):
        pi = (0,) + tail
        inv = [0] * n
        for i, v in enumerate(pi):
            inv[v] = i
        flat = tuple(inv[table[pi[a]][pi[b]]] for a in range(n) for b in range(n))
        if best is None or flat < best:
            best = flat
    return best


def _naive_monoid_canon_set(n):
    """Canonical forms of all order-n monoids by unpruned enumeration.

    Every filling of the non-identity cells is generated and associativity
    is checked on the complete table, vectorized so that order 4 (4^9
    candidate tables) stays fast.
    """
    cells = [(a, b) for a in range(1, n) for b in range(1, n)]
    total = n ** len(cells)
    tables = np.zeros((total, n, n), dtype=np.int8)
    tables[:, 0, :] = np.arange(n, dtype=np.int8)
    tables[:, :, 0] = np.arange(n, dtype=np.int8)
    rem = np.arange(total, dtype=np.int64)
    for a, b in cells:
        tables[:, a, b] = (rem % n).astype(np.int8)
        rem //= n
    keep = np.ones(total, dtype=bool)
    rows = np.arange(total)
    for a in range(n):
        for b in range(n):
            for c in range(n):
                lhs = tables[rows, tables[:, a, b].astype(np.int64), c]
                rhs = tables[rows, a, tables[:, b, c].astype(np.int64)]
                keep &= lhs == rhs
    return {_canon_monoid(t.tolist()) for t in tables[keep]}


def _assoc_table(n, dom, cod, comp):
    for f in range(n):
        for g in range(n):
            if cod[f] != dom[g]:
                continue
            u = comp[(g, f)]
            for h in range(n):
                if cod[g] != dom[h]:
                    continue
                if comp[(h, u)] != comp[(comp[(h, g)], f)]:
                    return False
    return True


def _fincat_relabeled(num_objects, dom, cod, comp):
    """Build a FinCat with a label scheme unlike the catalog's, on purpose."""
    objs = FinSet(tuple(f"X{i}" for i in range(num_objects)))
    names = [f"f{j}" for j in range(len(dom))]
    mors = [(names[j], f"X{dom[j]}", f"X{cod[j]}") for j in range(len(dom))]
    ident = {f"X{i}": names[i] for i in range(num_objects)}
    table = {(names[g], names[f]): names[v] for (g, f), v in comp.items()}
    return FinCat(objs, mors, ident, table)


def _naive_categories(num_objects, total):
    """All categories with these exact counts, by ordered typings and
    unpruned tables, deduplicated with the isomorphism search."""
    m = total - num_objects
    slots = [(a, b) for a in range(num_objects) for b in range(num_objects)]
    reps = []
    for typing in itertools.product(slots, repeat=m):
        dom = list(range(num_objects)) + [s[0] for s in typing]
        cod = list(range(num_objects)) + [s[1] for s in typing]
        n = total
        free = [
            (g, f)
            for g in range(num_objects, n)
            for f in range(num_objects, n)
            if cod[f] == dom[g]
        ]
        cand = [
            [h for h in range(n) if dom[h] == dom[f] and cod[h] == cod[g]]
            for g, f in free
        ]
        if any(not c for c in cand):
            continue
        base = {}
        for f in range(n):
            base[(f, dom[f])] = f
            base[(cod[f], f)] = f
        for values in itertools.product(*cand):
            comp = dict(base)
            comp.update(zip(free, values))
            if not _assoc_table(n, dom, cod, comp):
                continue
            k = _fincat_relabeled(num_objects, dom, cod, comp)
            if not any(cat_isomorphic(k, r) for r in reps):
                reps.append(k)
    return reps


def _perm_group_category(n):
    """The symmetric group on n letters as a one-object category."""
    elems = sorted(itertools.permutations(range(n)))
    name = {p: "g" + "".join(map(str, p)) for p in elems}
    mors = [(name[p], "*", "*") for p in elems]
    ident = {"*": name[tuple(range(n))]}
    table = {
        (name[g], name[f]): name[tuple(g[f[x]] for x in range(n))]
        for g in elems
        for f in elems
    }
    return FinCat(FinSet(("*",)), mors, ident, table)


def _cyclic_category(n):
    mors = [(f"r{j}", "*", "*") for j in range(n)]
    table = {(f"r{a}", f"r{b}"): f"r{(a + b) % n}" for a in range(n) for b in range(n)}
    return FinCat(FinSet(("*",)), mors, {"*": "r0"}, table)


# ---------------------------------------------------------------------------
# The one-object stream.


def test_monoid_counts_through_order_six():
    assert [len(monoid_tables(n)) for n in range(1, 7)] == [1, 2, 7, 35, 228, 2237]


def test_monoid_tables_match_unpruned_enumeration():
    for n in range(1, 5):
        naive = _naive_monoid_canon_set(n)
        mine = {tuple(x for row in t for x in row) for t in monoid_tables(n)}
        assert mine == naive


def test_monoid_tables_are_monoids():
    for n in range(1, 7):
        for t in monoid_tables(n):
            assert all(t[0][b] == b and t[b][0] == b for b in range(n))
            assert all(
                t[t[a][b]][c] == t[a][t[b][c]]
                for a in range(n)
                for b in range(n)
                for c in range(n)
            )


def test_monoid_tables_come_in_ascending_order():
    # generate_categories relies on this for its documented order
    for n in range(1, 7):
        assert list(monoid_tables(n)) == sorted(monoid_tables(n))


def test_monoid_tables_are_nested_int_tuples():
    for n in range(1, 5):
        tables = monoid_tables(n)
        assert type(tables) is tuple
        for t in tables:
            assert type(t) is tuple and len(t) == n
            for row in t:
                assert type(row) is tuple and len(row) == n
                assert all(type(x) is int for x in row)


def test_monoid_tables_share_equal_rows():
    # the tables stay those of the typed search, element by element, and
    # the catalog built from them is unchanged
    rows = {}
    count = 0
    for n in range(1, 7):
        tables = monoid_tables(n)
        assert tables == tuple(_search(1, [0] * n, [0] * n))
        for t in tables:
            for row in t:
                assert rows.setdefault(row, row) is row
                count += 1
    assert (count, len(rows)) == (14728, 832)
    assert _catalog_digest(generate_categories(3, 6)) == (
        "c99c63b465702ee25c7c0d94c8c860fc6d96d34c1854936c1359d59099231b8a"
    )


def test_catalog_import_does_not_load_numpy():
    code = "import sys, polydyn, polydyn.catalog; print('numpy' in sys.modules)"
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=src)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    assert done.stdout.strip() == "False"


def test_monoid_tables_rejects_nonpositive_order():
    with pytest.raises(ValueError, match="order"):
        monoid_tables(0)


def test_monoid_tables_refuses_an_order_that_is_not_an_int_and_caches_nothing():
    # 2.5 used to give the order-2 tables and keep them under 2.5
    before = monoid_tables.cache_info().currsize
    for order in (2.5, 2.0, "2"):
        with pytest.raises(TypeError, match="order must be an int, not"):
            monoid_tables(order)
    assert monoid_tables.cache_info().currsize == before


def test_generate_categories_refuses_bounds_that_are_not_ints_whatever_the_cache_holds():
    # (2.0, 3) used to raise from range() on a cold cache, and to return
    # the 15 categories of (2, 3) once those were cached
    assert len(generate_categories(2, 3)) == 15
    for bounds, name in (
        ((2.0, 3), "max_objects"),
        ((2, 3.0), "max_morphisms"),
        (("2", 3), "max_objects"),
    ):
        with pytest.raises(TypeError, match=f"^{name} must be an int, not "):
            generate_categories(*bounds)


def test_typed_search_agrees_with_monoid_kernel_on_one_object():
    # the catalog keys multi-object classes by _canonical_form; on one
    # object it must tell every monoid class apart
    for n in range(1, 5):
        dom = [0] * n
        cod = [0] * n
        keys = {_canonical_form(1, dom, cod, t)[0] for t in monoid_tables(n)}
        assert len(keys) == len(monoid_tables(n))


def _least_tables_by_brute_force(num_objects, dom, cod):
    """The least flattened table of each class for this typing, found by
    filling every cell from its slot, keeping the associative tables and
    trying every relabeling of the morphisms that preserves the typing."""
    k = num_objects
    n = len(dom)
    base = [[-1] * n for _ in range(n)]
    for f in range(n):
        base[f][dom[f]] = f
        base[cod[f]][f] = f
    free = [(g, f) for g in range(k, n) for f in range(k, n) if cod[f] == dom[g]]
    cand = [[h for h in range(n) if dom[h] == dom[f] and cod[h] == cod[g]] for g, f in free]
    relabelings = []
    for perm in itertools.permutations(range(n)):
        pi = perm[:k]
        if sorted(pi) == list(range(k)) and all(
            dom[perm[i]] == pi[dom[i]] and cod[perm[i]] == pi[cod[i]] for i in range(n)
        ):
            inv = [0] * n + [-1]
            for i, v in enumerate(perm):
                inv[v] = i
            relabelings.append((perm, inv))
    triples = [
        (f, g, h)
        for f in range(n)
        for g in range(n)
        if cod[f] == dom[g]
        for h in range(n)
        if cod[g] == dom[h]
    ]
    least = set()
    for values in itertools.product(*cand):
        t = [row[:] for row in base]
        for (g, f), v in zip(free, values):
            t[g][f] = v
        if all(t[h][t[g][f]] == t[t[h][g]][f] for f, g, h in triples):
            least.add(
                min(
                    tuple(inv[t[p[a]][p[b]]] for a in range(n) for b in range(n))
                    for p, inv in relabelings
                )
            )
    return sorted(least)


def test_search_yields_the_least_table_of_each_class_for_every_typing():
    typings = 0
    for k, most in ((2, 3), (3, 2)):
        slots = [(a, b) for a in range(k) for b in range(k)]
        for m in range(most + 1):
            for typing in itertools.product(slots, repeat=m):
                dom = list(range(k)) + [s[0] for s in typing]
                cod = list(range(k)) + [s[1] for s in typing]
                mine = [tuple(x for row in t for x in row) for t in _search(k, dom, cod)]
                assert mine == _least_tables_by_brute_force(k, dom, cod), typing
                typings += 1
    assert typings == 176


def test_multi_object_search_reaches_two_objects_and_five_other_morphisms():
    assert len(_multi_object_keys(2, 5)) == 4013


# ---------------------------------------------------------------------------
# The full catalog.


def test_multi_object_streams_match_naive_enumeration():
    cats = generate_categories(4, 4)
    for num_objects in (2, 3, 4):
        for total in range(num_objects, 5):
            naive = _naive_categories(num_objects, total)
            group = [
                k
                for k in cats
                if len(k.objects.elements) == num_objects
                and len(k.morphisms) == total
            ]
            assert len(group) == len(naive)
            for r in naive:
                assert sum(1 for k in group if cat_isomorphic(r, k)) == 1


def test_catalog_census():
    cats = generate_categories(3, 6)
    census = Counter((len(k.objects.elements), len(k.morphisms)) for k in cats)
    assert census == Counter(
        {
            (0, 0): 1,
            (1, 1): 1,
            (1, 2): 2,
            (1, 3): 7,
            (1, 4): 35,
            (1, 5): 228,
            (1, 6): 2237,
            (2, 2): 1,
            (2, 3): 3,
            (2, 4): 16,
            (2, 5): 77,
            (2, 6): 485,
            (3, 3): 1,
            (3, 4): 3,
            (3, 5): 20,
            (3, 6): 111,
        }
    )
    assert len(cats) == 3228


def test_catalog_by_morphism_count_with_object_bound_lifted():
    # with the object bound at the morphism bound nothing is excluded, so
    # grouping by morphism count gives the enumeration of all finite
    # categories with up to six morphisms
    cats = generate_categories(6, 6)
    by_mor = Counter(len(k.morphisms) for k in cats)
    assert [by_mor[n] for n in range(7)] == [1, 1, 3, 11, 55, 329, 2858]


def test_every_catalog_category_passes_check_category():
    for k in generate_categories(3, 6):
        assert check_category(k)["ok"]


def test_catalog_has_no_isomorphic_duplicates_at_small_sizes():
    # one-object entries are distinct lex-minimal canonical forms (checked
    # against the unpruned enumeration above), so the quadratic sweep here
    # covers every multi-object group and the monoids up to order five
    groups = {}
    for k in generate_categories(3, 6):
        num_objects = len(k.objects.elements)
        total = len(k.morphisms)
        if num_objects >= 2 or total <= 5:
            groups.setdefault((num_objects, total), []).append(k)
    for group in groups.values():
        for a, b in itertools.combinations(group, 2):
            assert not cat_isomorphic(a, b)


def _brute_force_isomorphic(k1, k2):
    """Try every object bijection with every morphism bijection."""
    objs1, objs2 = k1.objects.elements, k2.objects.elements
    mors1, mors2 = k1.morphism_labels(), k2.morphism_labels()
    if len(objs1) != len(objs2) or len(mors1) != len(mors2):
        return False
    for obj_image in itertools.permutations(objs2):
        obj_map = dict(zip(objs1, obj_image))
        for mor_image in itertools.permutations(mors2):
            if is_cat_isomorphism(k1, k2, obj_map, dict(zip(mors1, mor_image))):
                return True
    return False


def _shuffled(k, rng):
    """k with fresh labels and its objects and morphisms in a random order."""
    objs = list(k.objects.elements)
    mors = list(k.morphisms)
    rng.shuffle(objs)
    rng.shuffle(mors)
    obj_name = {o: f"X{j}" for j, o in enumerate(objs)}
    mor_name = {m: f"f{j}" for j, (m, _, _) in enumerate(mors)}
    return FinCat(
        FinSet(tuple(obj_name[o] for o in objs)),
        [(mor_name[m], obj_name[d], obj_name[c]) for m, d, c in mors],
        {obj_name[o]: mor_name[m] for o, m in k.identity.items()},
        {(mor_name[g], mor_name[f]): mor_name[h] for (g, f), h in k._compose.items()},
    )


def test_fincat_out_keeps_morphism_order():
    rng = random.Random(1894)
    for k in generate_categories(3, 4):
        for cat in (k, _shuffled(k, rng)):
            assert list(cat.out) == list(cat.objects.elements)
            for o in cat.objects.elements:
                assert cat.out[o] == tuple(m for m, d, _ in cat.morphisms if d == o)


def test_cat_isomorphic_agrees_with_brute_force_search():
    rng = random.Random(20051894)
    groups = {}
    for k in generate_categories(3, 4):
        groups.setdefault((len(k.objects.elements), len(k.morphisms)), []).append(k)
    positives = 0
    for group in groups.values():
        shuffled = [_shuffled(k, rng) for k in group]
        for a, b in itertools.product(group, shuffled):
            want = _brute_force_isomorphic(a, b)
            assert cat_isomorphic(a, b) == want
            positives += want
        for a, b in itertools.combinations(group, 2):
            assert not cat_isomorphic(a, b)
            assert not _brute_force_isomorphic(a, b)
    # every category matches its own shuffle and nothing else
    assert positives == sum(len(group) for group in groups.values())


def test_canonical_form_ignores_labels_and_order_and_its_labellings_are_isomorphisms():
    rng = random.Random(1005)
    for k in generate_categories(3, 6):
        k2 = _shuffled(k, rng)
        key1, objs1, mors1 = _canonical_labels(k)
        key2, objs2, mors2 = _canonical_labels(k2)
        assert key1 == key2
        assert is_cat_isomorphism(k, k2, dict(zip(objs1, objs2)), dict(zip(mors1, mors2)))


def test_cat_isomorphic_is_fast_on_categories_with_many_automorphisms():
    # each has 9! automorphisms, all giving the least table; the search
    # must prune by the automorphisms it finds instead of visiting them all
    rng = random.Random(362880)
    states = FinSet(tuple(f"s{i}" for i in range(9)))
    for c in (contractible(states), discrete_comonoid(states)):
        k = comonoid_to_category(c)
        start = time.perf_counter()
        assert cat_isomorphic(k, _shuffled(k, rng))
        assert time.perf_counter() - start < 2.0


def test_direct_search_places_more_morphisms_than_the_recursion_limit():
    # 33·32 = 1056 non-identity morphisms, one per position of the search;
    # the canonical forms would take minutes here
    rng = random.Random(33)
    k = comonoid_to_category(contractible(FinSet(tuple(f"s{i}" for i in range(33)))))
    assert len(k.morphisms) - 33 > sys.getrecursionlimit()
    start = time.perf_counter()
    assert cat_isomorphic(k, _shuffled(k, rng))
    assert time.perf_counter() - start < 5.0


def _colours(k):
    """The sorted colours of k's non-identity morphisms, as the canonical
    search sees them: whether it is a loop, the index and period of its
    powers, and how many composable pairs compose to it."""
    identities = set(k.identity.values())
    hits = Counter(k._compose.values())
    colours = []
    for m, d, c in k.morphisms:
        if m in identities:
            continue
        powers = [m]
        while d == c and k.compose2(m, powers[-1]) not in powers:
            powers.append(k.compose2(m, powers[-1]))
        index = powers.index(k.compose2(m, powers[-1])) if d == c else 0
        colours.append((d == c, index, len(powers) - index if d == c else 0, hits[m]))
    return sorted(colours)


def test_isomorphism_search_is_exhaustive():
    rng = random.Random(2005)
    cats = generate_categories(3, 6)
    # every category is found again under fresh labels and a random order
    assert all(cat_isomorphic(k, _shuffled(k, rng)) for k in cats)
    groups = {}
    for k in cats:
        groups.setdefault((len(k.objects), len(k.morphisms)), []).append(k)
    pairs = []
    for group in groups.values():
        if len(group) < 2:
            continue
        for _ in range(20):
            pairs.append(tuple(rng.sample(group, 2)))
        same = {}
        for k in group:
            same.setdefault(tuple(_colours(k)), []).append(k)
        alike = [ks for ks in same.values() if len(ks) >= 2]
        for _ in range(20 if alike else 0):
            pairs.append(tuple(rng.sample(rng.choice(alike), 2)))
    assert sum(_colours(a) == _colours(b) for a, b in pairs) >= 150
    brute_forced = 0
    for a, b in pairs:
        # the catalog lists each class once; a shuffled copy carries no
        # canonical key, so each call searches for one
        assert not cat_isomorphic(a, _shuffled(b, rng))
        assert not cat_isomorphic(_shuffled(a, rng), b)
        if len(a.morphisms) <= 5:
            assert not _brute_force_isomorphic(a, b)
            brute_forced += 1
    assert brute_forced >= 150


def test_failed_search_on_a_symmetric_category_is_fast():
    # n objects, each with one loop: an involution on one side, an
    # idempotent on the other.  Every object order has the same slots, so
    # only the automorphisms found keep each search from trying n! orders
    n = 9
    objects = FinSet(tuple(f"x{i}" for i in range(n)))

    def loops(square):
        morphisms, identity, compose = [], {}, {}
        for i in range(n):
            x, e, a = f"x{i}", f"e{i}", f"a{i}"
            morphisms += [(e, x, x), (a, x, x)]
            identity[x] = e
            compose.update({(e, e): e, (e, a): a, (a, e): a, (a, a): square(e, a)})
        return FinCat(objects, morphisms, identity, compose)

    involutions = loops(lambda e, a: e)
    idempotents = loops(lambda e, a: a)
    start = time.perf_counter()
    assert not cat_isomorphic(involutions, idempotents)
    assert not cat_isomorphic(idempotents, involutions)
    assert cat_isomorphic(involutions, _shuffled(involutions, random.Random(9)))
    assert time.perf_counter() - start < 1.0


def _loop_category(n, involutions):
    """n objects x0..x(n-1), each with one loop a_i besides its identity
    e_i; a_i squares to e_i when i is in involutions, to itself otherwise."""
    morphisms, identity, compose = [], {}, {}
    for i in range(n):
        x, e, a = f"x{i}", f"e{i}", f"a{i}"
        morphisms += [(e, x, x), (a, x, x)]
        identity[x] = e
        compose.update({(e, e): e, (e, a): a, (a, e): a, (a, a): e if i in involutions else a})
    return FinCat(FinSet(tuple(f"x{i}" for i in range(n))), morphisms, identity, compose)


def test_direct_search_gives_up_fast_on_one_involution_among_idempotents():
    # the involution's loop comes last in `one`, so a direct search from
    # `one` as built places its eight idempotents in 9!/1 ways before it
    # meets it, and one from the all-idempotent side has nowhere to put
    # its ninth loop; only the search's bound keeps either from trying
    # them all
    n = 9
    rng = random.Random(19)
    one = _loop_category(n, {n - 1})
    idempotents = _loop_category(n, set())
    for a, b in ((one, idempotents), (idempotents, one)):
        for pair in ((a, _shuffled(b, rng)), (_shuffled(a, rng), b)):
            start = time.perf_counter()
            assert not cat_isomorphic(*pair)
            assert time.perf_counter() - start < 1.0


def test_a_match_the_bounded_search_gives_up_on_is_found_by_canonical_keys():
    # nine idempotent loops and one arrow x8 -> x7: the loops are placed
    # first, and only the arrow tells the objects apart, so under this
    # shuffle a direct search tries about 2·10⁵ candidates before the
    # arrow fits; the bound stops it, and the kept canonical keys decide
    loops = _loop_category(9, set())
    k = FinCat(
        loops.objects,
        [*loops.morphisms, ("u", "x8", "x7")],
        loops.identity,
        {**loops._compose, ("u", "e8"): "u", ("u", "a8"): "u", ("e7", "u"): "u", ("a7", "u"): "u"},
    )
    k2 = _shuffled(k, random.Random(1))
    start = time.perf_counter()
    assert cat_isomorphic(k, k2)
    assert time.perf_counter() - start < 1.0
    assert k._canonical is not None and k2._canonical is not None


def test_cat_isomorphic_agrees_with_canonical_keys_cold_and_warm():
    # each category against a shuffled copy, the copy's comonoid round trip
    # and shuffled copies of the next category of its size, in both argument
    # orders: first while the copies carry no key, then again once every
    # side carries one
    rng = random.Random(1919)
    cats = generate_categories(3, 6)
    positives = negatives = 0
    for k, after in zip(cats, [*cats[1:], None]):
        before = k._canonical
        a = _shuffled(k, rng)
        b = comonoid_to_category(category_to_comonoid(a))
        pairs = [(a, b), (b, a), (k, a), (a, k), (k, b), (b, k)]
        cold = [cat_isomorphic(x, y) for x, y in pairs]
        # a match found directly keeps nothing on either side
        assert k._canonical is before and a._canonical is b._canonical is None
        size = (len(k.objects), len(k.morphisms))
        if after is not None and (len(after.objects), len(after.morphisms)) == size:
            pairs += [(a, _shuffled(after, rng)), (_shuffled(after, rng), b)]
            cold += [cat_isomorphic(x, y) for x, y in pairs[6:]]
        want = [_canonical_labels(x)[0] == _canonical_labels(y)[0] for x, y in pairs]
        warm = [cat_isomorphic(x, y) for x, y in pairs]
        assert cold == want == warm
        positives += sum(want)
        negatives += len(want) - sum(want)
    assert positives == 6 * len(cats)
    assert negatives == 2 * (len(cats) - len({(len(k.objects), len(k.morphisms)) for k in cats}))


def test_every_map_the_direct_search_returns_is_an_isomorphism():
    # each category against a shuffled copy, found directly at these sizes;
    # a seeded quarter also against the copy's comonoid round trip and
    # against a shuffled copy of the next category of its size, which it
    # is not isomorphic to
    rng = random.Random(2121)
    cats = generate_categories(3, 6)
    found = missed = 0
    for k, after in zip(cats, [*cats[1:], None]):
        a = _shuffled(k, rng)
        pairs = [(k, a)]
        if rng.random() < 0.25:
            pairs.append((comonoid_to_category(category_to_comonoid(a)), k))
            if after is not None and len(after.morphisms) == len(k.morphisms):
                missed += _direct_isomorphism(k, _shuffled(after, rng)) is None
        for x, y in pairs:
            got = direct_isomorphism_labels(x, y)
            assert got is not None and is_cat_isomorphism(x, y, *got)
            found += 1
    assert found > 1.2 * len(cats) and missed > 700


def _identity_composite_changes(k):
    """Every (key, h): a pair whose composite has an identity factor or is
    an identity, and another morphism h of the composite's type."""
    identities = set(k.identity.values())
    changes = []
    for (g, f), gf in sorted(k._compose.items()):
        if identities.isdisjoint((g, f, gf)):
            continue
        for h, d, c in k.morphisms:
            if h != gf and (d, c) == (k.dom_of[f], k.cod_of[g]):
                changes.append(((g, f), h))
    return changes


def test_pairs_differing_in_one_identity_composite_agree_with_brute_force():
    # FinCat checks typing only, so it takes (e, a) ↦ e or (e, e) ↦ a; a
    # direct search that skipped the entries with an identity in them would
    # match such a category with the lawful one it came from
    rng = random.Random(1192)
    verdicts = Counter()
    kinds = set()
    cats = [k for k in generate_categories(3, 5) if _identity_composite_changes(k)]
    for k in rng.sample(cats, 120):
        changes = _identity_composite_changes(k)
        (key, h), (key2, h2) = rng.choice(changes), rng.choice(changes)
        kinds.add(key[0] == key[1] in k.identity.values())
        bad = FinCat(k.objects, k.morphisms, k.identity, {**k._compose, key: h})
        bad2 = FinCat(k.objects, k.morphisms, k.identity, {**k._compose, key2: h2})
        for x, y in ((k, _shuffled(bad, rng)), (bad, _shuffled(bad, rng)), (bad, _shuffled(bad2, rng))):
            want = _brute_force_isomorphic(x, y)
            assert cat_isomorphic(x, y) == want
            verdicts[want] += 1
    assert kinds == {False, True}  # some changes hit (e, e)
    assert verdicts[True] > 120 and verdicts[False] > 120


def _abelian_group(orders):
    """The product of the cyclic groups of the given orders as a one-object
    category."""
    elems = list(itertools.product(*(range(n) for n in orders)))
    name = {x: "g" + "_".join(map(str, x)) for x in elems}
    table = {
        (name[a], name[b]): name[tuple((u + v) % n for u, v, n in zip(a, b, orders))]
        for a in elems
        for b in elems
    }
    return FinCat(FinSet(("*",)), [(name[x], "*", "*") for x in elems], {"*": name[elems[0]]}, table)


@pytest.mark.parametrize("orders1, orders2", [((16,), (2, 8)), ((16,), (4, 4)), ((32,), (2, 16))])
def test_groups_with_different_element_orders_are_told_apart_without_least_keys(orders1, orders2):
    # the least keys of these took from 20 s to more than 9 min
    a, b = _abelian_group(orders1), _abelian_group(orders2)
    start = time.perf_counter()
    assert not cat_isomorphic(a, b)
    assert not cat_isomorphic(_shuffled(b, random.Random(32)), a)
    assert time.perf_counter() - start < 0.1
    assert a._canonical is None and b._canonical is None
    assert _invariants(a) != _invariants(b)


def _semidirect_z4_z4():
    """Z4 ⋊ Z4, the generator of the second factor inverting the first."""
    elems = [(x, y) for x in range(4) for y in range(4)]
    name = {(x, y): f"h{x}_{y}" for x, y in elems}

    def mul(a, b):
        return ((a[0] + (b[0] if a[1] % 2 == 0 else -b[0])) % 4, (a[1] + b[1]) % 4)

    table = {(name[a], name[b]): name[mul(a, b)] for a in elems for b in elems}
    return FinCat(FinSet(("*",)), [(name[e], "*", "*") for e in elems], {"*": name[(0, 0)]}, table)


def test_groups_with_equal_invariants_are_left_to_the_least_keys():
    # Z4×Z4 and Z4⋊Z4 have the same element orders, so their invariants
    # agree and only a finer test could tell them apart without the keys
    a, b = _abelian_group((4, 4)), _semidirect_z4_z4()
    assert check_category(b)["ok"]
    assert _invariants(a) == _invariants(b)
    assert _direct_isomorphism(a, b) is None


def _hit_multiset(k):
    """The sorted numbers of composable pairs composing to each
    non-identity morphism of k."""
    hits = Counter(k._compose.values())
    identities = set(k.identity.values())
    return sorted(hits[m] for m, _, _ in k.morphisms if m not in identities)


def test_direct_search_finds_every_catalog_category_in_its_copies():
    # each category against a shuffled copy, the copy against its comonoid
    # round trip and that against the category: pairing candidates by hit
    # count loses none of these matches, and each map is an isomorphism
    rng = random.Random(2525)
    found = 0
    for k in generate_categories(3, 6):
        a = _shuffled(k, rng)
        b = comonoid_to_category(category_to_comonoid(a))
        for x, y in ((k, a), (a, b), (b, k)):
            got = direct_isomorphism_labels(x, y)
            assert got is not None and is_cat_isomorphism(x, y, *got)
            found += 1
    assert found == 3 * 3228


def test_direct_search_finds_nothing_between_classes_with_equal_hit_counts():
    # distinct catalog categories are not isomorphic; these pairs have the
    # same size and the same hit counts, so the pairing alone rules out
    # none of their maps
    rng = random.Random(2626)
    groups = {}
    for k in generate_categories(3, 6):
        key = (len(k.objects), len(k.morphisms), tuple(_hit_multiset(k)))
        groups.setdefault(key, []).append(k)
    pairs = [p for g in groups.values() for p in itertools.combinations(g, 2)]
    assert len(pairs) > 10000
    for x, y in rng.sample(pairs, 400):
        assert _direct_isomorphism(x, _shuffled(y, rng)) is None
        assert _direct_isomorphism(_shuffled(y, rng), x) is None
    a, b = _abelian_group((4, 4)), _semidirect_z4_z4()
    assert _hit_multiset(a) == _hit_multiset(b)
    assert _direct_isomorphism(_shuffled(a, rng), b) is None
    assert _direct_isomorphism(b, _shuffled(a, rng)) is None


def _fan(images):
    """Objects x, y, z and seven parallel arrows x -> z named by images,
    images[0] being b∘a for a: x -> y and b: y -> z; the arrows come
    first, in label order."""
    ident = {"x": "ex", "y": "ey", "z": "ez"}
    mors = [(e, o, o) for o, e in ident.items()]
    mors += [(images[i], "x", "z") for i in range(7)] + [("a", "x", "y"), ("b", "y", "z")]
    comp = {(ident[c], m): m for m, _, c in mors}
    comp.update({(m, ident[d]): m for m, d, _ in mors})
    comp["b", "a"] = images[0]
    return FinCat(FinSet(tuple(ident)), sorted(mors, key=lambda t: (t[0] not in images, t)), ident, comp)


def test_hit_counts_keep_the_bound_from_stopping_a_fan_search():
    # the parallel arrows are placed first and only b∘a tells p0 from the
    # rest; offered every arrow, p0 takes the six others first, each with
    # every order of the remaining six, and the 10·n² bound stops the
    # search; offered only the arrow with its hit count, it is placed at
    # once
    k = _fan([f"p{i}" for i in range(7)])
    k2 = _fan([f"q{6 - i}" for i in range(7)])  # p0's image, q6, comes last
    got = direct_isomorphism_labels(k, k2)
    assert got is not None and is_cat_isomorphism(k, k2, *got)
    assert got[1]["p0"] == "q6"
    assert cat_isomorphic(k, k2)
    assert k._canonical is None and k2._canonical is None


def test_catalog_does_not_depend_on_the_hash_seed():
    code = (
        "import hashlib, json\n"
        "from polydyn.catalog import generate_categories\n"
        "from polydyn.comonoid import fincat_to_json\n"
        "cats = generate_categories(3, 5)\n"
        "data = json.dumps([fincat_to_json(k) for k in cats]).encode()\n"
        "print(len(cats), hashlib.sha256(data).hexdigest())\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    digests = []
    for seed in ("1", "2", "3"):
        env = dict(os.environ, PYTHONPATH=src, PYTHONHASHSEED=seed)
        done = subprocess.run(
            [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
        )
        digests.append(done.stdout.split())
    assert digests[0][0] == "395"
    assert digests[0] == digests[1] == digests[2]


def test_catalog_labels_match_their_digest():
    cats = generate_categories(3, 6)
    data = json.dumps([fincat_to_json(k) for k in cats]).encode()
    assert len(cats) == 3228
    assert (
        hashlib.sha256(data).hexdigest()
        == "c99c63b465702ee25c7c0d94c8c860fc6d96d34c1854936c1359d59099231b8a"
    )


def test_catalog_is_deterministic():
    before = generate_categories(2, 4)
    generate_categories.cache_clear()
    after = generate_categories(2, 4)
    assert before == after


def _catalog_digest(cats):
    data = json.dumps([fincat_to_json(k) for k in cats]).encode()
    return hashlib.sha256(data).hexdigest()


def test_catalog_categories_share_their_immutable_parts():
    cats = generate_categories(3, 6)
    objects = {}
    for k in cats:
        objects.setdefault(len(k.objects), set()).add(id(k.objects))
    assert sorted(objects) == [0, 1, 2, 3]
    assert all(len(ids) == 1 for ids in objects.values())
    keys = [gf for k in cats for gf in k._compose]
    assert len({id(gf) for gf in keys}) <= len(set(keys))
    triples = [t for k in cats for t in k.morphisms]
    assert len({id(t) for t in triples}) <= len(set(triples))
    # no category holds a table a caller could write to, so none is
    # shared: each read is a new read-only view of that category's core
    for name in ("dom_of", "cod_of", "out", "identity", "_compose"):
        for k in cats:
            table = getattr(k, name)
            assert getattr(k, name) is not table and not isinstance(table, MutableMapping)
    generate_categories.cache_clear()
    again = generate_categories(3, 6)
    assert again is not cats
    assert _catalog_digest(again) == _catalog_digest(cats)


def _with_fresh_strings(k):
    """An equal FinCat built from new label strings, not the catalog's."""
    return fincat_from_json(json.loads(json.dumps(fincat_to_json(k))))


def test_multi_object_categories_carry_their_canonical_labelling():
    keys = {id(key) for n in (2, 3) for m in range(7 - n) for key in _multi_object_keys(n, m)}
    carried = 0
    for k in generate_categories(3, 6):
        if len(k.objects) < 2:
            continue
        key, objs, mors = k._canonical
        assert id(key) in keys
        assert type(objs) is tuple and type(mors) is tuple
        fresh = _with_fresh_strings(k)
        assert fresh == k
        assert _canonical_labels(fresh) == (key, objs, mors)
        carried += 1
    assert carried == 717


def test_catalog_keeps_under_2500_bytes_per_category():
    # the search caches are warmed first, so only the categories are counted
    for n in range(1, 6):
        monoid_tables(n)
    for n in (2, 3):
        for m in range(6 - n):
            _multi_object_keys(n, m)
    generate_categories.cache_clear()
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        cats = generate_categories(3, 5)
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert len(cats) == 395
    assert kept / len(cats) < 2500


def test_reading_the_label_tables_keeps_nothing():
    # each category used to keep its dom_of, cod_of and identity dicts and
    # its whole composition table once they were read: about 5 MB over
    # the catalog
    generate_categories.cache_clear()
    cats = generate_categories(3, 6)
    gc.collect()
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        for k in cats:
            for table in (k.dom_of, k.cod_of, k.identity):
                assert len(list(table.items())) == len(table)
            if k.objects:
                one = k.identity[k.objects.elements[0]]
                assert k.compose2(one, one) == one
        del k, table
        gc.collect()
        kept = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert kept < 256 * 1024


def test_generate_categories_rejects_negative_bounds():
    with pytest.raises(ValueError, match="non-negative"):
        generate_categories(-1, 4)


def test_catalog_contains_familiar_categories():
    groups = {}
    for k in generate_categories(3, 6):
        key = (len(k.objects.elements), len(k.morphisms))
        groups.setdefault(key, []).append(k)

    empty = groups[(0, 0)]
    assert len(empty) == 1 and empty[0].objects.elements == ()

    z3 = _cyclic_category(3)
    assert sum(1 for k in groups[(1, 3)] if cat_isomorphic(z3, k)) == 1

    s3 = _perm_group_category(3)
    assert sum(1 for k in groups[(1, 6)] if cat_isomorphic(s3, k)) == 1

    arrow = FinCat(
        FinSet(("A", "B")),
        [("iA", "A", "A"), ("iB", "B", "B"), ("u", "A", "B")],
        {"A": "iA", "B": "iB"},
        {
            ("iA", "iA"): "iA",
            ("iB", "iB"): "iB",
            ("u", "iA"): "u",
            ("iB", "u"): "u",
        },
    )
    assert sum(1 for k in groups[(2, 3)] if cat_isomorphic(arrow, k)) == 1

    walking_iso = comonoid_to_category(contractible(FinSet(("a", "b"))))
    assert sum(1 for k in groups[(2, 4)] if cat_isomorphic(walking_iso, k)) == 1

    discrete3 = FinCat(
        FinSet(("A", "B", "C")),
        [("iA", "A", "A"), ("iB", "B", "B"), ("iC", "C", "C")],
        {"A": "iA", "B": "iB", "C": "iC"},
        {("iA", "iA"): "iA", ("iB", "iB"): "iB", ("iC", "iC"): "iC"},
    )
    assert len(groups[(3, 3)]) == 1
    assert cat_isomorphic(discrete3, groups[(3, 3)][0])


# ---------------------------------------------------------------------------
# The catalog as a test bed for the comonoid side.


def test_catalog_round_trips_through_comonoids():
    for k in generate_categories(3, 6):
        c = category_to_comonoid(k)
        assert check_comonoid_laws(c)["ok"]
        assert cat_isomorphic(k, comonoid_to_category(c))


def test_morphism_squares_match_cofunctor_laws_across_small_catalog():
    small = generate_categories(2, 3)
    seen_good = 0
    seen_bad = 0
    for ks in small:
        c = category_to_comonoid(ks)
        for kt in small:
            d = category_to_comonoid(kt)
            for phi in all_lenses(c.carrier, d.carrier):
                squares_ok = check_comonoid_morphism(phi, c, d)["ok"]
                laws_ok = check_cofunctor(lens_to_cofunctor(phi, ks, kt))["ok"]
                assert squares_ok == laws_ok
                if squares_ok:
                    seen_good += 1
                else:
                    seen_bad += 1
    assert seen_good > 0 and seen_bad > 0


def test_morphism_squares_match_cofunctor_laws_on_sampled_lenses_up_to_four_morphisms():
    # two seeded lenses per ordered pair of generate_categories(2, 4), where
    # enumerating every lens would take up to 256 per pair
    rng = random.Random(4)
    cats = [(k, category_to_comonoid(k)) for k in generate_categories(2, 4)]
    seen = Counter()
    for ks, c in cats:
        for kt, d in cats:
            for _ in range(2):
                phi = random_lens(rng, c.carrier, d.carrier)
                if phi is None:  # into the empty category
                    continue
                squares_ok = check_comonoid_morphism(phi, c, d)["ok"]
                assert squares_ok == check_cofunctor(lens_to_cofunctor(phi, ks, kt))["ok"]
                seen[squares_ok] += 1
    assert seen[True] > 500 and seen[False] > 500
