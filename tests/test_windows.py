"""The built-in windows against tuple-product oracles.

A window computes its group product on index arrays.  The oracles here are
the label products the windows were once built from: reduced-word
concatenation for free groups and coordinate sums for Z(d)^m.  Each grows
its ball by breadth-first search and sorts it by (length, repr).
"""

import time

import numpy as np
import pytest

from qgwb import cli
from qgwb.errors import WindowTruncation
from qgwb.windows import GroupDualWindow, build_window

WINDOWS = ([("free(1)", 6), ("free(2)", 4), ("free(2)", 6), ("free(2)", 8), ("free(3)", 4)]
           + [("Z(1)", r) for r in (1, 2, 4, 6, 8, 10, 12, 14, 16, 20, 40)]
           + [("Z(1)^2", 6), ("Z(3)^2", 4), ("cyclic(5)", 2), ("cyclic(6)", 3), ("Z(2)", 3)])
# two-digit letters; coordinate rows of 6 to 70 entries
EXTRA_WINDOWS = [("free(11)", 2), ("Z(1)^6", 3), ("Z(1)^41", 1), ("Z(2)^70", 1)]


def free_product(a, b):
    """The reduced word of a b, for reduced words a and b."""
    out = list(a)
    for letter in b:
        if out and out[-1] == -letter:
            out.pop()
        else:
            out.append(letter)
    return tuple(out)


def oracle(spec):
    """(identity, generators, product, length, inverse) on labels."""
    kind, _, args = spec.partition("(")
    if kind == "free":
        k = int(args[:-1])
        letters = [*range(1, k + 1), *range(-1, -k - 1, -1)]
        return ((), [(x,) for x in letters], free_product, len,
                lambda w: tuple(-x for x in reversed(w)))
    inner, _, power = args.partition(")^")
    d, m = int(inner.rstrip(")")), int(power or 1)   # cyclic(N) is Z(N)

    def norm(t):
        return tuple(x % d for x in t) if d >= 2 else t

    def length(t):
        return sum(min(x % d, -x % d) if d >= 2 else abs(x) for x in t)

    gens = [tuple(s if j == i else 0 for j in range(m)) for i in range(m) for s in (1, -1)]
    return ((0,) * m, gens, lambda a, b: norm(tuple(p + q for p, q in zip(a, b))), length,
            lambda t: norm(tuple(-x for x in t)))


def oracle_ball(spec, radius):
    identity, gens, product, length, inverse = oracle(spec)
    elements, seen, start = [identity], {identity}, 0
    for _ in range(radius):
        frontier, start = elements[start:], len(elements)
        for w in frontier:
            for g in gens:
                t = product(w, g)
                if t not in seen and length(t) == length(w) + 1:
                    seen.add(t)
                    elements.append(t)
    return sorted(elements, key=lambda t: (length(t), repr(t))), product, length, inverse


@pytest.mark.parametrize("spec,radius", WINDOWS + EXTRA_WINDOWS)
def test_array_product_matches_tuple_product(spec, radius):
    w = build_window(spec, radius)
    elements, product, length, inverse = oracle_ball(spec, radius)
    assert w.elements == elements
    assert w.lengths.tolist() == [length(g) for g in elements]
    assert w.inv_index.tolist() == [w.index[inverse(g)] for g in elements]
    # every pair, |g| + |h| > r included; free(2) r=8 (13,121 elements)
    # against every 97th element, long words among them
    cols = np.arange(0, w.d, 97 if w.d > 5000 else 1)
    expected = [[w.index.get(product(g, elements[j]), -1) for j in cols.tolist()]
                for g in elements]
    assert np.array_equal(w.products(np.arange(w.d)[:, None], cols), expected)


# the windows of the benchmark's small-mix workload, and many-coordinate
# Z^m windows, whose elements are each found by one coordinate-row key
INDEXED_WINDOWS = [("free(1)", 6), ("free(2)", 4), ("free(2)", 6), ("free(3)", 4),
                   ("Z(1)", 20), ("Z(1)", 40), ("Z(1)^2", 6), ("Z(1)^27", 1), ("Z(1)^200", 1)]


@pytest.mark.parametrize("spec,radius", INDEXED_WINDOWS)
def test_index_tables_match_the_oracle(spec, radius):
    w = build_window(spec, radius)
    elements, product, length, inverse = oracle_ball(spec, radius)
    index = {g: i for i, g in enumerate(elements)}
    assert w.lengths.tolist() == [length(g) for g in elements]
    assert w.inv_index.tolist() == [index[inverse(g)] for g in elements]
    for s in range(1, radius + 1):
        prefix = [g for g in elements if length(g) <= s]
        quotients = ((product(inverse(g), h) for h in prefix) for g in prefix)
        if s <= radius // 2:
            assert w.diff_index(s).tolist() == [[index[q] for q in row] for row in quotients]
        else:
            # in these infinite groups some g^-1 h leaves the ball once 2s > r
            assert any(length(q) > radius for row in quotients for q in row)
            with pytest.raises(WindowTruncation):
                w.diff_index(s)


def test_many_coordinate_window_builds_fast():
    start = time.perf_counter()
    w = build_window("Z(1)^1448", 1)
    assert time.perf_counter() - start < 2.0
    assert w.d == 2 * 1448 + 1


def test_window_labels_and_index_are_lazy():
    w = build_window("free(2)", 10)
    assert w.d == 118097 and "elements" not in vars(w) and "index" not in vars(w)
    assert w.elements[-1] == (2,) * 10 and w.index[(-1, -1)] == 5


@pytest.mark.parametrize("spec,radius", [("free(2)", 10), ("Z(1)^2", 40)])
def test_large_windows_build_and_check(spec, radius):
    # the radius law alone forms 1.6M (free) and 1.8M (Z^2) products
    w = build_window(spec, radius)
    every = np.arange(w.d)
    assert not w.products(w.inv_index, every).any() and not w.products(every, w.inv_index).any()


def test_window_pipeline_makes_no_label_products(tmp_path, monkeypatch):
    def refuse(*args):
        raise AssertionError("label mul called")
    monkeypatch.setattr(GroupDualWindow, "mul", refuse)
    for spec, radius in WINDOWS:
        build_window(spec, radius)
    for preset in ("free(2) r=6", "Z(1) r=8", "Z(1)^2 r=6"):
        for experiment in ("axioms", "semigroup", "v_matrices", "lemma74"):
            code, _ = cli.run_scenario({"name": "x", "preset": preset,
                                        "experiment": experiment}, out_dir=str(tmp_path))
            assert code == 0, (preset, experiment)
    code, _ = cli.run_scenario({"name": "x", "experiment": "theorem69"},
                               out_dir=str(tmp_path))
    assert code == 0
