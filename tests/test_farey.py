import copy
from math import gcd

import pytest

from tests.conftest import (
    ancestor_geodesic,
    assert_frozen_value,
    bfs_distance_map,
    bfs_distance_oracle,
    random_slope,
    random_unimodular_z,
    slope_from_continued_fraction,
)
from toruscert.errors import InvalidInputError
from toruscert.farey import FareyPath, distance, geodesic, is_edge
from toruscert.matrices import lft_apply
from toruscert.slopes import INFINITY, Slope


def slope_box(bound):
    out = [INFINITY]
    for q in range(1, bound + 1):
        for p in range(-bound, bound + 1):
            if gcd(abs(p), q) == 1:
                out.append(Slope(p, q))
    return out


def test_is_edge_examples():
    assert is_edge(Slope(0, 1), Slope(1, 0))
    assert not is_edge(Slope(0, 1), Slope(2, 1))
    assert is_edge(Slope(1, 2), Slope(1, 3))


def test_distance_examples():
    assert distance(Slope(1, 2), Slope(1, 2)) == 0
    assert distance(Slope(0, 1), Slope(1, 0)) == 1
    assert distance(Slope(0, 1), Slope(2, 1)) == 2


def test_oracle_examples():
    assert bfs_distance_oracle(Slope(0, 1), Slope(1, 0), 10) == 1
    assert bfs_distance_oracle(Slope(0, 1), Slope(2, 1), 10) == 2
    # frozen regression constant: 2/5 and 3/7 are Farey neighbors
    assert bfs_distance_oracle(Slope(2, 5), Slope(3, 7), 50) == 1


def test_oracle_precondition():
    with pytest.raises(InvalidInputError):
        bfs_distance_oracle(Slope(99, 1), Slope(0, 1), 10)


def test_box_subgraph_connected():
    # Farey parents of a slope never exceed its own coordinates, so every
    # box subgraph is connected and the oracle always finds a path.
    for bound in (1, 2, 5, 9):
        reach = bfs_distance_map(INFINITY, bound)
        assert set(reach) == {(v.p, v.q) for v in slope_box(bound)}


def test_geodesic_examples():
    s = Slope(1, 2)
    assert geodesic(s, s).vertices == (s,)
    assert geodesic(Slope(0, 1), Slope(1, 0)).vertices == (Slope(0, 1), Slope(1, 0))
    assert geodesic(Slope(0, 1), Slope(2, 1)).vertices == (
        Slope(0, 1),
        Slope(1, 1),
        Slope(2, 1),
    )


def test_geodesic_validity_and_length(rng):
    for _ in range(300):
        s, t = random_slope(rng, 40), random_slope(rng, 40)
        path = geodesic(s, t)
        assert path.is_valid()
        assert path.length == distance(s, t)
        assert path.vertices[0] == s and path.vertices[-1] == t


def test_geodesic_is_lexicographically_least():
    # enumerate all geodesics inside a generous box and compare; a geodesic
    # that leaves the box is compared with the ancestor-graph oracle
    bound = 30
    box = slope_box(bound)
    box_set = {(v.p, v.q) for v in box}
    import random

    rng = random.Random(99)
    for _ in range(25):
        s, t = rng.choice(box), rng.choice(box)
        claimed = geodesic(s, t)
        assert claimed == ancestor_geodesic(s, t), (s, t)
        if any((v.p, v.q) not in box_set for v in claimed.vertices):
            continue
        d = distance(s, t)
        from_t = bfs_distance_map(t, bound)
        from_s = bfs_distance_map(s, bound)
        # greedy lex-min over all geodesics lying inside the box
        current, best = s, [s]
        for step in range(d):
            options = [
                Slope(p, q)
                for (p, q) in box_set
                if from_s.get((p, q)) == step + 1
                and from_t.get((p, q)) == d - step - 1
                and is_edge(current, Slope(p, q))
            ]
            current = min(options)
            best.append(current)
        assert list(claimed.vertices) == best


def test_geodesic_matches_ancestor_oracle_on_box():
    box = slope_box(10)
    for s in box:
        for t in box:
            assert geodesic(s, t) == ancestor_geodesic(s, t), (s, t)


def test_geodesic_matches_ancestor_oracle_on_cf_sums(rng):
    # targets [a0; a1, ..., ak] with a1 + ... + ak up to 300, from 1/0 and
    # moved by an isometry, in both directions
    for total in list(range(2, 40)) + [rng.randint(40, 300) for _ in range(30)]:
        quotients, left = [rng.randint(-3, 3)], total
        while left:
            a = rng.randint(1, min(left, rng.choice((1, 2, 3, 10, 300))))
            quotients.append(a)
            left -= a
        if len(quotients) > 2 and quotients[-1] == 1:
            quotients[-2] += 1
            quotients.pop()
        m = random_unimodular_z(rng)
        s = lft_apply(m, INFINITY)
        t = lft_apply(m, slope_from_continued_fraction(quotients))
        assert geodesic(s, t) == ancestor_geodesic(s, t), (s, t)
        assert geodesic(t, s) == ancestor_geodesic(t, s), (t, s)


def test_all_ones_geodesic_is_a_valid_path():
    # F(4002)/F(4001) = [1; 1, ..., 1, 2], 3999 partial quotients after a0
    p, q = 1, 1
    for _ in range(4000):
        p, q = p + q, p
    t = Slope(p, q)
    path = geodesic(INFINITY, t)
    assert path.is_valid()
    assert path.length == 2001 == distance(INFINITY, t)
    assert path.vertices[0] == INFINITY and path.vertices[-1] == t


def test_distance_symmetry(rng):
    for _ in range(300):
        s, t = random_slope(rng, 60), random_slope(rng, 60)
        assert distance(s, t) == distance(t, s)


def test_triangle_inequality(rng):
    for _ in range(200):
        s, t, u = (random_slope(rng, 40) for _ in range(3))
        assert distance(s, u) <= distance(s, t) + distance(t, u)


def test_isometry_invariance(rng):
    for _ in range(300):
        a = random_unimodular_z(rng)
        s, t = random_slope(rng, 40), random_slope(rng, 40)
        assert distance(s, t) == distance(lft_apply(a, s), lft_apply(a, t))


def test_oracle_agreement_small_box(rng):
    box = slope_box(10)
    for s in rng.sample(box, 20):
        dm = bfs_distance_map(s, 10)
        for t in box:
            assert dm[(t.p, t.q)] == distance(s, t)


def test_farey_path_invariants():
    good = FareyPath((Slope(0, 1), Slope(1, 1), Slope(2, 1)))
    assert good.is_valid() and good.length == 2
    assert not FareyPath((Slope(0, 1), Slope(2, 1))).is_valid()  # not an edge
    assert not FareyPath((Slope(0, 1), Slope(1, 0), Slope(0, 1))).is_valid()  # repeat


def test_farey_path_behaves_as_a_frozen_value():
    path = FareyPath([Slope(0, 1), Slope(1, 1)])  # a list is stored as a tuple
    same = FareyPath((Slope(0, 1), Slope(1, 1)))
    assert path.vertices == (Slope(0, 1), Slope(1, 1))
    assert_frozen_value(
        path, same, "FareyPath(vertices=(Slope(0, 1), Slope(1, 1)))", ("vertices",)
    )
    assert path != FareyPath((Slope(0, 1),))
    assert path != (Slope(0, 1), Slope(1, 1))
    assert len({path, same}) == 1
    assert copy.copy(path) == path
    with pytest.raises(AttributeError):
        path.other = 1
