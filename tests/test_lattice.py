import copy
import dataclasses
import itertools
import math
import os
import pickle
import subprocess
import sys
from collections import defaultdict, deque

import numpy as np
import pytest

from qpnls import lattice
from qpnls.lattice import (EmptyRegionError, EmptySectionError, Region,
                           enumerate_elementary_regions, frozen_mode_sites,
                           index_region, region_section, sup_norm)


def site_set(region):
    return frozenset(region.sites())


def section_site_set(region, b, k):
    """Brute-force section {n : (k, n) in region}, the oracle for
    region_section."""
    return frozenset(y[b:] for y in region.sites() if y[:b] == tuple(k))


def member(reg, y):
    """Membership written out: inside the box and not in the removed
    corner, where every active sign relation holds."""
    if not all(l <= c <= h for c, l, h in zip(y, reg.lo, reg.hi)):
        return False
    if reg.sign_cuts is None or not any(reg.sign_cuts):
        return True
    return not all((c - o < 0) if s == "<" else (c - o > 0)
                   for c, o, s in zip(y, reg.cut_origin, reg.sign_cuts)
                   if s)


def hand_site_set(reg):
    box = itertools.product(*[range(l, h + 1)
                              for l, h in zip(reg.lo, reg.hi)])
    return frozenset(y for y in box if member(reg, y))


def brute_force_shape_count(r, N):
    """Distinct site sets from all sign patterns with >= 2 active cuts,
    plus the full cube."""
    cube = Region.cube(r, N)
    seen = {site_set(cube)}
    for pattern in itertools.product(("<", ">", None), repeat=r):
        if sum(1 for s in pattern if s is not None) < 2:
            continue
        reg = Region(cube.lo, cube.hi, sign_cuts=pattern,
                     cut_origin=(0,) * r)
        seen.add(site_set(reg))
    return len(seen)


def is_connected(sites):
    """BFS connectivity under nearest-neighbor (1-norm) adjacency."""
    site_set = set(sites)
    start = next(iter(site_set))
    seen = {start}
    queue = deque([start])
    while queue:
        x = queue.popleft()
        for j in range(len(x)):
            for step in (-1, 1):
                y = list(x)
                y[j] += step
                y = tuple(y)
                if y in site_set and y not in seen:
                    seen.add(y)
                    queue.append(y)
    return len(seen) == len(site_set)


class TestEnumerateElementaryRegions:
    def test_contains_full_cube(self):
        regs = enumerate_elementary_regions(2, 1)
        cube = Region.cube(2, 1)
        assert any(site_set(r) == site_set(cube) for r in regs)

    def test_count_matches_brute_force(self):
        for r, N in [(2, 1), (2, 2), (3, 1)]:
            regs = enumerate_elementary_regions(r, N)
            assert len(regs) == brute_force_shape_count(r, N)
            sets = [site_set(reg) for reg in regs]
            assert len(sets) == len(set(sets))

    def test_r3_n2_diameter_and_connectivity(self):
        for reg in enumerate_elementary_regions(3, 2):
            assert reg.diameter() <= 4
            assert is_connected(reg.sites())

    def test_r1_returns_only_cube(self):
        regs = enumerate_elementary_regions(1, 3)
        assert len(regs) == 1
        assert site_set(regs[0]) == site_set(Region.cube(1, 3))

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            enumerate_elementary_regions(2, 0)

    def test_min_two_active_cuts(self):
        for reg in enumerate_elementary_regions(3, 2):
            if reg.sign_cuts is not None:
                assert reg.n_active_cuts() >= 2


class TestRegionBasics:
    def test_size_matches_enumeration(self):
        for r in (2, 3):
            for N in (1, 2, 3):
                for reg in enumerate_elementary_regions(r, N):
                    assert reg.size() == len(reg.sites())

    def test_contains_array_agrees_with_contains(self):
        pts = list(itertools.product(range(-4, 5), repeat=2))
        for reg in (
                Region((-1, -3), (3, 1), sign_cuts=(">", "<"),
                       cut_origin=(1, -1)),
                Region((-1, -3), (3, 1)),
                # the cut removes nothing: every point has x_0 <= 3
                Region((-1, -3), (3, 1), sign_cuts=(">", None),
                       cut_origin=(3, 0))):
            mask = reg.contains_array(np.asarray(pts))
            assert mask.dtype == bool and mask.shape == (len(pts),)
            for p, m in zip(pts, mask):
                assert bool(m) == bool(reg.contains_array([p])[0]) \
                    == member(reg, p)
            # the same mask from tuples, lists and any integer array
            for same in (pts, [list(p) for p in pts],
                         np.asarray(pts, dtype=np.int32),
                         np.asarray(pts, dtype=np.int64)):
                assert reg.contains_array(same).tolist() == mask.tolist()
            for empty in ([], np.empty((0, 2), dtype=np.int64)):
                got = reg.contains_array(empty)
                assert got.dtype == bool and got.shape == (0,)

    def test_contains_array_refuses_non_integer_sites(self):
        # a coordinate of 2.5 is outside [0, 2]; truncated, it would be in;
        # ragged rows of 2 sites' worth of integers are no 2 sites either
        for reg in (Region((0, 0), (2, 2)),
                    Region((0, 0), (2, 2), ("<", "<"), (1, 1))):
            for pts in ([(2.5, 0)], [(2, 0.5)], np.array([[2.5, 0.0]]),
                        [(2, 1, 0), (1,)], [(0, 0, 0)]):
                with pytest.raises(ValueError):
                    reg.contains_array(pts)

    def test_equal_regions_hash_equal(self):
        reg = Region((-1, 0, 2), (3, 4, 5), ("<", None, ">"))
        for same in (Region((-1, 0, 2), (3, 4, 5), ("<", None, ">"),
                            (1, 2, 3)),
                     reg.translate((2, -1, 0)).translate((-2, 1, 0)),
                     pickle.loads(pickle.dumps(reg)), copy.deepcopy(reg)):
            assert same == reg and hash(same) == hash(reg)
            assert same.sites() == reg.sites()
            assert same.contains_array([(0, 0, 5), (2, 0, 5)]).tolist() == [
                False, True]
        regs = enumerate_elementary_regions(3, 1)
        again = enumerate_elementary_regions(3, 1)
        assert all(a == b and hash(a) == hash(b) for a, b in zip(regs, again))
        assert len(set(regs + again)) == len(regs)

    def test_hash_is_the_fields_hash_after_unpickling(self):
        # Each Region hashes its fields once, when it is built.  A pickle
        # rebuilds it from its fields, so a region pickled in a process with
        # another string hash ('<' and '>' in sign_cuts) hashes as one built
        # where it is loaded.
        reg = Region((-1, 0, 2), (3, 4, 5), ("<", None, ">"))
        assert hash(reg) == hash((reg.lo, reg.hi, reg.sign_cuts,
                                  reg.cut_origin))
        code = ("import pickle, sys; from qpnls.lattice import Region; "
                "reg = pickle.loads(sys.stdin.buffer.read()); "
                "print(hash(reg) == hash(Region((-1, 0, 2), (3, 4, 5), "
                "('<', None, '>'))), reg == Region((-1, 0, 2), (3, 4, 5), "
                "('<', None, '>'), (1, 2, 3)))")
        for seed in ("1", "2"):
            proc = subprocess.run(
                [sys.executable, "-c", code], input=pickle.dumps(reg),
                capture_output=True,
                env={**os.environ, "PYTHONHASHSEED": seed})
            assert proc.returncode == 0, proc.stderr
            assert proc.stdout.split() == [b"True", b"True"]

    def test_points_match_hand_membership(self):
        regs = enumerate_elementary_regions(3, 2)
        regs += [Region((-2, 0, -1), (2, 3, 1),
                        sign_cuts=(">", None, "<"), cut_origin=(1, 2, 0)),
                 Region((0, 0, 0), (2, 2, 2), sign_cuts=(None,) * 3),
                 Region((-3, -3, -1), (1, 0, -1), (">", None, ">"),
                        (-4, 0, 1))]
        grid = np.asarray(list(itertools.product(range(-3, 6), repeat=3)))
        for reg in regs:
            want = [tuple(y) for y in grid.tolist() if member(reg, y)]
            pts = reg.points()
            assert pts.dtype == np.int64 and pts.shape == (len(want), 3)
            assert [tuple(y) for y in pts.tolist()] == want  # C order
            assert reg.sites() == want
            assert all(type(c) is int for y in reg.sites() for c in y)
            assert reg.contains_array(grid).tolist() == \
                [member(reg, y) for y in grid.tolist()]
            assert reg.size() == len(want)
            assert reg.diameter() == max(
                max(a - b for a, b in zip(x, y)) for x in want for y in want)

    def test_empty_box_rejected(self):
        with pytest.raises(ValueError):
            Region((1,), (0,))

    def test_unknown_relation_rejected(self):
        with pytest.raises(ValueError, match="unknown relation"):
            Region((0, 0), (2, 2), sign_cuts=("<=", ">"))


class TestRegionSection:
    def test_full_cube_section(self):
        reg = Region.cube(3, 2)
        sec = region_section(reg, 1, (0,))
        assert sec.tag == "elementary"
        assert site_set(sec.payload) == site_set(Region.cube(2, 2))

    def test_k_cut_kept_side_gives_full_cube(self):
        reg = Region(Region.cube(3, 2).lo, Region.cube(3, 2).hi,
                     sign_cuts=(">", ">", None), cut_origin=(0, 0, 0))
        sec = region_section(reg, 1, (-1,))
        assert sec.tag == "elementary"
        assert site_set(sec.payload) == site_set(Region.cube(2, 2))

    def test_two_n_cuts_give_cut_section(self):
        reg = Region(Region.cube(3, 2).lo, Region.cube(3, 2).hi,
                     sign_cuts=(None, ">", ">"), cut_origin=(0, 0, 0))
        sec = region_section(reg, 1, (0,))
        assert sec.tag == "elementary"
        assert site_set(sec.payload) == section_site_set(reg, 1, (0,))

    def test_outside_projection_raises(self):
        reg = Region.cube(2, 1)
        with pytest.raises(EmptySectionError):
            region_section(reg, 1, (5,))

    def test_exhaustive_small(self):
        for r in (2, 3):
            for N in (1, 2, 3):
                for reg in enumerate_elementary_regions(r, N):
                    for b in range(1, r):
                        groups = defaultdict(set)
                        for y in reg.sites():
                            groups[y[:b]].add(y[b:])
                        k_range = itertools.product(
                            *[range(l, h + 1)
                              for l, h in zip(reg.lo[:b], reg.hi[:b])])
                        for k in k_range:
                            truth = frozenset(groups.get(k, ()))
                            try:
                                sec = region_section(reg, b, k)
                            except EmptySectionError:
                                assert not truth
                                continue
                            assert site_set(sec.payload) == truth
                            if sec.tag == "wide_rectangle":
                                widths = [h - l for l, h in
                                          zip(sec.payload.lo, sec.payload.hi)]
                                assert min(widths) >= N

    def test_inactive_cuts_give_full_section(self):
        reg = Region((0, 0, 0), (2, 2, 2), sign_cuts=(None,) * 3)
        sec = region_section(reg, 1, (0,))
        assert sec.tag == "elementary"
        assert sec.payload == Region((0, 0), (2, 2))

    def test_fully_cut_section_is_empty(self):
        # the n-cut keeps nothing of the n-box, so the region is empty
        reg = Region((1, 0), (5, 2), (None, "<"), (2, 3))
        assert reg.size() == 0
        with pytest.raises(EmptySectionError):
            region_section(reg, 1, (1,))

    def test_random_regions_match_brute_force(self):
        # off-centre boxes, any cut pattern, cut origins up to 2 sites
        # beyond the box; k runs one site beyond each edge
        rng = np.random.default_rng(13)
        bad = []
        for _ in range(1000):
            r = int(rng.integers(2, 5))
            lo = tuple(int(c) for c in rng.integers(-2, 3, r))
            hi = tuple(int(c) for c in lo + rng.integers(0, 4, r))
            cuts = tuple(rng.choice(["<", ">", None], r).tolist())
            origin = tuple(int(rng.integers(l - 2, h + 3))
                           for l, h in zip(lo, hi))
            reg = Region(lo, hi, cuts, origin)
            sites = hand_site_set(reg)
            listed = reg.sites()
            assert listed == list(map(tuple, reg.points().tolist()))
            assert all(type(c) is int for y in listed for c in y)
            assert reg.size() == len(listed) == len(sites)
            payloads = {}
            for b in range(1, r):
                n_box = hand_site_set(Region(lo[b:], hi[b:]))
                for k in itertools.product(
                        *[range(l - 1, h + 2) for l, h in zip(lo, hi[:b])]):
                    truth = frozenset(y[b:] for y in sites if y[:b] == k)
                    try:
                        sec = region_section(reg, b, k)
                    except EmptySectionError:
                        if truth:
                            bad.append((reg, b, k, "empty"))
                        continue
                    got = payloads.setdefault(sec.payload,
                                              hand_site_set(sec.payload))
                    # a wide rectangle is a box, and not the whole n-box
                    widths = [max(c) - min(c) + 1 for c in zip(*truth)]
                    wide = (len(truth) == math.prod(widths)
                            and truth != n_box)
                    if got != truth or (sec.tag == "wide_rectangle") != wide:
                        bad.append((reg, b, k, sec))
        assert bad == []

    def test_sections_shared_per_class(self):
        reg = Region.cube(3, 2)
        reg = Region(reg.lo, reg.hi, sign_cuts=(">", ">", "<"),
                     cut_origin=(0, 0, 0))
        # k = (1,) and (2,) meet the corner's k-range, (-1,) and (0,) miss it
        on, off = region_section(reg, 1, (1,)), region_section(reg, 1, (-1,))
        assert region_section(reg, 1, (2,)) is on
        assert region_section(reg, 1, (0,)) is off
        assert on is not off
        assert isinstance(lattice._sections.cache_info().maxsize, int)
        with pytest.raises(dataclasses.FrozenInstanceError):
            on.payload.lo = (0, 0)
        with pytest.raises(dataclasses.FrozenInstanceError):
            off.tag = "wide_rectangle"


def _oracle_order(sites):
    return sorted(sites, key=lambda s: (s[0], s[1], -s[2]))


def _check_rows(idx, b):
    """sites, positions and layers agree row by row, and idx[site] == i."""
    assert isinstance(idx.sites, tuple) and idx.m == len(idx.sites)
    assert idx.positions.ndim == 2 and idx.positions.shape[0] == idx.m
    assert idx.positions.dtype == np.int64 and idx.layers.dtype == np.int64
    for i, (site, pos, xi) in enumerate(zip(idx.sites, idx.positions.tolist(),
                                            idx.layers.tolist())):
        k, n, layer = site
        assert type(k) is tuple and type(n) is tuple and type(layer) is int
        assert len(k) == b and k + n == tuple(pos) and layer == xi
        assert idx[site] == i


class TestIndexing:
    def test_single_site(self):
        idx = index_region(Region.cube(2, 0), 1)
        assert idx.m == 2  # one lattice point, two layers
        assert idx[idx.sites[0]] == 0

    def test_layered_cardinality(self):
        idx = index_region(Region.cube(2, 1), 1)
        assert idx.m == 18

    def test_exclusion_count(self):
        reg = Region.cube(2, 2)
        excl = frozen_mode_sites([(0,)])
        idx = index_region(reg, 1, exclude=excl)
        assert idx.m == reg.size() * 2 - 2

    def test_stable_bijection(self):
        reg = Region.cube(2, 2)
        idx1 = index_region(reg, 1)
        idx2 = index_region(reg, 1)
        assert idx1.sites == idx2.sites
        for i, s in enumerate(idx1.sites):
            assert idx1[s] == i

    def test_empty_after_exclusion(self):
        reg = Region.cube(2, 0)
        all_sites = {(tuple(y[:1]), tuple(y[1:]), xi)
                     for y in reg.sites() for xi in (1, -1)}
        with pytest.raises(EmptyRegionError):
            index_region(reg, 1, exclude=all_sites)

    @pytest.mark.parametrize("r", [3, 4])
    @pytest.mark.parametrize("N", [1, 2])
    def test_index_region_matches_tuple_sort(self, r, N):
        for reg in enumerate_elementary_regions(r, N):
            for b in range(r):
                d = r - b
                anchors = [(l,) + (0,) * (d - 1) for l in range(b)]
                for excl in (frozenset(), frozen_mode_sites(anchors)):
                    want = _oracle_order(
                        s for y in reg.sites()
                        for s in ((y[:b], y[b:], 1), (y[:b], y[b:], -1))
                        if s not in excl)
                    idx = index_region(reg, b, exclude=excl)
                    assert list(idx.sites) == want
                    _check_rows(idx, b)


class TestNorms:
    def test_site_norm(self):
        # the norm of a site (k, n, xi) is the sup norm of (k, n)
        assert sup_norm((2, -3) + (1,)) == 3
        assert sup_norm(()) == 0
