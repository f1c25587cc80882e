"""Lattice geometry: boxes, cut regions, sections, and site indexing.

Regions are stored symbolically (outer box plus an optional corner cut),
so that membership is O(r) arithmetic and large regions stay cheap.  Site
enumeration is only performed on demand.
"""

from __future__ import annotations

import itertools
import math
import operator
import struct
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Optional

import numpy as np

IntVec = tuple[int, ...]
Site = tuple[IntVec, IntVec, int]  # (k, n, xi) with xi in {+1, -1}

LESS = "<"
GREATER = ">"


class EmptyRegionError(ValueError):
    pass


class EmptySectionError(ValueError):
    pass


def sup_norm(v: Iterable[int]) -> int:
    vs = [abs(c) for c in v]
    return max(vs) if vs else 0


def _in_box(pts: np.ndarray, lo: np.ndarray, span: np.ndarray) -> np.ndarray:
    """lo <= x <= lo + span on each row x: x - lo read as unsigned <= span."""
    return np.logical_and.reduce((pts - lo).view(np.uint64) <= span, axis=1)


@dataclass(frozen=True)
class Region:
    """Box ``[lo, hi]`` in Z^r, optionally minus an orthant-style corner
    (``sign_cuts``).

    ``sign_cuts`` is a per-coordinate tuple with entries '<', '>' or None;
    the removed set is the box points satisfying *all* active (strict)
    relations, measured relative to ``cut_origin``.  That set is itself a
    box, ``_corner = (lo, hi)``, or None when nothing is removed.
    """

    lo: IntVec
    hi: IntVec
    sign_cuts: Optional[tuple[Optional[str], ...]] = None
    cut_origin: Optional[IntVec] = None

    def __post_init__(self):
        if len(self.lo) != len(self.hi):
            raise ValueError("lo/hi dimension mismatch")
        if any(l > h for l, h in zip(self.lo, self.hi)):
            raise ValueError("empty box: lo > hi")
        if self.sign_cuts is not None:
            if len(self.sign_cuts) != len(self.lo):
                raise ValueError("sign_cuts dimension mismatch")
            if self.cut_origin is None:
                object.__setattr__(self, "cut_origin", tuple(
                    (l + h) // 2 for l, h in zip(self.lo, self.hi)))
        corner = None
        if self.n_active_cuts():
            lo, hi = list(self.lo), list(self.hi)
            for j, (s, o) in enumerate(zip(self.sign_cuts, self.cut_origin)):
                if s == LESS:
                    hi[j] = min(hi[j], o - 1)
                elif s == GREATER:
                    lo[j] = max(lo[j], o + 1)
                elif s is not None:
                    raise ValueError(f"unknown relation {s!r}")
            if all(l <= h for l, h in zip(lo, hi)):
                corner = tuple(lo), tuple(hi)
        boxes = [(self.lo, self.hi)] + ([corner] if corner else [])
        sizes = [math.prod(h - l + 1 for l, h in zip(*box)) for box in boxes]
        for name, value in (
                ("_corner", corner), ("_size", sizes[0] - sum(sizes[1:])),
                ("_bounds", [(np.array(lo, dtype=np.int64),
                              np.subtract(hi, lo).astype(np.uint64))
                             for lo, hi in boxes]),
                ("_ranges", tuple(range(l, h + 1) for l, h in zip(*boxes[0]))),
                ("_pack", struct.Struct(f"{len(self.lo)}q").pack),
                ("_hash", hash(self.__reduce__()[1]))):
            object.__setattr__(self, name, value)

    def __hash__(self):  # the fields' hash, computed once
        return self._hash

    def __reduce__(self):  # by its fields; _pack (a Struct's) cannot pickle
        return Region, (self.lo, self.hi, self.sign_cuts, self.cut_origin)

    # -- constructors -------------------------------------------------
    @staticmethod
    def cube(r: int, N: int) -> "Region":
        if N < 0:
            raise ValueError("cube radius must be >= 0")
        return Region((-N,) * r, (N,) * r)

    @staticmethod
    def box(lo: Iterable[int], hi: Iterable[int]) -> "Region":
        return Region(tuple(lo), tuple(hi))

    # -- basic geometry ----------------------------------------------
    @property
    def r(self) -> int:
        return len(self.lo)

    def n_active_cuts(self) -> int:
        if self.sign_cuts is None:
            return 0
        return sum(1 for s in self.sign_cuts if s is not None)

    def points(self) -> np.ndarray:
        """(size, r) int64 array of the member sites in C order."""
        shape = tuple(map(len, self._ranges))
        pts = np.indices(shape, dtype=np.int64).reshape(self.r, -1).T + self.lo
        return pts if self._corner is None else pts[
            ~_in_box(pts, *self._bounds[1])]

    def sites(self) -> list[IntVec]:
        """The member sites as tuples, in the order of points()."""
        box = itertools.product(*self._ranges)
        if self._corner is None:
            return list(box)
        kept = np.ones(tuple(map(len, self._ranges)), dtype=bool)
        kept[tuple(slice(cl - l, ch - l + 1)
                   for l, cl, ch in zip(self.lo, *self._corner))] = False
        return list(itertools.compress(box, kept.ravel().tolist()))

    def size(self) -> int:
        """Member count: the box minus the corner."""
        return self._size

    def contains_array(self, pts) -> np.ndarray:
        """Membership of an (m, r) integer array or a sequence of sites."""
        if not (isinstance(pts, np.ndarray) and np.can_cast(pts, np.int64)):
            try:  # _pack refuses floats (fromiter truncates) and ragged rows
                pts = np.frombuffer(b"".join(itertools.starmap(
                    self._pack, pts)), np.int64).reshape(-1, self.r)
            except struct.error as exc:
                raise ValueError(f"sites need {self.r} integers each") from exc
        inside = _in_box(pts, *self._bounds[0])
        return inside if self._corner is None else (
            inside > _in_box(pts, *self._bounds[1]))

    def diameter(self) -> int:
        """Sup-norm diameter, computed exactly from the member sites."""
        pts = self.points()
        if not pts.size:
            raise EmptyRegionError("diameter of empty region")
        return int((pts.max(axis=0) - pts.min(axis=0)).max())

    def translate(self, z: IntVec) -> "Region":
        lo = tuple(l + c for l, c in zip(self.lo, z))
        hi = tuple(h + c for h, c in zip(self.hi, z))
        origin = None
        if self.cut_origin is not None:
            origin = tuple(o + c for o, c in zip(self.cut_origin, z))
        return Region(lo, hi, self.sign_cuts, origin)

    # -- serialization -------------------------------------------------
    def to_record(self) -> dict:
        rec = {
            "center": [(l + h) / 2 for l, h in zip(self.lo, self.hi)],
            "widths": [(h - l) / 2 for l, h in zip(self.lo, self.hi)],
        }
        if self.sign_cuts is not None:
            rec["sign_cuts"] = [s if s is not None else "" for s in self.sign_cuts]
            rec["cut_origin"] = list(self.cut_origin)
        return rec

    @staticmethod
    def from_record(rec: dict) -> "Region":
        lo = tuple(int(round(c - w)) for c, w in zip(rec["center"], rec["widths"]))
        hi = tuple(int(round(c + w)) for c, w in zip(rec["center"], rec["widths"]))
        cuts = None
        origin = None
        if "sign_cuts" in rec:
            cuts = tuple(s if s else None for s in rec["sign_cuts"])
            origin = tuple(rec["cut_origin"])
        return Region(lo, hi, cuts, origin)


def enumerate_elementary_regions(r: int, N: int) -> list[Region]:
    """All elementary regions of size N centered at the origin: the full
    cube plus every corner-cut variant with at least two active relations:
    3^r - 2r regions, only the cube when r = 1.

    Their site sets are distinct: each cut removes a nonempty corner, and
    two patterns that differ at coordinate j differ on the points with
    x_j = 0 or on one side of it.
    """
    if N <= 0:
        raise ValueError("region size must be >= 1")
    if r < 1:
        raise ValueError("dimension must be >= 1")
    cube = Region.cube(r, N)
    out = [cube]
    for pattern in itertools.product((LESS, GREATER, None), repeat=r):
        if sum(1 for s in pattern if s is not None) >= 2:
            out.append(Region(cube.lo, cube.hi, sign_cuts=pattern,
                              cut_origin=(0,) * r))
    return out


@dataclass(frozen=True)
class SectionShape:
    """Classification of a region's section over the last d coordinates."""

    tag: str  # "elementary" or "wide_rectangle"
    payload: Region

    def __post_init__(self):
        if self.tag not in ("elementary", "wide_rectangle"):
            raise ValueError(f"unknown section tag {self.tag!r}")


# (region, b) pairs whose two sections are kept; the acceptance sweep of
# every elementary region with r <= 4, N <= 6 visits 1,596.
SECTION_CACHE_SIZE = 4096


@lru_cache(maxsize=SECTION_CACHE_SIZE)
def _sections(region: Region, b: int) -> tuple:
    """A region's section over Z^{b+d} off the corner's k-range (the full
    n-box) and on it (the n-box minus the corner's n-part; None if empty)."""
    lo, hi = region.lo[b:], region.hi[b:]
    off = SectionShape("elementary", Region(lo, hi))
    if region._corner is None:
        return off, None
    clo, chi = (c[b:] for c in region._corner)
    cut = [j for j in range(len(lo)) if (clo[j], chi[j]) != (lo[j], hi[j])]
    if not cut:
        return off, None
    if len(cut) > 1:
        return off, SectionShape("elementary", Region(
            lo, hi, region.sign_cuts[b:], region.cut_origin[b:]))
    # One coordinate is cut, at one end: the rest of it is kept.
    j = cut[0]
    if clo[j] == lo[j]:
        lo = lo[:j] + (chi[j] + 1,) + lo[j + 1:]
    else:
        hi = hi[:j] + (clo[j] - 1,) + hi[j + 1:]
    return off, SectionShape("wide_rectangle", Region(lo, hi))


def region_section(region: Region, b: int, k: IntVec) -> SectionShape:
    """Section {n : (k, n) in region} of a region over Z^{b+d}, classified
    symbolically as an elementary region or a wide rectangle.  Every k in
    the corner's k-range shares one answer, and every other k another.
    """
    if region.r - b < 1 or len(k) != b:
        raise ValueError("bad split: need len(k) == b and d >= 1")
    if not (all(map(operator.le, region.lo, k))
            and all(map(operator.le, k, region.hi))):
        raise EmptySectionError(f"k={k} outside the projection")
    off, on = _sections(region, b)
    corner = region._corner
    if corner is None or not (all(map(operator.le, corner[0], k))
                              and all(map(operator.le, k, corner[1]))):
        return off
    if on is None:
        # The whole section lies in the removed corner.
        raise EmptySectionError(f"k={k} outside the projection (fully cut)")
    return on


# -- the +/- layered lattice ------------------------------------------


def frozen_mode_sites(anchor_ns: Iterable[IntVec]) -> frozenset:
    """The 2b excluded sites carrying the prescribed amplitudes:
    (e_l, n_l, +) and (-e_l, n_l, -)."""
    anchors = list(anchor_ns)
    b = len(anchors)
    out = set()
    for l, n in enumerate(anchors):
        e = tuple(1 if j == l else 0 for j in range(b))
        out.add((e, tuple(n), +1))
        out.add((tuple(-c for c in e), tuple(n), -1))
    return frozenset(out)


@dataclass(frozen=True, eq=False)
class Indexing:
    """Deterministic bijection between layered sites and 0..m-1.

    Row i is the site (positions[i, :b], positions[i, b:], layers[i]).
    index_sites and index_region order the sites lexicographically on
    (k, n), + before -; lattice_operator accepts any order.  Site tuples
    and the lookup idx[site] are derived from the arrays on first use.
    """

    positions: np.ndarray  # (m, b+d) int64
    layers: np.ndarray  # (m,) int64, +1 or -1
    b: int

    @property
    def m(self) -> int:
        return self.layers.size

    @cached_property
    def sites(self) -> tuple[Site, ...]:
        ks = map(tuple, self.positions[:, :self.b].tolist())
        ns = map(tuple, self.positions[:, self.b:].tolist())
        return tuple(zip(ks, ns, self.layers.tolist()))

    @cached_property
    def _index(self) -> dict:
        return {s: i for i, s in enumerate(self.sites)}

    def __getitem__(self, site: Site) -> int:
        return self._index[site]


def _site_arrays(sites: list[Site]) -> tuple[np.ndarray, np.ndarray]:
    """(positions, layers) of a list of layered site tuples."""
    return (np.array([k + n for k, n, _ in sites], dtype=np.int64),
            np.array([s[2] for s in sites], dtype=np.int64))


def index_sites(sites: Iterable[Site]) -> Indexing:
    """Indexing of distinct layered sites, ordered on (k, n) with + before
    -: the C order of a centered box array whose layer axis comes last."""
    sites = list(sites)
    pos, layers = _site_arrays(sites)
    order = np.lexsort((-layers,) + tuple(pos.T[::-1]))
    return Indexing(pos[order], layers[order], len(sites[0][0]))


def index_region(region: Region, b: int,
                 exclude: Iterable[Site] = ()) -> Indexing:
    """Index the +/- layered sites of a region, minus an excluded site set.

    Each point in the region's C order is repeated for +, then -, which is
    already the order of index_sites."""
    pos = np.repeat(region.points(), 2, axis=0)
    layers = np.tile(np.array([1, -1], dtype=np.int64), pos.shape[0] // 2)
    ex_pos, ex_xi = _site_arrays(list(exclude))
    if ex_xi.size:
        hit = ((pos[:, None, :] == ex_pos).all(axis=2)
               & (layers[:, None] == ex_xi)).any(axis=1)
        pos, layers = pos[~hit], layers[~hit]
    if not layers.size:
        raise EmptyRegionError("no sites left after exclusion")
    return Indexing(pos, layers, b)


# -- centered box arrays -----------------------------------------------


def box_sup_norms(R: int, r: int) -> np.ndarray:
    """Sup norm of every point of the box [-R, R]^r, shape (2R+1,)*r."""
    return np.abs(np.indices((2 * R + 1,) * r) - R).max(axis=0, initial=0)


def recenter(arr: np.ndarray, radii: Iterable[int]) -> np.ndarray:
    """A copy of an array centered at the origin, its leading axes cropped
    or zero-padded to the given radii; trailing axes are kept."""
    radii = tuple(radii)
    old = [(s - 1) // 2 for s in arr.shape[:len(radii)]]
    out = np.zeros(tuple(2 * r + 1 for r in radii) + arr.shape[len(radii):],
                   dtype=arr.dtype)
    keep = [min(r, o) for r, o in zip(radii, old)]
    out[tuple(slice(r - c, r + c + 1) for r, c in zip(radii, keep))] = \
        arr[tuple(slice(o - c, o + c + 1) for o, c in zip(old, keep))]
    return out
