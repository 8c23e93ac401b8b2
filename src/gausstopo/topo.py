"""Region construction and topological diagnostics.

Regions live on the surface-code mode grid: mode id = x * cols + y for
grid coordinates (x, y).  All entropies are in bits.
"""

from dataclasses import dataclass, field
from functools import cached_property, lru_cache

import numpy as np

from . import engine
from .engine import symplectic_spectra, symplectic_spectrum, von_neumann_entropy
from .errors import ValidationError
from .lattice import LatticeSpec

KP_SUBSETS = (("A",), ("B",), ("C",), ("A", "B"), ("B", "C"), ("A", "C"),
              ("A", "B", "C"))
KP_SIGNS = (1, 1, 1, -1, -1, -1, 1)


@dataclass(frozen=True)
class RegionSet:
    """Named mode-index regions with their construction geometry."""

    kind: str  # 'KP', 'LW' or 'custom'
    regions: dict
    geometry: dict = field(default_factory=dict)
    # the memoised RegionSet (regions as tuples) these regions were copied from
    _source: "RegionSet" = field(default=None, repr=False, compare=False)

    def union(self, *names):
        out = set()
        for name in names:
            out |= set(self.regions[name])
        return sorted(out)

    @cached_property
    def kp_unions(self):
        """The seven KP unions as sorted mode tuples, in KP_SUBSETS order,
        built on first read from A, B and C as they are then: the spectrum
        memo keys of every KP diagnostic, so a bool id is refused here
        (`engine._refuse_bools`).  They are the unions of `_source` while A,
        B and C equal its own."""
        parts = [tuple(self.regions[name]) for name in "ABC"]
        engine._refuse_bools(parts)
        source = self._source
        if source is not None and parts == [source.regions[name] for name in "ABC"]:
            return source.kp_unions
        return tuple(tuple(self.union(*names)) for names in KP_SUBSETS)


def _fresh(source, geometry):
    """A RegionSet of `source`'s regions as lists its caller may change, with
    `geometry`."""
    return RegionSet(source.kind, {name: list(ids) for name, ids in source.regions.items()},
                     geometry, source)


@dataclass
class TopoReport:
    """Per-squeezing-point diagnostics record."""

    log_s: float
    kappa: float = 1.0
    tee_kp: float = None
    tee_lw: float = None
    tln_kp: float = None
    tmi: float = None
    tmi_lower: float = None
    tee_upper: float = None
    region_entropies: dict = field(default_factory=dict)
    spectra_meta: dict = field(default_factory=dict)
    geometry: dict = field(default_factory=dict)

    def to_dict(self):
        return {
            "log_s": self.log_s,
            "kappa": self.kappa,
            "tee_kp": self.tee_kp,
            "tee_lw": self.tee_lw,
            "tln": self.tln_kp,
            "tmi": self.tmi,
            "tmi_lower": self.tmi_lower,
            "tee_upper": self.tee_upper,
            "region_entropies": self.region_entropies,
            "spectra_meta": self.spectra_meta,
            "geometry": self.geometry,
        }


def _check_margin(spec, center, reach, need):
    cx, cy = center
    margin = min(cx, cy, spec.rows - 1 - cx, spec.cols - 1 - cy) - reach
    if margin < need:
        raise ValidationError("region of reach %g does not fit with margin %g" % (reach, need))


def _offsets(spec, center):
    """Offsets (dx, dy) of every grid site from `center`, as two (rows, cols)
    arrays whose flat C order is the mode-id order."""
    x, y = np.indices((spec.rows, spec.cols))
    return x - center[0], y - center[1]


def kp_regions(spec, center=None, radius=None):
    """Disk split into three 120-degree sectors A, B, C about `center`.

    Sector boundaries tie-break deterministically: polar angle in
    [0, 120) degrees goes to A, [120, 240) to B, the rest to C.  The
    complement of the disk is the implicit fourth region D.  The regions
    are built once per lattice, center and radius (`_kp_sectors`), and each
    call returns a copy (`_fresh`).
    """
    n, m = spec.rows, spec.cols
    if center is None:
        center = ((n - 1) / 2.0, (m - 1) / 2.0)
    if radius is None:
        radius = min(n, m) / 6.0 + 0.5
    cx, cy = center
    return _fresh(_kp_sectors(n, m, float(cx), float(cy), float(radius)),
                  {"center": tuple(center), "radius": float(radius), "rows": n, "cols": m})


def lw_regions(spec, center=None, inner=6, width=3):
    """Square annulus regions for the Levin-Wen combination.

    A is the full Chebyshev annulus of hole side `inner` and width
    `width`; B removes the top strip, C the bottom strip and D both
    (leaving two disconnected arms), so that |A| - |B| = |C| - |D|.  The
    regions are built once per lattice, center, inner and width
    (`_lw_annulus`), and each call returns a copy (`_fresh`).
    """
    n, m = spec.rows, spec.cols
    if center is None:
        center = ((n - 1) / 2.0, (m - 1) / 2.0)
    cx, cy = center
    return _fresh(_lw_annulus(n, m, float(cx), float(cy), float(inner), float(width)),
                  {"center": tuple(center), "inner": float(inner), "width": float(width),
                   "rows": n, "cols": m})


# Each kind keeps the regions of the 32 geometries asked for last, per
# process, as tuples and with no geometry record: each copy takes that of its
# call.
@lru_cache(maxsize=32)
def _kp_sectors(rows, cols, cx, cy, radius):
    """The regions of `kp_regions` on a rows x cols grid, its KP unions
    built, which every copy still equal to it reads."""
    if not radius > 0:
        raise ValidationError("radius must be positive, not %g" % radius)
    grid = LatticeSpec(rows, cols, "planar")  # regions do not wrap
    _check_margin(grid, (cx, cy), radius, radius / 2.0)
    dx, dy = _offsets(grid, (cx, cy))
    disk = dx * dx + dy * dy <= radius * radius
    sector = np.digitize(np.degrees(np.arctan2(dy, dx)) % 360.0, [120.0, 240.0])
    parts = {name: tuple(np.flatnonzero(disk & (sector == k)).tolist())
             for k, name in enumerate("ABC")}
    if any(not v for v in parts.values()):
        raise ValidationError("radius %g spans an empty sector" % radius)
    regions = RegionSet("KP", parts)
    regions.kp_unions  # built once, read by every copy
    return regions


@lru_cache(maxsize=32)
def _lw_annulus(rows, cols, cx, cy, inner, width):
    """The regions of `lw_regions` on a rows x cols grid."""
    if width <= 0:
        raise ValidationError("width must be positive")
    grid = LatticeSpec(rows, cols, "planar")  # regions do not wrap
    h = inner / 2.0
    _check_margin(grid, (cx, cy), h + width, 0.0)
    dx, dy = _offsets(grid, (cx, cy))
    cheb = np.maximum(np.abs(dx), np.abs(dy))
    ring = (h < cheb) & (cheb <= h + width)
    top, bot = dx < -h, dx > h
    masks = {"A": ring, "B": ring & ~top, "C": ring & ~bot, "D": ring & ~top & ~bot}
    parts = {name: tuple(np.flatnonzero(mask).tolist()) for name, mask in masks.items()}
    sizes = {k: len(v) for k, v in parts.items()}
    if sizes["A"] - sizes["B"] != sizes["C"] - sizes["D"]:
        raise ValidationError("annulus strips are unbalanced: %s" % sizes)
    return RegionSet("LW", parts)


def region_entropy(cov, region):
    """Von Neumann entropy (bits) of the reduction to `region`."""
    return von_neumann_entropy(symplectic_spectrum(cov, region))


def _entropies(cov, regions):
    """Von Neumann entropies (bits) of `regions`, requested together (one
    solve on a U-native state)."""
    return [von_neumann_entropy(spec) for spec in symplectic_spectra(cov, regions)]


def _kp_sum(term, items):
    """-sum sign * term(item) over the seven KP `items`, in KP_SUBSETS order."""
    return -sum(sign * term(item) for item, sign in zip(items, KP_SIGNS))


def _kp_values(cov, regions):
    """The values of the seven KP spectra of `cov` divided by `cov.kappa`
    (of the pure state, if marked), requested together and concatenated, and
    the union index of each: the input of every KP reduction.  A U-native
    state keeps them in the "kp" entry of its spectrum memo, under the seven
    unions; its thermal_scale copies share the memo."""
    memo = cov._memo.setdefault("kp", {}) if cov._u is not None else {}
    key = regions.kp_unions
    if key not in memo:
        spectra = engine._pure_spectra(cov, key)
        memo[key] = (np.concatenate([spec.values for spec in spectra]),
                     np.repeat(np.arange(len(spectra)), [len(spec) for spec in spectra]))
    return memo[key]


def _per_union(union, terms):
    """Sums of `terms` (nats) per union index, in bits."""
    return np.bincount(union, weights=terms, minlength=len(KP_SIGNS)) / np.log(2.0)


def _kp_signed(per_union):
    """-sum sign X_i over the seven per-union values, in KP_SUBSETS order."""
    return -float(np.dot(KP_SIGNS, per_union))


def _kp_entropies(kp_values, kappa):
    """Entropies (bits) of the seven KP unions of the kappa-scaled state,
    from `_kp_values`, as one reduction: a pure value within tol_half of
    1/2 scales from exactly 1/2 (`SymplecticSpectrum.scaled`), and only
    scaled values above 1/2 + tol_half add entropy (`von_neumann_entropy`)."""
    values, union = kp_values
    tol = engine.SymplecticSpectrum.tol_half
    scaled = kappa * np.where(values <= 0.5 + tol, 0.5, values)
    above = scaled > 0.5 + tol
    a = scaled[above] - 0.5
    return _per_union(union[above], np.log1p(a) + a * np.log1p(1.0 / a))


def _kp_entropy(kp_values, kappa):
    """-sum sign S_X of the kappa-scaled state, from `_kp_values`."""
    return _kp_signed(_kp_entropies(kp_values, kappa))


def _kp_log_negativity(kp_values, kappa):
    """-sum sign N_X of the kappa-scaled state, from `_kp_values`, as one
    reduction of `pure_log_negativity`'s terms: only pure values above
    1/2 + tol_half add."""
    values, union = kp_values
    above = values > 0.5 + engine.SymplecticSpectrum.tol_half
    terms = np.maximum(np.arccosh(2.0 * values[above]) - np.log(kappa), 0.0)
    return _kp_signed(_per_union(union[above], terms))


def _kp_log_sum(kp_values):
    """-sum sign sum_i log2(2 sigma_i^X), from `_kp_values`."""
    values, union = kp_values
    return _kp_signed(_per_union(union, np.log(2.0 * values)))


def tee_kp(cov, regions):
    """Kitaev-Preskill combination -(S_A+S_B+S_C-S_AB-S_BC-S_AC+S_ABC)."""
    if regions.kind != "KP":
        raise ValidationError("tee_kp requires KP regions")
    return _kp_entropy(_kp_values(cov, regions), cov.kappa)


def tee_lw(cov, regions):
    """Levin-Wen combination -1/2 [(S_A - S_B) - (S_C - S_D)]."""
    if regions.kind != "LW":
        raise ValidationError("tee_lw requires LW regions")
    s_a, s_b, s_c, s_d = _entropies(cov, [regions.regions[name] for name in "ABCD"])
    return -0.5 * ((s_a - s_b) - (s_c - s_d))


def tln_kp(cov, regions):
    """KP combination with log-negativity substituted for entropy; on a marked
    q/p block-diagonal state it comes from the seven pure-state spectra."""
    if regions.kind != "KP":
        raise ValidationError("tln_kp requires KP regions")
    if cov._scaled_pure and cov.block_diagonal:
        return _kp_log_negativity(_kp_values(cov, regions), cov.kappa)
    return _kp_sum(lambda key: engine.log_negativity(cov, key), regions.kp_unions)


def mutual_information(cov, region):
    """I_X = S_X + S_Xc - S_total."""
    region = engine._checked_region(cov, region)
    n = cov.n_modes
    comp = sorted(set(range(n)) - set(region))
    if not comp:
        return 0.0
    s_x, s_comp, s_all = _entropies(cov, [region, comp, range(n)])
    return s_x + s_comp - s_all


def tmi(cov, regions):
    """Topological mutual information -1/2 (I_A+I_B+I_C-I_AB-I_BC-I_AC+I_ABC).

    For a marked kappa-scaled pure state a region X and its complement
    share their nontrivial spectrum, so I_X = 2 [S_X(kappa) - |X| h(kappa/2)]
    with h(kappa/2) the entropy of one mode at sigma = kappa/2.  The signed
    sizes |X| sum to zero, so TMI = -sum sign S_X(kappa).  Unmarked states
    sum the seven mutual informations.
    """
    if regions.kind != "KP":
        raise ValidationError("tmi requires KP regions")
    if cov._scaled_pure:
        return _kp_entropy(_kp_values(cov, regions), cov.kappa)
    return 0.5 * _kp_sum(lambda key: mutual_information(cov, key), regions.kp_unions)


def tmi_lower_bound(cov_pure, regions):
    """Exact high-temperature limit of the TMI.

    Defined as -1/2 sum_X zeta(X) sum_i log2(2 sigma_i^X) over the fourteen
    unions of {A, B, C, D} (D the disk complement), zeta = +1 for singles
    and triples, -1 for pairs.  For a pure state they form seven
    complementary pairs with equal zeta and equal nontrivial spectra, and
    sigma = 1/2 adds 0, so this is -sum sign sum_i log2(2 sigma_i^X) over
    the seven KP unions.
    """
    if regions.kind != "KP":
        raise ValidationError("tmi_lower_bound requires KP regions")
    if cov_pure.kappa != 1.0:
        raise ValidationError("tmi_lower_bound expects the pure (kappa=1) state")
    return _kp_log_sum(_kp_values(cov_pure, regions))


def sandwich_regions(lw):
    """Derive the bound regions E, F1, F2, F from LW regions.

    E = A minus B (top strip), F1 = A minus C (bottom strip), F2 = D (the
    two arms) and F = F1 union F2.
    """
    if lw.kind != "LW":
        raise ValidationError("sandwich regions derive from LW regions")
    a = set(lw.regions["A"])
    e = sorted(a - set(lw.regions["B"]))
    f1 = sorted(a - set(lw.regions["C"]))
    f2 = sorted(lw.regions["D"])
    f = sorted(set(f1) | set(f2))
    return {"E": e, "F1": f1, "F2": f2, "F": f}


def bipartite_mutual_information(cov, region_x, region_y):
    """I_{X,Y} = S_X + S_Y - S_XY for disjoint regions."""
    if set(region_x) & set(region_y):
        raise ValidationError("bound regions must be disjoint")
    s_x, s_y, s_xy = _entropies(cov, [region_x, region_y,
                                      sorted(set(region_x) | set(region_y))])
    return s_x + s_y - s_xy


def tmi_sandwich_bounds(cov, lw):
    """(lower, upper) bounds sandwiching the TMI from the LW regions."""
    reg = sandwich_regions(lw)
    i_ef = bipartite_mutual_information(cov, reg["E"], reg["F"])
    i_ef1 = bipartite_mutual_information(cov, reg["E"], reg["F1"])
    i_ef2 = bipartite_mutual_information(cov, reg["E"], reg["F2"])
    return min(i_ef - i_ef1 - i_ef2, 0.0), max(i_ef1, i_ef2)


def sigma_one(s):
    """Symplectic eigenvalue of one mode of the 3-mode reference network,
    1/2 sqrt((1 + 3 s^4 + 2 s^8) / (1 + 3 s^4)) with the numerator factored,
    so that no s^8 overflows."""
    s4 = s ** 4
    return 0.5 * np.sqrt((1 + s4) * ((1 + 2 * s4) / (1 + 3 * s4)))


def tee_upper_bound(s):
    """Closed-form TEE upper bound: entropy of {sigma_1(s)} in bits."""
    if s <= 0:
        raise ValidationError("s must be positive")
    sig = sigma_one(s)
    spec = engine.SymplecticSpectrum([sig])
    return von_neumann_entropy(spec)
