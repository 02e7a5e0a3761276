"""Slab-stack geometry for the ADAPT scintillating-tile detector.

The detector is a stack of horizontal scintillator slabs (``Layer``)
separated by gaps.  Photon transport (``repro.physics.transport``) and
digitization need fast, vectorized answers to three questions:

1. Can a ray reach the stack at all? (``DetectorGeometry.may_intersect``)
2. Over which path lengths is a ray inside each slab?
   (``DetectorGeometry.segment_intersections``)
3. Is a point inside active scintillator? (``DetectorGeometry.layer_index``)

The stack is axis-aligned: layers are normal to z, with the top layer first.
Coordinates are in cm; the detector is centered on the z axis with its top
face at ``z = 0`` and extends downward (negative z), matching the convention
that a normally-incident GRB photon travels in direction ``(0, 0, -1)``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro import constants
from repro.constants import Material


@dataclass(frozen=True)
class Layer:
    """One scintillator slab.

    Attributes:
        z_top: z coordinate of the upper face (cm).
        z_bottom: z coordinate of the lower face (cm); ``z_bottom < z_top``.
        half_size: Half of the lateral extent in x and y (cm).
        material: Scintillator material of the slab.
    """

    z_top: float
    z_bottom: float
    half_size: float
    material: Material

    @property
    def thickness(self) -> float:
        """Slab thickness in cm."""
        return self.z_top - self.z_bottom

    def contains_z(self, z: np.ndarray) -> np.ndarray:
        """Vectorized test whether a z coordinate lies inside the slab."""
        return (z <= self.z_top) & (z >= self.z_bottom)


#: A ray direction component below this magnitude counts as parallel to
#: the matching faces: the slab test then asks whether the origin lies
#: between them instead of dividing by (nearly) zero.
PARALLEL_EPS: float = 1e-300

#: Outward margin of the stack's bounding box in
#: :meth:`DetectorGeometry.may_intersect`, cm.
BOX_PAD_CM: float = 1e-6


@dataclass(frozen=True)
class DetectorGeometry:
    """The full stack of layers plus derived lookup arrays.

    The stack is validated on construction: it has at least one layer,
    every layer has finite faces with ``z_bottom < z_top`` and a positive
    finite ``half_size``, and the layers are ordered top-down and disjoint
    in z (a layer's bottom face may touch the next layer's top face, never
    cross it).  The transport relies on that order: a ray meets the slabs
    in z order, so the layer columns are walked top-down or bottom-up
    without sorting.

    Use :func:`adapt_geometry` to build the default ADAPT configuration.
    """

    layers: tuple[Layer, ...]
    #: Per-layer face and half-size arrays, ``(L,)``.  ``_half`` collapses
    #: to one entry when every layer shares it, so the lateral slab test
    #: runs once per ray instead of once per layer.
    _z_top: np.ndarray = field(init=False, repr=False, compare=False)
    _z_bottom: np.ndarray = field(init=False, repr=False, compare=False)
    _half: np.ndarray = field(init=False, repr=False, compare=False)
    #: The stack's bounding box padded outward by BOX_PAD_CM, as ``(1,)``
    #: arrays in the same form as the per-layer ones.
    _box: tuple[np.ndarray, np.ndarray, np.ndarray] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        _validate_stack(self.layers)
        z_top = np.array([layer.z_top for layer in self.layers], dtype=np.float64)
        z_bottom = np.array(
            [layer.z_bottom for layer in self.layers], dtype=np.float64
        )
        half = np.array([layer.half_size for layer in self.layers], dtype=np.float64)
        if np.all(half == half[0]):
            half = half[:1]
        object.__setattr__(self, "_z_top", z_top)
        object.__setattr__(self, "_z_bottom", z_bottom)
        object.__setattr__(self, "_half", half)
        object.__setattr__(
            self,
            "_box",
            (
                np.array([z_top[0] + BOX_PAD_CM]),
                np.array([z_bottom[-1] - BOX_PAD_CM]),
                np.array([half.max() + BOX_PAD_CM]),
            ),
        )

    # -- basic extents -------------------------------------------------------

    @property
    def num_layers(self) -> int:
        return len(self.layers)

    @property
    def half_size(self) -> float:
        """Lateral half-extent of the widest layer (cm)."""
        return max(layer.half_size for layer in self.layers)

    @property
    def z_top(self) -> float:
        """Top face of the uppermost layer (cm)."""
        return self.layers[0].z_top

    @property
    def z_bottom(self) -> float:
        """Bottom face of the lowest layer (cm)."""
        return self.layers[-1].z_bottom

    @property
    def height(self) -> float:
        """Total stack height including gaps (cm)."""
        return self.z_top - self.z_bottom

    # -- queries ---------------------------------------------------------------

    def layer_index(self, points: np.ndarray) -> np.ndarray:
        """Map points to layer indices.

        Args:
            points: ``(n, 3)`` array of positions in cm.

        Returns:
            ``(n,)`` int array; the index of the layer containing each point,
            or ``-1`` for points in a gap or outside the detector.
        """
        points = np.atleast_2d(points)
        idx = np.full(points.shape[0], -1, dtype=np.int64)
        x, y, z = points[:, 0], points[:, 1], points[:, 2]
        for i, layer in enumerate(self.layers):
            inside = (
                layer.contains_z(z)
                & (np.abs(x) <= layer.half_size)
                & (np.abs(y) <= layer.half_size)
            )
            idx[inside] = i
        return idx

    def contains(self, points: np.ndarray) -> np.ndarray:
        """Vectorized test whether points lie inside active scintillator."""
        return self.layer_index(points) >= 0

    def path_length_in_layers(
        self, origin: np.ndarray, direction: np.ndarray, n_steps: int = 512
    ) -> float:
        """Total scintillator path length along a ray (numerical, for tests).

        Integrates layer membership along the ray from ``origin`` until it
        exits the bounding box.  Used as a slow reference implementation to
        validate the analytic transport stepping.
        """
        origin = np.asarray(origin, dtype=np.float64)
        direction = np.asarray(direction, dtype=np.float64)
        direction = direction / np.linalg.norm(direction)
        # Length of the ray segment within the detector bounding box.
        span = self.height + 2.0 * self.half_size
        ts = np.linspace(0.0, 2.0 * span, n_steps)
        pts = origin[None, :] + ts[:, None] * direction[None, :]
        inside = self.contains(pts)
        dt = ts[1] - ts[0]
        return float(inside.sum() * dt)

    def segment_intersections(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Entry/exit path lengths of rays through each layer slab.

        For every ray and every layer, computes the parametric interval
        ``[t_in, t_out]`` (cm) over which the ray is inside that slab,
        intersected with the lateral extent and the forward half-line
        (``t_in >= 0``).  Intervals are empty (``t_in >= t_out``) when the
        ray misses the slab.

        Args:
            origins: ``(n, 3)`` ray origins.
            directions: ``(n, 3)`` unit ray directions.

        Returns:
            Tuple ``(t_in, t_out)``, each ``(n, num_layers)``.  Both are
            transposed views of ``(num_layers, n)`` buffers, so one layer's
            column is contiguous in memory.
        """
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        t_in, t_out = _slab_intervals(
            origins, directions, self._z_top, self._z_bottom, self._half
        )
        return t_in.T, t_out.T

    def may_intersect(
        self, origins: np.ndarray, directions: np.ndarray
    ) -> np.ndarray:
        """Rays whose forward half-line may cross scintillator.

        The slab test of :meth:`segment_intersections`, run once against
        the stack's bounding box padded outward by ``BOX_PAD_CM``.  Each
        layer's faces lie inside the box's and the arithmetic is the same,
        so (rounding being monotone) every ray with a non-empty layer
        interval passes; the pad only admits more.  A ray that fails has
        no material ahead of it.

        Args:
            origins: ``(n, 3)`` ray origins.
            directions: ``(n, 3)`` unit ray directions.

        Returns:
            ``(n,)`` bool mask, True where the ray may hit a layer.
        """
        origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
        directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
        top, bottom, half = self._box
        t_in, t_out = _slab_intervals(origins, directions, top, bottom, half)
        return t_in[0] <= t_out[0]


def _validate_stack(layers: tuple[Layer, ...]) -> None:
    """Raise ValueError unless ``layers`` is a well-formed top-down stack."""
    if len(layers) == 0:
        raise ValueError("a detector stack needs at least one layer")
    for i, layer in enumerate(layers):
        faces = (layer.z_top, layer.z_bottom, layer.half_size)
        if not all(np.isfinite(f) for f in faces):
            raise ValueError(f"layer {i}: faces and half_size must be finite")
        if not layer.z_bottom < layer.z_top:
            raise ValueError(
                f"layer {i}: z_bottom ({layer.z_bottom}) must lie below "
                f"z_top ({layer.z_top})"
            )
        if not layer.half_size > 0:
            raise ValueError(f"layer {i}: half_size must be positive")
        if i > 0 and layer.z_top > layers[i - 1].z_bottom:
            raise ValueError(
                f"layer {i}: z_top ({layer.z_top}) lies above the bottom "
                f"face of layer {i - 1} ({layers[i - 1].z_bottom}); layers "
                "must be ordered top-down and disjoint in z"
            )


def _slab_intervals(
    origins: np.ndarray,
    directions: np.ndarray,
    z_top: np.ndarray,
    z_bottom: np.ndarray,
    half: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """``(K, n)`` forward entry/exit distances of n rays through K boxes.

    Box ``k`` spans ``z_bottom[k] <= z <= z_top[k]`` and ``|x|, |y| <=
    half[k]``; ``half`` may have one entry shared by every box.  The z
    interval is clipped to ``t >= 0`` before the lateral ones narrow it.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_in, t_out = _axis_interval(
            origins[:, 2], directions[:, 2], z_top, z_bottom
        )
        np.maximum(0.0, t_in, out=t_in)
        for axis in (0, 1):
            lo, hi = _axis_interval(
                origins[:, axis], directions[:, axis], half, -half
            )
            np.maximum(t_in, lo, out=t_in)
            np.minimum(t_out, hi, out=t_out)
    return t_in, t_out


def _axis_interval(
    o: np.ndarray, d: np.ndarray, upper: np.ndarray, lower: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """``(K, n)`` distances along rays ``o + t d`` between K face pairs.

    Rays parallel to the faces get ``[0, inf)`` when the origin lies
    between them (inclusive) and an empty ``[inf, -inf]`` otherwise; that
    fix-up runs only when some ray is parallel.
    """
    t1 = upper[:, None] - o
    t1 /= d
    t2 = lower[:, None] - o
    t2 /= d
    lo = np.minimum(t1, t2)
    hi = np.maximum(t1, t2, out=t1)
    parallel = np.abs(d) < PARALLEL_EPS
    if parallel.any():
        op = o[parallel]
        inside = (op <= upper[:, None]) & (op >= lower[:, None])
        lo[:, parallel] = np.where(inside, 0.0, np.inf)
        hi[:, parallel] = np.where(inside, np.inf, -np.inf)
    return lo, hi


def adapt_geometry(
    num_layers: int = constants.ADAPT_NUM_LAYERS,
    tile_size_cm: float = constants.ADAPT_TILE_SIZE_CM,
    tile_thickness_cm: float = constants.ADAPT_TILE_THICKNESS_CM,
    layer_gap_cm: float = constants.ADAPT_LAYER_GAP_CM,
    material: Material = constants.CSI,
) -> DetectorGeometry:
    """Build the default ADAPT demonstrator geometry.

    Four CsI tile layers, 40 cm square, 1.5 cm thick, separated by 10 cm
    gaps, stacked downward from z = 0.
    """
    if num_layers < 1:
        raise ValueError("num_layers must be >= 1")
    if tile_thickness_cm <= 0 or tile_size_cm <= 0 or layer_gap_cm < 0:
        raise ValueError("tile dimensions must be positive and gap non-negative")
    layers = []
    z = 0.0
    for _ in range(num_layers):
        layers.append(
            Layer(
                z_top=z,
                z_bottom=z - tile_thickness_cm,
                half_size=tile_size_cm / 2.0,
                material=material,
            )
        )
        z -= tile_thickness_cm + layer_gap_cm
    return DetectorGeometry(layers=tuple(layers))


def apt_geometry(
    num_layers: int = constants.APT_NUM_LAYERS,
    tile_size_cm: float = constants.APT_TILE_SIZE_CM,
    tile_thickness_cm: float = constants.APT_TILE_THICKNESS_CM,
    layer_gap_cm: float = constants.APT_LAYER_GAP_CM,
    material: Material = constants.CSI,
) -> DetectorGeometry:
    """Build the full APT orbital-instrument geometry (paper Section VI).

    Twenty 1 m^2 CsI layers in a compact stack: ~25x the geometric area
    and ~5x the scintillator depth of the balloon demonstrator, which is
    what lets APT localize even dim (< 0.1 MeV/cm^2) bursts to within a
    degree.  At the Sun-Earth L2 orbit there is no atmospheric MeV
    background; pair this geometry with a strongly reduced
    :class:`~repro.sources.background.BackgroundModel` flux.
    """
    return adapt_geometry(
        num_layers=num_layers,
        tile_size_cm=tile_size_cm,
        tile_thickness_cm=tile_thickness_cm,
        layer_gap_cm=layer_gap_cm,
        material=material,
    )
