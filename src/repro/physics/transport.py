"""Vectorized Monte-Carlo photon transport through the layered detector.

This is the heart of the Geant4 substitute: batches of photons are stepped
through the slab stack simultaneously; at each step every live photon
samples an exponential optical depth, walks the geometric layer
intersections to convert it into an interaction point (or escapes), chooses
an interaction channel from the cross-section ratios, and either deposits
energy and dies (photoelectric / pair, treated as local absorption) or
Compton-scatters into a new direction and energy.

Per the hpc-parallel guides, the inner loop is over *interaction
generations* (a handful), never over photons; all per-photon work is NumPy
array arithmetic on structure-of-arrays state.  Positions and directions
are ``(3, m)`` arrays, one contiguous row per axis, and no per-photon step
reduces, scans or sorts along a short trailing axis.

A generation works column-wise:

1. every live photon draws its optical depth (so the random stream never
   depends on which rays are dropped next);
2. a slab test against the stack's padded bounding box
   (:meth:`~repro.geometry.tiles.DetectorGeometry.may_intersect`) drops
   the rays that cannot reach scintillator; they escape, as the full test
   would have found.  In a campaign trial this drops ~60% of generation
   0, which is most of the transport;
3. the kept rays get their per-layer intervals from
   :meth:`~repro.geometry.tiles.DetectorGeometry.segment_intersections`,
   and a walk over the layer columns in z order (top-down for downward
   rays, bottom-up otherwise) turns optical depth into distance without
   sorting;
4. the survivors of a Compton scatter are compacted into the next
   generation's state.

The results and the random stream are bitwise those of the sorted walk
over every live ray that this replaced; the seed kernels are kept as
references in ``tests/physics/test_transport_reference.py``.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.constants import Material, CSI
from repro.geometry.tiles import PARALLEL_EPS, DetectorGeometry
from repro.obs import metrics as obs_metrics
from repro.obs import trace as obs_trace
from repro.physics.compton import (
    norm_columns,
    rotate_directions,
    sample_klein_nishina,
    scattered_energy,
)
from repro.physics.crosssections import interaction_probabilities, total_mu

#: Scattered photons below this energy are absorbed on the spot (their
#: residual range is sub-millimeter in CsI), MeV.
ABSORB_CUTOFF_MEV: float = 0.015

#: Fate codes recorded per photon.
FATE_NO_INTERACTION = 0  #: passed through without touching scintillator
FATE_ESCAPED = 1  #: interacted >=1 time, then left the detector
FATE_ABSORBED = 2  #: full energy chain terminated inside the detector
FATE_MAX_GENERATIONS = 3  #: still alive when the generation cap was reached


@dataclass
class TransportResult:
    """Structure-of-arrays record of all interactions ("hits") of a batch.

    Hits are stored flat and tagged with the photon index they belong to;
    within one photon, ``order`` counts interactions from 0 (the first
    scatter).  Per-photon summary arrays have length ``num_photons``.

    Attributes:
        photon_index: ``(k,)`` index of the owning photon for each hit.
        order: ``(k,)`` interaction order within the photon, from 0.
        positions: ``(k, 3)`` true interaction positions, cm.
        energies: ``(k,)`` true deposited energies, MeV.
        num_interactions: ``(n,)`` hits per photon.
        fate: ``(n,)`` FATE_* code per photon.
        escaped_energy: ``(n,)`` energy carried away by escaping photons, MeV.
    """

    photon_index: np.ndarray
    order: np.ndarray
    positions: np.ndarray
    energies: np.ndarray
    num_interactions: np.ndarray
    fate: np.ndarray
    escaped_energy: np.ndarray

    @property
    def num_hits(self) -> int:
        return int(self.photon_index.shape[0])

    @property
    def num_photons(self) -> int:
        return int(self.num_interactions.shape[0])

    def hits_of(self, photon: int) -> np.ndarray:
        """Indices of this photon's hits, sorted by interaction order."""
        idx = np.nonzero(self.photon_index == photon)[0]
        return idx[np.argsort(self.order[idx], kind="stable")]


def _material_path_to_geometric(
    t_in: np.ndarray,
    t_out: np.ndarray,
    required_path: np.ndarray,
    dz: np.ndarray,
) -> tuple[np.ndarray, np.ndarray]:
    """Convert a required material path length into a geometric distance.

    Walks each ray's slab-intersection intervals in the order the ray
    meets them, accumulating material path until ``required_path`` is
    consumed.  The slabs are disjoint in z, so that order is the layer
    order: top-down when ``dz < 0``, bottom-up otherwise.  A ray parallel
    to the faces can lie in two touching slabs at once; it meets them in
    order of entry distance, the upper one first on a tie.  Empty
    intervals add exact zeros, so the running sums, the chosen interval
    and ``t_star`` equal those of a walk over the intervals sorted by
    entry distance.  A zero ``required_path`` interacts at the smallest
    entry distance of any interval, empty or not, as that walk does.

    Args:
        t_in: ``(m, L)`` slab entry distances (may be negative/inf).
        t_out: ``(m, L)`` slab exit distances.
        required_path: ``(m,)`` material path to consume, cm.
        dz: ``(m,)`` z components of the ray directions.

    Returns:
        Tuple ``(t_star, escaped)`` — the geometric distance of the
        interaction point (undefined where ``escaped``), and a boolean mask
        of rays whose total remaining material path is insufficient.
    """
    # Clip intervals to the forward half-line.  A tiny epsilon keeps a photon
    # sitting exactly on the face it just interacted at from re-counting
    # zero-length path.  Work on (L, m) so each layer is one contiguous row.
    eps = 1e-12
    start = np.maximum(t_in.T, eps)
    end = np.maximum(t_out.T, eps)
    lengths = np.maximum(end - start, 0.0)
    n_layers, m = start.shape

    down = dz < 0
    parallel = np.abs(dz) < PARALLEL_EPS
    if parallel.any():
        # At most two slabs (sharing a face) are non-empty on such a ray.
        ne = lengths[:, parallel] > 0
        first = ne.argmax(axis=0)
        last = n_layers - 1 - ne[::-1].argmax(axis=0)
        cols = np.arange(first.size)
        s_par = start[:, parallel]
        down[parallel] = s_par[first, cols] <= s_par[last, cols]
    up = np.nonzero(~down)[0]
    if up.size:
        start[:, up] = np.take(start, up, axis=1)[::-1]
        lengths[:, up] = np.take(lengths, up, axis=1)[::-1]

    cum = lengths
    for k in range(1, n_layers):
        cum[k] += cum[k - 1]
    total = cum[-1]
    escaped = required_path >= total

    # Walk position of the interval in which the required path is consumed.
    idx = np.minimum((cum < required_path).sum(axis=0), n_layers - 1)
    cols = np.arange(m)
    prev = np.where(idx > 0, cum[idx - 1, cols], 0.0)
    t_star = start[idx, cols] + (required_path - prev)
    zero = required_path == 0
    if zero.any():
        # Nothing to consume: the interaction sits at the nearest entry,
        # empty interval or not.
        t_star[zero] = start[:, zero].min(axis=0)
    return t_star, escaped


@obs_trace.traced("physics.transport")
def transport_photons(
    geometry: DetectorGeometry,
    origins: np.ndarray,
    directions: np.ndarray,
    energies: np.ndarray,
    rng: np.random.Generator,
    material: Material = CSI,
    max_generations: int = 12,
    absorb_cutoff_mev: float = ABSORB_CUTOFF_MEV,
) -> TransportResult:
    """Transport a batch of photons through the detector.

    Args:
        geometry: Slab-stack detector geometry.
        origins: ``(n, 3)`` photon start positions, cm (typically on or
            above the top face, or on a lateral entry plane).
        directions: ``(n, 3)`` unit travel directions.
        energies: ``(n,)`` photon energies, MeV.
        rng: NumPy random generator (use spawned children for parallelism).
        material: Scintillator material (all layers share it).
        max_generations: Cap on interactions per photon.
        absorb_cutoff_mev: Scattered photons below this energy are locally
            absorbed.

    Returns:
        A :class:`TransportResult` with every interaction and per-photon fate.
    """
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64))
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64))
    n = origins.shape[0]
    if origins.shape[1:] != (3,) or directions.shape[1:] != (3,):
        raise ValueError("origins and directions must have shape (n, 3)")
    if directions.shape[0] != n or energies.shape[0] != n:
        raise ValueError("origins, directions, energies must have equal length")
    if not (
        np.isfinite(origins).all()
        and np.isfinite(directions).all()
        and np.isfinite(energies).all()
    ):
        raise ValueError("photon origins, directions and energies must be finite")
    norms = norm_columns(directions.T)
    if np.any(norms == 0):
        raise ValueError("zero-length direction vector")
    if np.any(energies <= 0):
        raise ValueError("photon energies must be positive")
    obs_metrics.inc("transport.photons", n)

    num_interactions = np.zeros(n, dtype=np.int64)
    fate = np.full(n, FATE_NO_INTERACTION, dtype=np.int64)
    escaped_energy = np.zeros(n, dtype=np.float64)

    hit_photon: list[np.ndarray] = []
    hit_order: list[np.ndarray] = []
    hit_pos: list[np.ndarray] = []
    hit_edep: list[np.ndarray] = []

    # The photons still in flight, compacted every generation: batch
    # index, energy, and position and unit direction as (3, m) arrays
    # (one contiguous row per axis).  A photon alive at generation g has
    # interacted exactly g times.
    live_idx = np.arange(n)
    pos = np.ascontiguousarray(origins.T)
    dirs = directions.T / norms
    e = energies
    for generation in range(max_generations):
        if live_idx.size == 0:
            break
        # One optical depth per live photon, drawn before any ray is
        # dropped, so the stream does not depend on the box test.
        draws = rng.exponential(1.0, size=live_idx.size)
        near = np.nonzero(geometry.may_intersect(pos.T, dirs.T))[0]
        pos = np.take(pos, near, axis=1)
        dirs = np.take(dirs, near, axis=1)
        e_near = e[near]
        t_in, t_out = geometry.segment_intersections(pos.T, dirs.T)
        # total_mu > 0 at every energy (Compton never vanishes); the
        # floor only shields degenerate test materials from 0-division.
        mu = np.maximum(total_mu(e_near, material), np.finfo(np.float64).tiny)
        t_star, esc_near = _material_path_to_geometric(
            t_in, t_out, draws[near] / mu, dirs[2]
        )

        # Rays that miss the stack's box escape with the rest; photons that
        # escape before interacting keep FATE_NO_INTERACTION.
        act = np.nonzero(~esc_near)[0]
        escaped = np.ones(live_idx.size, dtype=bool)
        escaped[near[act]] = False
        esc_idx = live_idx[escaped]
        escaped_energy[esc_idx] = e[escaped]
        if generation:
            fate[esc_idx] = FATE_ESCAPED

        act_idx = live_idx = live_idx[near[act]]
        if act_idx.size == 0:
            continue
        dirs = np.take(dirs, act, axis=1)
        new_pos = np.take(pos, act, axis=1) + t_star[act] * dirs
        e_act = e_near[act]

        p_c, p_pe, _p_pp = interaction_probabilities(e_act, material)
        u = rng.uniform(0.0, 1.0, size=act_idx.size)
        is_compton = u < p_c
        # Photoelectric and pair both terminate with full local deposition.

        edep = np.empty(act_idx.size, dtype=np.float64)
        edep[~is_compton] = e_act[~is_compton]
        fate[act_idx[~is_compton]] = FATE_ABSORBED
        live_idx = act_idx[:0]  # only Compton survivors fly on

        if np.any(is_compton):
            ci = np.nonzero(is_compton)[0]
            cos_t = sample_klein_nishina(e_act[ci], rng)
            e_sc = scattered_energy(e_act[ci], cos_t)
            dep = e_act[ci] - e_sc
            low = e_sc < absorb_cutoff_mev
            # Locally absorb sub-cutoff scattered photons: deposit everything.
            dep = np.where(low, e_act[ci], dep)
            edep[ci] = dep
            phi = rng.uniform(0.0, 2.0 * np.pi, size=ci.size)
            new_dirs = rotate_directions(dirs[:, ci].T, cos_t, phi)
            fate[act_idx[ci[low]]] = FATE_ABSORBED
            surv = ~low
            on = ci[surv]
            live_idx, pos, dirs, e = (
                act_idx[on], new_pos[:, on], new_dirs[surv].T, e_sc[surv]
            )

        hit_photon.append(act_idx)
        hit_order.append(np.full(act_idx.size, generation, dtype=np.int64))
        hit_pos.append(new_pos)
        hit_edep.append(edep)
        num_interactions[act_idx] += 1

    # Photons still in flight when the generation cap was reached.
    if live_idx.size:
        fate[live_idx] = FATE_MAX_GENERATIONS
        escaped_energy[live_idx] = e

    if hit_photon:
        photon_index = np.concatenate(hit_photon)
        order = np.concatenate(hit_order)
        positions = np.empty((photon_index.size, 3))
        np.concatenate(hit_pos, axis=1, out=positions.T)
        edeps = np.concatenate(hit_edep)
    else:
        photon_index = np.empty(0, dtype=np.int64)
        order = np.empty(0, dtype=np.int64)
        positions = np.empty((0, 3), dtype=np.float64)
        edeps = np.empty(0, dtype=np.float64)

    return TransportResult(
        photon_index=photon_index,
        order=order,
        positions=positions,
        energies=edeps,
        num_interactions=num_interactions,
        fate=fate,
        escaped_energy=escaped_energy,
    )
