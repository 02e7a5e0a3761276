"""The column-wise simulation kernels against their seed references.

``segment_intersections`` runs every layer in one broadcast, the
transport drops rays that miss the stack's padded bounding box and walks
the layer columns in z order instead of sorting them, the scattering
rotation and the background generator spell their cross products and
norms out per component, and digitize groups hits with
``np.repeat``/``np.bincount``.  The references below
are the expressions those kernels replaced.  Every comparison is bitwise
(same dtype, same shape, same bytes) and includes the generator state
after the call, because the campaign's parity tests rely on the exact
random stream.

The walk helper's ``t_star`` is defined only where a ray does not escape
(its docstring says so); escaped rows are compared on the flag alone.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import constants
from repro.constants import CSI
from repro.detector.response import DetectorResponse, EventSet, _empty_event_set
from repro.geometry.tiles import (
    BOX_PAD_CM,
    DetectorGeometry,
    Layer,
    adapt_geometry,
    apt_geometry,
)
from repro.physics.compton import (
    rotate_directions,
    sample_klein_nishina,
    scattered_energy,
)
from repro.physics.crosssections import interaction_probabilities, total_mu
from repro.physics.spectra import BandSpectrum
from repro.physics.transport import (
    ABSORB_CUTOFF_MEV,
    FATE_ABSORBED,
    FATE_ESCAPED,
    FATE_MAX_GENERATIONS,
    FATE_NO_INTERACTION,
    TransportResult,
    _material_path_to_geometric,
    transport_photons,
)
from repro.sources.background import BackgroundModel
from repro.sources.grb import LABEL_BACKGROUND, GRBSource, PhotonBatch

# -- references: the seed kernels --------------------------------------------


def ref_segment_intersections(geometry, origins, directions):
    origins = np.atleast_2d(origins).astype(np.float64)
    directions = np.atleast_2d(directions).astype(np.float64)
    n = origins.shape[0]
    nl = geometry.num_layers
    t_in = np.full((n, nl), np.inf)
    t_out = np.full((n, nl), -np.inf)
    with np.errstate(divide="ignore", invalid="ignore"):
        for j, layer in enumerate(geometry.layers):
            lo = np.zeros(n)
            hi = np.full(n, np.inf)
            dz = directions[:, 2]
            oz = origins[:, 2]
            t1 = (layer.z_top - oz) / dz
            t2 = (layer.z_bottom - oz) / dz
            tz_lo = np.minimum(t1, t2)
            tz_hi = np.maximum(t1, t2)
            parallel = np.abs(dz) < 1e-300
            inside_z = layer.contains_z(oz)
            tz_lo = np.where(parallel, np.where(inside_z, 0.0, np.inf), tz_lo)
            tz_hi = np.where(parallel, np.where(inside_z, np.inf, -np.inf), tz_hi)
            lo = np.maximum(lo, tz_lo)
            hi = np.minimum(hi, tz_hi)
            for axis in (0, 1):
                d = directions[:, axis]
                o = origins[:, axis]
                t1 = (layer.half_size - o) / d
                t2 = (-layer.half_size - o) / d
                ta = np.minimum(t1, t2)
                tb = np.maximum(t1, t2)
                parallel = np.abs(d) < 1e-300
                inside_a = np.abs(o) <= layer.half_size
                ta = np.where(parallel, np.where(inside_a, 0.0, np.inf), ta)
                tb = np.where(parallel, np.where(inside_a, np.inf, -np.inf), tb)
                lo = np.maximum(lo, ta)
                hi = np.minimum(hi, tb)
            t_in[:, j] = lo
            t_out[:, j] = hi
    return t_in, t_out


def ref_material_path_to_geometric(t_in, t_out, required_path):
    eps = 1e-12
    start = np.maximum(t_in, eps)
    end = np.maximum(t_out, eps)
    lengths = np.maximum(end - start, 0.0)
    order = np.argsort(start, axis=1)
    start_sorted = np.take_along_axis(start, order, axis=1)
    len_sorted = np.take_along_axis(lengths, order, axis=1)
    cum = np.cumsum(len_sorted, axis=1)
    total = cum[:, -1]
    escaped = required_path >= total
    idx = np.sum(cum < required_path[:, None], axis=1)
    idx_safe = np.minimum(idx, cum.shape[1] - 1)
    rows = np.arange(cum.shape[0])
    prev = np.where(idx_safe > 0, cum[rows, idx_safe - 1], 0.0)
    t_star = start_sorted[rows, idx_safe] + (required_path - prev)
    return t_star, escaped


def ref_rotate_directions(directions, cos_theta, phi):
    d = np.atleast_2d(np.asarray(directions, dtype=np.float64))
    helper = np.zeros_like(d)
    near_z = np.abs(d[:, 2]) > 0.999
    helper[near_z, 0] = 1.0
    helper[~near_z, 2] = 1.0
    u = np.cross(helper, d)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(d, u)
    sin_theta = np.sqrt(np.clip(1.0 - cos_theta**2, 0.0, 1.0))
    out = (
        sin_theta[:, None] * (np.cos(phi)[:, None] * u + np.sin(phi)[:, None] * v)
        + cos_theta[:, None] * d
    )
    out /= np.linalg.norm(out, axis=1, keepdims=True)
    return out


def ref_transport_photons(
    geometry,
    origins,
    directions,
    energies,
    rng,
    material=CSI,
    max_generations=12,
    absorb_cutoff_mev=ABSORB_CUTOFF_MEV,
):
    origins = np.atleast_2d(np.asarray(origins, dtype=np.float64)).copy()
    directions = np.atleast_2d(np.asarray(directions, dtype=np.float64)).copy()
    directions /= np.linalg.norm(directions, axis=1, keepdims=True)
    energies = np.atleast_1d(np.asarray(energies, dtype=np.float64)).copy()
    n = origins.shape[0]
    alive = np.ones(n, dtype=bool)
    num_interactions = np.zeros(n, dtype=np.int64)
    fate = np.full(n, FATE_NO_INTERACTION, dtype=np.int64)
    escaped_energy = np.zeros(n, dtype=np.float64)
    hit_photon, hit_order, hit_pos, hit_edep = [], [], [], []
    for _generation in range(max_generations):
        live_idx = np.nonzero(alive)[0]
        if live_idx.size == 0:
            break
        pos = origins[live_idx]
        dirs = directions[live_idx]
        e = energies[live_idx]
        t_in, t_out = ref_segment_intersections(geometry, pos, dirs)
        mu = np.maximum(total_mu(e, material), np.finfo(np.float64).tiny)
        required = rng.exponential(1.0, size=live_idx.size) / mu
        t_star, escaped = ref_material_path_to_geometric(t_in, t_out, required)
        esc_idx = live_idx[escaped]
        if esc_idx.size:
            alive[esc_idx] = False
            escaped_energy[esc_idx] = energies[esc_idx]
            fate[esc_idx] = np.where(
                num_interactions[esc_idx] > 0, FATE_ESCAPED, FATE_NO_INTERACTION
            )
        act = ~escaped
        act_idx = live_idx[act]
        if act_idx.size == 0:
            continue
        new_pos = pos[act] + t_star[act, None] * dirs[act]
        origins[act_idx] = new_pos
        e_act = e[act]
        p_c, _p_pe, _p_pp = interaction_probabilities(e_act, material)
        u = rng.uniform(0.0, 1.0, size=act_idx.size)
        is_compton = u < p_c
        edep = np.empty(act_idx.size, dtype=np.float64)
        edep[~is_compton] = e_act[~is_compton]
        if np.any(is_compton):
            ci = np.nonzero(is_compton)[0]
            cos_t = sample_klein_nishina(e_act[ci], rng)
            e_sc = scattered_energy(e_act[ci], cos_t)
            dep = e_act[ci] - e_sc
            low = e_sc < absorb_cutoff_mev
            dep = np.where(low, e_act[ci], dep)
            edep[ci] = dep
            phi = rng.uniform(0.0, 2.0 * np.pi, size=ci.size)
            new_dirs = ref_rotate_directions(dirs[act][ci], cos_t, phi)
            surv = ~low
            surv_global = act_idx[ci[surv]]
            directions[surv_global] = new_dirs[surv]
            energies[surv_global] = e_sc[surv]
            dead_global = act_idx[ci[low]]
            alive[dead_global] = False
            fate[dead_global] = FATE_ABSORBED
        term_global = act_idx[~is_compton]
        alive[term_global] = False
        fate[term_global] = FATE_ABSORBED
        hit_photon.append(act_idx)
        hit_order.append(num_interactions[act_idx].copy())
        hit_pos.append(new_pos)
        hit_edep.append(edep)
        num_interactions[act_idx] += 1
    still = np.nonzero(alive)[0]
    if still.size:
        fate[still] = FATE_MAX_GENERATIONS
        escaped_energy[still] = energies[still]
    if hit_photon:
        photon_index = np.concatenate(hit_photon)
        order = np.concatenate(hit_order)
        positions = np.concatenate(hit_pos, axis=0)
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


def ref_background_generate(model, geometry, rng, n_photons=None):
    side = model._plane_side(geometry)
    if n_photons is None:
        n_photons = int(rng.poisson(model.expected_photons(geometry)))
    cos_p = rng.uniform(model.cos_polar_min, 1.0, size=n_photons)
    sin_p = np.sqrt(np.clip(1.0 - cos_p**2, 0.0, 1.0))
    az = rng.uniform(0.0, 2.0 * np.pi, size=n_photons)
    src = np.stack([sin_p * np.cos(az), sin_p * np.sin(az), cos_p], axis=1)
    beam = -src
    center = np.array([0.0, 0.0, (geometry.z_top + geometry.z_bottom) / 2.0])
    dist = geometry.height + side
    a = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)
    b = rng.uniform(-side / 2.0, side / 2.0, size=n_photons)
    helper = np.zeros_like(beam)
    near_x = np.abs(beam[:, 0]) > 0.9
    helper[near_x, 1] = 1.0
    helper[~near_x, 0] = 1.0
    u = np.cross(helper, beam)
    u /= np.linalg.norm(u, axis=1, keepdims=True)
    v = np.cross(beam, u)
    origins = center[None, :] + src * dist + a[:, None] * u + b[:, None] * v
    energies = model.spectrum.sample(n_photons, rng)
    times = rng.uniform(0.0, model.duration_s, size=n_photons)
    labels = np.full(n_photons, LABEL_BACKGROUND, dtype=np.int64)
    return PhotonBatch(
        origins=origins,
        directions=beam,
        energies=energies,
        times=times,
        labels=labels,
        source_direction=None,
    )


def ref_merge_close_hits(response, ph, order, pos, edep):
    if ph.shape[0] == 0:
        return ph, order, pos, edep
    layer = response.geometry.layer_index(pos)
    same_photon = ph[1:] == ph[:-1]
    same_layer = (layer[1:] == layer[:-1]) & (layer[1:] >= 0)
    close = (
        np.linalg.norm(pos[1:] - pos[:-1], axis=1)
        < response.config.merge_radius_cm
    )
    merge_with_prev = same_photon & same_layer & close
    group = np.concatenate([[0], np.cumsum(~merge_with_prev)])
    n_groups = group[-1] + 1
    e_sum = np.zeros(n_groups)
    np.add.at(e_sum, group, edep)
    w_pos = np.zeros((n_groups, 3))
    np.add.at(w_pos, group, pos * edep[:, None])
    with np.errstate(invalid="ignore"):
        w_pos /= e_sum[:, None]
    first_of_group = np.concatenate([[True], ~merge_with_prev])
    return ph[first_of_group], order[first_of_group], w_pos, e_sum


def ref_digitize(response, transport, batch, rng, min_hits=1, max_hits=8):
    if transport.num_hits == 0:
        return _empty_event_set(batch.source_direction)
    order_key = np.lexsort((transport.order, transport.photon_index))
    ph = transport.photon_index[order_key]
    order = transport.order[order_key]
    pos = transport.positions[order_key]
    edep = transport.energies[order_key]
    ph, order, pos, edep = ref_merge_close_hits(response, ph, order, pos, edep)
    measured_pos, sigma_pos = response.measure_position(pos, rng)
    measured_e, sigma_e = response.measure_energy(edep, pos, rng)
    keep = measured_e >= response.config.trigger_threshold_mev
    ph, order = ph[keep], order[keep]
    pos, edep = pos[keep], edep[keep]
    measured_pos, sigma_pos = measured_pos[keep], sigma_pos[keep]
    measured_e, sigma_e = measured_e[keep], sigma_e[keep]
    if ph.shape[0] == 0:
        return _empty_event_set(batch.source_direction)
    unique_ph, start_idx, counts = np.unique(
        ph, return_index=True, return_counts=True
    )
    enough = (counts >= min_hits) & (counts <= max_hits)
    unique_ph = unique_ph[enough]
    start_idx = start_idx[enough]
    counts = counts[enough]
    hit_sel = (
        np.concatenate([np.arange(s, s + c) for s, c in zip(start_idx, counts)])
        if counts.size
        else np.empty(0, dtype=np.int64)
    )
    offsets = np.concatenate([[0], np.cumsum(counts)])
    return EventSet(
        event_offsets=offsets.astype(np.int64),
        positions=measured_pos[hit_sel],
        energies=measured_e[hit_sel],
        sigma_energy=sigma_e[hit_sel],
        sigma_position=sigma_pos[hit_sel],
        true_positions=pos[hit_sel],
        true_energies=edep[hit_sel],
        true_order=order[hit_sel],
        photon_index=unique_ph,
        labels=batch.labels[unique_ph],
        photon_energy=batch.energies[unique_ph],
        source_direction=batch.source_direction,
    )


# -- helpers -----------------------------------------------------------------


def assert_bitwise(a, b, what=""):
    a, b = np.asarray(a), np.asarray(b)
    assert a.dtype == b.dtype, (what, a.dtype, b.dtype)
    assert a.shape == b.shape, (what, a.shape, b.shape)
    assert np.ascontiguousarray(a).tobytes() == np.ascontiguousarray(b).tobytes(), what


def assert_same_fields(got, want):
    for name, value in vars(want).items():
        other = getattr(got, name)
        if value is None:
            assert other is None, name
        else:
            assert_bitwise(other, value, name)


def run_both(geometry, origins, directions, energies, seed, **kwargs):
    rng_new = np.random.default_rng(seed)
    rng_ref = np.random.default_rng(seed)
    got = transport_photons(geometry, origins, directions, energies, rng_new, **kwargs)
    want = ref_transport_photons(
        geometry, origins, directions, energies, rng_ref, **kwargs
    )
    assert_same_fields(got, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
    return got


def zero_gap_geometry():
    return adapt_geometry(layer_gap_cm=0.0)


def mixed_width_geometry():
    """Touching layers of unequal width: a horizontal ray on a shared face
    lies in two slabs at once and enters them at different distances."""
    csi = constants.CSI
    return DetectorGeometry(
        layers=(
            Layer(z_top=0.0, z_bottom=-1.5, half_size=20.0, material=csi),
            Layer(z_top=-1.5, z_bottom=-3.0, half_size=15.0, material=csi),
            Layer(z_top=-3.0, z_bottom=-4.5, half_size=25.0, material=csi),
            Layer(z_top=-9.0, z_bottom=-10.5, half_size=20.0, material=csi),
        )
    )


GEOMETRIES = {
    "adapt": adapt_geometry(),
    "apt": apt_geometry(),
    "zero_gap": zero_gap_geometry(),
    "mixed_width": mixed_width_geometry(),
}


def _unit(v):
    v = np.asarray(v, dtype=np.float64)
    return v / np.linalg.norm(v, axis=-1, keepdims=True)


def mixed_batch(geometry, seed, n_plane, n_background, n_inside):
    """GRB plane wave + background + isotropic photons started in the box."""
    rng = np.random.default_rng(seed)
    parts = []
    if n_plane:
        grb = GRBSource(
            polar_angle_deg=float(rng.uniform(0.0, 89.0)),
            azimuth_deg=float(rng.uniform(0.0, 360.0)),
        )
        parts.append(grb.generate(geometry, rng, n_photons=n_plane))
    if n_background:
        parts.append(BackgroundModel().generate(geometry, rng, n_photons=n_background))
    origins = [p.origins for p in parts]
    directions = [p.directions for p in parts]
    energies = [p.energies for p in parts]
    if n_inside:
        h = geometry.half_size * 1.1
        origins.append(
            np.stack(
                [
                    rng.uniform(-h, h, n_inside),
                    rng.uniform(-h, h, n_inside),
                    rng.uniform(geometry.z_bottom - 1.0, geometry.z_top + 1.0, n_inside),
                ],
                axis=1,
            )
        )
        directions.append(_unit(rng.normal(size=(n_inside, 3))))
        energies.append(BandSpectrum().sample(n_inside, rng))
    return (
        np.concatenate(origins, axis=0),
        np.concatenate(directions, axis=0),
        np.concatenate(energies),
    )


def hand_made_rays(geometry):
    """Degenerate and boundary rays: parallel to faces, inside a layer,
    horizontal in and between layers, upward, pure misses, and rays that
    graze the padded bounding box."""
    h = geometry.half_size
    top, bottom = geometry.z_top, geometry.z_bottom
    first = geometry.layers[0]
    mid0 = 0.5 * (first.z_top + first.z_bottom)
    rays = [
        # straight down / up through the whole stack
        ((0.0, 0.0, top + 5.0), (0.0, 0.0, -1.0)),
        ((3.0, -2.0, bottom - 5.0), (0.0, 0.0, 1.0)),
        ((1.0, 1.0, bottom - 5.0), (0.1, -0.05, 1.0)),
        # oblique downward, and upward from inside the stack
        ((-10.0, 4.0, top + 2.0), (0.3, -0.1, -1.0)),
        ((2.0, 2.0, mid0), (0.2, 0.1, 1.0)),
        # starting inside a layer, down / sideways / up
        ((0.0, 0.0, mid0), (0.0, 0.0, -1.0)),
        ((5.0, -5.0, mid0), (0.6, 0.8, 0.0)),
        ((5.0, -5.0, mid0), (0.0, 0.0, 1.0)),
        # horizontal inside a layer, from outside laterally
        ((-2 * h, 0.0, mid0), (1.0, 0.0, 0.0)),
        ((0.0, 2 * h, mid0), (0.0, -1.0, 0.0)),
        # on faces: exactly on the top face, travelling along it
        ((-2 * h, 0.0, first.z_top), (1.0, 0.0, 0.0)),
        ((-2 * h, 0.0, first.z_bottom), (1.0, 0.0, 0.0)),
        # along a lateral face (dx == 0 exactly on x = +-h)
        ((h, 0.0, top + 3.0), (0.0, 0.0, -1.0)),
        ((-h, 1.0, bottom - 3.0), (0.0, 0.3, 1.0)),
        # pure misses
        ((3 * h, 0.0, top + 1.0), (0.0, 0.0, -1.0)),
        ((0.0, 0.0, top + 1.0), (0.0, 0.0, 1.0)),
        ((0.0, 0.0, bottom - 1.0), (0.0, 0.0, -1.0)),
        ((-2 * h, 0.0, top + 4.0), (1.0, 0.0, 0.0)),
        # grazing the bounding box inside / outside its pad
        ((h + 0.5 * BOX_PAD_CM, 0.0, top + 1.0), (0.0, 0.0, -1.0)),
        ((h + 2.0 * BOX_PAD_CM, 0.0, top + 1.0), (0.0, 0.0, -1.0)),
        ((0.0, -2 * h, top + 0.5 * BOX_PAD_CM), (0.0, 1.0, 0.0)),
    ]
    # horizontal rays in every gap and on every face
    for upper, lower in zip(geometry.layers[:-1], geometry.layers[1:]):
        gap = 0.5 * (upper.z_bottom + lower.z_top)
        rays.append(((-2 * h, 0.3, gap), (1.0, 0.0, 0.0)))
        rays.append(((2 * h, 0.3, lower.z_top), (-1.0, 0.0, 0.0)))
        rays.append(((0.5, 0.3, upper.z_bottom), (1.0, 0.0, 0.0)))
    origins = np.array([o for o, _ in rays], dtype=np.float64)
    directions = _unit(np.array([d for _, d in rays], dtype=np.float64))
    return origins, directions


# -- segment_intersections ---------------------------------------------------


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_segment_intersections_hand_made_rays(name):
    geometry = GEOMETRIES[name]
    origins, directions = hand_made_rays(geometry)
    got = geometry.segment_intersections(origins, directions)
    want = ref_segment_intersections(geometry, origins, directions)
    for g, w, what in zip(got, want, ("t_in", "t_out")):
        assert_bitwise(g, w, what)


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(GEOMETRIES)),
    seed=st.integers(0, 2**31 - 1),
    n=st.integers(1, 200),
)
def test_segment_intersections_random_rays(name, seed, n):
    geometry = GEOMETRIES[name]
    origins, directions, _ = mixed_batch(geometry, seed, n, n, n)
    got = geometry.segment_intersections(origins, directions)
    want = ref_segment_intersections(geometry, origins, directions)
    for g, w, what in zip(got, want, ("t_in", "t_out")):
        assert_bitwise(g, w, what)


# -- the box prefilter ---------------------------------------------------------


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_box_test_keeps_every_ray_with_material(name):
    geometry = GEOMETRIES[name]
    origins, directions = hand_made_rays(geometry)
    extra_o, extra_d, _ = mixed_batch(geometry, 7, 300, 300, 300)
    origins = np.concatenate([origins, extra_o])
    directions = np.concatenate([directions, extra_d])
    t_in, t_out = ref_segment_intersections(geometry, origins, directions)
    eps = 1e-12
    material = (np.maximum(t_out, eps) > np.maximum(t_in, eps)).any(axis=1)
    kept = geometry.may_intersect(origins, directions)
    assert material.any() and not kept.all()
    assert not np.any(material & ~kept)


def test_box_test_admits_rays_within_the_pad():
    geometry = GEOMETRIES["adapt"]
    h, top, bottom = geometry.half_size, geometry.z_top, geometry.z_bottom
    inside_pad = 0.5 * BOX_PAD_CM
    origins = np.array(
        [
            [h + inside_pad, 0.0, top + 1.0],
            [0.0, -h - inside_pad, bottom - 1.0],
            [-2 * h, 0.0, top + inside_pad],
            [-2 * h, 0.0, bottom - inside_pad],
            [h + 2 * BOX_PAD_CM, 0.0, top + 1.0],
        ]
    )
    directions = np.array(
        [
            [0.0, 0.0, -1.0],
            [0.0, 0.0, 1.0],
            [1.0, 0.0, 0.0],
            [1.0, 0.0, 0.0],
            [0.0, 0.0, -1.0],
        ]
    )
    kept = geometry.may_intersect(origins, directions)
    assert kept.tolist() == [True, True, True, True, False]


# -- the z-order walk ----------------------------------------------------------


def _walk_cases(geometry):
    origins, directions = hand_made_rays(geometry)
    extra_o, extra_d, _ = mixed_batch(geometry, 11, 100, 100, 100)
    origins = np.concatenate([origins, extra_o])
    directions = np.concatenate([directions, extra_d])
    t_in, t_out = geometry.segment_intersections(origins, directions)
    r_in, r_out = ref_segment_intersections(geometry, origins, directions)
    eps = 1e-12
    start = np.maximum(r_in, eps)
    lengths = np.maximum(np.maximum(r_out, eps) - start, 0.0)
    cum = np.cumsum(np.take_along_axis(lengths, np.argsort(start, axis=1), 1), 1)
    total = cum[:, -1]
    # Required paths: nothing, every partial sum exactly (ties with the
    # running sum), fractions of the total, the total itself, beyond it.
    required = [np.zeros_like(total), -np.zeros_like(total)]
    required += [cum[:, k] for k in range(cum.shape[1])]
    required += [total * f for f in (0.1, 0.5, 0.9, 1.0, 1.5)]
    required += [np.nextafter(total, 0.0), np.nextafter(total, np.inf)]
    return t_in, t_out, r_in, r_out, directions[:, 2], required


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
def test_walk_matches_sorted_walk(name):
    t_in, t_out, r_in, r_out, dz, required = _walk_cases(GEOMETRIES[name])
    for req in required:
        t_star, escaped = _material_path_to_geometric(t_in, t_out, req, dz)
        ref_t, ref_esc = ref_material_path_to_geometric(r_in, r_out, req)
        assert_bitwise(escaped, ref_esc, "escaped")
        assert_bitwise(t_star[~escaped], ref_t[~ref_esc], "t_star")


def test_walk_required_zero_and_total():
    geometry = GEOMETRIES["adapt"]
    origins = np.array([[0.0, 0.0, 5.0], [0.0, 0.0, -60.0], [100.0, 0.0, 5.0]])
    directions = np.array([[0.0, 0.0, -1.0], [0.0, 0.0, 1.0], [0.0, 0.0, -1.0]])
    t_in, t_out = geometry.segment_intersections(origins, directions)
    r_in, r_out = ref_segment_intersections(geometry, origins, directions)
    total = geometry.num_layers * constants.ADAPT_TILE_THICKNESS_CM
    for req, want_escaped in (
        (np.zeros(3), [False, False, True]),
        (np.array([total, total, 0.0]), [True, True, True]),
    ):
        t_star, escaped = _material_path_to_geometric(
            t_in, t_out, req, directions[:, 2]
        )
        ref_t, ref_esc = ref_material_path_to_geometric(r_in, r_out, req)
        assert escaped.tolist() == want_escaped == ref_esc.tolist()
        assert_bitwise(t_star[~escaped], ref_t[~ref_esc], "t_star")


def test_walk_on_shared_face_follows_entry_distance():
    # Horizontal rays on the face shared by layers of half-width 20 and
    # 15 (and 15 and 25): the ray is in both slabs at once and meets them
    # in order of entry distance, whichever is the upper one.
    geometry = GEOMETRIES["mixed_width"]
    origins = np.array(
        [[-40.0, 0.0, -1.5], [40.0, 0.0, -3.0], [0.0, -40.0, -1.5], [-30.0, 0.0, -3.0]]
    )
    directions = np.array(
        [[1.0, 0.0, 0.0], [-1.0, 0.0, 0.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]]
    )
    t_in, t_out = geometry.segment_intersections(origins, directions)
    r_in, r_out = ref_segment_intersections(geometry, origins, directions)
    for req in np.linspace(0.5, 90.0, 40):
        required = np.full(len(origins), req)
        t_star, escaped = _material_path_to_geometric(
            t_in, t_out, required, directions[:, 2]
        )
        ref_t, ref_esc = ref_material_path_to_geometric(r_in, r_out, required)
        assert_bitwise(escaped, ref_esc, "escaped")
        assert_bitwise(t_star[~escaped], ref_t[~ref_esc], "t_star")


# -- full transport ------------------------------------------------------------


@settings(max_examples=40, deadline=None)
@given(
    name=st.sampled_from(sorted(GEOMETRIES)),
    seed=st.integers(0, 2**31 - 1),
    n_plane=st.integers(0, 150),
    n_background=st.integers(0, 150),
    n_inside=st.integers(0, 60),
)
def test_transport_matches_seed_on_random_batches(
    name, seed, n_plane, n_background, n_inside
):
    geometry = GEOMETRIES[name]
    if n_plane + n_background + n_inside == 0:
        n_plane = 1
    origins, directions, energies = mixed_batch(
        geometry, seed, n_plane, n_background, n_inside
    )
    run_both(geometry, origins, directions, energies, seed + 1)


@pytest.mark.parametrize("name", sorted(GEOMETRIES))
@pytest.mark.parametrize("energy", [0.03, 0.3, 1.0, 8.0])
def test_transport_matches_seed_on_hand_made_rays(name, energy):
    geometry = GEOMETRIES[name]
    origins, directions = hand_made_rays(geometry)
    # Many copies of each ray so each one interacts at many depths.
    origins = np.repeat(origins, 40, axis=0)
    directions = np.repeat(directions, 40, axis=0)
    energies = np.full(origins.shape[0], energy)
    run_both(geometry, origins, directions, energies, 5)


def test_transport_matches_seed_on_unnormalised_directions():
    geometry = GEOMETRIES["adapt"]
    origins, directions, energies = mixed_batch(geometry, 3, 100, 100, 50)
    scale = np.random.default_rng(4).uniform(0.1, 30.0, size=(len(energies), 1))
    run_both(geometry, origins, directions * scale, energies, 9)


@pytest.mark.parametrize("max_generations", [0, 1, 2])
def test_transport_matches_seed_at_generation_cap(max_generations):
    geometry = GEOMETRIES["adapt"]
    origins, directions, energies = mixed_batch(geometry, 21, 200, 200, 50)
    result = run_both(
        geometry, origins, directions, energies, 8, max_generations=max_generations
    )
    assert np.any(result.fate == FATE_MAX_GENERATIONS)


def test_transport_matches_seed_on_a_trial_sized_exposure():
    geometry = GEOMETRIES["adapt"]
    rng = np.random.default_rng(2024)
    batch = PhotonBatch.concatenate(
        [
            GRBSource(fluence_mev_cm2=1.0, polar_angle_deg=30.0).generate(geometry, rng),
            BackgroundModel().generate(geometry, rng),
        ]
    )
    run_both(geometry, batch.origins, batch.directions, batch.energies, 77)


# -- scattering rotation -------------------------------------------------------


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**31 - 1), n=st.integers(1, 400))
def test_rotate_directions_matches_seed(seed, n):
    rng = np.random.default_rng(seed)
    d = _unit(rng.normal(size=(n, 3)))
    # Axis-aligned and near-z rows take the other helper branch and give
    # exact zero products.
    axes = np.array(
        [[0, 0, 1], [0, 0, -1], [1, 0, 0], [0, -1, 0], [0.01, 0, 0.99995]]
    )
    d = np.concatenate([d, _unit(axes)])
    cos_t = rng.uniform(-1.0, 1.0, size=len(d))
    cos_t[:2] = (1.0, -1.0)
    phi = rng.uniform(0.0, 2.0 * np.pi, size=len(d))
    assert_bitwise(
        rotate_directions(d, cos_t, phi), ref_rotate_directions(d, cos_t, phi)
    )


# -- background generation and digitize ----------------------------------------


@settings(max_examples=25, deadline=None)
@given(
    name=st.sampled_from(sorted(GEOMETRIES)),
    seed=st.integers(0, 2**31 - 1),
    n=st.one_of(st.none(), st.integers(0, 3000)),
    cos_polar_min=st.sampled_from([-1.0, -0.5, 0.0, 0.9]),
)
def test_background_generate_matches_seed(name, seed, n, cos_polar_min):
    geometry = GEOMETRIES[name]
    model = BackgroundModel(flux_per_cm2_s=0.5, cos_polar_min=cos_polar_min)
    rng_new, rng_ref = np.random.default_rng(seed), np.random.default_rng(seed)
    got = model.generate(geometry, rng_new, n_photons=n)
    want = ref_background_generate(model, geometry, rng_ref, n_photons=n)
    assert_same_fields(got, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state


def test_background_generate_matches_seed_on_axis_beams():
    # Beams along +-x, +-y and +-z hit both helper-axis branches and make
    # many exact zero products in the plane basis.
    geometry = GEOMETRIES["adapt"]
    model = BackgroundModel(cos_polar_min=-1.0)

    class AxisRng:
        """Feeds generate() polar cosines/azimuths that put beams on axes."""

        def __init__(self, seed):
            self.rng = np.random.default_rng(seed)
            self.calls = 0

        def uniform(self, low=0.0, high=1.0, size=None):
            self.calls += 1
            if self.calls == 1:
                return np.array([1.0, -1.0, 0.0, 0.0, 0.0, 0.0, 0.5])
            if self.calls == 2:
                q = np.pi / 2.0
                return np.array([0.0, 0.0, 0.0, q, 2 * q, 3 * q, 0.3])
            return self.rng.uniform(low, high, size)

        def __getattr__(self, name):
            return getattr(self.rng, name)

    got = model.generate(geometry, AxisRng(1), n_photons=7)
    want = ref_background_generate(model, geometry, AxisRng(1), n_photons=7)
    assert_same_fields(got, want)


@settings(max_examples=15, deadline=None)
@given(
    seed=st.integers(0, 2**31 - 1),
    fluence=st.sampled_from([0.1, 0.5, 1.2]),
    min_hits=st.sampled_from([1, 2, 3]),
    max_hits=st.sampled_from([2, 8]),
)
def test_digitize_matches_seed(seed, fluence, min_hits, max_hits):
    geometry = GEOMETRIES["adapt"]
    response = DetectorResponse(geometry)
    rng = np.random.default_rng(seed)
    grb = GRBSource(fluence_mev_cm2=fluence, polar_angle_deg=30.0)
    batch = PhotonBatch.concatenate(
        [
            grb.generate(geometry, rng),
            BackgroundModel(flux_per_cm2_s=2.0).generate(geometry, rng),
        ]
    )
    transport = transport_photons(
        geometry, batch.origins, batch.directions, batch.energies, rng
    )
    rng_new, rng_ref = np.random.default_rng(seed + 1), np.random.default_rng(seed + 1)
    got = response.digitize(transport, batch, rng_new, min_hits, max_hits)
    want = ref_digitize(response, transport, batch, rng_ref, min_hits, max_hits)
    assert_same_fields(got, want)
    assert rng_new.bit_generator.state == rng_ref.bit_generator.state
