"""Benchmark set-up: detector, trained networks and the exposure corpus.

Everything here runs inside the timed set-up (``setup_s``).  The
networks are trained with the test suite's small recipe from fixed
seeds, so every run serves the same model.  The scored operations are
a fixed corpus too (``CORPUS_SEED``): the alert exposures with the
random stream of each localization, and the campaign's trial seeds.
The accuracy metrics then compare like with like across runs and
commits, and a change in them means a change in behaviour, not a
different draw of bursts.  The workload seed decides the traffic: when
requests are due, the order in which exposures are sent, and the order
of the sweep points.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

#: Exposure corpus for the alert workloads: every fluence (MeV/cm^2) at
#: every polar angle (deg), so ring counts span dim to bright bursts.
POOL_FLUENCES = (0.3, 0.6, 1.2, 2.4)
POOL_POLARS_DEG = (0.0, 70.0 / 3, 140.0 / 3, 70.0)

#: Root seed of the fixed corpora (alert exposures, campaign trials).
CORPUS_SEED = 20240917


@dataclass
class PoolEntry:
    """One pre-simulated exposure and its true source direction."""

    events: object
    truth: np.ndarray


def detector():
    """The ADAPT geometry and its default detector response."""
    from repro.detector.response import DetectorResponse
    from repro.geometry.tiles import adapt_geometry

    geometry = adapt_geometry()
    return geometry, DetectorResponse(geometry)


def train_pipeline(geometry, response, skymap: bool):
    """Train the small background and dEta networks (fixed seeds).

    Args:
        geometry: Detector geometry.
        response: Detector response.
        skymap: Attach the default hierarchical sky search to outcomes.

    Returns:
        A trained ``MLPipeline``.
    """
    from repro.experiments.datasets import generate_training_rings
    from repro.localization.hierarchy import SkymapConfig
    from repro.models.background import (
        BackgroundTrainConfig,
        train_background_net,
    )
    from repro.models.deta import DEtaTrainConfig, train_deta_net
    from repro.pipeline.ml_pipeline import MLPipeline, MLPipelineConfig
    from repro.sources.grb import LABEL_BACKGROUND

    data = generate_training_rings(
        geometry,
        response,
        seed=77,
        polar_angles_deg=np.array([0.0, 40.0, 80.0]),
        exposures_per_angle=3,
    )
    rng = np.random.default_rng(5)
    background_net = train_background_net(
        data.features,
        (data.labels == LABEL_BACKGROUND).astype(float),
        data.polar_true,
        rng,
        config=BackgroundTrainConfig(
            hidden_widths=(32, 16), max_epochs=25, patience=8
        ),
    )
    grb = data.grb_only()
    deta_net = train_deta_net(
        grb.features,
        grb.true_eta_errors,
        rng,
        config=DEtaTrainConfig(hidden_widths=(8, 8), max_epochs=25, patience=8),
    )
    config = MLPipelineConfig(skymap=SkymapConfig() if skymap else None)
    return MLPipeline(
        background_net=background_net, deta_net=deta_net, config=config
    )


def simulate_pool(geometry, response) -> list[PoolEntry]:
    """Simulate and digitize the fixed alert corpus (one exposure per cell)."""
    from repro.serve import synthetic_event_pool

    cells = [(f, p) for f in POOL_FLUENCES for p in POOL_POLARS_DEG]
    seeds = np.random.SeedSequence(CORPUS_SEED).generate_state(len(cells))
    pool = []
    for (fluence, polar), seed in zip(cells, seeds):
        (events,) = synthetic_event_pool(
            1, int(seed), fluence=fluence, polar_deg=polar,
            geometry=geometry, response=response,
        )
        truth = np.array(events.source_direction, dtype=np.float64)
        pool.append(PoolEntry(events, truth))
    return pool
