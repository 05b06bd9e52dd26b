"""Bit-identity pins for the seeded random placement draws.

Seeded random placements are deterministic, and every figure and served
answer built on them depends on that.  These pins hold the SHA-256 of
``replica_indices`` + ``replica_indptr`` for uniform and weighted draws
on the tiny seed-11 corpus and on a synthetic column set, including a
heavily skewed case whose rows fall through to the dense continuation
and a case drawn in many row chunks.  A change to the draw kernel that
moves any replica, or consumes the RNG stream differently, fails here.
"""

from __future__ import annotations

import hashlib

import numpy as np
import pytest

from repro.engine import placement
from repro.engine.placement import PlacementArrays, random_arrays_from_columns

SEED = 5
REPLICA_COUNTS = (1, 2, 3, 9)


def replica_digest(arrays: PlacementArrays) -> str:
    digest = hashlib.sha256()
    digest.update(np.ascontiguousarray(arrays.replica_indices, dtype="<i8").tobytes())
    digest.update(np.ascontiguousarray(arrays.replica_indptr, dtype="<i8").tobytes())
    return digest.hexdigest()


def zero_weights(candidates) -> dict[str, float]:
    """Weights 0, 1, 2, 3 cycling over the candidates: a quarter never hosts."""
    return {domain: float(j % 4) for j, domain in enumerate(candidates)}


def skewed_weights(candidates) -> dict[str, float]:
    """A Pareto-like skew: the heaviest candidates collide within most races."""
    return {domain: float((j + 1) ** -2.5) for j, domain in enumerate(candidates)}


# -- the tiny seed-11 corpus ------------------------------------------------------


TINY_PINS = {
    (1, "uniform"): "20f994eeda2e02ae0b2582b08ad0f358c971bb958c811d1e8a2f37144bd9bc44",
    (2, "uniform"): "7cbbdeed8f48cbba2d2c2d084eeed9ae0484e333e462ce08f79697af20b9bdd0",
    (3, "uniform"): "792e074836e5ad152fcd63cea5e6d5b8ce3b90771120254d22ea60fc628babe3",
    (9, "uniform"): "66a6b9e36ac7d144050bdc634d90d473a307ad03fb81e81a6de96ec733909d91",
    (1, "weighted"): "07bf79e8a9be736197b449dc7575452187d0bd8c7e56ef064e5ce8d9cd9def6a",
    (2, "weighted"): "362e5dce5fd78c1786077fab5b09545d7ae420b63fdee4ff867bf8f8a8fd8b2c",
    (3, "weighted"): "36558321356a43b58459908380c003dcedd10b960a66e4ab8f5548dc51b311bc",
    (9, "weighted"): "c0bf5ee62825b32cba45fffe906295cb6af8dc70a258dea6af4e093ac56f5b6b",
}


@pytest.mark.parametrize("k", REPLICA_COUNTS)
@pytest.mark.parametrize("variant", ("uniform", "weighted"))
def test_tiny_corpus_draws_pinned(datasets, k, variant):
    candidates = datasets.instances.domains()
    weights = zero_weights(candidates) if variant == "weighted" else None
    arrays = PlacementArrays.from_corpus(
        datasets.toots.corpus,
        "random",
        candidate_domains=candidates,
        n_replicas=k,
        seed=SEED,
        weights=weights,
    ).validate()
    assert replica_digest(arrays) == TINY_PINS[k, variant]


# -- a synthetic column set -------------------------------------------------------


N_TOOTS = 30_000
N_HOMES = 200


def synthetic_columns():
    """Homes over 200 domains, 150 of which (plus 10 non-homes) are candidates."""
    rng = np.random.default_rng(3)
    homes = [f"h{j:03d}.example" for j in range(N_HOMES)]
    candidates = homes[60:] + [f"c{j:03d}.example" for j in range(10)]
    domains = tuple(sorted(set(homes) | set(candidates)))
    code = {domain: j for j, domain in enumerate(domains)}
    home_domain = rng.integers(0, N_HOMES, size=N_TOOTS)
    home = np.asarray([code[homes[j]] for j in home_domain], dtype=np.int64)
    return range(N_TOOTS), home, domains, sorted(candidates)


def synthetic_draw(k, weights_of=None, seed=SEED) -> PlacementArrays:
    urls, home, domains, candidates = synthetic_columns()
    weights = weights_of(candidates) if weights_of is not None else None
    return random_arrays_from_columns(
        urls, home, domains, candidates, k, seed=seed, weights=weights
    ).validate()


SYNTHETIC_PINS = {
    (1, "uniform"): "09339ab836a87aaaa88ebade3cbee831c60878e2ad7068e9b5ae53292c30b368",
    (2, "uniform"): "3d833f180c8fe1496cf11aa8a53caef3c08c2070af87f961df269834a277c61b",
    (3, "uniform"): "10b243bf7feb2e2a69dc63430c93ff2e1a25e7ace9e8cd815b3b11702e169573",
    (9, "uniform"): "110772d38b8e90e4399aeec6ff25ec5a8bec70d7c7f3c1bd9d99e2c7e957a5bc",
    (1, "weighted"): "0fed6793e1fd852d60e78bc340f3d2da591a323396855582baeb1175ab386590",
    (2, "weighted"): "84c5e4bbe1464247a71d9b176a5133292f8512140d9ec68ed6e318f403d26844",
    (3, "weighted"): "b1d4a512d167d54213ec6233d790d79b5afc4055ba60f6a03ea1097bfc50e204",
    (9, "weighted"): "118e9219b410f731fbd58a624ec57cccc4debf4ec06cb0ca357745cd75385129",
}


@pytest.mark.parametrize("k", REPLICA_COUNTS)
@pytest.mark.parametrize("variant", ("uniform", "weighted"))
def test_synthetic_draws_pinned(k, variant):
    arrays = synthetic_draw(k, zero_weights if variant == "weighted" else None)
    assert replica_digest(arrays) == SYNTHETIC_PINS[k, variant]


def test_skewed_draw_continues_densely_and_is_pinned(monkeypatch):
    """Under heavy skew many races end short of k distinct picks.

    Those rows are continued by the dense Gumbel keys with their partial
    picks forced in; the pin covers both the race and the continuation.
    """
    continued = []
    dense = placement._dense_gumbel_top_k

    def recording(rng, row_ids, *args, **kwargs):
        continued.append((row_ids.size, kwargs.get("partial_rows")))
        return dense(rng, row_ids, *args, **kwargs)

    monkeypatch.setattr(placement, "_dense_gumbel_top_k", recording)
    arrays = synthetic_draw(9, skewed_weights)
    assert len(continued) == 1
    rows, partial = continued[0]
    assert rows > 1_000 and partial is not None and partial.size > rows
    assert replica_digest(arrays) == (
        "7d2dabab473252d820ee25df8e6749b6b2ca5ff03e8d95de1af804816e35fa3a"
    )


@pytest.mark.parametrize(
    "variant, pin",
    (
        ("uniform", "10b243bf7feb2e2a69dc63430c93ff2e1a25e7ace9e8cd815b3b11702e169573"),
        ("skewed", "87b7890ddaa5bea901d839c30ca79c6ba3b57f93f64a234bef28b35f7dda2b24"),
    ),
)
def test_many_chunk_draws_pinned(monkeypatch, variant, pin):
    """A small chunk budget draws the race, and the continuation, in many chunks."""
    monkeypatch.setattr(placement, "_CHUNK_ELEMENTS", 5_000)
    arrays = synthetic_draw(3, skewed_weights if variant == "skewed" else None)
    assert replica_digest(arrays) == pin
