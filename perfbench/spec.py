"""What the server serves and how the load generator talks to it.

Both processes import this module. It fixes the *data* (the preloaded
keys and the vector table, drawn from a constant dataset seed) and the
shape of the stack; the *workload* (which keys, which values, which
query vectors) comes from the ``--seed`` the load generator is given and
never reaches the server, which only sees HTTP requests.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# -- feature keys -------------------------------------------------------------

NAMESPACE = "features"
N_KEYS = 4096
#: gateway cache size: the keyspace is 8x larger, so uniform reads mostly miss
CACHE_CAPACITY = 512
#: event time of the preloaded rows; every generated write is later
PRELOAD_EVENT_TIME = 1.0
#: ``value`` of a preloaded row; generated writes carry tokens >= 1
PRELOAD_TOKEN = 0.0

# -- cluster shape --------------------------------------------------------------

N_SHARDS = 2
N_REPLICAS = 2  # followers per shard leader

# -- vector table -----------------------------------------------------------------

VECTOR_TABLE = "items"
N_VECTORS = 50_000
DIM = 64
N_CENTERS = 64
VECTOR_SHARDS = 4
K = 10
DATASET_SEED = 20210801


def vector_matrix() -> np.ndarray:
    """The served table: ``N_VECTORS`` rows around ``N_CENTERS`` centres.

    Clustered rather than isotropic so an IVF index has cells worth
    probing. Deterministic: the generator rebuilds the same matrix to
    compute the exact top-k it checks recall against.
    """
    rng = np.random.default_rng(DATASET_SEED)
    centers = rng.normal(size=(N_CENTERS, DIM))
    labels = rng.integers(0, N_CENTERS, N_VECTORS)
    return centers[labels] + 0.5 * rng.normal(size=(N_VECTORS, DIM))


def feature_path(entity_id: int) -> str:
    return f"/v1/features/{NAMESPACE}/{entity_id}"


SEARCH_PATH = f"/v1/vectors/{VECTOR_TABLE}/search"
