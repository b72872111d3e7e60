"""Golden label digests: partitions reproduce exactly for a seed.

Every case runs one seeded path (assembly alone, a balanced run, or a whole
unbalanced PUNCH run with the default config) and compares the sha256 of
its labels (``int64``, C order) and its cost with the ledger in
``tests/golden/assembly_digests.json``.  A change that alters any partition
fails here, so a refactor or speed-up that claims bit-identical output is
checked on every tier-1 run.

Regenerate the ledger (only when a change *means* to move partitions, and
review the diff)::

    PYTHONPATH=src python tests/test_golden_digests.py
"""

from __future__ import annotations

import functools
import hashlib
import json
import os
import sys
from typing import Callable, Dict, Tuple

import numpy as np
import pytest

from repro.assembly.driver import run_assembly
from repro.balanced.driver import run_balanced_punch
from repro.core.config import AssemblyConfig, BalancedConfig, FilterConfig, PunchConfig
from repro.core.punch import run_punch
from repro.filtering.pipeline import run_filtering
from repro.synthetic.instances import instance
from repro.synthetic.roadnet import road_network

LEDGER = os.path.join(os.path.dirname(__file__), "golden", "assembly_digests.json")

#: the fragment graph of the ``fine`` benchmark workload
FINE_U = 32


@functools.lru_cache(maxsize=None)
def fine_fragments():
    """mini_like filtered at U=32 with rng 0."""
    g = instance("mini_like")
    return run_filtering(g, FINE_U, FilterConfig(), np.random.default_rng(0)).fragment_graph


def digest(labels) -> str:
    return hashlib.sha256(np.ascontiguousarray(labels, dtype=np.int64).tobytes()).hexdigest()


def _assembly(variant: str, seed: int, **cfg) -> Callable[[], Tuple[np.ndarray, float]]:
    def run():
        res = run_assembly(
            fine_fragments(),
            FINE_U,
            AssemblyConfig(local_search=variant, **cfg),
            np.random.default_rng(seed),
        )
        return res.labels, res.cost

    return run


def _balanced() -> Tuple[np.ndarray, float]:
    cfg = BalancedConfig(
        seed=1, rebalance_attempts=2, phi_unbalanced=16, phi_rebalance=16
    )
    res = run_balanced_punch(instance("mini_like"), 4, config=cfg)
    return res.partition.labels, res.cost


#: road networks of the unbalanced-PUNCH cases: (name, generator kwargs, U)
PUNCH_ROADS = (
    ("road800", dict(n_target=800, seed=3), 96),
    ("road1200", dict(n_target=1200, n_cities=7, seed=42), 128),
)


def _punch(gargs: dict, U: int, seed: int) -> Callable[[], Tuple[np.ndarray, float]]:
    def run():
        res = run_punch(road_network(**gargs), U, PunchConfig(seed=seed))
        return res.partition.labels, res.cost

    return run


CASES: Dict[str, Callable[[], Tuple[np.ndarray, float]]] = {
    **{
        f"fine/{variant}/seed{seed}": _assembly(variant, seed)
        for variant in ("L2", "L2+", "L2*")
        for seed in (0, 1, 2)
    },
    "fine/L2+/M4-combination/seed0": _assembly(
        "L2+", 0, multistart=4, use_combination=True
    ),
    "balanced/mini_like/k4/seed1": _balanced,
    **{
        f"punch/{name}/U{U}/seed{seed}": _punch(gargs, U, seed)
        for name, gargs, U in PUNCH_ROADS
        for seed in (0, 7)
    },
}


def compute(name: str) -> dict:
    labels, cost = CASES[name]()
    return {"digest": digest(labels), "cost": float(cost)}


def load_ledger() -> dict:
    with open(LEDGER) as fh:
        return json.load(fh)["cases"]


@pytest.mark.parametrize("name", sorted(CASES))
def test_labels_match_ledger(name):
    expected = load_ledger()[name]
    got = compute(name)
    assert got["cost"] == expected["cost"], name
    assert got["digest"] == expected["digest"], name


def test_ledger_covers_exactly_the_cases():
    assert set(load_ledger()) == set(CASES)


def main() -> int:
    cases = {name: compute(name) for name in sorted(CASES)}
    with open(LEDGER, "w") as fh:
        json.dump({"schema": 1, "cases": cases}, fh, indent=2, sort_keys=True)
        fh.write("\n")
    for name, entry in cases.items():
        print(f"{name:36s} cost {entry['cost']:8.1f}  {entry['digest'][:16]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
