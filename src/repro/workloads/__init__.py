"""Seeded workload generators for experiments and tests.

:mod:`repro.workloads.serving` adds the serving traffic: database
recipes, query mixes and write deltas.  Like the paper layers, this
package imports nothing from the engine, sessions, storage or server.
"""

from repro.workloads.generators import (
    Family,
    containment_biased_pair,
    crossproduct_division_family,
    division_database,
    division_workload,
    equal_sets_pair,
    fig5_scaled_pair,
    random_database,
    zipf_set_relation,
    zipf_weights,
)

__all__ = [
    "Family",
    "containment_biased_pair",
    "crossproduct_division_family",
    "division_database",
    "division_workload",
    "equal_sets_pair",
    "fig5_scaled_pair",
    "random_database",
    "zipf_set_relation",
    "zipf_weights",
]
