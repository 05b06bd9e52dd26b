"""The paper's analyses: instance characterisation, federation resilience.

Each module maps to a slice of the evaluation:

* :mod:`repro.core.growth` — Fig. 1 (instances/users/toots over time);
* :mod:`repro.core.centralisation` — Fig. 2 and the Section 4.1 headline
  concentration numbers;
* :mod:`repro.core.categories` — Figs. 3 and 4 (categories, activities);
* :mod:`repro.core.hosting` — Figs. 5 and 6 (countries, ASes, flows);
* :mod:`repro.core.availability` — Figs. 7-10 and Table 1;
* :mod:`repro.core.resilience` — Fig. 11 and the instance and AS
  rankings behind every removal attack (Figs. 13, 15 and 16);
* :mod:`repro.core.federation_analysis` — Fig. 14 and Table 2.

The removal sweeps of Figs. 12-13 and the toot placements and
availability curves of Figs. 15-16 are the failure-simulation engine's
(:mod:`repro.engine`), which imports nothing from this package.
"""

from repro.core import (  # noqa: F401
    availability,
    categories,
    centralisation,
    federation_analysis,
    growth,
    hosting,
    resilience,
)

__all__ = [
    "availability",
    "categories",
    "centralisation",
    "federation_analysis",
    "growth",
    "hosting",
    "resilience",
]
