"""The shared size × budget-level improvement grid behind Figs. 9–11.

The paper's Figs. 9, 10 and 11 are three views of the same computation:
for each of the 20 problem sizes, generate 10 random workflow instances;
for each instance sweep 20 uniform budget levels; at every (size, level)
cell average Critical-Greedy's improvement over GAIN3 across the 10
instances.  Fig. 9 averages the grid over levels (per-size curve), Fig. 10
over sizes (per-level curve), and Fig. 11 shows the full surface.

Computing the grid once and caching it per parameter set keeps the three
experiments consistent with each other and avoids tripling the runtime.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from repro.algorithms.critical_greedy import CriticalGreedyScheduler
from repro.algorithms.gain import Gain3Scheduler
from repro.analysis.metrics import improvement_percent
from repro.analysis.sweep import sweep_budgets
from repro.workloads.generator import PAPER_PROBLEM_SIZES, generate_problem

__all__ = ["ImprovementGrid", "compute_improvement_grid", "DEFAULT_GRID_SIZES"]

#: Full paper grid (20 sizes).  Experiments accept reduced subsets.
DEFAULT_GRID_SIZES: tuple[tuple[int, int, int], ...] = PAPER_PROBLEM_SIZES


@dataclass(frozen=True)
class ImprovementGrid:
    """Improvement surface: ``values[size_idx][level_idx]`` in percent."""

    sizes: tuple[tuple[int, int, int], ...]
    levels: int
    instances: int
    values: tuple[tuple[float, ...], ...]

    def by_size(self) -> list[float]:
        """Fig. 9 view — mean improvement per problem size."""
        return [float(np.mean(row)) for row in self.values]

    def by_level(self) -> list[float]:
        """Fig. 10 view — mean improvement per budget level."""
        arr = np.asarray(self.values)
        return [float(v) for v in arr.mean(axis=0)]

    def overall(self) -> float:
        """Grand mean improvement over the whole grid."""
        return float(np.mean(np.asarray(self.values)))


@lru_cache(maxsize=8)
def compute_improvement_grid(
    sizes: tuple[tuple[int, int, int], ...] = DEFAULT_GRID_SIZES,
    *,
    instances: int = 10,
    levels: int = 20,
    seed: int = 911,
) -> ImprovementGrid:
    """Compute (and cache) the CG-over-GAIN3 improvement grid.

    For each (size, budget level) cell the value is the mean over
    ``instances`` random instances of
    ``(MED_GAIN - MED_CG) / MED_GAIN * 100``.
    """
    cg = CriticalGreedyScheduler()
    gain = Gain3Scheduler()
    root = np.random.default_rng(seed)

    surface: list[tuple[float, ...]] = []
    for size in sizes:
        per_level = np.zeros(levels)
        for rng in root.spawn(instances):
            problem = generate_problem(size, rng)
            sweep = sweep_budgets(problem, [cg, gain], levels=levels)
            per_level += np.array(
                [
                    improvement_percent(
                        point.med["gain3"], point.med["critical-greedy"]
                    )
                    for point in sweep.points
                ]
            )
        surface.append(tuple(float(v) for v in per_level / instances))
    return ImprovementGrid(
        sizes=sizes, levels=levels, instances=instances, values=tuple(surface)
    )
