"""The kernel entry points that farey.distance and certify.map_distance call.

Callers look the kernels up here as module attributes, so a profiler can
rebind them in one place.
"""

from __future__ import annotations

from ._kernels_py import farey_distance, min_displacement_scan

__all__ = ["ACTIVE_IMPLEMENTATION", "farey_distance", "min_displacement_scan"]

ACTIVE_IMPLEMENTATION = "python"
