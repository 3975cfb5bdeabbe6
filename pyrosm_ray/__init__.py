"""pyrosm_ray — a Ray-Data-native spatial-join + tiling engine.

From-scratch re-expression of pyrosm's OSM data-processing semantics
(element model, tag filters, topology assembly, geometry typing) as
ray.data.Dataset pipelines, extended with H3/S2-style tiling, broadcast
uniform-grid point-in-polygon / kNN spatial joins (an STR-packed R-tree is
also provided in :mod:`pyrosm_ray.geom.strtree`) over Common-Crawl-style
web-page tables, raster<->vector zonal stats, dedup / text-analysis /
similarity operators, and per-partition checkpointing.
"""

__version__ = "0.1.0"

# Size Ray Data's own hash shuffle from the start (the package's keyed
# steps run on raw-task exchanges; the plain Ray Data oracle queries and
# calibrations still group on Ray's shuffle — see
# stages/blocks.py:tune_shuffle_context). Re-invoked by
# groupby_partitions once the cluster is up so the knobs match the live
# CPU count.
from pyrosm_ray.stages.blocks import tune_shuffle_context as _tune

_tune()
del _tune
