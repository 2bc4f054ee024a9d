"""The adapted SNT-index: construction dataflow and the serving structure.

``build.py`` turns the traversal DataFrame into the index via one Spark
window stage (the running aggregate ``a``) and a driver-side assembly
(partition ids and string offsets, suffix arrays, forest, ToD
histograms);
``snt.py`` is the in-memory serving side — per-partition FM-indexes,
the temporal forest, the U map and the histogram store — implementing
``getTravelTimes`` (Procedure 5).
"""
from repro.index.snt import SNTIndex  # noqa: F401
