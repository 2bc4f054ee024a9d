"""The adapted SNT-index: construction dataflow and the serving structure.

``build.py`` collects the traversal DataFrame to the driver and
assembles the index there (record order, the running aggregate ``a``,
partition ids and string offsets, suffix arrays, forest, ToD
histograms);
``snt.py`` is the in-memory serving side — per-partition FM-indexes,
the temporal forest, the U map and the histogram store — implementing
``getTravelTimes`` (Procedure 5).
"""
from repro.index.snt import SNTIndex  # noqa: F401
