"""Answer checks, the answer digest and the index memory walk.

Every ``trip_query`` answer is checked against two invariants that hold
for any correct answer: the final sub-paths tile the query path, and the
histogram holds one element per combination of sub-query samples.  A
seeded sample of final sub-queries is also re-evaluated by the repo's
reference SQL (:func:`repro.sparkspq.spq_sql`) on DuckDB.

:func:`fingerprint` condenses one answer to bytes; the digest of a run
hashes the fingerprints of its query pool in order, so two runs of the
same code and seed must print the same digest.

:func:`walk_arrays` measures the served index by walking every numpy
array reachable from it, independently of ``SNTIndex.memory_report``.
"""
from __future__ import annotations

import hashlib
import math
import struct
from collections import deque

import numpy as np


def invariant_errors(query_path, res) -> list[str]:
    """Violations of the tiling and histogram-total invariants."""
    errors = []
    subs = res.subs
    pos = 0
    for s in subs:
        if s.spq.lo != pos or tuple(s.spq.path) != tuple(
                query_path[s.spq.lo:s.spq.hi]):
            errors.append(f"sub-path [{s.spq.lo}, {s.spq.hi}) does not "
                          f"continue the tiling at {pos}")
            break
        pos = s.spq.hi
    if pos != len(query_path):
        errors.append(f"sub-paths cover {pos} of {len(query_path)} segments")
    expected = math.prod(len(s.xs) for s in subs)
    if not math.isclose(res.hist.total, expected, rel_tol=1e-9):
        errors.append(f"hist total {res.hist.total} != product of sample "
                      f"counts {expected}")
    return errors


def fingerprint(res) -> bytes:
    """Exact bytes of an answer: estimate, histogram and sub-query samples."""
    h = res.hist
    parts = [struct.pack("<ddq", res.estimate, h.h, h.base),
             np.ascontiguousarray(h.counts, dtype=np.float64).tobytes()]
    for s in res.subs:
        parts.append(struct.pack("<qq?", s.spq.lo, s.spq.hi, s.fallback))
        parts.append(np.asarray(s.xs, dtype=np.float64).tobytes())
    return hashlib.blake2b(b"".join(parts), digest_size=16).digest()


def digest(fingerprints) -> str:
    """Hex digest over a sequence of answer fingerprints."""
    d = hashlib.sha256()
    for fp in fingerprints:
        d.update(fp)
    return d.hexdigest()


def oracle_errors(con, table: str, sub, exclude_d: int) -> list[str]:
    """Compare one final sub-query's samples with the SQL reference.

    The reference runs over the whole trajectories that contain the
    sub-path's first segment: every strict traversal lies in one of them,
    and the window functions then scan a few thousand rows instead of the
    full table.

    * fallback (speed-limit estimate): the reference finds no traversal;
    * ``beta=None``: equal multisets;
    * otherwise the samples are a sub-multiset of the reference's, of size
      ``min(beta, |reference|)``.
    """
    from repro.sparkspq import spq_sql

    q = sub.spq
    rows = (f"(SELECT * FROM {table} WHERE d IN "
            f"(SELECT d FROM {table} WHERE e = {int(q.path[0])}))")
    sql = spq_sql(rows, q.path, q.interval, q.user, exclude_d, q.timeframe)
    ref = np.sort(con.execute(sql).fetchnumpy()["x"].astype(np.float64))
    got = np.sort(np.asarray(sub.xs, dtype=np.float64))
    where = f"path={list(q.path)} interval={q.interval} user={q.user}"
    if sub.fallback:
        return [] if len(ref) == 0 else [
            f"fallback but the reference has {len(ref)} rows: {where}"]
    want = len(ref) if q.beta is None else min(q.beta, len(ref))
    if len(got) != want:
        return [f"{len(got)} samples, expected {want}: {where}"]
    if q.beta is None:
        ok = np.allclose(got, ref, rtol=1e-9, atol=1e-6)
    else:
        ok = _is_submultiset(got, ref)
    return [] if ok else [f"samples not in the reference: {where}"]


def _is_submultiset(got: np.ndarray, ref: np.ndarray) -> bool:
    """Each sorted ``got`` value matches a distinct sorted ``ref`` value."""
    j = 0
    for x in got:
        while j < len(ref) and ref[j] < x - 1e-6 - 1e-9 * abs(x):
            j += 1
        if j == len(ref) or not math.isclose(ref[j], x, rel_tol=1e-9,
                                             abs_tol=1e-6):
            return False
        j += 1
    return True


# -- memory -----------------------------------------------------------------

_SCALARS = (int, float, complex, str, bytes, bool, type(None), np.generic)

#: SegmentLeaves fields that are the paper's extended leaf records
LEAF_FIELDS = frozenset(("t", "isa", "d", "tt", "a", "seq", "w"))


def walk_arrays(root, skip=()) -> list[tuple[tuple, np.ndarray]]:
    """``(attribute path, array)`` for every numpy buffer reachable from
    ``root``, each counted once.

    Views are resolved to the array that owns their memory.  Objects in
    ``skip`` (by identity) are not entered.  The walk is breadth-first, so
    an array reachable along several paths is reported under the shortest
    (a segment's ``t`` is also its ``t_tree.keys``).
    """
    seen = {id(o) for o in skip}
    owners: set[int] = set()
    found = []
    queue = deque([((), root)])
    while queue:
        path, obj = queue.popleft()
        if id(obj) in seen or isinstance(obj, _SCALARS):
            continue
        seen.add(id(obj))
        if isinstance(obj, np.ndarray):
            base = obj
            while isinstance(base.base, np.ndarray):
                base = base.base
            if id(base) not in owners:
                owners.add(id(base))
                found.append((path, base))
            continue
        if isinstance(obj, dict):
            items = obj.items()
        elif isinstance(obj, (list, tuple, set, frozenset)):
            items = enumerate(obj)
        elif hasattr(obj, "__dict__"):
            items = vars(obj).items()
        else:
            continue
        for k, v in items:
            queue.append((path + (k,), v))
    return found


def memory_split(index) -> dict[str, float]:
    """MiB per component of the served index, from :func:`walk_arrays`.

    ``mem.unreported_mib`` is the walked total minus what
    ``SNTIndex.memory_report`` reports.
    """
    mib = 1.0 / (1 << 20)
    parts = {"fmindex": 0, "forest_leaves": 0, "forest_aux": 0,
             "tod_store": 0, "user_map": 0, "other": 0}
    for path, arr in walk_arrays(index, skip=(index.net,)):
        top = path[0] if path else None
        if top == "fms":
            key = "fmindex"
        elif top == "forest":
            leaf = len(path) == 4 and path[1] == "segments" and \
                path[3] in LEAF_FIELDS
            key = "forest_leaves" if leaf else "forest_aux"
        elif top == "tod_hist":
            key = "tod_store"
        elif top == "user_of":
            key = "user_map"
        else:
            key = "other"
        parts[key] += arr.nbytes
    total = sum(parts.values())
    out = {f"mem.{k}_mib": v * mib for k, v in parts.items()}
    out["index_mib"] = total * mib
    out["mem.unreported_mib"] = (total - sum(index.memory_report().values())
                                 ) * mib
    return out
