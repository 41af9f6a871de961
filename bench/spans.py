"""Spans recorded by the benchmark around calls into surfclass.

The library itself carries no instrumentation.  For each input, the
traced run times the real top-level call as a ``call`` span, then
replays that call stage by stage through the library's public
functions, as children of a ``stages`` span.  The replays below mirror
the order in which the library's own code calls those functions, so the
stage spans say where the real call spends its time.

A span is (name, start, end, parent index, input id).  Spans stay in
memory and are written out when the run ends.
"""

from __future__ import annotations

import gzip
import json
import math
from contextlib import contextmanager
from time import perf_counter


class Tracer:
    def __init__(self) -> None:
        self.spans: list[tuple | None] = []
        self.stack: list[int] = []
        self.input_id = -1
        self.counts: dict[str, int] = {}

    def add(self, name: str, k: int) -> None:
        """Add k to a work counter kept beside the spans."""
        self.counts[name] = self.counts.get(name, 0) + k

    def _open(self) -> int:
        idx = len(self.spans)
        self.spans.append(None)
        self.stack.append(idx)
        return idx

    def _close(self, idx: int, name: str, start: float) -> None:
        self.stack.pop()
        parent = self.stack[-1] if self.stack else -1
        self.spans[idx] = (name, start, perf_counter(), parent, self.input_id)

    @contextmanager
    def span(self, name: str):
        idx = self._open()
        start = perf_counter()
        try:
            yield
        finally:
            self._close(idx, name, start)

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn(*args, **kwargs) as one leaf span and return its result."""
        idx = self._open()
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            self._close(idx, name, start)

    def write(self, path) -> None:
        """Gzipped JSON lines, one [id, name, start, end, parent, input] per span."""
        with gzip.open(path, "wt", encoding="utf-8") as fh:
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i, *span]) + "\n")


# =====================================================================
# Stage replays, one per public entry point with public stages
# =====================================================================


def is_surface(tr: Tracer, sc, cx):
    """surface.is_surface: edge check, vertex check per vertex, boundary walk."""
    with tr.span("surface.is_surface"):
        try:
            statuses = tr.call("surface.edge_check", sc.edge_check, cx)
            for v in sorted(cx.vertex_set()):
                tr.call("surface.vertex_check", sc.vertex_check, cx, v)
        except (sc.NotLocallyPlanar, sc.NotSurface) as exc:
            return sc.SurfaceCheck(False, None, None, exc)
        closed = all(st.status == sc.INTERIOR for st in statuses)
        b = tr.call("surface.boundary_components", sc.boundary_components, cx)
        return sc.SurfaceCheck(True, closed, len(b.cycles), None)


def classify_surface(tr: Tracer, sc, cx) -> None:
    """classify.classify_surface: split into components, classify each."""
    with tr.span("classify.classify_surface"):
        with tr.span("connectivity.component_subcomplexes"):
            part = tr.call("connectivity.components", sc.components, cx)
            subs = [tr.call("complexes.induced_subcomplex", sc.induced_subcomplex, cx, comp)
                    for comp in part.components]
        for sub in subs:
            with tr.span("classify.classify_component"):
                if not is_surface(tr, sc, sub).surface:
                    return
                tr.call("orientation.orient2", sc.orient2, sub)
                tr.call("complexes.euler_characteristic", sc.euler_characteristic, sub)


def _connected(tr: Tracer, sc, cx) -> bool:
    try:
        return tr.call("connectivity.components", sc.components, cx).count() == 1
    except sc.EmptyComplex:
        return False


def is_sphere(tr: Tracer, sc, cx) -> bool:
    with tr.span("classify.is_sphere"):
        if not _connected(tr, sc, cx) or not is_surface(tr, sc, cx).surface:
            return False
        return tr.call("complexes.euler_characteristic", sc.euler_characteristic, cx) == 2


def is_disk(tr: Tracer, sc, cx) -> bool:
    with tr.span("classify.is_disk"):
        if not _connected(tr, sc, cx):
            return False
        chk = is_surface(tr, sc, cx)
        if not chk.surface or chk.closed:
            return False
        return tr.call("complexes.euler_characteristic", sc.euler_characteristic, cx) == 1


def is_3manifold(tr: Tracer, sc, cx) -> None:
    """manifold3.is_3manifold: face check, a disk or sphere test per vertex
    link, then the boundary surface's classification."""
    with tr.span("manifold3.is_3manifold"):
        tets = cx.tetrahedra()
        if not tets or cx.simplices != tr.call("complexes.close", sc.close, tets).simplices:
            return
        try:
            statuses = tr.call("manifold3.face_check3", sc.face_check3, cx)
        except sc.NotManifold:
            return
        boundary = [st.triangle for st in statuses if st.status == sc.BOUNDARY]
        on_boundary = {v for tri in boundary for v in tri}
        for v in sorted(cx.vertex_set()):
            link = tr.call("manifold3.vertex_link3", sc.vertex_link3, cx, v)
            test = is_disk if v in on_boundary else is_sphere
            if not test(tr, sc, link):
                return
        if boundary:
            classify_surface(tr, sc, tr.call("complexes.close", sc.close, boundary))
        else:
            tr.call("complexes.euler_characteristic", sc.euler_characteristic, cx)


def classify_embedding(tr: Tracer, sc, rs) -> None:
    with tr.span("rotation.classify_embedding"):
        tr.call("rotation.trace_faces", sc.trace_faces, rs)
        tr.call("rotation.rs_orientable", sc.rs_orientable, rs)


def enumerate_chords(tr: Tracer, sc, n: int, genus: int | None) -> None:
    """The enumeration, then the genus filter's classification of each class."""
    codes = tr.call("rotation.enumerate_chords", sc.enumerate_chords, n)
    tr.add("rotation.chord_classes", len(codes))
    if genus is not None:
        for code in codes:
            rs = tr.call("rotation.chord_to_rotation", sc.chord_to_rotation, code)
            classify_embedding(tr, sc, rs)


# =====================================================================
# Per-layer metrics from the spans
# =====================================================================

MODULES = ("complexes", "connectivity", "surface", "orientation", "classify",
           "manifold3", "rotation", "slw")

# metric name -> span name, for times (s/input) and call counts (calls/input)
TIMES = {
    "complexes.parse_s": "complexes.parse_complex",
    "connectivity.components_s": "connectivity.components",
    "connectivity.component_subcomplexes_s": "connectivity.component_subcomplexes",
    "surface.edge_check_s": "surface.edge_check",
    "surface.vertex_check_s": "surface.vertex_check",
    "surface.boundary_components_s": "surface.boundary_components",
    "surface.is_surface_s": "surface.is_surface",
    "orientation.orient2_s": "orientation.orient2",
    "orientation.orient3_s": "orientation.orient3",
    "classify.classify_surface_s": "classify.classify_surface",
    "classify.is_sphere_s": "classify.is_sphere",
    "classify.is_disk_s": "classify.is_disk",
    "manifold3.face_check3_s": "manifold3.face_check3",
    "manifold3.vertex_link3_s": "manifold3.vertex_link3",
    "rotation.enumerate_chords_s": "rotation.enumerate_chords",
    "rotation.chord_canonical_s": "rotation.chord_canonical",
    "rotation.trace_faces_s": "rotation.trace_faces",
    "rotation.classify_embedding_s": "rotation.classify_embedding",
    "slw.parse_s": "slw.parse_slw",
    "slw.classify_s": "slw.classify_slw",
    "slw.equivalent_s": "slw.slw_equivalent",
    "slw.extends_s": "slw.extends_to_homeomorphism",
}
CALLS = {
    "surface.vertex_check_calls": ("surface.vertex_check",),
    "surface.is_surface_calls": ("surface.is_surface",),
    "classify.link_checks": ("classify.is_sphere", "classify.is_disk"),
    "manifold3.vertex_link3_calls": ("manifold3.vertex_link3",),
    "slw.equivalent_calls": ("slw.slw_equivalent",),
}


def _slope(points: list[tuple[float, float]]) -> float:
    """Least-squares slope of log(time) against log(size)."""
    pts = [(math.log(x), math.log(y)) for x, y in points if x > 0 and y > 0]
    if len({x for x, _ in pts}) < 2:
        return 0.0
    mx = sum(x for x, _ in pts) / len(pts)
    my = sum(y for _, y in pts) / len(pts)
    sxx = sum((x - mx) ** 2 for x, _ in pts)
    return sum((x - mx) * (y - my) for x, y in pts) / sxx


def layer_metrics(tr: Tracer, inputs: list[dict]) -> dict[str, float]:
    """Per-layer metrics; times and call counts are per traced input.

    inputs holds one record per traced input: id, family, cells, fit
    (the size exponent it feeds, or None), repeat (for chord inputs) and
    verdict.
    """
    spans = tr.spans  # every span is closed once its input has run
    n = max(1, len(inputs))
    dur = [end - start for _, start, end, _, _ in spans]
    covered = [0.0] * len(spans)
    for i, (_, _, _, parent, _) in enumerate(spans):
        if parent >= 0:
            covered[parent] += dur[i]
    total: dict[str, float] = {}
    count: dict[str, int] = {}
    self_time = dict.fromkeys(MODULES, 0.0)
    for i, (name, *_rest) in enumerate(spans):
        total[name] = total.get(name, 0.0) + dur[i]
        count[name] = count.get(name, 0) + 1
        module = name.split(".", 1)[0]
        if module in self_time:
            self_time[module] += dur[i] - covered[i]

    out: dict[str, float] = {}
    for metric, name in TIMES.items():
        out[metric] = total.get(name, 0.0) / n
    for metric, names in CALLS.items():
        out[metric] = sum(count.get(nm, 0) for nm in names) / n
    for module, t in self_time.items():
        out[f"{module}.self_s"] = t / n

    call_of: dict[int, float] = {}
    input_of: dict[int, float] = {}
    staged: dict[int, float] = {}
    for i, (name, _, _, parent, inp) in enumerate(spans):
        if name == "call":
            call_of[inp] = dur[i]
        elif name == "input":
            input_of[inp] = dur[i]
        elif parent >= 0 and spans[parent][0] == "stages":
            staged[inp] = staged.get(inp, 0.0) + dur[i]
    calls = sum(call_of.values())
    out["trace.overhead_s"] = sum(input_of[k] - call_of.get(k, 0.0) for k in input_of) / n
    out["trace.coverage"] = sum(staged.values()) / calls if calls else 0.0
    # a cli input's call is cli.main; its stages are the bare library calls
    cli = [r["id"] for r in inputs if r["family"].startswith("cli_")]
    main = sum(call_of.get(k, 0.0) for k in cli)
    out["cli.main_s"] = main / n
    out["cli.calls"] = float(len(cli))
    out["cli.overhead_s"] = (main - sum(staged.get(k, 0.0) for k in cli)) / n

    out["complexes.cells"] = tr.counts.get("complexes.cells", 0) / n
    for metric, group in (("classify.size_exponent", "classify"),
                          ("manifold3.size_exponent", "manifold3")):
        pts = [(r["cells"], call_of.get(r["id"], 0.0)) for r in inputs if r["fit"] == group]
        out[metric] = _slope(pts)
    enum_calls = count.get("rotation.enumerate_chords", 0)
    out["rotation.chord_classes"] = (
        tr.counts.get("rotation.chord_classes", 0) / enum_calls if enum_calls else 0.0)
    chords = [r for r in inputs if r["repeat"] is not None]
    out["rotation.repeat_share"] = (
        sum(1 for r in chords if r["repeat"]) / len(chords) if chords else 0.0)
    out["slw.failures"] = float(sum(1 for r in inputs
                                    if r["family"].startswith("slw") and r["verdict"] == "failed"))
    return out
