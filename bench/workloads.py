"""Seeded op schedules for the four benchmark workloads.

An op is one ``msym.cli.main(argv)`` call.  Each workload is a list of
*classes*; a class draws ops from a narrow range of input sizes.  A *deck*
holds one op of every class in seeded order, and a schedule is a list of
decks.  A run stops only at a deck boundary, so every measured run has the
same mix of sizes whatever the seed, and the seed only picks the exact inputs
inside each class.  No argv repeats within a schedule.

Everything here is plain Python with no import of ``msym``: expectations are
computed independently by ``checker``.
"""

from __future__ import annotations

import json
import os
import random
from dataclasses import dataclass, field

WORKLOADS = ("certify", "betti-sym", "homology-json", "fibration")

# Percentile reported as op_tail_ms; chosen so that a run of the current code
# leaves at least ten samples beyond it (see README).
TAIL_PERCENTILE = {"certify": 95, "betti-sym": 90, "homology-json": 95, "fibration": 95}

# Decks run with tracing on in a --trace 1 run; the next as many decks run
# untraced in the same process to measure the tracing overhead.
TRACE_DECKS = {"certify": 2, "betti-sym": 4, "homology-json": 6, "fibration": 2}


@dataclass
class Op:
    argv: list
    kind: str
    params: dict
    size: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {"argv": self.argv, "kind": self.kind, "params": self.params, "size": self.size}


@dataclass
class Schedule:
    workload: str
    warmup: list
    decks: list
    files: dict = field(default_factory=dict)  # relative path -> text, for homology-json


def _rng(seed: int, workload: str, part: str) -> random.Random:
    return random.Random(f"msym-bench:{workload}:{part}:{seed}")


def _deal(rng: random.Random, classes: list) -> list:
    """Deal one op from every class into each deck, shuffled within the deck."""
    n_decks = min(len(c) for c in classes)
    decks = []
    for i in range(n_decks):
        deck = [c[i] for c in classes]
        rng.shuffle(deck)
        decks.append(deck)
    return decks


# --- certify -----------------------------------------------------------------

CERTIFY_GMAX = 96  # reserved for the warm-up; singles use g < CERTIFY_GMAX
CERTIFY_STRATUM = 8
# One sweep class per G; N is drawn from 4 .. 2G+2, so that every sweep has CW
# rows (n = 2, 3), UNSUPPORTED_RANGE rows and bundle rows.  Each G offers at
# least CERTIFY_STRATUM distinct N.
CERTIFY_SWEEP_G = (5, 6, 9, 10, 13, 14)


def _certify_single(g: int, n: int, cls: str = "warmup") -> Op:
    return Op(
        ["check-m", "--g", str(g), "--n", str(n), "--format", "json"],
        "certify-single",
        {"g": g, "n": n},
        {"class": cls, "g": g, "n": n},
    )


def _certify_sweep(gmax: int, nmax: int) -> Op:
    return Op(
        ["check-m", "--sweep", "--gmax", str(gmax), "--nmax", str(nmax), "--format", "json"],
        "certify-sweep",
        {"gmax": gmax, "nmax": nmax},
        {"class": f"sweep-G{gmax}", "gmax": gmax, "nmax": nmax, "rows": (gmax + 1) * (nmax - 1)},
    )


def certify(seed: int) -> Schedule:
    rng = _rng(seed, "certify", "pick")
    classes = []
    for n in (2, 3):
        for lo in range(0, CERTIFY_GMAX, CERTIFY_STRATUM):
            gs = list(range(lo, lo + CERTIFY_STRATUM))
            rng.shuffle(gs)
            classes.append([_certify_single(g, n, f"n{n}-g{lo}") for g in gs])
    for G in CERTIFY_SWEEP_G:
        nmaxes = rng.sample(range(4, 2 * G + 3), CERTIFY_STRATUM)
        classes.append([_certify_sweep(G, N) for N in nmaxes])
    warmup = [_certify_single(CERTIFY_GMAX, 3), _certify_single(CERTIFY_GMAX, 2)]
    return Schedule("certify", warmup, _deal(_rng(seed, "certify", "deal"), classes))


# --- betti-sym ---------------------------------------------------------------

BETTI_DECKS = 60
BETTI_GMAX = 1500
# (name, copies per deck, n range, region, genus window).  Region "bundle"
# means n >= 2g-1 and "below" means n < 2g-1.  The genus is drawn next to the
# region boundary, within ``window`` of it, or anywhere up to BETTI_GMAX when
# the window is None.  The large classes dominate the time of a deck, so they
# are kept narrow.  Every class is crossed with --poly on and off.
BETTI_CLASSES = (
    ("tiny", 1, (0, 40), "bundle", None),
    ("tiny", 1, (0, 40), "below", None),
    ("small", 1, (80, 160), "bundle", None),
    ("small", 1, (80, 160), "below", None),
    ("medium", 2, (450, 550), "bundle", 40),
    ("medium", 2, (450, 550), "below", 40),
    ("large", 1, (1400, 1500), "bundle", 40),
    ("large", 1, (1400, 1500), "below", 40),
)


def _betti_draw(rng: random.Random, nrange: tuple, region: str, window) -> tuple:
    n = rng.randint(*nrange)
    if region == "bundle":
        ghi = (n + 1) // 2
        g = rng.randint(max(0, ghi - window) if window else ghi // 2, ghi)
    else:
        glo = (n + 1) // 2 + 1
        g = rng.randint(glo, glo + window if window else max(glo, BETTI_GMAX))
    return g, n


def betti_sym(seed: int) -> Schedule:
    rng = _rng(seed, "betti-sym", "pick")
    seen = set()
    classes = []
    for _name, copies, nrange, region, window in BETTI_CLASSES:
        for poly in (False, True):
            for _ in range(copies):
                ops = []
                for _ in range(100 * BETTI_DECKS):
                    if len(ops) == BETTI_DECKS:
                        break
                    g, n = _betti_draw(rng, nrange, region, window)
                    if (g, n, poly) in seen:
                        continue
                    seen.add((g, n, poly))
                    argv = ["betti-sym", "--g", str(g), "--n", str(n), "--format", "json"]
                    if poly:
                        argv.insert(5, "--poly")
                    ops.append(Op(argv, "betti-sym", {"g": g, "n": n, "poly": poly},
                                  {"class": f"{_name}-{region}{'-poly' if poly else ''}",
                                   "g": g, "n": n}))
                else:
                    raise ValueError(f"class {_name}/{region} has too few distinct inputs")
                classes.append(ops)
    # just above every class, so the warm-up sets the peak memory of the run
    warmup = [
        Op(["betti-sym", "--g", "751", "--n", "1501", "--poly", "--format", "json"],
           "betti-sym", {"g": 751, "n": 1501, "poly": True}, {"class": "warmup", "g": 751, "n": 1501}),
    ]
    return Schedule("betti-sym", warmup, _deal(_rng(seed, "betti-sym", "deal"), classes))


# --- homology-json -----------------------------------------------------------
#
# A complex is (cells: {dim: [id]}, boundary: {id: [face]}, betti: tuple).
# Products use the mod-2 Leibniz boundary, so their Betti vectors follow from
# the mod-2 Kunneth formula; elementary expansions keep the Betti vector.


def _circle(m: int, tag: str):
    verts = [f"{tag}p{i}" for i in range(m)]
    edges = [f"{tag}q{i}" for i in range(m)]
    bnd = {}
    for i in range(m):
        a, b = verts[i], verts[(i + 1) % m]
        bnd[edges[i]] = [] if a == b else [a, b]
    return {0: verts, 1: edges}, bnd, (1, 1)


def _surface(k: int, tag: str):
    """One vertex, k loop edges and one face; every edge appears twice in the
    attaching word, so all mod-2 boundaries vanish.  Betti (1, k, 1)."""
    edges = [f"{tag}a{i}" for i in range(k)]
    bnd = {e: [] for e in edges}
    bnd[f"{tag}f"] = []
    return {0: [f"{tag}v"], 1: edges, 2: [f"{tag}f"]}, bnd, (1, k, 1)


def _kunneth(a: tuple, b: tuple) -> tuple:
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return tuple(out)


def _product(x, y):
    xc, xb, xbetti = x
    yc, yb, ybetti = y
    cells: dict = {}
    bnd: dict = {}
    for dx in sorted(xc):
        for dy in sorted(yc):
            for s in xc[dx]:
                for t in yc[dy]:
                    cid = f"{s}.{t}"
                    cells.setdefault(dx + dy, []).append(cid)
                    if dx + dy >= 1:
                        faces = [f"{f}.{t}" for f in xb.get(s, ())]
                        faces += [f"{s}.{f}" for f in yb.get(t, ())]
                        bnd[cid] = faces
    return cells, bnd, _kunneth(xbetti, ybetti)


def _expand(cx, rng: random.Random, share: float):
    """Seeded elementary expansions of cells below the top dimension: each
    picked cell s gains a twin with the same boundary and a bridge one
    dimension up with boundary {s, twin}.  The pair collapses, so the Betti
    vector is unchanged."""
    cells, bnd, b = cx
    top = max(cells)
    cells = {d: list(ids) for d, ids in cells.items()}
    bnd = dict(bnd)
    for d in range(top):
        for cid in list(cells[d]):
            if rng.random() < share:
                twin, bridge = f"{cid}~t", f"{cid}~b"
                cells[d].append(twin)
                cells[d + 1].append(bridge)
                if d >= 1:
                    bnd[twin] = list(bnd[cid])
                bnd[bridge] = [cid, twin]
    return cells, bnd, b


def _cw_text(cells: dict, bnd: dict) -> str:
    """Compact JSON with short cell ids (letter for the dimension, then the
    index in hex); cell order, and so the matrices, are unchanged."""
    short = {cid: f"{chr(97 + d)}{i:x}" for d in cells for i, cid in enumerate(cells[d])}
    obj = {
        "cells": {str(d): [short[c] for c in cells[d]] for d in sorted(cells)},
        "boundary": {short[c]: [short.get(f, f) for f in bnd[c]]
                     for d in sorted(cells) if d >= 1 for c in cells[d]},
    }
    return json.dumps(obj, separators=(",", ":"))


# Each family has fixed factor sizes, so its files cost nearly the same and
# the class medians do not depend on the seed; the seeded elementary
# expansions make every file distinct.  Together they span about 2k to 9k
# cells in dimensions 3 and 4.
def _grid4(rng):
    x = _product(_product(_circle(5, "a"), _circle(4, "b")), _product(_circle(4, "c"), _circle(4, "d")))
    return _expand(x, rng, 0.05)


def _surface_torus(rng):
    x = _product(_surface(5, "s"), _product(_circle(9, "a"), _circle(10, "b")))
    return _expand(x, rng, 0.1)


def _surface_surface(rng):
    x = _product(_surface(26, "s"), _surface(26, "t"))
    return _expand(x, rng, 0.9)


def _grid3(rng):
    x = _product(_product(_circle(10, "a"), _circle(10, "b")), _circle(11, "c"))
    return _expand(x, rng, 0.05)


# (name, builder, copies per deck); two surface-torus files make the deck odd,
# so its median op falls inside a class rather than between two.
HOMOLOGY_VALID = (("grid4", _grid4, 1), ("surface-torus", _surface_torus, 2),
                  ("surface-surface", _surface_surface, 1), ("grid3", _grid3, 1))
HOMOLOGY_MALFORMED = ("boundary-of-boundary", "unknown-face", "bad-dimension-key", "invalid-json")
HOMOLOGY_DECKS = 36


def _malform(kind: str, cx, rng: random.Random) -> str:
    cells, bnd, _ = cx
    cells = {d: list(ids) for d, ids in cells.items()}
    bnd = {k: list(v) for k, v in bnd.items()}
    if kind == "boundary-of-boundary":
        # toggling a face f with nonempty boundary in a cell c changes the
        # boundary of the boundary of c by the boundary of f, which is nonzero
        top = max(cells)
        c = rng.choice(cells[top])
        f = rng.choice([e for e in cells[top - 1] if bnd.get(e)])
        if f in bnd[c]:
            bnd[c].remove(f)
        else:
            bnd[c].append(f)
    elif kind == "unknown-face":
        c = rng.choice(cells[max(cells)])
        bnd[c].append(f"missing{rng.randrange(10**6)}")
    elif kind == "bad-dimension-key":
        text = _cw_text(cells, bnd)
        return text.replace('"1":[', f'"1d{rng.randrange(10)}":[', 1)
    elif kind == "invalid-json":
        text = _cw_text(cells, bnd)
        return text[: rng.randint(len(text) // 4, len(text) // 2)]
    return _cw_text(cells, bnd)


def homology_json(seed: int, workdir: str = "") -> Schedule:
    rng = _rng(seed, "homology-json", "pick")
    files = {}
    valid = [(name, build, k) for name, build, copies in HOMOLOGY_VALID for k in range(copies)]
    classes = [[] for _ in range(len(valid) + len(HOMOLOGY_MALFORMED))]

    def add(name: str, text: str, params: dict, size: dict) -> Op:
        path = os.path.join(workdir, name) if workdir else name
        files[name] = text
        return Op(["homology", "--file", path, "--format", "json"], "homology",
                  dict(params, file=path), size)

    def add_valid(name: str, cx, cls: str) -> Op:
        cells, bnd, b = cx
        per_dim = [len(cells.get(d, ())) for d in range(max(cells) + 1)]
        return add(name, _cw_text(cells, bnd),
                   {"valid": True, "betti": list(b), "cells": sum(per_dim)},
                   {"class": cls, "cells_per_dim": per_dim})

    for i in range(HOMOLOGY_DECKS):
        for c, (name, build, k) in enumerate(valid):
            classes[c].append(add_valid(f"d{i:03d}-{name}-{k}.json", build(rng), name))
        for m, kind in enumerate(HOMOLOGY_MALFORMED):
            text = _malform(kind, _surface_torus(rng), rng)
            classes[len(valid) + m].append(
                add(f"d{i:03d}-bad-{kind}.json", text, {"valid": False, "error": kind},
                    {"class": kind, "bytes": len(text)}))
    warm = add_valid("warmup.json", _grid4(_rng(seed, "homology-json", "warmup")), "warmup")
    sched = Schedule("homology-json", [warm], _deal(_rng(seed, "homology-json", "deal"), classes))
    sched.files = files
    return sched


# --- fibration ---------------------------------------------------------------

FIBRATION_SAMPLES = 2000
FIBRATION_DECK = 10
FIBRATION_DECKS = 80


def _fibration_op(samples: int, s: int) -> Op:
    return Op(["verify-fibration", "--samples", str(samples), "--seed", str(s), "--format", "json"],
              "fibration", {"samples": samples, "seed": s},
              {"class": f"samples-{samples}", "samples": samples})


def fibration(seed: int) -> Schedule:
    rng = _rng(seed, "fibration", "pick")
    seeds = set()
    while len(seeds) < FIBRATION_DECK * FIBRATION_DECKS + 1:
        seeds.add(rng.getrandbits(62))
    order = sorted(seeds)
    rng.shuffle(order)
    ops = [_fibration_op(FIBRATION_SAMPLES, s) for s in order]
    decks = [ops[1 + i * FIBRATION_DECK: 1 + (i + 1) * FIBRATION_DECK] for i in range(FIBRATION_DECKS)]
    return Schedule("fibration", [ops[0]], decks)


def build(workload: str, seed: int, workdir: str = "") -> Schedule:
    """The schedule of ``workload`` for ``seed``; ``workdir`` prefixes the
    paths of homology-json input files in the argv lists."""
    if workload == "certify":
        return certify(seed)
    if workload == "betti-sym":
        return betti_sym(seed)
    if workload == "homology-json":
        return homology_json(seed, workdir)
    if workload == "fibration":
        return fibration(seed)
    raise ValueError(f"unknown workload {workload!r}")
