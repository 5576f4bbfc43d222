"""Two builders for genus-one Lefschetz fibrations on disk cotangent bundles.

The plumbing builder realizes a pattern of two annulus families crossing at
squares: the fiber is the square graph thickened by the strips, and the two
families of core circles become the first two blocks of vanishing cycles.

The divide builder thickens an admissible divide: every crossing becomes a
four-vertex roundabout (two band-attachment sites alternating with two
subdivision points) and every arc becomes a twisted band joining the sites
at the white corners it borders.  White faces, crossings and black faces of
the divide each contribute one family of cycles on that fiber.

Both builders end with the same closing move: simultaneously smoothing all
crossings of the first family with the second, respecting orientations,
which yields the final block of vanishing cycles; the divide builder
writes that block down as its black-face cycles.  The builders check
nothing they build: ``certify.fibration_certificate`` checks every build.
"""

from __future__ import annotations

from .curves import CurveOnSurface, canonical_rotation, checked_curves, curve_from_json, curve_on_darts
from .divides import Divide, check_admissible, standard_divide
from .ribbon import (Record, RibbonGraph, SurfaceError, checked_count, checked_kind, json_field, json_records, json_schema,
                     numbered_ids, padded_ids, sorted_ids, spanning_forest)


# -- plumbing patterns -----------------------------------------------------------


class PlumbingPattern(Record):
    """Squares where strips of one annulus family cross strips of another.

    ``loops_a`` and ``loops_b`` list, per annulus, the cyclic order of the
    squares its strip runs through.  Every square must be visited exactly
    once by each family: a square is one transverse crossing of one a-strip
    with one b-strip.  Each family is a tuple or list of loops, and each
    loop a tuple or list of square ids.
    """

    __slots__ = ("loops_a", "loops_b")

    def __init__(self, loops_a: tuple[tuple[str, ...], ...], loops_b: tuple[tuple[str, ...], ...]):
        for fam, loops in (("a", loops_a), ("b", loops_b)):
            if not isinstance(loops, (tuple, list)) or not all(isinstance(loop, (tuple, list)) for loop in loops):
                raise SurfaceError(f"family {fam} must be a sequence of loops of squares, got {loops!r}")
        loops_a, loops_b = tuple(map(tuple, loops_a)), tuple(map(tuple, loops_b))
        for fam, loops in (("a", loops_a), ("b", loops_b)):
            if not loops:
                raise SurfaceError(f"family {fam} has no annuli")
            seen = [q for loop in loops for q in loop]
            if not seen:
                raise SurfaceError(f"family {fam} visits no squares")
            if len(seen) != len(set(sorted_ids(seen, "square"))):
                raise SurfaceError(f"family {fam} visits a square twice")
        if set(q for loop in loops_a for q in loop) != set(q for loop in loops_b for q in loop):
            raise SurfaceError("the two families must cross at the same square set")
        super().__init__(loops_a, loops_b)

    @property
    def squares(self) -> tuple[str, ...]:
        return tuple(sorted(q for loop in self.loops_a for q in loop))


def johns_pattern(genus: int) -> PlumbingPattern:
    """Two long annuli crossed by 2g+2 short ones, one square per pair.

    Each short annulus meets each long one exactly once, in cyclic position
    j along both long strips, so the squares form two rows of length 2g+2.
    """
    n = 2 * checked_count(genus) + 2
    row1, row2 = tuple(padded_ids("s1_", n)), tuple(padded_ids("s2_", n))
    loops_b = tuple((row1[j], row2[j]) for j in range(n))
    return PlumbingPattern((row1, row2), loops_b)


def realize_plumbing(pattern: PlumbingPattern) -> tuple[RibbonGraph, tuple[CurveOnSurface, ...], tuple[CurveOnSurface, ...]]:
    """Thicken a plumbing pattern into its fiber surface and core circles.

    Every square becomes a vertex; every strip contributes one edge per
    consecutive square pair.  At each square the two strips cross
    transversally, so the rotation interleaves them: (a out, b out, a in,
    b in) counterclockwise; it and the cores' head darts are written as
    darts of the edge ids sorted once.  Returns (fiber, a-cores, b-cores).
    """
    checked_kind(pattern, PlumbingPattern, "pattern")
    families = []
    for fam, loops in (("a", pattern.loops_a), ("b", pattern.loops_b)):
        families.append(list(zip(padded_ids(fam, len(loops)), loops)))
    squares = pattern.squares
    edges = []
    strands: dict[str, list[str]] = {q: [] for q in squares}  # a in, a out, b in, b out
    walks: dict[str, list[str]] = {}
    for named_loops in families:
        for name, loop in named_loops:
            walks[name] = eids = padded_ids(f"{name}e", len(loop))
            edges += eids
            for t, q in enumerate(loop):
                strands[q] += (eids[t - 1], eids[t])  # arriving at end 1, departing from end 0
    edges, eid = numbered_ids(edges, "edge")
    rotation = {q: (2 * eid[a_out], 2 * eid[b_out], 2 * eid[a_in] + 1, 2 * eid[b_in] + 1)
                for q, (a_in, a_out, b_in, b_out) in strands.items()}
    fiber = RibbonGraph._linked(squares, edges, rotation, (), eid)
    a_curves, b_curves = (tuple(curve_on_darts(fiber, name, tuple([2 * eid[e] + 1 for e in walks[name]]))
                                for name, _ in named_loops) for named_loops in families)
    return fiber, a_curves, b_curves


# -- simultaneous oriented smoothing ----------------------------------------------


def simultaneous_surgery(surface: RibbonGraph, family_x, family_y) -> tuple[CurveOnSurface, ...]:
    """Smooth every crossing of one embedded family with another at once.

    Both families must consist of edge-simple closed walks, pairwise
    edge-disjoint overall, with each family passing any vertex at most once;
    wherever both families pass a vertex their strands must interleave in
    the rotation.  Each such crossing is resolved the orientation-respecting
    way: the incoming strand of one family continues along the outgoing
    strand of the other.

    The resolved curves are returned sorted by their least edge, each walk
    starting at that edge, named ``c0``, ``c1``, ... (``_surgery_walks``).
    """
    family_x = checked_curves(family_x, checked_kind(surface, RibbonGraph, "surface"), "family_x")
    walks = _surgery_walks(surface, family_x, checked_curves(family_y, surface, "family_y"))
    return tuple(curve_on_darts(surface, f"c{i}", walk) for i, walk in enumerate(walks))


def _surgery_walks(surface: RibbonGraph, family_x, family_y) -> tuple[tuple[int, ...], ...]:
    """The walks of ``simultaneous_surgery``'s curves as the darts their
    steps arrive on, traced on the curves' kept darts.  Both families are
    tuples of curves on ``surface``: ``simultaneous_surgery`` checks them
    (``checked_curves``), and ``closing_smoothing`` reads a fibration's
    word, checked when it was made.  Each input curve, in order, must pass
    ``require_edge_simple``, which owns the repeated-edge error; then the
    first of its edges that an earlier curve ran is named as traversed
    twice.  The last successful smoothing on a surface is kept in its cache
    with its input darts, all as dart tuples, so the cache makes no cycle
    through the surface; a later call on that surface whose families keep
    the same darts returns it untraced, as a fresh plumbing build's
    certificate does.
    """
    key = tuple([c._heads for c in family_x]), tuple([c._heads for c in family_y])
    memo = surface._cache.get("smoothing")
    if memo is not None and memo[0] == key:
        return memo[1]
    taken = [False] * len(surface.edges)  # by edge number: whether an earlier curve ran it
    for c in family_x + family_y:
        c.require_edge_simple()  # so the first edge of c found taken is the first that an earlier curve ran
        for d in c._heads:
            if taken[d >> 1]:
                raise SurfaceError(f"edge {surface.edges[d >> 1]!r} is traversed twice; "
                                   "the families must be edge-disjoint")
            taken[d >> 1] = True
    dv, pos, names = surface._dv, surface._dpos, surface.vertices
    depart = [-1] * len(dv)  # depart[d]: the dart a strand arriving on dart d leaves along
    px, py = [-1] * len(names), [-1] * len(names)  # by vertex number: the dart each family arrives on there
    for curves, at in ((family_x, px), (family_y, py)):
        for c in curves:
            # a pass arrives on one step's head dart and departs on the next step's tail dart
            heads = c._heads
            for hin, nxt in zip(heads, heads[1:] + heads[:1]):
                v = dv[hin]
                if at[v] >= 0:
                    raise SurfaceError(f"one family passes vertex {names[v]!r} twice; crossings must be simple")
                at[v], depart[hin] = hin, nxt ^ 1
    for v, (xin, yin) in enumerate(zip(px, py)):  # in vertex order
        if xin >= 0 and yin >= 0:
            xout, yout = depart[xin], depart[yin]
            lo, hi = (a, b) if (a := pos[xin]) < (b := pos[xout]) else (b, a)
            if (lo < pos[yin] < hi) == (lo < pos[yout] < hi):
                raise SurfaceError(f"the families meet tangentially at vertex {names[v]!r}")
            depart[xin], depart[yin] = yout, xout

    outputs = []
    for start in range(len(depart)):  # in dart order, so each resolved curve starts at its least edge
        if depart[start] < 0:
            continue
        walk, d = [], start
        while depart[d] >= 0:
            walk.append(d)
            depart[d], d = -1, depart[d] ^ 1
        outputs.append(tuple(walk))
    outputs = tuple(outputs)
    surface._cache["smoothing"] = key, outputs
    return outputs


def closing_smoothing(fib: LefschetzFibration) -> tuple[bool, str, str] | None:
    """The one check of a word's closing move, worded as the certificate's
    ``closing_smoothing`` entry: smooth its a family through its b family on
    its own fiber; the output walks (``_surgery_walks``) must be its c family
    up to basepoint, their darts compared by canonical rotation.  None when
    the word lacks one of the three families; else (passed, expected,
    actual): expected "N closing cycles reproduced" and actual "reproduced"
    or "mismatch", or, when the smoothing raises a SurfaceError, expected
    "smoothing succeeds" and actual its message."""
    fams = word_families(fib)
    if not {"a", "b", "c"} <= fams.keys():
        return None
    try:
        outs = _surgery_walks(fib.fiber, fams["a"], fams["b"])
    except SurfaceError as exc:
        return False, "smoothing succeeds", str(exc)
    wanted = {canonical_rotation(c._heads) for c in fams["c"]}
    ok = len(outs) == len(fams["c"]) and all(canonical_rotation(w) in wanted for w in outs)
    return ok, f"{len(fams['c'])} closing cycles reproduced", "reproduced" if ok else "mismatch"


# -- the divide fiber --------------------------------------------------------------


class DivideFiberModel(Record):
    """The thickened ``divide`` as ``fiber``, with its three cycle families
    ``white_cycles``, ``crossing_cycles`` and ``black_cycles``."""

    __slots__ = ("divide", "fiber", "white_cycles", "crossing_cycles", "black_cycles")


def divide_fiber_model(divide: Divide) -> DivideFiberModel:
    """Build the fiber surface of an admissible divide with its cycles.

    Per crossing v the fiber gets a roundabout w0 - m1 - w2 - m3 (edges
    v_r0..v_r3); w0 and w2 carry the two white corners, ordered by slot.
    Per arc e the fiber gets one twisted band, also named e, attached at the
    white corner each end borders; band attachments alternate with the
    roundabout edges.  One cycle per white face (bands only), per crossing
    (the roundabout core) and per black face (bands plus two-edge roundabout
    passages).  Smoothing the first family through the second reproduces
    the third exactly, which pins every orientation convention in here; the
    certificate's ``closing_smoothing`` check replays it.  Rotations and
    cycles are written as darts of the sorted fiber edges, read off the
    divide's darts and boundary trace (``_boundary``: each face's darts and
    each dart's face), so neither graph names a half-edge; the
    sites follow the signs of that numbering's ``spanning_forest``, which
    the fiber keeps, and ``RibbonGraph._linked`` links the fiber once.
    """
    report = check_admissible(divide)
    if not report.admissible:
        raise SurfaceError(f"divide is not admissible: {report.problem}")
    coloring = report.coloring
    ring = [[f"{v}_r{k}" for k in range(4)] for v in divide.vertices]
    clash = set(divide.edges).intersection(e for r in ring for e in r)
    if clash:
        raise SurfaceError(f"divide edge ids collide with roundabout ids: {sorted(clash)}")
    edges, eid = numbered_ids([e for r in ring for e in r] + list(divide.edges), "edge")
    # each divide dart's fiber dart: the band of arc e is the fiber's edge e
    band = [2 * eid[e] + end for e in divide.edges for end in (0, 1)]
    graph = divide.graph
    faces, face = graph._boundary()  # each face's darts, and each dart's face
    # per divide dart: the two-edge passage, against the core, across the
    # roundabout at the white corner that the dart lands in
    landing = [None] * len(band)
    crossing_heads = []
    vertices = []
    twists = set()
    rotation: dict[str, tuple[int, ...]] = {}
    for v, r, xs in zip(divide.vertices, ring, graph._darts()):  # xs: the crossing's darts in slot order
        # A proper face 2-coloring alternates around a 4-valent crossing, so
        # the white corners are k0 and k0 + 2 and each slot borders one.
        k0 = 0 if face[xs[1]] in coloring.white else 1
        w0, m1, w2, m3 = f"{v}_w0", f"{v}_m1", f"{v}_w2", f"{v}_m3"
        d0, d1, d2, d3 = [2 * eid[e] for e in r]  # the roundabout edges' end-0 darts
        passage = {k0: (d3, d2), k0 + 2: (d1, d0)}  # across w0 and across w2
        for k, x in enumerate(xs):
            landing[x] = passage[k if (k - k0) % 2 == 0 else (k - 1) % 4]
        crossing_heads.append((d0 + 1, d1 + 1, d2 + 1, d3 + 1))
        vertices += [w0, m1, w2, m3]
        twists.update((r[0], r[2]))
        rotation[m1] = (d0 + 1, d1)
        rotation[m3] = (d2 + 1, d3)
        for site, corner, r_in, r_out in ((w0, k0, d3 + 1, d0), (w2, k0 + 2, d1 + 1, d2)):
            # the white face walk enters the corner along the lower slot's
            # half-edge and leaves along the upper slot's
            rotation[site] = (r_in, band[xs[(corner + 1) % 4]], r_out, band[xs[corner]])
    twists.update(divide.edges)
    # Local orientation signs depend only on twists and endpoints, so they are
    # read off the provisional rotation, numbered as the fiber numbers its
    # (sorted) vertices and edges.  Each site is then rewritten so that, after
    # normalization flips the -1 vertices, every site reads (r_in, band_out,
    # r_out, band_in) in one global orientation.  A uniform rule cannot do this
    # directly: the half-twisted bands force opposite signs on both band ends.
    vertices, vid = numbered_ids(vertices, "vertex")
    at = [0] * (2 * len(edges))
    for v, rot in rotation.items():
        for d in rot:
            at[d] = vid[v]
    forest = spanning_forest(len(vertices), at, {eid[e] for e in twists})
    if forest[0] is None:
        raise SurfaceError("divide fiber is non-orientable; twist placement is broken")
    for site, rot in rotation.items():  # the sites are the 4-valent vertices
        if len(rot) == 4 and forest[0][vid[site]] == -1:
            rotation[site] = (rot[0], rot[3], rot[2], rot[1])
    fiber = RibbonGraph._linked(vertices, edges, rotation, twists, eid)
    fiber._cache["forest"] = forest  # the rewrite moved no band end

    # a face walk steps along each of its darts' bands, arriving on the partner
    white_cycles = [curve_on_darts(fiber, f"a{j}", tuple([band[x] ^ 1 for x in faces[fi]]))
                    for j, fi in enumerate(coloring.white)]

    crossing_cycles = [curve_on_darts(fiber, name, heads)
                       for name, heads in zip(padded_ids("b", len(divide.vertices)), crossing_heads)]

    black_cycles = []
    for j, fi in enumerate(coloring.black):
        heads = []
        for x in faces[fi]:
            heads.append(band[x] ^ 1)
            heads += landing[x ^ 1]
        # the smoothing orientation runs against the black face walk: the
        # reversed walk arrives on each step's partner dart
        black_cycles.append(curve_on_darts(fiber, f"c{j}", tuple([d ^ 1 for d in reversed(heads)])))

    return DivideFiberModel(divide, fiber, tuple(white_cycles), tuple(crossing_cycles), tuple(black_cycles))


# -- fibrations ---------------------------------------------------------------------


class LefschetzFibration(Record):
    """An ordered word of vanishing cycles on a fixed fiber surface: the
    constructor takes the word as a tuple or list of curves on ``fiber``
    (``checked_curves``) and keeps it as a tuple."""

    __slots__ = ("construction", "genus", "fiber", "word")

    def __init__(self, construction: str, genus: int, fiber: RibbonGraph, word: tuple[CurveOnSurface, ...]):
        word = checked_curves(word, checked_kind(fiber, RibbonGraph, "fiber"), "word")
        names = [c.name for c in word]
        if len(names) != len(set(names)):
            raise SurfaceError("vanishing cycle names must be unique")
        super().__init__(construction, genus, fiber, word)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.word)

    def to_dot(self, name: str) -> str:
        """The fiber's dot graph, named ``name``: the word is not drawn."""
        return self.fiber.to_dot(name)

    def to_json_dict(self) -> dict:
        return {
            "schema": "lefschetz-fibration/1",
            "construction": self.construction,
            "genus": self.genus,
            "fiber": self.fiber.to_json_dict(),
            "vanishing_cycles": [c.to_json_dict() for c in self.word],
        }

    @classmethod
    def from_json_dict(cls, doc: dict) -> "LefschetzFibration":
        json_schema(doc, "lefschetz-fibration/1")
        where = "lefschetz-fibration"
        construction = json_field(doc, "construction", str, where)
        genus = json_field(doc, "genus", int, where)
        fiber = RibbonGraph.from_json_dict(json_field(doc, "fiber", dict, where))
        names, walks = json_records(json_field(doc, "vanishing_cycles", list, where, dict), "vanishing cycle",
                                    ("name", str, None), ("walk", list, None))
        word = tuple([curve_from_json(fiber, name, walk) for name, walk in zip(names, walks)])
        return cls(construction, genus, fiber, word)


def cycle_family(name: str) -> str:
    """The family of a vanishing cycle: its name minus trailing digits."""
    return name.rstrip("0123456789")


def word_families(fib: LefschetzFibration) -> dict[str, tuple[CurveOnSurface, ...]]:
    """Vanishing cycles grouped by family (``cycle_family``), keyed in order
    of first appearance in the word."""
    fams: dict[str, list[CurveOnSurface]] = {}
    for c in fib.word:
        fams.setdefault(cycle_family(c.name), []).append(c)
    return {k: tuple(v) for k, v in fams.items()}


def johns_fibration(genus: int) -> LefschetzFibration:
    """Plumbing model: two long annuli, 2g+2 short ones, then the smoothing."""
    pattern = johns_pattern(genus)
    fiber, a_curves, b_curves = realize_plumbing(pattern)
    c_curves = simultaneous_surgery(fiber, a_curves, b_curves)
    return LefschetzFibration("johns", genus, fiber, (*a_curves, *b_curves, *c_curves))


def ishikawa_fibration(genus: int) -> LefschetzFibration:
    """Divide model over the necklace divide of the given genus."""
    model = divide_fiber_model(standard_divide(genus))
    word = (*model.white_cycles, *model.crossing_cycles, *model.black_cycles)
    return LefschetzFibration("ishikawa", genus, model.fiber, word)


def sphere_planar_fibration() -> LefschetzFibration:
    """The classical annulus-page model over the sphere: two parallel cores."""
    fiber = RibbonGraph(
        ("p", "q"),
        ("c", "t"),
        {"p": (("c", 0), ("t", 0)), "q": (("t", 1), ("c", 1))},
    )
    core = (("c", 1), ("t", -1))
    word = (CurveOnSurface(fiber, "core0", core), CurveOnSurface(fiber, "core1", core))
    return LefschetzFibration("sphere", 0, fiber, word)
