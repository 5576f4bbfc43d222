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

from .curves import CurveOnSurface, Step, canonical_rotation, curve_from_json, reversed_step
from .divides import Divide, check_admissible, checkerboard_coloring, standard_divide
from .ribbon import HalfEdge, Record, RibbonGraph, SurfaceError, json_field, orientation_signs


# -- plumbing patterns -----------------------------------------------------------


class PlumbingPattern(Record):
    """Squares where strips of one annulus family cross strips of another.

    ``loops_a`` and ``loops_b`` list, per annulus, the cyclic order of the
    squares its strip runs through.  Every square must be visited exactly
    once by each family: a square is one transverse crossing of one a-strip
    with one b-strip.
    """

    __slots__ = ("loops_a", "loops_b")

    def __init__(self, loops_a: tuple[tuple[str, ...], ...], loops_b: tuple[tuple[str, ...], ...]):
        loops_a = tuple(tuple(q for q in loop) for loop in loops_a)
        loops_b = tuple(tuple(q for q in loop) for loop in loops_b)
        for fam, loops in (("a", loops_a), ("b", loops_b)):
            if not loops:
                raise SurfaceError(f"family {fam} has no annuli")
            seen = [q for loop in loops for q in loop]
            if not seen:
                raise SurfaceError(f"family {fam} visits no squares")
            if len(seen) != len(set(seen)):
                raise SurfaceError(f"family {fam} visits a square twice")
        if set(q for loop in loops_a for q in loop) != set(q for loop in loops_b for q in loop):
            raise SurfaceError("the two families must cross at the same square set")
        object.__setattr__(self, "loops_a", loops_a)
        object.__setattr__(self, "loops_b", loops_b)

    @property
    def squares(self) -> tuple[str, ...]:
        return tuple(sorted(q for loop in self.loops_a for q in loop))


def johns_pattern(genus: int) -> PlumbingPattern:
    """Two long annuli crossed by 2g+2 short ones, one square per pair.

    Each short annulus meets each long one exactly once, in cyclic position
    j along both long strips, so the squares form two rows of length 2g+2.
    """
    if genus < 0:
        raise ValueError(f"genus must be nonnegative, got {genus}")
    n = 2 * genus + 2
    w = len(str(n - 1))
    row1 = tuple(f"s1_{j:0{w}d}" for j in range(n))
    row2 = tuple(f"s2_{j:0{w}d}" for j in range(n))
    loops_b = tuple((row1[j], row2[j]) for j in range(n))
    return PlumbingPattern((row1, row2), loops_b)


def realize_plumbing(pattern: PlumbingPattern) -> tuple[RibbonGraph, tuple[CurveOnSurface, ...], tuple[CurveOnSurface, ...]]:
    """Thicken a plumbing pattern into its fiber surface and core circles.

    Every square becomes a vertex; every strip contributes one edge per
    consecutive square pair.  At each square the two strips cross
    transversally, so the rotation interleaves them: (a out, b out, a in,
    b in) counterclockwise.  Returns (fiber, a-cores, b-cores).
    """
    families = []
    for fam, loops in (("a", pattern.loops_a), ("b", pattern.loops_b)):
        w = len(str(len(loops) - 1))
        families.append([(f"{fam}{i:0{w}d}", loop) for i, loop in enumerate(loops)])
    squares = pattern.squares
    edges = []
    strands: dict[str, dict[str, tuple[HalfEdge, HalfEdge]]] = {q: {} for q in squares}
    walks: dict[str, list[Step]] = {}
    for fam, named_loops in zip("ab", families):
        for name, loop in named_loops:
            m = len(loop)
            wt = len(str(m - 1))
            eids = [f"{name}e{t:0{wt}d}" for t in range(m)]
            edges.extend(eids)
            walks[name] = [(e, 1) for e in eids]
            for t, q in enumerate(loop):
                arriving = (eids[(t - 1) % m], 1)
                departing = (eids[t], 0)
                strands[q][fam] = (arriving, departing)
    rotation = {}
    for q in squares:
        (a_in, a_out) = strands[q]["a"]
        (b_in, b_out) = strands[q]["b"]
        rotation[q] = (a_out, b_out, a_in, b_in)
    fiber = RibbonGraph(squares, edges, rotation)
    a_curves = tuple(CurveOnSurface(fiber, name, tuple(walks[name])) for name, _ in families[0])
    b_curves = tuple(CurveOnSurface(fiber, name, tuple(walks[name])) for name, _ in families[1])
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
    starting at that edge, named ``c0``, ``c1``, ...

    The last successful smoothing on a surface is kept in its cache as walk
    tuples only, so the cache makes no cycle through the surface.  A call
    whose curves carry the very same walk objects (``is``), in order, on
    that surface rebuilds its outputs from them without tracing: a fresh
    plumbing build's certificate reuses the builder's smoothing.  Errors are
    not kept.
    """
    family_x, family_y = tuple(family_x), tuple(family_y)
    memo = surface._cache.get("smoothing")
    if memo is not None and _same_walks(surface, memo[0], family_x) and _same_walks(surface, memo[1], family_y):
        return tuple(CurveOnSurface(surface, f"c{i}", walk) for i, walk in enumerate(memo[2]))
    owner: dict[str, Step] = {}
    for curves in (family_x, family_y):
        for c in curves:
            if c.host is not surface:
                raise SurfaceError(f"curve {c.name!r} lives on a different surface")
            c.require_edge_simple()
            for step in c.walk:
                if step[0] in owner:
                    raise SurfaceError(f"edge {step[0]!r} is traversed twice; the families must be edge-disjoint")
                owner[step[0]] = step
    dv, pos, half = surface._dv, surface._dpos, surface._half
    depart = [-1] * len(dv)  # depart[d]: the dart a strand arriving on dart d leaves along
    px: dict[str, tuple[int, int]] = {}  # vertex -> (arriving dart, departing dart) of family x
    py: dict[str, tuple[int, int]] = {}
    for curves, at in ((family_x, px), (family_y, py)):
        for c in curves:
            # a pass arrives on one step's head dart and departs on the next step's tail dart
            heads = surface.head_darts(c.walk)
            for hin, nxt in zip(heads, heads[1:] + heads[:1]):
                v = dv[hin]
                if v in at:
                    raise SurfaceError(f"one family passes vertex {v!r} twice; crossings must be simple")
                at[v] = (hin, nxt ^ 1)
                depart[hin] = nxt ^ 1
    for v in sorted(px.keys() & py.keys()):
        (xin, xout), (yin, yout) = px[v], py[v]
        lo, hi = sorted((pos[xin], pos[xout]))
        if (lo < pos[yin] < hi) == (lo < pos[yout] < hi):
            raise SurfaceError(f"the families meet tangentially at vertex {v!r}")
        depart[xin], depart[yin] = yout, xout

    outputs = []
    for start in range(len(depart)):  # in dart order, so each resolved curve starts at its least edge
        walk, d = [], start
        while depart[d] >= 0:
            walk.append(owner[half[d][0]])
            depart[d], d = -1, depart[d] ^ 1
        if walk:
            outputs.append(CurveOnSurface(surface, f"c{len(outputs)}", tuple(walk)))
    surface._cache["smoothing"] = (tuple(c.walk for c in family_x), tuple(c.walk for c in family_y),
                                   tuple(c.walk for c in outputs))
    return tuple(outputs)


def _same_walks(surface: RibbonGraph, walks: tuple, curves: tuple) -> bool:
    """Whether ``curves`` live on ``surface`` and carry exactly the walk
    objects ``walks``, in order."""
    return len(walks) == len(curves) and all(c.host is surface and c.walk is w for w, c in zip(walks, curves))


def closing_smoothing(fib: LefschetzFibration) -> tuple[bool, str | None] | None:
    """The one check of a word's closing move: smooth its a family through
    its b family on its own fiber; the outputs must be its c family up to
    basepoint, compared by canonical rotation.  None when the word lacks
    one of the three families; else (True, None), (False, None) on a
    mismatch, or (False, message) when the smoothing raises a SurfaceError.
    A fresh plumbing build answers from the smoothing its fiber keeps."""
    fams = word_families(fib)
    if not {"a", "b", "c"} <= fams.keys():
        return None
    try:
        outs = simultaneous_surgery(fib.fiber, fams["a"], fams["b"])
    except SurfaceError as exc:
        return False, str(exc)
    wanted = {canonical_rotation(c.walk) for c in fams["c"]}
    return len(outs) == len(fams["c"]) and all(canonical_rotation(c.walk) in wanted for c in outs), None


# -- the divide fiber --------------------------------------------------------------



class DivideFiberModel(Record):
    """The thickened divide and its three cycle families."""

    __slots__ = ("divide", "fiber", "white_cycles", "crossing_cycles", "black_cycles")

    def __init__(self, divide: Divide, fiber: RibbonGraph, white_cycles: tuple[CurveOnSurface, ...],
                 crossing_cycles: tuple[CurveOnSurface, ...], black_cycles: tuple[CurveOnSurface, ...]):
        object.__setattr__(self, "divide", divide)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "white_cycles", white_cycles)
        object.__setattr__(self, "crossing_cycles", crossing_cycles)
        object.__setattr__(self, "black_cycles", black_cycles)


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
    certificate's ``closing_smoothing`` check replays it.  The fiber is
    constructed once, its site rotations set from orientation signs read
    off the edge tables.
    """
    report = check_admissible(divide)
    if not report.admissible:
        raise SurfaceError(f"divide is not admissible: {report.problem}")
    coloring = checkerboard_coloring(divide)
    white_corner_slot: dict[HalfEdge, int] = {}
    site_of_corner: dict[tuple[str, int], str] = {}
    # per site: (r_in, r_out, arriving band half, departing band half)
    site_ends: dict[str, tuple[HalfEdge, HalfEdge, HalfEdge, HalfEdge]] = {}
    # per site: the two-edge passage across its roundabout, against the core
    passage: dict[str, tuple[Step, Step]] = {}
    crossing_walks = []
    vertices = []
    edges = []
    twists = set()
    rotation: dict[str, tuple[HalfEdge, ...]] = {}
    for v in divide.vertices:
        # A proper face 2-coloring alternates around a 4-valent crossing, so
        # the white corners are k0 and k0 + 2 and each slot borders one.
        k0 = 0 if coloring.color_of(divide.corner_face(v, 0)) == "white" else 1
        w0, m1, w2, m3 = f"{v}_w0", f"{v}_m1", f"{v}_w2", f"{v}_m3"
        site_of_corner[(v, k0)] = w0
        site_of_corner[(v, k0 + 2)] = w2
        for k, h in enumerate(divide.rotation[v]):
            white_corner_slot[h] = k if (k - k0) % 2 == 0 else (k - 1) % 4
        r = [f"{v}_r{k}" for k in range(4)]
        crossing_walks.append(tuple((e, 1) for e in r))
        passage[w0] = ((r[3], -1), (r[2], -1))
        passage[w2] = ((r[1], -1), (r[0], -1))
        vertices += [w0, m1, w2, m3]
        edges += r
        twists.update((r[0], r[2]))
        rotation[m1] = ((r[0], 1), (r[1], 0))
        rotation[m3] = ((r[2], 1), (r[3], 0))
        for site, corner, r_in, r_out in (
            (w0, k0, (r[3], 1), (r[0], 0)),
            (w2, k0 + 2, (r[1], 1), (r[2], 0)),
        ):
            # the white face walk enters the corner along the lower slot's
            # half-edge and leaves along the upper slot's
            arriving = divide.rotation[v][corner]
            departing = divide.rotation[v][(corner + 1) % 4]
            site_ends[site] = (r_in, r_out, arriving, departing)
            rotation[site] = (r_in, departing, r_out, arriving)
    clash = set(divide.edges) & set(edges)
    if clash:
        raise SurfaceError(f"divide edge ids collide with roundabout ids: {sorted(clash)}")
    edges += list(divide.edges)
    twists.update(divide.edges)
    # Local orientation signs depend only on twists and endpoints, so they
    # are read off the tables of the provisional rotation.  Each site is then
    # rewritten so that, after normalization flips the -1 vertices, every
    # site reads (r_in, band_out, r_out, band_in) in one global orientation.
    # A uniform rule cannot do this directly: the half-twisted bands force
    # opposite signs on the two ends of every band.
    at = {h: v for v, rot in rotation.items() for h in rot}
    eps, components = orientation_signs(vertices, edges, [(at[(e, 0)], at[(e, 1)]) for e in edges], twists)
    if eps is None:
        raise SurfaceError("divide fiber is non-orientable; twist placement is broken")
    for site, (r_in, r_out, arriving, departing) in site_ends.items():
        if eps[site] == 1:
            rotation[site] = (r_in, departing, r_out, arriving)
        else:
            rotation[site] = (r_in, arriving, r_out, departing)
    fiber = RibbonGraph(vertices, edges, rotation, twists)
    fiber._cache["orientation"] = (eps, components)  # the rewrite moved no band end

    faces = divide.faces()
    white_cycles = []
    for j, fi in enumerate(coloring.white):
        walk = tuple((e, 1 if end == 0 else -1) for (e, end) in faces[fi])
        white_cycles.append(CurveOnSurface(fiber, f"a{j}", walk))

    wb = len(str(len(divide.vertices) - 1))
    crossing_cycles = [CurveOnSurface(fiber, f"b{j:0{wb}d}", walk) for j, walk in enumerate(crossing_walks)]

    black_cycles = []
    for j, fi in enumerate(coloring.black):
        steps: list[Step] = []
        for e, end in faces[fi]:
            steps.append((e, 1 if end == 0 else -1))
            landing = (e, 1 - end)
            steps.extend(passage[site_of_corner[(divide.graph.vertex_of(landing), white_corner_slot[landing])]])
        # the smoothing orientation runs against the black face walk
        walk = tuple(reversed_step(st) for st in reversed(steps))
        black_cycles.append(CurveOnSurface(fiber, f"c{j}", walk))

    return DivideFiberModel(divide, fiber, tuple(white_cycles), tuple(crossing_cycles), tuple(black_cycles))


# -- fibrations ---------------------------------------------------------------------


class LefschetzFibration(Record):
    """An ordered word of vanishing cycles on a fixed fiber surface."""

    __slots__ = ("construction", "genus", "fiber", "word")

    def __init__(self, construction: str, genus: int, fiber: RibbonGraph, word: tuple[CurveOnSurface, ...]):
        names = [c.name for c in word]
        if len(names) != len(set(names)):
            raise SurfaceError("vanishing cycle names must be unique")
        for c in word:
            if c.host is not fiber:
                raise SurfaceError(f"cycle {c.name!r} lives off the fiber")
        object.__setattr__(self, "construction", construction)
        object.__setattr__(self, "genus", genus)
        object.__setattr__(self, "fiber", fiber)
        object.__setattr__(self, "word", word)

    def names(self) -> tuple[str, ...]:
        return tuple(c.name for c in self.word)

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
        schema = doc.get("schema") if isinstance(doc, dict) else None
        if schema != "lefschetz-fibration/1":
            raise SurfaceError(f"unsupported schema {schema!r}")
        where = "lefschetz-fibration"
        construction = json_field(doc, "construction", str, where)
        genus = json_field(doc, "genus", int, where)
        fiber = RibbonGraph.from_json_dict(json_field(doc, "fiber", dict, where))
        cycles = json_field(doc, "vanishing_cycles", list, where, dict)
        word = tuple(curve_from_json(fiber, rec) for rec in cycles)
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
