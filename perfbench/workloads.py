"""The four benchmark workloads: seeded input generation, the library calls
one query makes, canonical output encoding, and the exactness checks.

Generation and checking run in the parent process, outside every timed
region.  The worker process only prepares inputs and makes the timed calls.
Each workload's pass is a fixed list of queries drawn from the seed with
stratified parameters, so that every seed loads about the same amount of
work on each layer and seed-to-seed spread stays small.
"""

from __future__ import annotations

import hashlib
import json
import random
from math import factorial

WORKLOADS = ("qrook-boards", "bruhat-pairs", "closed-forms", "verify-sweep")

# qrook-boards: distinct boards per side, and the band of mask-DP work
# (see board_work) a board of that side must fall in.  The bands keep every
# seed's pass at about the same cost; the unbanded side-12 hulls range over
# a factor of 40 in cost.
QROOK_SIDES = {9: 8, 10: 12, 11: 5, 12: 7}
QROOK_BANDS = {9: (5300, 6700), 10: (11000, 14000), 11: (17500, 22500), 12: (26500, 33500)}
QROOK_REPEATS = 8
# A pass's peak memory is set by the largest count of live column masks in
# any one DP, so boards are capped there too: with 4096 live masks allowed,
# peak RSS moved by a fifth from seed to seed.
QROOK_MAX_STATES = 2048
QROOK_FAMILIES = ("right", "left", "meet")

# bruhat-pairs: per size n, the number of pairs of each kind.  "id" pairs
# put the identity under a random coset representative (a nonempty
# interval), "flip" pairs put the flip of one representative under another
# (empty intervals: the pattern scans and the DP still run), and the two
# violator kinds plant a 4231 in w or in flip_ud(u).  A query's cost is
# set mostly by n, so the counts put the median inside the n = 16 group
# and the 90th percentile inside the n = 18 group rather than at a step.
BRUHAT_MIX = {
    14: {"id": 4, "flip": 2, "w": 1, "flip_ud(u)": 1},
    15: {"id": 4, "flip": 2, "w": 1, "flip_ud(u)": 1},
    16: {"id": 6, "flip": 2, "w": 1, "flip_ud(u)": 1},
    17: {"id": 8, "flip": 2, "w": 1, "flip_ud(u)": 1},
    18: {"id": 8, "flip": 2, "w": 1, "flip_ud(u)": 1},
}
BRUHAT_WORK_BAND = (4000, 12000)

# closed-forms: query counts and parameter ranges, each range cut into
# equal strata with one draw per stratum.  The B and row counts include the
# two openers at the top of their ranges.
CLOSED_A = (45, 20, 50)
CLOSED_B = (35, 10, 35)
CLOSED_ROWS = (20, 10, 50)

# verify-sweep: the documented scale limits of verify.run_suite.
SWEEP_SCALES = {"stirling": 8, "rook": 4, "intervals": 7, "typeB": 4}

# A trivial first call per workload, timed together with `import skewrook`
# as the set-up cost.
SETUP_CALLS = {
    "qrook-boards": "skewrook.q_rook_number(skewrook.ones(2, 2), 1)",
    "bruhat-pairs": "skewrook.poincare_via_rook(skewrook.Permutation.identity(3), "
    "skewrook.Permutation.identity(3))",
    "closed-forms": "skewrook.theoremA_poincare(3, 1)",
    "verify-sweep": "next(skewrook.verify.SUITES['stirling'](1))",
}


# -- generation ---------------------------------------------------------------


def generate(workload: str, seed: int, **sizes) -> list[dict]:
    """The query list of one pass; the same seed gives the same list.
    `sizes` overrides the workload's size constants (the tests run tiny
    configurations this way)."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng, **sizes)


def _shuffled(rng: random.Random, n: int) -> list[int]:
    word = list(range(1, n + 1))
    rng.shuffle(word)
    return word


def _stratified(rng: random.Random, count: int, lo: int, hi: int) -> list[int]:
    """One integer from each of `count` equal strata of [lo, hi], shuffled."""
    span = hi - lo + 1
    vals = [lo + int((i + rng.random()) * span / count) for i in range(count)]
    rng.shuffle(vals)
    return vals


def _right_hull_rows(word: list[int]) -> list[int]:
    """Rows of the right hull (see boards.right_hull), built independently."""
    n = len(word)
    lo = [0] * n
    m = n + 1
    for i in range(n - 1, -1, -1):
        m = min(m, word[i])
        lo[i] = m
    rows, m = [], 0
    for i in range(n):
        m = max(m, word[i])
        rows.append(((1 << m) - 1) ^ ((1 << (lo[i] - 1)) - 1))
    return rows


def _left_hull_rows(word: list[int]) -> list[int]:
    return _right_hull_rows(word[::-1])[::-1]


def board_work(rows: list[int], limit: int | None = None) -> tuple[int, int]:
    """(transitions, peak live masks) of the bottom-up column-mask DP over
    the board, counted on masks alone.  The transitions predict the q-rook
    table cost to within about 25%.  Counting stops once they pass `limit`."""
    states = {0}
    work = peak = 0
    for mask in reversed(rows):
        nxt = set()
        for occ in states:
            free = mask & ~occ
            work += 1 + free.bit_count()
            nxt.add(occ)
            while free:
                bit = free & -free
                free ^= bit
                nxt.add(occ | bit)
        states = nxt
        peak = max(peak, len(states))
        if limit is not None and work > limit:
            break
    return work, peak


def _qrook_board(rng: random.Random, side: int, family: str, rect: bool) -> list[int]:
    word = _shuffled(rng, side)
    if family != "meet" and rng.random() < 0.35:
        # Ferrers by construction: w(1) = n gives a right-aligned Ferrers
        # right hull, w(1) = 1 a left-aligned Ferrers left hull.
        lead = side if family == "right" else 1
        word.remove(lead)
        word.insert(0, lead)
    if family == "right":
        rows = _right_hull_rows(word)
    elif family == "left":
        rows = _left_hull_rows(word)
    else:
        other = _left_hull_rows(_shuffled(rng, side))
        rows = [a & b for a, b in zip(_right_hull_rows(word), other)]
    if rect:
        cut = rng.randint(1, 3)
        rows = rows[cut:] if rng.random() < 0.5 else rows[:-cut]
    return rows


def _gen_qrook(rng: random.Random, sides=QROOK_SIDES, bands=QROOK_BANDS, repeats=QROOK_REPEATS) -> list[dict]:
    """Boards drawn until one falls in its side's work band; every other
    board is rectangular.  The band decides the family mix: at side 12 the
    full hulls are too heavy and mostly intersections pass."""
    distinct = []
    for side, count in sides.items():
        lo, hi = bands[side]
        for i in range(count):
            best, best_gap = None, None
            for _ in range(400):
                family = rng.choice(QROOK_FAMILIES)
                rows = _qrook_board(rng, side, family, rect=i % 2 == 1)
                work, peak = board_work(rows, limit=hi)
                gap = max(lo - work, work - hi, 0) + (hi if peak > QROOK_MAX_STATES else 0)
                if best_gap is None or gap < best_gap:
                    best, best_gap = (rows, family), gap
                if gap == 0:
                    break
            distinct.append({"rows": best[0], "width": side, "family": best[1]})
    rng.shuffle(distinct)
    queries = [dict(q, board=i) for i, q in enumerate(distinct)]
    for src in rng.sample(range(len(distinct)), repeats):
        first = next(j for j, q in enumerate(queries) if q["board"] == src)
        queries.insert(rng.randint(first + 1, len(queries)), dict(queries[first]))
    return queries


def _coset_rep(rng: random.Random, n: int) -> tuple[int, list[int]]:
    k = rng.randint(1, n - 1)
    first = sorted(rng.sample(range(1, n + 1), k))
    return k, first + [v for v in range(1, n + 1) if v not in first]


def _full_placement_work(rows: list[int], limit: int) -> int:
    """Transitions of the top-down full-placement DP, counted on masks."""
    states = {0}
    work = 0
    for mask in rows:
        nxt = set()
        for used in states:
            free = mask & ~used
            work += free.bit_count()
            while free:
                bit = free & -free
                free ^= bit
                nxt.add(used | bit)
        if work > limit:
            return work
        states = nxt
    return work


def _planted(rng: random.Random, n: int) -> list[int]:
    """A random word with a 4231 planted at random positions and values."""
    word = _shuffled(rng, n)
    positions = sorted(rng.sample(range(n), 4))
    values = sorted((word[p] for p in positions), reverse=True)
    for p, v in zip(positions, (values[0], values[2], values[1], values[3])):
        word[p] = v
    return word


def _gen_bruhat(rng: random.Random, mix=BRUHAT_MIX, band=BRUHAT_WORK_BAND) -> list[dict]:
    queries = []
    for n, kinds in mix.items():
        ident = list(range(1, n + 1))
        for kind, count in kinds.items():
            for _ in range(count):
                if kind == "id":
                    lo, hi = band
                    while True:
                        k, w = _coset_rep(rng, n)
                        if lo <= _full_placement_work(_right_hull_rows(w), hi) <= hi:
                            break
                    queries.append({"u": ident, "w": w, "expect": "avoid", "k": k})
                elif kind == "flip":
                    w = _coset_rep(rng, n)[1]
                    u = _coset_rep(rng, n)[1][::-1]
                    queries.append({"u": u, "w": w, "expect": "avoid"})
                elif kind == "w":
                    queries.append({"u": ident, "w": _planted(rng, n), "expect": "w"})
                else:
                    w = _coset_rep(rng, n)[1]
                    u = _planted(rng, n)[::-1]
                    queries.append({"u": u, "w": w, "expect": "flip_ud(u)"})
    rng.shuffle(queries)
    return queries


def _gen_closed(rng: random.Random, a=CLOSED_A, b=CLOSED_B, rows=CLOSED_ROWS) -> list[dict]:
    """A fixed parameter grid in seed order, opened by the largest q-Stirling
    row and the largest theorem B.  The openers fill the q-Stirling and
    q-factorial caches that every later query reuses; without them a query's
    cost depends on which queries ran before it, and the median latency
    moved by a third from seed to seed."""
    grid = random.Random("closed-forms:grid")
    count, lo, hi = a
    ns = _stratified(grid, count, lo, hi)
    fracs = [(i + grid.random()) / count for i in range(count)]
    grid.shuffle(fracs)
    queries = [
        {"kind": "A", "n": n, "k": min(n - 1, max(1, round(f * n)))} for n, f in zip(ns, fracs)
    ]
    count, lo, b_top = b
    queries += [{"kind": "B", "n": n} for n in _stratified(grid, count - 1, lo, b_top)]
    count, lo, row_top = rows
    queries += [{"kind": "row", "n": n} for n in _stratified(grid, count - 1, lo, row_top)]
    rng.shuffle(queries)
    return [{"kind": "row", "n": row_top}, {"kind": "B", "n": b_top}] + queries


def _gen_sweep(rng: random.Random, scales=SWEEP_SCALES) -> list[dict]:
    return [{"suite": name, "scale": scale} for name, scale in scales.items()]


_GENERATORS = {
    "qrook-boards": _gen_qrook,
    "bruhat-pairs": _gen_bruhat,
    "closed-forms": _gen_closed,
    "verify-sweep": _gen_sweep,
}


# -- worker side: inputs, timed calls, encoding ----------------------------------


def prepare(workload: str, query: dict, sk):
    """Library input objects for one query, built before timing starts."""
    if workload == "qrook-boards":
        return sk.Board(tuple(query["rows"]), query["width"])
    if workload == "bruhat-pairs":
        return sk.Permutation(tuple(query["u"])), sk.Permutation(tuple(query["w"]))
    if workload == "closed-forms":
        return query["kind"], query["n"], query.get("k")
    return query["suite"], query["scale"]


def call(workload: str, inp, sk):
    """One query's library calls.  Names are looked up on the modules at call
    time, so a traced run sees the wrapped functions."""
    if workload == "qrook-boards":
        top = min(inp.dims)
        q = [sk.rooks.q_rook_number(inp, k) for k in range(top + 1)]
        r = [sk.rooks.rook_number(inp, k) for k in range(top + 1)]
        return q, r
    if workload == "bruhat-pairs":
        try:
            return sk.intervals.poincare_via_rook(*inp)
        except sk.intervals.PatternViolationError as exc:
            return exc
    kind, n, k = inp
    if kind == "A":
        return sk.intervals.theoremA_poincare(n, k)
    if kind == "B":
        return sk.intervals.theoremB_poincare(n)
    return [sk.qalgebra.q_stirling(n, j) for j in range(1, n + 1)]


def encode(workload: str, out, sk) -> dict:
    """Canonical JSON form of one output; polynomials in the CLI's
    {"min_exp", "coeffs"} form."""
    if isinstance(out, sk.intervals.PatternViolationError):
        return {
            "refused": out.role,
            "perm": list(out.perm.word),
            "pattern": out.pattern.to_text(),
            "positions": list(out.positions),
        }
    if isinstance(out, BaseException):
        return {"error": f"{type(out).__name__}: {out}"}
    if workload == "qrook-boards":
        q, r = out
        return {"q": [p.to_json_dict() for p in q], "r": r}
    if workload == "verify-sweep":
        return {"name": out.name, "passed": out.passed, "detail": out.detail}
    if isinstance(out, list):
        return {"row": [p.to_json_dict() for p in out]}
    return {"poly": out.to_json_dict()}


def digest(outputs: list[dict]) -> str:
    """sha256 of the outputs, in query order, as canonical JSON."""
    h = hashlib.sha256()
    for out in outputs:
        h.update(json.dumps(out, sort_keys=True, separators=(",", ":")).encode())
        h.update(b"\n")
    return h.hexdigest()


# -- exactness checks against independent routes ---------------------------------


def _poly(obj, sk):
    return sk.LaurentPoly.from_json_dict(obj)


def check(workload: str, queries: list[dict], outputs: list[dict], sk) -> list[str | None]:
    """One entry per output: None when it passes, else what failed.

    A wrong count of outputs fails every output.  verify-sweep outputs are
    checks themselves; each must have passed.
    """
    if workload == "verify-sweep":
        return [None if o.get("passed") is True else f"check failed: {o}" for o in outputs]
    if len(outputs) != len(queries):
        return [f"{len(outputs)} outputs for {len(queries)} queries"] * max(1, len(outputs))
    checker = _CHECKERS[workload]
    fails: list[str | None] = []
    for q, o in zip(queries, outputs):
        if "error" in o:
            fails.append(o["error"])
            continue
        try:
            fails.append(checker(q, o, sk))
        except (KeyError, TypeError, ValueError) as exc:
            fails.append(f"malformed output: {exc!r}")
    if workload == "qrook-boards":
        first: dict[int, dict] = {}
        for i, (q, o) in enumerate(zip(queries, outputs)):
            if first.setdefault(q["board"], o) != o and fails[i] is None:
                fails[i] = "repeated board gave a different output"
    return fails


def _check_qrook(q: dict, o: dict, sk) -> str | None:
    board = sk.Board(tuple(q["rows"]), q["width"])
    m, n = board.dims
    polys = [_poly(p, sk) for p in o["q"]]
    ranks = o["r"]
    if len(polys) != min(m, n) + 1 or len(ranks) != len(polys):
        return "wrong number of rook counts"
    if polys[0] != sk.LaurentPoly.monomial(m * n) or ranks[0] != 1:
        return "R_0 is not q^(mn)"
    if ranks[1:2] and ranks[1] != board.count_ones():
        return "r_1 is not the number of one-cells"
    if any(p.evaluate_at_one() != r for p, r in zip(polys, ranks)):
        return "q-rook numbers at q = 1 differ from the rook numbers"
    # the factored forms, against sum_k R_{n-k}(q) [x][x-1]...[x-k+1]
    for x in range(4):
        poly = sk.LaurentPoly()
        for k in range(n + 1):
            if n - k < len(polys):
                poly = poly + polys[n - k] * sk.q_falling(x, k)
        if board.is_ferrers("right") and sk.gjw_product(board, n, x) != poly.evaluate_at_one():
            return f"differs from the right-aligned factorization at x = {x}"
        if board.is_ferrers("left") and sk.garsia_remmel_product(board, n, x) != poly:
            return f"differs from the left-aligned q-factorization at x = {x}"
    return None


def _order_isomorphic(values: list[int], pattern: list[int]) -> bool:
    return len(values) == len(pattern) and all(
        (values[i] < values[j]) == (pattern[i] < pattern[j])
        for i in range(len(values))
        for j in range(i + 1, len(values))
    )


def _check_bruhat(q: dict, o: dict, sk) -> str | None:
    expect = q["expect"]
    if expect != "avoid":
        if o.get("refused") != expect:
            return f"expected a refusal naming {expect}, got {o}"
        perm = q["w"] if expect == "w" else q["u"][::-1]
        pos = o["positions"]
        pattern = [int(ch) for ch in o["pattern"]]
        if o["perm"] != perm or pattern not in [list(p.word) for p in sk.FORBIDDEN_PATTERNS]:
            return "refusal names the wrong permutation or pattern"
        if pos != sorted(set(pos)) or not all(1 <= p <= len(perm) for p in pos):
            return "refusal positions are not increasing positions of the word"
        if not _order_isomorphic([perm[p - 1] for p in pos], pattern):
            return "refusal positions do not form the pattern"
        return None
    if "poly" not in o:
        return f"expected a polynomial, got {o}"
    u, w = sk.Permutation(tuple(q["u"])), sk.Permutation(tuple(q["w"]))
    poly = _poly(o["poly"], sk)
    if poly.is_zero:
        return None if not sk.bruhat_leq(u, w) else "empty result for comparable u <= w"
    if not sk.bruhat_leq(u, w):
        return "nonzero result for incomparable u, w"
    if poly.min_exp() != u.inversions() or poly.degree() != w.inversions():
        return "exponent range is not [l(u), l(w)]"
    if poly.coefficient(poly.min_exp()) != 1 or poly.coefficient(poly.degree()) != 1:
        return "the interval must have one bottom and one top element"
    if "k" in q:
        rep = sk.CosetRepA(len(q["w"]), q["k"], w)
        if poly.evaluate_at_one() != sk.count_lower_interval_dp(rep):
            return "size differs from the polynomial-time interval count"
    return None


def _check_closed(q: dict, o: dict, sk) -> str | None:
    n = q["n"]
    if q["kind"] == "row":
        row = [_poly(p, sk) for p in o["row"]]
        if len(row) != n:
            return "wrong row length"
        if any(p.evaluate_at_one() != sk.stirling2(n, j) for j, p in enumerate(row, 1)):
            return "q-Stirling row differs from the Stirling numbers at q = 1"
        return None
    poly = _poly(o["poly"], sk)
    if q["kind"] == "A":
        k = q["k"]
        counts = {
            poly.evaluate_at_one(),
            sk.count_lower_interval_dp(sk.max_coset_rep_A(n, k)),
            *sk.theorem8_counts(n, k),
        }
        if len(counts) != 1:
            return f"interval sizes disagree: {sorted(counts)}"
        top = k * (n - k)
    else:
        size = sum(sk.stirling2(n + 1, i + 1) * factorial(i) for i in range(n + 1))
        if poly.evaluate_at_one() != size:
            return "size differs from the Stirling-number sum"
        top = n * (n + 1) // 2
    if poly.min_exp() != 0 or poly.coefficient(0) != 1 or poly.degree() != top:
        return "not a rank generating function of an interval with one bottom"
    return None


_CHECKERS = {
    "qrook-boards": _check_qrook,
    "bruhat-pairs": _check_bruhat,
    "closed-forms": _check_closed,
}
