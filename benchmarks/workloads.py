"""The benchmark's workloads: inputs, one op, and an oracle per op.

An op is the library calls of one check (or one ``cli.main`` call); the
runner times it alone.  Input generation and the oracle run outside the
timed region.  Every workload reaches the library through ``self.lib`` at
call time, so the tracer's rebinding of module attributes is seen.

Oracles avoid trusting the code under test where that is cheap: the CLI
results are recomputed from the raw document data with plain Fractions, and
the transport check recomputes the point's projective diameter from its
radius and centre terms.
"""

from __future__ import annotations

import io
import json
import math
import os
import re
from collections import Counter
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import inputs as gen

P_CLI = 3  # the prime of every padic CLI document
PADIC_FIELD = {"backend": "padic", "p": P_CLI}


def log_mul(x, y):
    """Product of two magnitudes given as logvals (None is the zero magnitude)."""
    if x is None or y is None:
        return None
    return x + y


class Workload:
    name = ""
    why = ""
    warmup_ops = 20

    def __init__(self, lib, seed: int, workdir: str) -> None:
        self.lib = lib
        self.seed = seed
        self.workdir = workdir
        self.shape: Counter = Counter()

    def setup(self) -> None:
        """Prepare inputs shared by all ops (the CLI documents)."""

    def reset(self) -> None:
        """Clear per-batch state before a (re)play of the op sequence."""

    def make_input(self, rng, i: int):
        raise NotImplementedError

    def op(self, inp):
        raise NotImplementedError

    def check(self, inp, result) -> bool:
        raise NotImplementedError

    def finish(self) -> bool:
        """Oracle for state that spans several ops (checked at the end)."""
        return True

    def shape_report(self) -> dict:
        return dict(sorted(self.shape.items()))


# ---------------------------------------------------------------------------
# transport-puiseux


class TransportPuiseux(Workload):
    name = "transport-puiseux"
    why = (
        "criterion-1 maps [1 : P] at off-centre multi-term Puiseux points: the Puiseux "
        "term kernel and taylor_shift take almost the whole op; no gcd, inversion or parsing"
    )

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.spec = lib.FieldSpec("puiseux-q")

    def make_input(self, rng, i):
        f = gen.poly_map(self.lib, rng, self.spec, 6)
        while True:
            z = gen.unit_disk_point(self.lib, rng, self.spec)
            if len(z.center.num) >= 2:
                break
        self.shape[f"deg_P={f.coords[1].degree()}"] += 1
        self.shape[f"centre_terms={len(z.center.num)}"] += 1
        self.shape["rigid_points" if z.radius.is_zero else "ball_points"] += 1
        return f, z

    def op(self, inp):
        f, z = inp
        lib = self.lib
        lhs = lib.diam_proj(lib.apply_map(f, z))
        return lhs, lib.diam_proj(z), lib.fs_derivative(f, z)

    def check(self, inp, result) -> bool:
        f, z = inp
        lhs, dz, deriv = result
        # diam(z) = r / max(1, |a|, r)^2, from the radius and the centre's lowest term
        r = z.radius.logval
        if r is None:
            expected = None
        else:
            norm = max(Fraction(0), -z.center.num[0][0], r)
            expected = r - 2 * norm
        return dz.logval == expected and lhs.logval == log_mul(dz.logval, deriv.logval)


# ---------------------------------------------------------------------------
# moebius-mixed


class MoebiusMixed(Workload):
    name = "moebius-mixed"
    why = (
        "criteria 3-4 alternating padic and puiseux-q: the only workload with series_map's "
        "gcd/certificate path, rational-function scalars and projective point hashing"
    )
    batch = 64  # ops per batch; each batch keeps one set of moved points per backend
    # A puiseux-q case costs from 1 ms to 0.5 s (coefficient of variation
    # about 3), so fresh cases move ops_per_s and op_p99_ms by 10-20 % from
    # seed to seed.  The cases are therefore a fixed corpus drawn once from
    # the criteria 3-4 generators; the seed only orders it, and a run cycles
    # through it several times.
    corpus_size = 256

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.specs = (lib.FieldSpec("padic", 3), lib.FieldSpec("puiseux-q"))
        self.reset()

    def setup(self) -> None:
        rng = gen.rng_for(self.name, 0, "corpus")
        self.corpus = [self._case(rng, self.specs[i % 2]) for i in range(self.corpus_size)]
        self.order: list[int] = []

    def reset(self) -> None:
        self.count = 0
        self.pending: list = []
        self._new_batch()

    def _new_batch(self) -> None:
        self.sets = {s.backend: set() for s in self.specs}
        self.moved = {s.backend: [] for s in self.specs}

    def _case(self, rng, spec):
        lib = self.lib
        f = gen.poly_map(lib, rng, spec, 3)
        word = gen.pgl_word(lib, rng, spec)
        z = gen.unit_disk_point(lib, rng, spec)
        f2 = gen.poly_map(lib, rng, spec, 2)
        g = gen.poly_map(lib, rng, spec, 3)
        return spec.backend, f, word, z, f2, g

    def make_input(self, rng, i):
        if i % self.corpus_size == 0:
            # a fresh order per pass: each backend's cases shuffled, then alternated
            halves = [rng.sample(range(b, self.corpus_size, 2), self.corpus_size // 2) for b in (0, 1)]
            self.order = [k for pair in zip(*halves) for k in pair]
        case = self.corpus[self.order[i % self.corpus_size]]
        backend, f, word = case[:3]
        self.shape[f"{backend}:word_len={len(word)}"] += 1
        self.shape[f"{backend}:deg_f={f.coords[1].degree()}"] += 1
        return case

    def op(self, inp):
        backend, f, word, z, f2, g = inp
        lib = self.lib
        if self.count and self.count % self.batch == 0:
            self.pending.append((self.moved, self.sets))
            self._new_batch()
        self.count += 1
        moved = lib.pgl_point(word, z)
        invariance = (
            lib.fs_derivative(lib.pgl_apply(word, f), z),
            lib.fs_derivative_proj(f, moved),
        )
        gz = lib.apply_map(g, z)[0]
        chain = (
            lib.fs_derivative(lib.compose(f2, g), z),
            lib.fs_derivative(f2, gz),
            lib.fs_derivative(g, z),
        )
        points = self.sets[backend]
        points.add(moved)
        self.moved[backend].append(moved)
        return invariance + chain + (len(points),)

    def check(self, inp, result) -> bool:
        a, b, fg, f_at_gz, g_at_z, _ = result
        ok = a == b and fg.logval == log_mul(f_at_gz.logval, g_at_z.logval)
        while self.pending:
            ok = self._batch_ok(*self.pending.pop()) and ok
        return ok

    def finish(self) -> bool:
        return self._batch_ok(self.moved, self.sets)

    @staticmethod
    def _batch_ok(moved: dict, sets: dict) -> bool:
        return all(set_matches_dedupe(moved[b], sets[b]) for b in sets)


def set_matches_dedupe(points: list, container) -> bool:
    """A set of points must hold exactly the classes of a pairwise-==
    dedupe; a hash that disagrees with __eq__ leaves duplicates in the set."""
    distinct: list = []
    for p in points:
        if not any(p == q for q in distinct):
            distinct.append(p)
    return len(distinct) == len(container)


# ---------------------------------------------------------------------------
# cli-batch

COMMANDS = ("segments", "theta", "zeros", "pieces", "eval", "dck", "dtree", "classify", "genus", "gromov")
DOC_OF = {
    "segments": "tropical",
    "theta": "tropical",
    "zeros": "laurent",
    "pieces": "pieces",
    "eval": "eval",
    "dck": "tree",
    "dtree": "tree",
    "classify": "curve",
    "genus": "curve",
    "gromov": "sample",
}


class CliBatch(Workload):
    name = "cli-batch"
    why = (
        "in-process berkline CLI over seeded documents: the only workload with parsing, "
        "dispatch, tropic, curves and zalcman; the Puiseux kernel is idle (control)"
    )
    docs_per_kind = 32
    # trees with enough cycles that the chain search is about a fifth of a
    # dck/dtree call, while the slowest tree stays under 4 ms (more cycle
    # edges made single trees take 10+ ms and set op_p99_ms by themselves)
    tree_disks = (8, 10)
    tree_extra_edges = (3, 4)

    def __init__(self, lib, seed, workdir):
        super().__init__(lib, seed, workdir)
        self.shape_docs: Counter = Counter()

    def setup(self) -> None:
        rng = gen.rng_for(self.name, self.seed, "documents")
        self.docs: dict[str, list] = {}
        makers = {
            "tropical": self._tropical,
            "laurent": self._laurent,
            "pieces": self._pieces,
            "eval": self._eval_poly,
            "tree": self._tree,
            "curve": curve_document,
            "sample": self._sample,
        }
        for kind, make in makers.items():
            self.docs[kind] = []
            for j in range(self.docs_per_kind):
                field, payload_key, payload, data = make(rng)
                path = os.path.join(self.workdir, f"{kind}-{j}.json")
                with open(path, "w", encoding="utf-8") as handle:
                    json.dump({"field": field, payload_key: gen.to_json(payload)}, handle)
                self.docs[kind].append((path, data))

    # -- documents ------------------------------------------------------------

    @staticmethod
    def _tropical(rng):
        n_terms = rng.randint(1, 7)
        terms = {
            rng.randint(-8, 8): Fraction(rng.randint(-20, 20), rng.choice([1, 2, 3, 4]))
            for _ in range(n_terms)
        }
        lo = Fraction(rng.randint(-10, -1), rng.choice([1, 2]))
        hi = lo + Fraction(rng.randint(1, 10), rng.choice([1, 2]))
        if rng.random() < 0.2:
            lo = None
        if rng.random() < 0.2:
            hi = None
        payload = {"terms": [[n, v] for n, v in terms.items()], "domain": [lo, hi]}
        return PADIC_FIELD, "tropical", payload, (terms, lo, hi)

    @staticmethod
    def _laurent(rng):
        return series_document(gen.raw_laurent(rng, P_CLI, span=4))

    @staticmethod
    def _pieces(rng):
        # criterion 6 shape: coefficients p^k, k >= 0, so the unit disk maps into itself
        coeffs = {}
        for n in range(0, 6):
            if rng.random() < 0.7:
                coeffs[n] = Fraction(P_CLI) ** rng.randint(0, 5) * rng.choice([1, 2, -1, 5])
        if not any(n >= 1 for n in coeffs):
            coeffs[rng.randint(1, 5)] = Fraction(1)
        return series_document(coeffs)

    @staticmethod
    def _eval_poly(rng):
        return series_document(gen.raw_poly(rng, P_CLI, 6))

    def _tree(self, rng):
        names, edges, marks = gen.raw_tree_of_disks(rng, rng.randint(*self.tree_disks), self.tree_extra_edges)
        payload = {
            "disks": names,
            "edges": [[a, ca, b, cb] for a, ca, b, cb in edges],
            "marks": {m: [d, c] for m, (d, c) in marks.items()},
        }
        self.shape_docs[f"tree_disks={len(names)},edges={len(edges)}"] += 1
        return {"backend": "puiseux-q"}, "tree-of-disks", payload, (names, edges, marks)

    @staticmethod
    def _sample(rng):
        size = rng.randint(10, 60)
        points, values, seen = [], [], set()
        while len(points) < size:
            v = Fraction(rng.randint(-300, 300), rng.choice([1, 2, 3, 7])) * Fraction(P_CLI) ** rng.randint(0, 2)
            if v in seen:
                continue
            seen.add(v)
            points.append(v)
            values.append(Fraction(rng.randint(1, 10**4), rng.choice([1, 2, 5, 9])))
        payload = {"points": points, "values": values}
        return PADIC_FIELD, "sample-function", payload, (points, values)

    # -- ops ------------------------------------------------------------------

    def make_input(self, rng, i):
        command = rng.choice(COMMANDS)
        kind = DOC_OF[command]
        path, data = self.docs[kind][rng.randrange(len(self.docs[kind]))]
        argv = [command, path]
        extra = None
        if command == "theta":
            terms, lo, hi = data
            left = lo if lo is not None else (hi if hi is not None else Fraction(0)) - 5
            right = hi if hi is not None else left + 10
            extra = left + (right - left) * Fraction(rng.randint(0, 12), 12)
            argv.append(f"--at={extra}")
        elif command == "zeros":
            lo = None if rng.random() < 0.2 else Fraction(rng.randint(-12, 6), rng.choice([1, 2, 3]))
            hi = None if rng.random() < 0.2 else (lo if lo is not None else Fraction(-12)) + Fraction(rng.randint(1, 12), rng.choice([1, 2]))
            extra = (lo, hi)
            argv.append(f"--window={'-inf' if lo is None else lo},{'+inf' if hi is None else hi}")
        elif command == "pieces":
            lo = Fraction(-rng.randint(2, 12), rng.choice([1, 2]))
            hi = Fraction(0) if rng.random() < 0.5 else lo / rng.randint(2, 4)
            extra = (lo, hi)
            argv.append(f"--window={lo},{hi}")
        elif command == "eval":
            center = gen.raw_padic_scalar(rng, P_CLI, unit_ball=True) if rng.random() < 0.8 else Fraction(0)
            logr = None if rng.random() < 0.3 else Fraction(-rng.randint(0, 9), rng.choice([1, 2, 3]))
            extra = (center, logr)
            argv.append(f"--point={center},{'zero' if logr is None else logr}")
        elif command in ("dck", "dtree"):
            src, dst = rng.sample(["x", "y", "z"], 2)
            extra = (src, dst)
            argv += ["--from", src, "--to", dst]
        elif command == "gromov":
            points, _ = data
            start = rng.randrange(len(points))
            eps = Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))
            tau = 1 + Fraction(1, rng.randint(1, 9))
            extra = (start, eps, tau)
            argv += ["--start", str(start), "--epsilon", str(eps), "--tau", str(tau)]
        self.shape[f"cmd={command}"] += 1
        return command, data, extra, argv

    def op(self, inp):
        out, err = io.StringIO(), io.StringIO()
        with redirect_stdout(out), redirect_stderr(err):
            try:
                code = self.lib.cli.main(inp[3])
            except SystemExit as exc:  # argparse rejects the command line
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def check(self, inp, result) -> bool:
        code, out, err = result
        if code != 0 or err:
            return False
        command, data, extra, _ = inp
        try:
            return CLI_ORACLES[command](data, extra, out.rstrip("\n"))
        except (ValueError, KeyError, IndexError, ZeroDivisionError):
            return False

    def shape_report(self) -> dict:
        out = dict(sorted(self.shape.items()))
        out.update(sorted(self.shape_docs.items()))
        out["documents"] = {k: len(v) for k, v in self.docs.items()}
        return out


def series_document(coeffs: dict):
    payload = {"terms": [[n, c] for n, c in sorted(coeffs.items())]}
    return PADIC_FIELD, "series", payload, coeffs


def curve_document(rng):
    """A projective curve model of one of the five skeleton cases, with its
    expected classification and genus known by construction."""
    case = rng.choice(["projective-line", "tate-curve", "good-reduction", "one-node", "multi-node"])
    vertices: list = []
    edges: list = []

    def length():
        return Fraction(rng.randint(1, 9), rng.choice([1, 2, 3]))

    def path(u, v, inner):
        # an edge u-v subdivided by `inner` genus-0 vertices
        prev = u
        for _ in range(inner):
            name = f"s{len(vertices)}"
            vertices.append([name, 0])
            edges.append([prev, name, length()])
            prev = name
        edges.append([prev, v, length()])

    if case == "projective-line":
        label, genus = "projective-line", 0
    elif case == "tate-curve":
        vertices.append(["c", 0])
        path("c", "c", rng.randint(0, 5))
        label, genus = "tate-curve", 1
    elif case == "good-reduction":
        g = rng.randint(1, 4)
        vertices.append(["v", g])
        label, genus = f"good-reduction({g})", g
    elif case == "one-node":
        g0 = rng.randint(0, 3)
        loops = rng.randint(2 if g0 == 0 else 1, 4)
        vertices.append(["v", g0])
        for _ in range(loops):
            path("v", "v", rng.randint(0, 3))
        genus = g0 + loops
        label = f"one-node-with-loops({genus})"
    else:
        ga, gb = rng.randint(1, 3), rng.randint(1, 3)
        vertices += [["a", ga], ["b", gb]]
        m = rng.randint(1, 3)
        for _ in range(m):
            path("a", "b", rng.randint(0, 2))
        genus = ga + gb + m - 1
        label = f"multi-node({genus})"
    payload = {"vertices": vertices, "edges": edges}
    return PADIC_FIELD, "curve-model", payload, (label, genus)


# -- CLI oracles (plain Fraction arithmetic on the raw document data) --------


def padic_valuation(x: Fraction, p: int) -> int:
    """v_p of a nonzero rational, by integer division ."""
    v = 0
    n, d = x.numerator, x.denominator
    while n % p == 0:
        n //= p
        v += 1
    while d % p == 0:
        d //= p
        v -= 1
    return v


def _envelope_value(terms: dict, r: Fraction) -> Fraction:
    return max(v + n * r for n, v in terms.items())


def _bound(text: str) -> Fraction | None:
    return None if text in ("-inf", "+inf") else Fraction(text)


def _sample_points(left, right) -> tuple[Fraction, Fraction]:
    """Two points inside [left, right); a line is fixed by its values there."""
    if left is None and right is None:
        return Fraction(0), Fraction(1)
    if left is None:
        return right - 1, right - 2
    if right is None:
        return left + 1, left + 2
    return (left + right) / 2, (3 * left + right) / 4


_SEGMENT = re.compile(r"^\[(\S+), (\S+)\)  slope (-?\d+)  intercept (\S+)$")
_PIECE = re.compile(r"^\[(\S+), (\S+)\)  exponent (-?\d+)  logcoeff (\S+)$")
_CONSTANT = re.compile(r"^\[(\S+), (\S+)\)  constant \(zero diameter\)$")


def _covers(pieces: list, lo, hi) -> bool:
    """Pieces given as (left, right) tile (lo, hi) in order."""
    if not pieces or pieces[0][0] != lo or pieces[-1][1] != hi:
        return False
    return all(a[1] == b[0] and (a[1] is not None) for a, b in zip(pieces, pieces[1:]))


def oracle_segments(data, extra, out: str) -> bool:
    terms, lo, hi = data
    segs = []
    for line in out.split("\n"):
        m = _SEGMENT.match(line)
        if not m:
            return False
        segs.append((_bound(m[1]), _bound(m[2]), int(m[3]), Fraction(m[4])))
    if not _covers([(a, b) for a, b, _, _ in segs], lo, hi):
        return False
    slopes = [s for _, _, s, _ in segs]
    if slopes != sorted(set(slopes)):
        return False
    for left, right, slope, intercept in segs:
        for r in _sample_points(left, right):
            if intercept + slope * r != _envelope_value(terms, r):
                return False
    return True


def oracle_theta(data, extra, out: str) -> bool:
    terms, _, _ = data
    return Fraction(out) == _envelope_value(terms, extra)


def _logs(coeffs: dict) -> dict:
    return {n: Fraction(-padic_valuation(c, P_CLI)) for n, c in coeffs.items() if c != 0}


def oracle_zeros(data, extra, out: str) -> bool:
    # zeros in the open window = slope just left of hi minus slope just right of lo
    terms = _logs(data)
    lo, hi = extra
    if lo is None:
        right_of_lo = min(terms)
    else:
        top = _envelope_value(terms, lo)
        right_of_lo = max(n for n, v in terms.items() if v + n * lo == top)
    if hi is None:
        left_of_hi = max(terms)
    else:
        top = _envelope_value(terms, hi)
        left_of_hi = min(n for n, v in terms.items() if v + n * hi == top)
    return int(out) == left_of_hi - right_of_lo


def oracle_pieces(data, extra, out: str) -> bool:
    lo, hi = extra
    terms = {n: v for n, v in _logs(data).items() if n >= 1}
    pieces = []
    for line in out.split("\n"):
        m = _PIECE.match(line)
        if not m:
            return False
        pieces.append((_bound(m[1]), _bound(m[2]), int(m[3]), Fraction(m[4])))
    if not _covers([(a, b) for a, b, _, _ in pieces], lo, hi):
        return False
    for left, right, exponent, logcoeff in pieces:
        for r in _sample_points(left, right):
            if logcoeff + exponent * r != _envelope_value(terms, r):
                return False
    return True


def oracle_eval(data, extra, out: str) -> bool:
    # Taylor coefficients at the centre, then max_k |b_k| r^k
    center, logr = extra
    deg = max(data)
    shifted = [
        sum((data.get(n, Fraction(0)) * math.comb(n, k) * center ** (n - k) for n in range(k, deg + 1)), Fraction(0))
        for k in range(deg + 1)
    ]
    if logr is None:
        shifted = shifted[:1]
        logr = Fraction(0)
    logs = [Fraction(-padic_valuation(b, P_CLI)) + k * logr for k, b in enumerate(shifted) if b != 0]
    if not logs:
        return out == "0"
    value = max(logs)
    return out == ("1" if value == 0 else f"β^({value})")


def _ultra_distance(x: list, y: list) -> Fraction:
    acc: dict = {}
    for m, c in x:
        acc[m] = acc.get(m, 0) + c
    for m, c in y:
        acc[m] = acc.get(m, 0) - c
    return max((m for m, c in acc.items() if c != 0), default=Fraction(0))


def walk_minimum(data, src: str, dst: str, mode: str):
    """Minimum over walks (edge reuse allowed) of at most |E| + 1 visits,
    the quantity the test suite's ``brute_force_walks`` oracle enumerates.
    It is found here by relaxing (disk, entry coordinate) states one visit at
    a time; a state reached again at no lower cost is dropped, since its
    continuations are already covered with more visits to spare."""
    names, edges, marks = data
    disk_x, coord_x = marks[src]
    disk_y, coord_y = marks[dst]
    adj: dict = {d: [] for d in names}
    for k, (a, ca, b, cb) in enumerate(edges):
        adj[a].append((ca, b, cb, (k, b)))
        adj[b].append((cb, a, ca, (k, a)))

    def combine(acc, step):
        return acc + step if mode == "sum" else max(acc, step)

    entry = {None: (disk_x, coord_x)}
    reached: dict = {None: Fraction(0)}
    frontier: dict = {None: Fraction(0)}
    best = math.inf
    max_visits = len(edges) + 1
    for visits in range(1, max_visits + 1):
        nxt: dict = {}
        for state, acc in frontier.items():
            disk, coord = entry[state]
            if disk == disk_y:
                best = min(best, combine(acc, _ultra_distance(coord, coord_y)))
            if visits == max_visits:
                continue
            for here, other, there, key in adj[disk]:
                cost = combine(acc, _ultra_distance(coord, here))
                if cost < reached.get(key, math.inf) and cost < nxt.get(key, math.inf):
                    nxt[key] = cost
                    entry[key] = (other, there)
        reached.update(nxt)
        frontier = nxt
    return best


def _cost(out: str):
    return math.inf if out == "infinity" else Fraction(out)


def oracle_dck(data, extra, out: str) -> bool:
    return _cost(out) == walk_minimum(data, *extra, "sum")


def oracle_dtree(data, extra, out: str) -> bool:
    return _cost(out) == walk_minimum(data, *extra, "max")


def oracle_classify(data, extra, out: str) -> bool:
    return out == data[0]


def oracle_genus(data, extra, out: str) -> bool:
    return int(out) == data[1]


_GROMOV = re.compile(r"^selected index (\d+)  conditions i=(\w+) ii=(\w+) iii=(\w+)$")


def _padic_le(x: Fraction, bound: Fraction) -> bool:
    """|x|_p <= bound for a positive rational bound."""
    return x == 0 or Fraction(P_CLI) ** -padic_valuation(x, P_CLI) <= bound


def oracle_gromov(data, extra, out: str) -> bool:
    points, values = data
    a, eps, tau = extra
    m = _GROMOV.match(out)
    if not m or (m[2], m[3], m[4]) != ("True", "True", "True"):
        return False
    b = int(m[1])
    cond_i = _padic_le(points[a] - points[b], tau / (eps * (tau - 1) * values[a]))
    cond_ii = values[b] >= values[a]
    bound = 1 / (eps * values[b])
    cond_iii = all(
        values[x] <= tau * values[b] for x in range(len(points)) if _padic_le(points[x] - points[b], bound)
    )
    return cond_i and cond_ii and cond_iii


CLI_ORACLES = {
    "segments": oracle_segments,
    "theta": oracle_theta,
    "zeros": oracle_zeros,
    "pieces": oracle_pieces,
    "eval": oracle_eval,
    "dck": oracle_dck,
    "dtree": oracle_dtree,
    "classify": oracle_classify,
    "genus": oracle_genus,
    "gromov": oracle_gromov,
}

WORKLOADS = {w.name: w for w in (TransportPuiseux, MoebiusMixed, CliBatch)}
