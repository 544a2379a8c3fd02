"""The lattice-queries workload: a seeded stream of library calls.

One client issues one query at a time, in process, and never builds an
atlas. A query is either a random lattice expression, run through parsing,
Gram matrix, signature, discriminant form, short vectors and the A2
search/refuter, or a random symmetric linking matrix, run through H1 and
Kirby moves. Every answer is checked by a route that does not use the
library: signature and |det| are summed from the atoms, root counts of
unscaled A/D/E sums come from their closed forms, and the H1 order is
compared with an independent determinant.

Queries come in rounds. A round holds one expression of every rank 1..14,
three of every rank 15..22, one more of rank 16 and 60 linking matrices;
the seed draws the atoms, definiteness, order and entries. A few properties that decide how long a
query runs are fixed per round instead of drawn, so that runs with
different seeds do comparable work (see README.md).
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction

MAX_RANK = 22
# find_a2_pair and refute_a2_mod2 run up to this rank, short vectors on
# positive definite inputs up to ENUM_RANK
REFUTE_RANK = 14
ENUM_RANK = 10
# ranks whose expressions are even with odd scales, so the refuter pairs
# close to 2^(rank-1) candidate classes whatever atoms the seed draws
EVEN_RANKS = (12, 13, 14)
# ranks whose expressions carry a constructive A2 certificate; without one
# find_a2_pair searches a (2*4+1)^rank box (about 5 s at rank 6)
CERTIFIED_RANKS = (5, 6)
# the discriminant group decides discriminant_form's cost (every pair of
# generators is a rank^2 Fraction sum, and the 2-primary part is swept
# element by element), so from rank FIXED_FROM on every ordinary query has
# exactly FIXED_GENERATORS generators and a 2-primary part of 2^FIXED_TWO_BITS;
# below it the group is only bounded. Each round also has one query of rank
# CAP_RANK beyond discriminant_form's 2^14 enumeration cap.
FIXED_FROM = 7
FIXED_GENERATORS = 4
FIXED_TWO_BITS = 4
MAX_GENERATORS = 6
MAX_TWO_BITS = 10
CAP_RANK = 16
# ranks from HIGH_FROM on get HIGH_COPIES expressions per round: the 90th
# percentile of a round's op times falls among them, and three samples per
# rank make it depend less on which atoms the seed drew
HIGH_FROM = 15
HIGH_COPIES = 3
H1_SIZES = (1, 2, 3, 4, 5, 6)
H1_PER_ROUND = 60
# nominal seconds of a round at the reference commit; a run of S seconds
# issues round(S / ROUND_SECONDS) rounds, so every run of a given length
# does the same work
ROUND_SECONDS = 5

# closed forms per atom: unscaled determinant, Smith diagonal, root count
_ROOTS_E = {6: 72, 7: 126, 8: 240}


@dataclass(frozen=True)
class Atom:
    mult: int
    kind: str  # "A", "D", "E", "U" or "diag"
    n: int     # index, or the entry k of <k>
    scale: int

    @property
    def size(self) -> int:
        return {"U": 2, "diag": 1}.get(self.kind, self.n)

    def text(self) -> str:
        s = {"U": "U", "diag": f"<{self.n}>"}.get(self.kind,
                                                  f"{self.kind}{self.n}")
        if self.scale != 1:
            s += f"({self.scale})"
        return s if self.mult == 1 else f"{self.mult}*{s}"

    def signature(self) -> tuple[int, int]:
        if self.kind == "U":
            return self.mult, self.mult
        if self.kind == "diag" and self.n < 0:
            return 0, self.mult
        return self.size * self.mult, 0

    def smith(self) -> list[int]:
        """Smith diagonal of one unscaled copy."""
        ones = [1] * self.size
        if self.kind == "A":
            ones[-1] = self.n + 1
        elif self.kind == "D":
            ones[-2:] = [2, 2] if self.n % 2 == 0 else [1, 4]
        elif self.kind == "E":
            ones[-1] = {6: 3, 7: 2, 8: 1}[self.n]
        elif self.kind == "diag":
            ones[-1] = abs(self.n)
        return ones

    def abs_det(self) -> int:
        d = 1
        for f in self.smith():
            d *= f * self.scale
        return d ** self.mult

    def two_bits(self) -> int:
        bits = 0
        for f in self.smith():
            f *= self.scale
            while f % 2 == 0:
                f //= 2
                bits += 1
        return bits * self.mult

    def roots(self) -> int | None:
        """Norm-2 vectors of mult unscaled copies of a root lattice."""
        if self.scale != 1 or self.kind not in "ADE":
            return None
        n = self.n
        per = {"A": n * (n + 1), "D": 2 * n * (n - 1)}.get(self.kind)
        return self.mult * (per if per is not None else _ROOTS_E[n])


@dataclass(frozen=True)
class LatticeQuery:
    atoms: tuple[Atom, ...]
    definite: bool

    @property
    def text(self) -> str:
        return "+".join(a.text() for a in self.atoms)

    @property
    def rank(self) -> int:
        return sum(a.size * a.mult for a in self.atoms)

    def signature(self) -> tuple[int, int]:
        sigs = [a.signature() for a in self.atoms]
        return sum(p for p, _ in sigs), sum(q for _, q in sigs)

    def abs_det(self) -> int:
        d = 1
        for a in self.atoms:
            d *= a.abs_det()
        return d

    def two_bits(self) -> int:
        return sum(a.two_bits() for a in self.atoms)

    def generators(self) -> int:
        """Generators of the discriminant group: its largest p-rank."""
        diag = [f * a.scale for a in self.atoms for f in a.smith()
                for _ in range(a.mult)]
        return max(sum(1 for f in diag if f % p == 0) for p in (2, 3, 5, 7))

    def roots(self) -> int | None:
        counts = [a.roots() for a in self.atoms]
        return None if None in counts else sum(counts)

    def certified(self) -> bool:
        """A constructive A2 certificate exists (as find_a2_pair builds)."""
        root = any(a.scale == 1 and a.kind in "ADE" and a.size >= 2
                   for a in self.atoms)
        two = any(a.scale == 1 and (a.kind, a.n) in (("diag", 2), ("A", 1))
                  for a in self.atoms)
        hyp = any(a.scale == 1 and a.kind == "U" for a in self.atoms)
        return root or (two and hyp)


@dataclass(frozen=True)
class LinkingQuery:
    matrix: tuple[tuple[int, ...], ...]
    moves: tuple[tuple, ...]  # ("blow_up", sign) or ("slide", i, j, sign)


def _draw_atoms(rng: random.Random, rank: int, definite: bool, even: bool,
                scales: tuple[int, ...]) -> tuple[Atom, ...]:
    diag = (2, 6) if even else (1, 2, 3, 6)
    atoms = []
    left = rank
    if not definite:
        if left >= 2 and rng.random() < 0.5:
            atoms.append(Atom(1, "U", 0, rng.choice(scales)))
            left -= 2
        else:
            atoms.append(Atom(1, "diag", -rng.choice(diag),
                              rng.choice(scales)))
            left -= 1
    while left:
        opts = [("A", n) for n in range(1, min(left, 8) + 1)]
        opts += [("D", n) for n in range(4, min(left, 8) + 1)]
        opts += [("E", n) for n in (6, 7, 8) if n <= left]
        opts += [("diag", k) for k in diag]
        if not definite and left >= 2:
            opts.append(("U", 0))
        kind, n = rng.choice(opts)
        size = {"U": 2, "diag": 1}.get(kind, n)
        mult = rng.randint(1, max(1, min(3, left // size)))
        atoms.append(Atom(mult, kind, n, rng.choice(scales)))
        left -= size * mult
    return tuple(atoms)


def _draw_lattice(rng: random.Random, rank: int, cap: bool) -> LatticeQuery:
    even = rank in EVEN_RANKS
    if cap:
        scales = (2,)
    elif even:
        scales = (1, 1, 3)
    else:
        scales = (1, 1, 1, 2, 3)
    while True:
        definite = rng.random() < 0.5
        q = LatticeQuery(_draw_atoms(rng, rank, definite, even, scales),
                         definite)
        if cap:
            return q  # every atom scaled by 2: at least `rank` two-bits
        if rank >= FIXED_FROM:
            if (q.generators(), q.two_bits()) != (FIXED_GENERATORS,
                                                  FIXED_TWO_BITS):
                continue
        elif q.generators() > MAX_GENERATORS or q.two_bits() > MAX_TWO_BITS:
            continue
        if rank in CERTIFIED_RANKS and not q.certified():
            continue
        return q


def _draw_linking(rng: random.Random, n: int) -> LinkingQuery:
    m = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(i, n):
            m[i][j] = m[j][i] = rng.randint(-6, 6)
    size = n + 1
    moves = [("blow_up", rng.choice((1, -1)))]
    for _ in range(2):
        i, j = rng.sample(range(size), 2)
        moves.append(("slide", i, j, rng.choice((1, -1))))
    return LinkingQuery(tuple(map(tuple, m)), tuple(moves))


def make_round(rng: random.Random) -> list:
    queries: list = [_draw_lattice(rng, r, False)
                     for r in range(1, MAX_RANK + 1)
                     for _ in range(HIGH_COPIES if r >= HIGH_FROM else 1)]
    queries.append(_draw_lattice(rng, CAP_RANK, True))
    queries += [_draw_linking(rng, H1_SIZES[k % len(H1_SIZES)])
                for k in range(H1_PER_ROUND)]
    rng.shuffle(queries)
    return queries


# ---------------------------------------------------------------------------
# ops and their checks


def _lattice_op(rc, q: LatticeQuery):
    expr = rc.parse_lattice_expr(q.text)
    g = rc.gram(expr)
    out = {"expr": expr, "g": g, "sig": rc.signature(g), "det": g.det(),
           "df": rc.discriminant_form(g)}
    if q.definite and q.rank <= ENUM_RANK:
        out["vectors"] = {k: rc.enumerate_norm_vectors(g, k) for k in (2, 4)}
    if q.rank <= REFUTE_RANK:
        out["cert"] = rc.find_a2_pair(expr)
        out["refuted"] = rc.refute_a2_mod2(expr) is not None
    return out


def _inner(g, v, w) -> int:
    e = g.entries
    return sum(v[i] * e[i][j] * w[j] for i in range(len(v))
               for j in range(len(w)) if v[i] and w[j])


def check_lattice(q: LatticeQuery, out) -> str | None:
    if str(out["expr"]) != q.text:
        return f"parsed {q.text} prints as {out['expr']}"
    if out["sig"] != q.signature():
        return f"signature {out['sig']} != {q.signature()} of {q.text}"
    order = out["df"].group.order
    if not abs(out["det"]) == order == q.abs_det():
        return (f"|det| {abs(out['det'])}, group order {order}, atoms "
                f"{q.abs_det()} disagree for {q.text}")
    for norm, vs in out.get("vectors", {}).items():
        if any(_inner(out["g"], v, v) != norm for v in vs):
            return f"a norm-{norm} vector of {q.text} has another norm"
        if set(vs) != {tuple(-x for x in v) for v in vs}:
            return f"norm-{norm} vectors of {q.text} not closed under -1"
        roots = q.roots()
        if norm == 2 and roots is not None and len(vs) != roots:
            return f"{len(vs)} roots in {q.text}, closed form {roots}"
    cert = out.get("cert")
    if cert is not None:
        g = out["g"]
        if (_inner(g, cert.v1, cert.v1), _inner(g, cert.v2, cert.v2),
                _inner(g, cert.v1, cert.v2)) != (2, 2, -1):
            return f"certificate for {q.text} is not an A2 pair"
        if out["refuted"]:
            return f"refuter refutes {q.text}, which has an A2 pair"
    return None


def _linking_op(rc, q: LinkingQuery):
    m = [list(r) for r in q.matrix]
    before = rc.h1_from_linking(m)
    for move in q.moves:
        if move[0] == "blow_up":
            m = rc.blow_up(m, move[1])
        else:
            m = rc.slide(m, *move[1:])
    return before, rc.h1_from_linking(m)


def _det(rows) -> Fraction:
    a = [[Fraction(x) for x in r] for r in rows]
    n, d = len(a), Fraction(1)
    for k in range(n):
        p = next((i for i in range(k, n) if a[i][k]), None)
        if p is None:
            return Fraction(0)
        if p != k:
            a[k], a[p] = a[p], a[k]
            d = -d
        d *= a[k][k]
        for i in range(k + 1, n):
            c = a[i][k] / a[k][k]
            a[i] = [x - c * y for x, y in zip(a[i], a[k])]
    return d


def check_linking(q: LinkingQuery, out) -> str | None:
    before, after = out
    d = abs(_det(q.matrix))
    want = None if d == 0 else d
    if before.order != want:
        return f"H1 order {before.order} != |det| {d} for {q.matrix}"
    if str(after) != str(before):
        return f"Kirby moves changed H1 {before} to {after} for {q.matrix}"
    return None


def run(rc, log, seconds: float, rng: random.Random, tracer=None) -> int:
    """Issue round(seconds / ROUND_SECONDS) rounds (at least one); return
    the number of rounds."""
    rounds = max(1, round(seconds / ROUND_SECONDS))
    for _ in range(rounds):
        for q in make_round(rng):
            if tracer is not None:
                tracer.op = len(log.times)
            if isinstance(q, LatticeQuery):
                log.run(q.text, lambda q=q: _lattice_op(rc, q),
                        lambda out, q=q: check_lattice(q, out))
            else:
                log.run(f"h1 {q.matrix}", lambda q=q: _linking_op(rc, q),
                        lambda out, q=q: check_linking(q, out))
    return rounds
