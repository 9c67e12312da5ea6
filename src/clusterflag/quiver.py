"""Quivers, exact Laurent arithmetic, and seeds with synchronized tracks.

A seed couples a quiver with one variable per vertex, and each variable is
tracked two ways at once:

* ``laurent``: the exact Laurent expansion in the initial cluster (the
  positions of the seed the program started from),
* ``tableau``: the exact leading tableau (leading standard monomial).

The grading is read off the tableau track: a seed is graded by the column
heights of its own tableaux (``Seed.heights``), and ``tableau_weight``
counts a tableau's columns of each.  ``Seed.initial`` builds the seed a
program starts from, vertex ``i`` carrying the ``i``-th generator of the
initial cluster.  Mutation updates the tableau track first, whose shape
test is the exchange's one weight-balance check, then fails loudly if the
Laurent division is not exact, so silent drift between the tracks is
impossible.

``Vertex``, ``VariableState``, ``Quiver`` and ``Seed`` values are never
changed in place once built: ``mutate``, ``freeze`` (each of one vertex)
and ``restrict`` return new objects (freezing replaces the ``Vertex``), so
a derived seed shares every unchanged vertex, variable state and
polynomial with its source instead of copying it.
"""

from __future__ import annotations

import functools
import heapq
import operator
import struct
from itertools import compress, repeat
from math import prod
from typing import Iterable, Mapping, Sequence

from . import tableaux as tb
from .plucker import PluckerPoly


class QuiverError(ValueError):
    pass


class LaurentError(ArithmeticError):
    pass


# -- Laurent expressions -----------------------------------------------------
#
# A monomial is one int: with ``bits``-bit fields, the exponent of variable
# ``i`` plus the bias 2**(bits - 2) fills the field at bit ``bits * i``.  An
# expression packs with 8-bit fields while its ``bound`` is at most 31 and
# with 16-bit fields up to MAX_EXPONENT; either way every stored exponent
# has |e| <= 2**(bits - 3) - 1, so the sum or the difference of two
# exponents, biased, still lies in [0, 2**(bits - 1)): fields never carry
# into each other and the top bit of every field stays clear.  Integer order
# of keys is then a monomial order (lexicographic, last variable most
# significant), the product of two monomials is ``k1 + k2 - offset``, and
# the top bits serve as guard bits for field-wise comparisons.  Operations
# run at the widest width their operands or their result's bound need,
# widening a narrow operand first (``_as``).
#
# Every nonzero expression also has an envelope: the keys of its field-wise
# least and greatest exponents, the corners of the box around its Newton
# polytope.  Newton polytopes add under products over the integers (a vertex
# term of a product cannot cancel), so a product's envelope is the sum of its
# factors' and an exact quotient's is their difference, both exact without
# looking at a term.  A sum's is the field-wise hull of its summands' unless
# a term cancelled; only then, and for expressions built from exponent
# tuples, is it scanned off the keys, on first use.

MAX_EXPONENT = (1 << 13) - 1


def _width(bound: int) -> int:
    """The field width in bits for exponents within +-``bound``."""
    return 8 if bound < 32 else 16


@functools.cache
def _offset(nvars: int, bits: int) -> int:
    """The key of the constant monomial: every field at its bias."""
    return sum(1 << (bits - 2) << (bits * i) for i in range(nvars))


def _envelope(keys: Iterable[int], guard: int, bits: int) -> tuple[int, int]:
    """Keys of the field-wise least and greatest exponents over ``keys``
    (nonempty).  ``(k | guard) - low`` keeps a field's guard bit exactly
    where k's field is at least low's; the guard bits, moved to the bottom
    of their fields and multiplied by the field mask, select whole fields."""
    mask = (1 << bits) - 1
    it = iter(keys)
    low = high = next(it)
    for k in it:
        kg = k | guard
        k_ge = (((kg - low) & guard) >> (bits - 1)) * mask
        low = (low & k_ge) | (k & ~k_ge)
        k_ge = (((kg - high) & guard) >> (bits - 1)) * mask
        high = (k & k_ge) | (high & ~k_ge)
    return low, high


@functools.cache
def _decoder(nvars: int, bits: int):
    """The function taking a key in ``nvars`` variables to its exponent
    tuple.  ``key ^ off`` holds e in each field, or e + 2**(bits - 1) where
    e < 0; setting such a field's top bit too makes it e as a signed field,
    so one unpack decodes a key."""
    off = _offset(nvars, bits)
    size = nvars * bits // 8
    unpack = struct.Struct("<%d%s" % (nvars, "b" if bits == 8 else "h")).unpack

    def decode(key: int) -> tuple[int, ...]:
        x = key ^ off
        return unpack((x | (x & off) << 1).to_bytes(size, "little"))

    return decode


@functools.cache
def _widener(nvars: int):
    """The function taking an 8-bit key to the 16-bit key of the same
    monomial: each byte moves to the bottom of its 16-bit field, and one
    addition moves every field from the narrow bias to the wide one."""
    rebias = _offset(nvars, 16) - sum(1 << 6 << (16 * i) for i in range(nvars))
    spread = struct.Struct("<%dH" % nvars).pack

    def widen(key: int) -> int:
        return int.from_bytes(spread(*key.to_bytes(nvars, "little")), "little") + rebias

    return widen


class LaurentExpr:
    """Sparse integer Laurent polynomial in ``nvars`` variables.

    ``terms`` maps packed monomials (see above) to nonzero coefficients; the
    constructor takes exponent tuples instead.  ``bound`` is an upper bound
    on |exponent| over all terms: a product whose factors' bounds add up
    past ``MAX_EXPONENT`` raises ``LaurentError`` rather than overflow a
    field.  ``_bits`` is the field width of the keys, at least the one
    ``bound`` needs.  Expressions are never changed once built;
    ``evaluate`` decodes the nonzero exponents on its first call and keeps
    them."""

    __slots__ = ("nvars", "terms", "bound", "_bits", "_sparse", "_env")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        items = []
        bound = 0
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise LaurentError(
                    "exponent vector of length %d in %d variables" % (len(exps), nvars)
                )
            if not coeff:
                continue
            bound = max(bound, max(map(abs, exps), default=0))
            if bound > MAX_EXPONENT:
                raise LaurentError("exponent beyond +-%d" % MAX_EXPONENT)
            items.append((exps, coeff))
        bits = _width(bound)
        off = _offset(nvars, bits)
        self.nvars = nvars
        self.terms = {off + sum(e << (bits * i) for i, e in enumerate(exps)): c for exps, c in items}
        self.bound = bound
        self._bits = bits
        self._sparse = None
        self._env = None

    @classmethod
    def _packed(
        cls, nvars: int, terms: dict[int, int], bound: int, bits: int, env: tuple[int, int] | None = None
    ) -> "LaurentExpr":
        """An expression over ``terms`` packed with ``bits``-bit fields;
        ``env`` is their exact envelope, or None to scan it off the keys on
        first use."""
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out.bound = bound
        out._bits = bits
        out._sparse = None
        out._env = env
        return out

    @classmethod
    def zero(cls, nvars: int) -> "LaurentExpr":
        return cls._packed(nvars, {}, 0, 8)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentExpr":
        off = _offset(nvars, 8)
        return cls._packed(nvars, {off: c}, 0, 8, (off, off)) if c else cls.zero(nvars)

    @classmethod
    def generator(cls, nvars: int, pos: int) -> "LaurentExpr":
        if not 0 <= pos < nvars:
            raise LaurentError("no variable %d among %d" % (pos, nvars))
        key = _offset(nvars, 8) + (1 << (8 * pos))
        return cls._packed(nvars, {key: 1}, 1, 8, (key, key))

    def is_zero(self) -> bool:
        return not self.terms

    def _as(self, bits: int) -> "LaurentExpr":
        """This expression with ``bits``-bit fields, no narrower than its
        own: itself, or its terms and envelope repacked wide."""
        if bits == self._bits:
            return self
        widen = _widener(self.nvars)
        env = self._env and (widen(self._env[0]), widen(self._env[1]))
        terms = {widen(k): v for k, v in self.terms.items()}
        return LaurentExpr._packed(self.nvars, terms, self.bound, bits, env)

    def _env_keys(self) -> tuple[int, int]:
        """The envelope of a nonzero expression (see above): keys of its
        field-wise least and greatest exponents."""
        if self._env is None:
            self._env = _envelope(self.terms, _offset(self.nvars, self._bits) << 1, self._bits)
        return self._env

    def exponent_items(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) for every term."""
        decode = _decoder(self.nvars, self._bits)
        return [(decode(key), coeff) for key, coeff in self.terms.items()]

    def _same_ring(self, other: "LaurentExpr") -> None:
        if other.nvars != self.nvars:
            raise LaurentError("%d variables vs %d" % (self.nvars, other.nvars))

    def __eq__(self, other):
        if not isinstance(other, LaurentExpr) or self.nvars != other.nvars:
            return False
        bits = max(self._bits, other._bits)
        return self._as(bits).terms == other._as(bits).terms

    def __add__(self, other: "LaurentExpr") -> "LaurentExpr":
        self._same_ring(other)
        bits = max(self._bits, other._bits)
        a, b = self._as(bits), other._as(bits)
        terms = dict(a.terms)
        cancelled = False
        for k, v in b.terms.items():
            n = terms.get(k, 0) + v
            if n:
                terms[k] = n
            else:
                del terms[k]
                cancelled = True
        env = None
        if terms and not cancelled:         # the hull of the summands' envelopes
            corners = [k for e in (a, b) if e.terms for k in e._env_keys()]
            env = _envelope(corners, _offset(self.nvars, bits) << 1, bits)
        return LaurentExpr._packed(self.nvars, terms, max(self.bound, other.bound), bits, env)

    def __mul__(self, other: "LaurentExpr") -> "LaurentExpr":
        self._same_ring(other)
        bound = self.bound + other.bound
        if bound > MAX_EXPONENT:
            raise LaurentError("product exponents may pass +-%d" % MAX_EXPONENT)
        bits = max(self._bits, other._bits, _width(bound))
        a, b = self._as(bits), other._as(bits)
        off = _offset(self.nvars, bits)
        right = b.terms.items()
        terms: dict[int, int] = {}
        for k1, v1 in a.terms.items():
            k1 -= off
            for k2, v2 in right:
                key = k1 + k2
                n = terms.get(key, 0) + v1 * v2
                if n:
                    terms[key] = n
                else:
                    del terms[key]
        if not terms:
            return LaurentExpr._packed(self.nvars, terms, bound, bits)
        (lo1, hi1), (lo2, hi2) = a._env_keys(), b._env_keys()
        return LaurentExpr._packed(self.nvars, terms, bound, bits, (lo1 + lo2 - off, hi1 + hi2 - off))

    def exact_div(self, other: "LaurentExpr") -> "LaurentExpr":
        """Exact division; raises LaurentError when the quotient is not a
        Laurent polynomial with integer coefficients.

        Newton polytopes add under products, so an exact quotient has, in
        each variable, exponents in [min_num - min_den, max_num - max_den],
        read off the two envelopes; that box is the quotient's envelope, and
        the division runs wide if the box leaves the narrow range.  A
        quotient term outside the box proves the division inexact, and the
        box bounds the number of steps.  Remainder keys are taken largest
        first from two sources: the numerator's keys, sorted once, and a
        heap of the negated keys that quotient products add to the
        remainder (Monagan-Pearce).  A product key lies below the key being
        divided, since every divisor key but the lead lies below the lead,
        so the merge is in descending order; a key reached twice, or whose
        coefficient cancelled, is skipped."""
        self._same_ring(other)
        if other.is_zero():
            raise LaurentError("division by zero")
        n = self.nvars
        if self.is_zero():
            return LaurentExpr.zero(n)
        bits = max(self._bits, other._bits)
        for bits in (bits, 16):             # a box that leaves +-31 is redone wide
            a, b = self._as(bits), other._as(bits)
            off = _offset(n, bits)
            (num_lo, num_hi), (den_lo, den_hi) = a._env_keys(), b._env_keys()
            lo_key = num_lo - den_lo + off
            hi_key = num_hi - den_hi + off
            decode = _decoder(n, bits)
            bound = max(map(abs, decode(lo_key) + decode(hi_key)), default=0)
            if _width(bound) <= bits:
                break
        if bound > MAX_EXPONENT:
            raise LaurentError("quotient exponents may pass +-%d" % MAX_EXPONENT)
        guard = off << 1
        env = (lo_key, hi_key)
        hi_key |= guard                     # for the box check below

        den = b.terms
        lead = max(den)
        lead_c = den[lead]
        lead_shift = lead - off
        rest = [(k, v) for k, v in den.items() if k != lead]
        rem = dict(a.terms)
        stream = sorted(rem, reverse=True)
        stream.append(-1)                   # below every key: ends the stream
        i = 0
        heap: list[int] = []
        quo: dict[int, int] = {}
        while True:
            key = stream[i]
            if heap and -heap[0] > key:
                key = -heapq.heappop(heap)
            elif key < 0:
                break
            else:
                i += 1
            c = rem.pop(key, 0)
            if not c:
                continue
            q = key - lead_shift
            # field-wise lo <= q <= hi: no subtraction may clear a guard bit
            if (
                ((q | guard) - lo_key) & guard != guard
                or (hi_key - q) & guard != guard
                or c % lead_c
            ):
                raise LaurentError("inexact Laurent division")
            qc = c // lead_c
            quo[q] = qc
            q -= off
            for k, v in rest:
                k += q
                old = rem.get(k)
                if old is None:
                    rem[k] = -qc * v
                    heapq.heappush(heap, -k)
                elif old == qc * v:
                    del rem[k]
                else:
                    rem[k] = old - qc * v
        return LaurentExpr._packed(n, quo, bound, bits, env)

    def evaluate(self, powers: PowerTable) -> int:
        """The value at the residues of ``powers``, modulo its prime; calls
        at the same residues share one table."""
        if self._sparse is None:
            self._sparse = [
                (coeff, tuple(compress(enumerate(exps), exps)))
                for exps, coeff in self.exponent_items()
            ]
        power, prime = powers.__getitem__, powers.prime
        total = 0
        for coeff, factors in self._sparse:
            total += prod(map(power, factors), start=coeff) % prime
        return total % prime

    def __repr__(self):
        return "LaurentExpr(%d terms in %d vars)" % (len(self.terms), self.nvars)


class PowerTable(dict):
    """(position, exponent) -> residue at fixed nonzero residues, for
    ``LaurentExpr.evaluate``.  It starts with the values and adds each other
    power on first read; one inverse per position serves every negative
    exponent of that position, and positions never read negatively cost no
    inverse."""

    __slots__ = ("prime",)

    def __init__(self, values: Sequence[int], prime: int):
        super().__init__(zip(zip(range(len(values)), repeat(1)), values))
        self.prime = prime

    def __missing__(self, key: tuple[int, int]) -> int:
        pos, e = key
        v = self[key] = pow(self[pos, -1], -e, self.prime) if e < -1 else pow(self[pos, 1], e, self.prime)
        return v


# -- quivers ------------------------------------------------------------------


class Vertex:
    __slots__ = ("id", "name", "frozen")

    def __init__(self, vid: int, name: str, frozen: bool):
        self.id = vid
        self.name = name
        self.frozen = frozen

    def __repr__(self):
        return "Vertex(%d, %r%s)" % (self.id, self.name, ", frozen" if self.frozen else "")


class Quiver:
    """Directed graph with arrow multiplicities and frozen vertices.

    Arrows between two frozen vertices are never stored (they play no role
    in mutation and the figures omit them).  ``add_arrow`` is for building a
    quiver; after that ``mutate``, ``freeze`` and ``restrict`` return new
    quivers and leave this one unchanged."""

    def __init__(self, vertices: Iterable[Vertex]):
        self.vertices = {v.id: v for v in vertices}
        self.arrows: dict[tuple[int, int], int] = {}

    def copy(self) -> "Quiver":
        q = Quiver.__new__(Quiver)
        q.vertices = dict(self.vertices)
        q.arrows = dict(self.arrows)
        return q

    def is_frozen(self, vid: int) -> bool:
        return self.vertices[vid].frozen

    def add_arrow(self, u: int, w: int, mult: int = 1) -> None:
        if u == w:
            raise QuiverError("loops are not allowed")
        if u not in self.vertices or w not in self.vertices:
            raise QuiverError("arrow endpoint missing")
        if self.vertices[u].frozen and self.vertices[w].frozen:
            return
        net = self.arrows.pop((u, w), 0) - self.arrows.pop((w, u), 0) + mult
        if net > 0:
            self.arrows[(u, w)] = net
        elif net < 0:
            self.arrows[(w, u)] = -net

    def exchange(self, vid: int) -> tuple[list[tuple[int, int]], list[tuple[int, int]]]:
        """(ins, outs) of a vertex: (source, multiplicity) pairs of the arrows
        into it and (target, multiplicity) pairs of the arrows out of it."""
        ins: list[tuple[int, int]] = []
        outs: list[tuple[int, int]] = []
        for (u, w), m in self.arrows.items():
            if w == vid:
                ins.append((u, m))
            elif u == vid:
                outs.append((w, m))
        return ins, outs

    def mutate(self, vid: int, sides: tuple[list, list] | None = None) -> "Quiver":
        """The quiver mutated at ``vid``; ``sides``, when given, is
        ``self.exchange(vid)``, already computed by the caller."""
        if self.is_frozen(vid):
            raise QuiverError("cannot mutate frozen vertex %d" % vid)
        q = self.copy()
        ins, outs = sides or self.exchange(vid)
        # compose through the mutated vertex
        for u, mu in ins:
            for w, mw in outs:
                q.add_arrow(u, w, mu * mw)
        # reverse arrows at the vertex
        for u, mu in ins:
            del q.arrows[(u, vid)]
            q.arrows[(vid, u)] = mu
        for w, mw in outs:
            del q.arrows[(vid, w)]
            q.arrows[(w, vid)] = mw
        return q

    def freeze(self, vid: int) -> "Quiver":
        q = self.copy()
        q.vertices[vid] = Vertex(vid, self.vertices[vid].name, True)
        for (u, w) in list(q.arrows):
            if q.vertices[u].frozen and q.vertices[w].frozen:
                del q.arrows[(u, w)]
        return q

    def restrict(self, keep: Iterable[int]) -> "Quiver":
        """Delete all vertices outside ``keep``.

        Legal only when no arrow connects a kept mutable vertex with a
        deleted vertex; otherwise the deleted part would change future
        exchanges and the sub-seed would not be a seed."""
        keep_set = set(keep)
        missing = keep_set - set(self.vertices)
        if missing:
            raise QuiverError("unknown vertices %s" % sorted(missing))
        for (u, w), m in self.arrows.items():
            for a, b in ((u, w), (w, u)):
                if a in keep_set and not self.vertices[a].frozen and b not in keep_set:
                    raise QuiverError(
                        "illegal restriction: mutable kept vertex %s has an arrow "
                        "to deleted vertex %s" % (self.vertices[a].name, self.vertices[b].name)
                    )
        q = Quiver.__new__(Quiver)
        q.vertices = {vid: v for vid, v in self.vertices.items() if vid in keep_set}
        q.arrows = {
            (u, w): m
            for (u, w), m in self.arrows.items()
            if u in keep_set and w in keep_set
        }
        return q


def quivers_agree(q1: Quiver, q2: Quiver, mapping: Mapping[int, int]) -> list[str]:
    """Compare two quivers under a vertex bijection; returns mismatch
    descriptions (empty when they agree)."""
    problems = []
    image = set(mapping.values())
    if set(mapping) != set(q1.vertices) or image != set(q2.vertices) or len(image) != len(mapping):
        problems.append("vertex map is not a bijection between the quivers")
        return problems
    for vid, v in q1.vertices.items():
        if v.frozen != q2.vertices[mapping[vid]].frozen:
            problems.append("frozen status differs at %s" % v.name)
    mapped = {(mapping[u], mapping[w]): m for (u, w), m in q1.arrows.items()}
    for (u, w), m in q1.arrows.items():
        m2 = q2.arrows.get((mapping[u], mapping[w]), 0)
        if m2 != m:
            problems.append(
                "arrow %s -> %s: multiplicity %d vs %d"
                % (q1.vertices[u].name, q1.vertices[w].name, m, m2)
            )
    for u, w in q2.arrows:
        if (u, w) not in mapped:
            problems.append(
                "extra arrow %s -> %s in second quiver"
                % (q2.vertices[u].name, q2.vertices[w].name)
            )
    return problems


# -- seeds --------------------------------------------------------------------


def tableau_weight(tableau: tb.Tableau, heights: Sequence[int]) -> tuple[int, ...]:
    """The grading of a variable, read off its tableau: entry j counts the
    columns of height ``heights[j]``.  Row i is as long as the number of
    columns of height at least i, so those counts are differences of row
    lengths."""
    rows = tableau.rows
    depth = len(rows)
    return tuple([
        len(rows[h - 1]) - (len(rows[h]) if h < depth else 0) if h <= depth else 0
        for h in heights
    ])


class VariableState:
    __slots__ = ("laurent", "tableau")

    def __init__(self, laurent: LaurentExpr, tableau: tb.Tableau):
        self.laurent = laurent
        self.tableau = tableau


class Seed:
    """Quiver plus per-vertex variable states plus the initial dictionary.

    ``dictionary`` maps initial cluster positions to the polynomials the
    program started from; Laurent expansions of later variables are always
    taken with respect to these positions, also after freezing or deleting
    vertices.  ``variables`` and ``dictionary`` are stored as given, not
    copied, so the caller must not change them afterwards.
    """

    def __init__(
        self,
        quiver: Quiver,
        variables: Mapping[int, VariableState],
        dictionary: Mapping[int, PluckerPoly],
    ):
        self.quiver = quiver
        self.variables = variables
        self.dictionary = dictionary
        if set(self.variables) != set(quiver.vertices):
            raise QuiverError("variable per vertex required")

    @classmethod
    def initial(cls, quiver: Quiver, entries: Mapping[int, tuple]) -> "Seed":
        """The seed a program starts from: ``entries[vid]`` is the
        (polynomial, tableau) of vertex ``vid``, whose variable is the
        ``vid``-th generator of the initial cluster."""
        variables = {
            vid: VariableState(LaurentExpr.generator(len(entries), vid), tab)
            for vid, (_, tab) in entries.items()
        }
        dictionary = {vid: poly for vid, (poly, _) in entries.items()}
        return cls(quiver, variables, dictionary)

    @functools.cached_property
    def heights(self) -> tuple[int, ...]:
        """The column heights of the seed's tableaux, ascending: the heights its grading
        counts.  As in ``tableau_weight``, h is one where row h is longer than row h + 1."""
        shapes = {st.tableau.shape + (0,) for st in self.variables.values()}
        return tuple(sorted({h for s in shapes for h in range(1, len(s)) if s[h - 1] > s[h]}))

    @property
    def nvars(self) -> int:
        return len(self.dictionary)

    def vertex_by_name(self, name: str) -> int:
        for vid, v in self.quiver.vertices.items():
            if v.name == name:
                return vid
        raise QuiverError("no vertex named %r" % name)

    def mutable_ids(self) -> list[int]:
        return [vid for vid, v in self.quiver.vertices.items() if not v.frozen]

    def mutate(self, vid: int) -> "Seed":
        """Mutate at a mutable vertex, updating both variable tracks.  The new
        quiver refuses a frozen vertex; then the tableau's shape test is the
        balance check, so an unbalanced exchange does no Laurent work."""
        sides = self.quiver.exchange(vid)
        quiver = self.quiver.mutate(vid, sides)
        state = self.variables[vid]
        # neighbor states, each repeated by its arrow multiplicity
        ins, outs = ([self.variables[u] for u, m in side for _ in range(m)] for side in sides)
        try:
            tableau = tb.tableau_mutation(
                state.tableau, [st.tableau for st in ins], [st.tableau for st in outs]
            )
        except tb.UnbalancedExchange as exc:
            w_in, w_out = (list(tableau_weight(u, self.heights)) for u in exc.unions)
            raise QuiverError(
                "exchange at %s is not weight-balanced: %s vs %s"
                % (self.quiver.vertices[vid].name, w_in, w_out)
            ) from None

        prod_in, prod_out = (
            functools.reduce(operator.mul, [st.laurent for st in side])
            if side else LaurentExpr.constant(state.laurent.nvars, 1)
            for side in (ins, outs)
        )
        new_state = VariableState((prod_in + prod_out).exact_div(state.laurent), tableau)
        return Seed(quiver, {**self.variables, vid: new_state}, self.dictionary)

    def freeze(self, vid: int) -> "Seed":
        return Seed(self.quiver.freeze(vid), self.variables, self.dictionary)

    def restrict(self, keep: Iterable[int]) -> "Seed":
        keep_set = set(keep)
        return Seed(
            self.quiver.restrict(keep_set),
            {vid: self.variables[vid] for vid in keep_set},
            self.dictionary,
        )

    def is_balanced(self) -> list[str]:
        """Weight balance at every mutable vertex: the weights of its in- and
        out-neighbors, each arrow counted with its multiplicity, must sum
        to the same vector.  Returns the violations."""
        heights, vertices = self.heights, self.quiver.vertices
        weight = {vid: tableau_weight(st.tableau, heights) for vid, st in self.variables.items()}
        # (incoming, outgoing) sums of each mutable vertex, in one pass over the arrows
        sums = {vid: ([0] * len(heights), [0] * len(heights)) for vid in self.mutable_ids()}
        for (u, w), m in self.quiver.arrows.items():
            for vid, side, other in ((w, 0, u), (u, 1, w)):
                if vid in sums:
                    total = sums[vid][side]
                    total[:] = [t + m * x for t, x in zip(total, weight[other])]
        return [
            "vertex %s: incoming weight %s != outgoing weight %s" % (vertices[vid].name, ins, outs)
            for vid, (ins, outs) in sums.items()
            if ins != outs
        ]
