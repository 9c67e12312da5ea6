"""Quivers, exact Laurent arithmetic, and seeds with synchronized tracks.

A seed couples a quiver with one variable per vertex, and each variable is
tracked three ways at once:

* ``laurent``: the exact Laurent expansion in the initial cluster (the
  positions of the seed the program started from),
* ``tableau``: the combinatorial label (leading standard monomial),
* ``weight``: an integer grading vector.

``Seed.initial`` builds the seed a program starts from, vertex ``i``
carrying the ``i``-th generator of the initial cluster.  Mutation updates
all three tracks and fails loudly if the exchange is not an exact Laurent
division or the grading is not balanced, so silent drift between the
tracks is impossible.

``Vertex``, ``VariableState``, ``Quiver`` and ``Seed`` values are never
changed in place once built: ``mutate``, ``freeze`` (each of one vertex)
and ``restrict`` return new objects (freezing replaces the ``Vertex``), so
a derived seed shares every unchanged vertex, variable state and
polynomial with its source instead of copying it.
"""

from __future__ import annotations

import functools
import heapq
from typing import Iterable, Mapping, Sequence

from . import tableaux as tb
from .plucker import EvaluationPoint, PluckerPoly


class QuiverError(ValueError):
    pass


class LaurentError(ArithmeticError):
    pass


# -- Laurent expressions -----------------------------------------------------
#
# A monomial is one int: the exponent of variable ``i`` plus ``_BIAS`` fills
# the 16-bit field at bit ``16 * i``.  Every stored exponent has
# |e| <= MAX_EXPONENT, so the sum or the difference of two exponents, biased,
# still lies in [0, 2**15): fields never carry into each other and the top
# bit of every field stays clear.  Integer order of keys is then a monomial
# order (lexicographic, last variable most significant), the product of two
# monomials is ``k1 + k2 - offset``, and the top bits serve as guard bits for
# the field-wise comparisons of ``exact_div``.

_FIELD_BITS = 16
_BIAS = 1 << 14
_FIELD_MASK = (1 << _FIELD_BITS) - 1
MAX_EXPONENT = (1 << 13) - 1


@functools.cache
def _offset(nvars: int) -> int:
    """The key of the constant monomial: every field at ``_BIAS``."""
    return sum(_BIAS << (_FIELD_BITS * i) for i in range(nvars))


def _envelope(keys: Iterable[int], guard: int) -> tuple[int, int]:
    """Keys of the field-wise least and greatest exponents over ``keys``
    (nonempty).  ``(k | guard) - low`` keeps a field's guard bit exactly
    where k's field is at least low's; the guard bits, moved to the bottom
    of their fields and multiplied by the field mask, select whole fields."""
    it = iter(keys)
    low = high = next(it)
    for k in it:
        kg = k | guard
        k_ge = (((kg - low) & guard) >> (_FIELD_BITS - 1)) * _FIELD_MASK
        low = (low & k_ge) | (k & ~k_ge)
        k_ge = (((kg - high) & guard) >> (_FIELD_BITS - 1)) * _FIELD_MASK
        high = (k & k_ge) | (high & ~k_ge)
    return low, high


def _nonzero_exponents(key: int, nvars: int) -> tuple[tuple[int, int], ...]:
    """(position, exponent) for each nonzero exponent of a key."""
    x = key ^ _offset(nvars)                # zero exactly in the zero exponents
    out = []
    pos = 0
    while x:
        skip = ((x & -x).bit_length() - 1) // _FIELD_BITS
        x >>= skip * _FIELD_BITS
        pos += skip
        out.append((pos, ((x & _FIELD_MASK) ^ _BIAS) - _BIAS))
        x >>= _FIELD_BITS
        pos += 1
    return tuple(out)


class LaurentExpr:
    """Sparse integer Laurent polynomial in ``nvars`` variables.

    ``terms`` maps packed monomials (see above) to nonzero coefficients; the
    constructor takes exponent tuples instead.  ``bound`` is an upper bound
    on |exponent| over all terms: a product whose factors' bounds add up
    past ``MAX_EXPONENT`` raises ``LaurentError`` rather than overflow a
    field.  Expressions are never changed once built; ``evaluate`` decodes
    the nonzero exponents on its first call and keeps them."""

    __slots__ = ("nvars", "terms", "bound", "_sparse")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {}
        self.bound = 0
        self._sparse = None
        off = _offset(nvars)
        for exps, coeff in (terms or {}).items():
            if len(exps) != nvars:
                raise LaurentError(
                    "exponent vector of length %d in %d variables" % (len(exps), nvars)
                )
            if not coeff:
                continue
            self.bound = max(self.bound, max(map(abs, exps), default=0))
            if self.bound > MAX_EXPONENT:
                raise LaurentError("exponent beyond +-%d" % MAX_EXPONENT)
            self.terms[off + sum(e << (_FIELD_BITS * i) for i, e in enumerate(exps))] = coeff

    @classmethod
    def _packed(cls, nvars: int, terms: dict[int, int], bound: int) -> "LaurentExpr":
        out = cls.__new__(cls)
        out.nvars = nvars
        out.terms = terms
        out.bound = bound
        out._sparse = None
        return out

    @classmethod
    def zero(cls, nvars: int) -> "LaurentExpr":
        return cls._packed(nvars, {}, 0)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentExpr":
        return cls._packed(nvars, {_offset(nvars): c} if c else {}, 0)

    @classmethod
    def generator(cls, nvars: int, pos: int) -> "LaurentExpr":
        if not 0 <= pos < nvars:
            raise LaurentError("no variable %d among %d" % (pos, nvars))
        return cls._packed(nvars, {_offset(nvars) + (1 << (_FIELD_BITS * pos)): 1}, 1)

    def is_zero(self) -> bool:
        return not self.terms

    def exponent_items(self) -> list[tuple[tuple[int, ...], int]]:
        """(exponent tuple, coefficient) for every term."""
        items = []
        for key, coeff in self.terms.items():
            exps = [0] * self.nvars
            for pos, e in _nonzero_exponents(key, self.nvars):
                exps[pos] = e
            items.append((tuple(exps), coeff))
        return items

    def _same_ring(self, other: "LaurentExpr") -> None:
        if other.nvars != self.nvars:
            raise LaurentError("%d variables vs %d" % (self.nvars, other.nvars))

    def __eq__(self, other):
        return (
            isinstance(other, LaurentExpr)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __add__(self, other: "LaurentExpr") -> "LaurentExpr":
        self._same_ring(other)
        terms = dict(self.terms)
        for k, v in other.terms.items():
            n = terms.get(k, 0) + v
            if n:
                terms[k] = n
            else:
                del terms[k]
        return LaurentExpr._packed(self.nvars, terms, max(self.bound, other.bound))

    def __neg__(self) -> "LaurentExpr":
        return LaurentExpr._packed(
            self.nvars, {k: -v for k, v in self.terms.items()}, self.bound
        )

    def __sub__(self, other: "LaurentExpr") -> "LaurentExpr":
        return self + (-other)

    def __mul__(self, other: "LaurentExpr") -> "LaurentExpr":
        self._same_ring(other)
        bound = self.bound + other.bound
        if bound > MAX_EXPONENT:
            raise LaurentError("product exponents may pass +-%d" % MAX_EXPONENT)
        off = _offset(self.nvars)
        right = other.terms.items()
        terms: dict[int, int] = {}
        for k1, v1 in self.terms.items():
            k1 -= off
            for k2, v2 in right:
                key = k1 + k2
                n = terms.get(key, 0) + v1 * v2
                if n:
                    terms[key] = n
                else:
                    del terms[key]
        return LaurentExpr._packed(self.nvars, terms, bound)

    def exact_div(self, other: "LaurentExpr") -> "LaurentExpr":
        """Exact division; raises LaurentError when the quotient is not a
        Laurent polynomial with integer coefficients.

        Newton polytopes add under products, so an exact quotient has, in
        each variable, exponents in [min_num - min_den, max_num - max_den].
        A quotient term outside that box proves the division inexact, and
        the box bounds the number of steps.  The remainder's keys sit in a
        heap of negated keys; a key whose coefficient cancelled is skipped
        when it comes up."""
        self._same_ring(other)
        if other.is_zero():
            raise LaurentError("division by zero")
        n = self.nvars
        if self.is_zero():
            return LaurentExpr.zero(n)
        off = _offset(n)
        guard = off << 1
        num_lo, num_hi = _envelope(self.terms, guard)
        den_lo, den_hi = _envelope(other.terms, guard)
        lo_key = num_lo - den_lo + off
        hi_key = num_hi - den_hi + off
        bound = max(
            [abs(e) for key in (lo_key, hi_key) for _, e in _nonzero_exponents(key, n)],
            default=0,
        )
        if bound > MAX_EXPONENT:
            raise LaurentError("quotient exponents may pass +-%d" % MAX_EXPONENT)
        hi_key |= guard                     # for the box check below

        den = other.terms
        lead = max(den)
        lead_c = den[lead]
        lead_shift = lead - off
        rest = [(k, v) for k, v in den.items() if k != lead]
        rem = dict(self.terms)
        heap = [-k for k in rem]
        heapq.heapify(heap)
        quo: dict[int, int] = {}
        while heap:
            key = -heapq.heappop(heap)
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
        return LaurentExpr._packed(n, quo, bound)

    def evaluate(self, values: Sequence[int], prime: int) -> int:
        """Evaluate at nonzero residues ``values`` modulo ``prime``."""
        if self._sparse is None:
            self._sparse = [
                (coeff, _nonzero_exponents(key, self.nvars))
                for key, coeff in self.terms.items()
            ]
        total = 0
        powers: dict[tuple[int, int], int] = {}
        for coeff, factors in self._sparse:
            val = coeff % prime
            for key in factors:
                v = powers.get(key)
                if v is None:
                    v = powers[key] = pow(values[key[0]], key[1], prime)
                val = val * v % prime
            total = (total + val) % prime
        return total

    def __repr__(self):
        return "LaurentExpr(%d terms in %d vars)" % (len(self.terms), self.nvars)


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

    def mutate(self, vid: int) -> "Quiver":
        if self.is_frozen(vid):
            raise QuiverError("cannot mutate frozen vertex %d" % vid)
        q = self.copy()
        ins, outs = self.exchange(vid)
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

    def __eq__(self, other):
        if not isinstance(other, Quiver):
            return NotImplemented
        return (
            set(self.vertices) == set(other.vertices)
            and all(self.vertices[v].frozen == other.vertices[v].frozen for v in self.vertices)
            and self.arrows == other.arrows
        )


def quivers_agree(q1: Quiver, q2: Quiver, mapping: Mapping[int, int]) -> list[str]:
    """Compare two quivers under a vertex bijection; returns mismatch
    descriptions (empty when they agree)."""
    problems = []
    if set(mapping) != set(q1.vertices) or set(mapping.values()) != set(q2.vertices):
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


class VariableState:
    __slots__ = ("laurent", "tableau", "weight")

    def __init__(self, laurent: LaurentExpr, tableau: tb.Tableau, weight: tuple[int, ...]):
        self.laurent = laurent
        self.tableau = tableau
        self.weight = weight


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
        weight_rank: int,
    ):
        self.quiver = quiver
        self.variables = variables
        self.dictionary = dictionary
        self.weight_rank = weight_rank
        if set(self.variables) != set(quiver.vertices):
            raise QuiverError("variable per vertex required")

    @classmethod
    def initial(cls, quiver: Quiver, entries: Mapping[int, tuple], weight_rank: int) -> "Seed":
        """The seed a program starts from: ``entries[vid]`` is the
        (polynomial, tableau, weight) of vertex ``vid``, whose variable is
        the ``vid``-th generator of the initial cluster."""
        variables = {
            vid: VariableState(LaurentExpr.generator(len(entries), vid), tab, weight)
            for vid, (_, tab, weight) in entries.items()
        }
        dictionary = {vid: poly for vid, (poly, _, _) in entries.items()}
        return cls(quiver, variables, dictionary, weight_rank)

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
        """Mutate at a mutable vertex, updating all three variable tracks."""
        if self.quiver.is_frozen(vid):
            raise QuiverError("cannot mutate frozen vertex %d" % vid)
        state = self.variables[vid]
        exchange = self.quiver.exchange(vid)
        w_in, w_out = self.exchange_weights(exchange)
        if w_in != w_out:
            raise QuiverError(
                "exchange at %s is not weight-balanced: %s vs %s"
                % (self.quiver.vertices[vid].name, w_in, w_out)
            )

        # neighbor states, each repeated by its arrow multiplicity
        ins, outs = (
            [self.variables[u] for u, m in side for _ in range(m)] for side in exchange
        )
        prod_in = prod_out = LaurentExpr.constant(state.laurent.nvars, 1)
        for st in ins:
            prod_in = prod_in * st.laurent
        for st in outs:
            prod_out = prod_out * st.laurent
        new_state = VariableState(
            (prod_in + prod_out).exact_div(state.laurent),
            tb.tableau_mutation(state.tableau, [st.tableau for st in ins], [st.tableau for st in outs]),
            tuple(a - b for a, b in zip(w_in, state.weight)),
        )
        return Seed(
            self.quiver.mutate(vid),
            {**self.variables, vid: new_state},
            self.dictionary,
            self.weight_rank,
        )

    def freeze(self, vid: int) -> "Seed":
        return Seed(self.quiver.freeze(vid), self.variables, self.dictionary, self.weight_rank)

    def restrict(self, keep: Iterable[int]) -> "Seed":
        keep_set = set(keep)
        return Seed(
            self.quiver.restrict(keep_set),
            {vid: self.variables[vid] for vid in keep_set},
            self.dictionary,
            self.weight_rank,
        )

    def exchange_weights(self, exchange: tuple[list, list]) -> tuple[list[int], list[int]]:
        """Sums of the variables' weights over the (ins, outs) pair of
        ``Quiver.exchange``, each arrow counted with its multiplicity; a
        vertex is balanced when the two agree."""
        sums = []
        for side in exchange:
            total = [0] * self.weight_rank
            for u, m in side:
                total = [a + m * b for a, b in zip(total, self.variables[u].weight)]
            sums.append(total)
        return sums[0], sums[1]

    def is_balanced(self) -> list[str]:
        """Weight balance at every mutable vertex; returns violations."""
        problems = []
        for vid in self.mutable_ids():
            w_in, w_out = self.exchange_weights(self.quiver.exchange(vid))
            if w_in != w_out:
                problems.append(
                    "vertex %s: incoming weight %s != outgoing weight %s"
                    % (self.quiver.vertices[vid].name, w_in, w_out)
                )
        return problems

    def initial_values(self, point: EvaluationPoint) -> list[int]:
        """Values of the initial cluster at a point (positions in dictionary
        order); raises if any vanishes (pick another point)."""
        values = [0] * self.nvars
        for pos, poly in self.dictionary.items():
            v = poly.evaluate(point)
            if v == 0:
                raise ArithmeticError("initial variable %d vanishes at point" % pos)
            values[pos] = v
        return values


def seeds_equal(s1: Seed, s2: Seed, mapping: Mapping[int, int]) -> list[str]:
    """Compare two seeds under a vertex bijection: quiver shape, frozen
    status, tableaux, and (when the grading ranks agree) weights.  Returns
    mismatch descriptions, empty when the seeds agree."""
    problems = quivers_agree(s1.quiver, s2.quiver, mapping)
    if problems:
        return problems
    for vid, st in s1.variables.items():
        other = s2.variables[mapping[vid]]
        name = s1.quiver.vertices[vid].name
        if st.tableau != other.tableau:
            problems.append("tableau differs at %s" % name)
        if s1.weight_rank == s2.weight_rank and st.weight != other.weight:
            problems.append("weight differs at %s" % name)
    return problems


