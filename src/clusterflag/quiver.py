"""Quivers, exact Laurent arithmetic, and seeds with synchronized tracks.

A seed couples a quiver with one variable per vertex, and each variable is
tracked three ways at once:

* ``laurent``: the exact Laurent expansion in the initial cluster (the
  positions of the seed the program started from),
* ``tableau``: the combinatorial label (leading standard monomial),
* ``weight``: an integer grading vector.

Mutation updates all three and fails loudly if the exchange is not an exact
Laurent division or the grading is not balanced, so silent drift between the
tracks is impossible.

``Vertex``, ``VariableState``, ``Quiver`` and ``Seed`` values are never
changed in place once built: ``mutate``, ``freeze`` and ``restrict`` return
new objects (freezing replaces the ``Vertex``), so a derived seed shares
every unchanged vertex, variable state and polynomial with its source
instead of copying it.
"""

from __future__ import annotations

from typing import Callable, Iterable, Mapping, Sequence

from . import tableaux as tb
from .plucker import EvaluationPoint, PluckerPoly


class QuiverError(ValueError):
    pass


class LaurentError(ArithmeticError):
    pass


# -- Laurent expressions -----------------------------------------------------


class LaurentExpr:
    """Sparse integer Laurent polynomial; keys are exponent tuples."""

    __slots__ = ("nvars", "terms")

    def __init__(self, nvars: int, terms: Mapping[tuple[int, ...], int] | None = None):
        self.nvars = nvars
        self.terms = {k: v for k, v in (terms or {}).items() if v}

    @classmethod
    def zero(cls, nvars: int) -> "LaurentExpr":
        return cls(nvars)

    @classmethod
    def constant(cls, nvars: int, c: int) -> "LaurentExpr":
        return cls(nvars, {(0,) * nvars: c} if c else {})

    @classmethod
    def generator(cls, nvars: int, pos: int) -> "LaurentExpr":
        exp = [0] * nvars
        exp[pos] = 1
        return cls(nvars, {tuple(exp): 1})

    def is_zero(self) -> bool:
        return not self.terms

    def __eq__(self, other):
        return (
            isinstance(other, LaurentExpr)
            and self.nvars == other.nvars
            and self.terms == other.terms
        )

    def __hash__(self):
        return hash((self.nvars, frozenset(self.terms.items())))

    def __add__(self, other: "LaurentExpr") -> "LaurentExpr":
        terms = dict(self.terms)
        for k, v in other.terms.items():
            n = terms.get(k, 0) + v
            if n:
                terms[k] = n
            else:
                del terms[k]
        out = LaurentExpr.__new__(LaurentExpr)
        out.nvars = self.nvars
        out.terms = terms
        return out

    def __neg__(self) -> "LaurentExpr":
        out = LaurentExpr.__new__(LaurentExpr)
        out.nvars = self.nvars
        out.terms = {k: -v for k, v in self.terms.items()}
        return out

    def __sub__(self, other: "LaurentExpr") -> "LaurentExpr":
        return self + (-other)

    def __mul__(self, other: "LaurentExpr") -> "LaurentExpr":
        terms: dict[tuple[int, ...], int] = {}
        for k1, v1 in self.terms.items():
            for k2, v2 in other.terms.items():
                key = tuple(a + b for a, b in zip(k1, k2))
                n = terms.get(key, 0) + v1 * v2
                if n:
                    terms[key] = n
                else:
                    del terms[key]
        out = LaurentExpr.__new__(LaurentExpr)
        out.nvars = self.nvars
        out.terms = terms
        return out

    def exact_div(self, other: "LaurentExpr") -> "LaurentExpr":
        """Exact division; raises LaurentError when the quotient is not a
        Laurent polynomial with integer coefficients."""
        if other.is_zero():
            raise LaurentError("division by zero")
        if self.is_zero():
            return LaurentExpr.zero(self.nvars)
        shift_n = _min_exponents(self.terms)
        shift_d = _min_exponents(other.terms)
        num = {tuple(a - b for a, b in zip(k, shift_n)): v for k, v in self.terms.items()}
        den = {tuple(a - b for a, b in zip(k, shift_d)): v for k, v in other.terms.items()}
        lead_d = max(den)
        lead_dc = den[lead_d]
        quo: dict[tuple[int, ...], int] = {}
        rem = dict(num)
        while rem:
            lead_n = max(rem)
            lead_nc = rem[lead_n]
            exp = tuple(a - b for a, b in zip(lead_n, lead_d))
            if any(e < 0 for e in exp) or lead_nc % lead_dc:
                raise LaurentError("inexact Laurent division")
            c = lead_nc // lead_dc
            quo[exp] = c
            for k, v in den.items():
                key = tuple(a + b for a, b in zip(k, exp))
                n = rem.get(key, 0) - c * v
                if n:
                    rem[key] = n
                else:
                    rem.pop(key, None)
        net = tuple(a - b for a, b in zip(shift_n, shift_d))
        out = LaurentExpr.__new__(LaurentExpr)
        out.nvars = self.nvars
        out.terms = {tuple(a + b for a, b in zip(k, net)): v for k, v in quo.items()}
        return out

    def evaluate(self, values: Sequence[int], prime: int) -> int:
        """Evaluate at nonzero residues ``values`` modulo ``prime``."""
        total = 0
        powers: dict[tuple[int, int], int] = {}
        for exps, coeff in self.terms.items():
            val = coeff % prime
            for pos, e in enumerate(exps):
                if e:
                    key = (pos, e)
                    v = powers.get(key)
                    if v is None:
                        v = pow(values[pos], e, prime)
                        powers[key] = v
                    val = (val * v) % prime
            total = (total + val) % prime
        return total

    def __repr__(self):
        return "LaurentExpr(%d terms in %d vars)" % (len(self.terms), self.nvars)


def _min_exponents(terms: Mapping[tuple[int, ...], int]) -> tuple[int, ...]:
    it = iter(terms)
    first = next(it)
    mins = list(first)
    for k in it:
        for i, e in enumerate(k):
            if e < mins[i]:
                mins[i] = e
    return tuple(mins)


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

    def __init__(self, vertices: Iterable[Vertex], arrows: Mapping[tuple[int, int], int] | None = None):
        self.vertices = {v.id: v for v in vertices}
        self.arrows: dict[tuple[int, int], int] = {}
        for (u, w), m in (arrows or {}).items():
            if m:
                self.add_arrow(u, w, m)

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

    def b_entry(self, u: int, w: int) -> int:
        return self.arrows.get((u, w), 0) - self.arrows.get((w, u), 0)

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
    seen = set()
    for (u, w), m in q1.arrows.items():
        m2 = q2.b_entry(mapping[u], mapping[w])
        if m2 != m:
            problems.append(
                "arrow %s -> %s: multiplicity %d vs %d"
                % (q1.vertices[u].name, q1.vertices[w].name, m, m2)
            )
        seen.add((mapping[u], mapping[w]))
        seen.add((mapping[w], mapping[u]))
    for (u, w), m in q2.arrows.items():
        if (u, w) not in seen:
            problems.append(
                "extra arrow %s -> %s in second quiver"
                % (q2.vertices[u].name, q2.vertices[w].name)
            )
    return problems


def exchange_weights(
    quiver: Quiver, vid: int, weight: Callable[[int], Sequence[int]], rank: int
) -> tuple[list[int], list[int]]:
    """Sums of ``weight`` over the arrows into and out of ``vid``, each
    arrow counted with its multiplicity; a vertex is balanced when the two
    agree."""
    sums = []
    for side in quiver.exchange(vid):
        total = [0] * rank
        for u, m in side:
            total = [a + m * b for a, b in zip(total, weight(u))]
        sums.append(total)
    return sums[0], sums[1]


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
    vertices.
    """

    def __init__(
        self,
        quiver: Quiver,
        variables: Mapping[int, VariableState],
        dictionary: Mapping[int, PluckerPoly],
        weight_rank: int,
    ):
        self.quiver = quiver
        self.variables = dict(variables)
        self.dictionary = dict(dictionary)
        self.weight_rank = weight_rank
        if set(self.variables) != set(quiver.vertices):
            raise QuiverError("variable per vertex required")

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
        w_in, w_out = exchange_weights(self.quiver, vid, self._weight, self.weight_rank)
        if w_in != w_out:
            raise QuiverError(
                "exchange at %s is not weight-balanced: %s vs %s"
                % (self.quiver.vertices[vid].name, w_in, w_out)
            )

        # neighbor states, each repeated by its arrow multiplicity
        ins, outs = (
            [self.variables[u] for u, m in side for _ in range(m)]
            for side in self.quiver.exchange(vid)
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

    def freeze(self, vids: int | Iterable[int]) -> "Seed":
        quiver = self.quiver
        for vid in ([vids] if isinstance(vids, int) else vids):
            quiver = quiver.freeze(vid)
        return Seed(quiver, self.variables, self.dictionary, self.weight_rank)

    def restrict(self, keep: Iterable[int]) -> "Seed":
        keep_set = set(keep)
        return Seed(
            self.quiver.restrict(keep_set),
            {vid: self.variables[vid] for vid in keep_set},
            self.dictionary,
            self.weight_rank,
        )

    def _weight(self, vid: int) -> tuple[int, ...]:
        return self.variables[vid].weight

    def is_balanced(self) -> list[str]:
        """Weight balance at every mutable vertex; returns violations."""
        problems = []
        for vid in self.mutable_ids():
            w_in, w_out = exchange_weights(self.quiver, vid, self._weight, self.weight_rank)
            if w_in != w_out:
                problems.append(
                    "vertex %s: incoming weight %s != outgoing weight %s"
                    % (self.quiver.vertices[vid].name, w_in, w_out)
                )
        return problems

    def initial_values(self, point: EvaluationPoint, cache: dict | None = None) -> list[int]:
        """Values of the initial cluster at a point (positions in dictionary
        order); raises if any vanishes (pick another point)."""
        values = [0] * self.nvars
        for pos, poly in self.dictionary.items():
            v = poly.evaluate(point, cache)
            if v == 0:
                raise ArithmeticError("initial variable %d vanishes at point" % pos)
            values[pos] = v
        return values

    def variable_values(self, point: EvaluationPoint, cache: dict | None = None) -> dict[int, int]:
        vals = self.initial_values(point, cache)
        return {
            vid: st.laurent.evaluate(vals, point.prime)
            for vid, st in self.variables.items()
        }


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


