"""Command-line front end and seed serialization.

Verbs: ``seed`` builds an initial seed, ``mutate`` applies mutations to a
seed, ``run`` executes a preset or flag program end to end, ``verify``
certifies the freeze/delete endpoint against the flag initial seed,
``sweep`` certifies every flag type up to an ambient size, ``translate``
resolves angle/bracket coordinates, and ``export`` rewrites a stored seed as
JSON or DOT.  Exit codes: 0 success, 1 verification failure, 2 usage error.
"""

from __future__ import annotations

import contextlib
import functools
import json
import sys
from itertools import combinations
from typing import Callable, Iterator

import click

from . import plucker as pk
from . import tableaux as tb
from .flags import FlagError, FlagType, FlagSeed, GrassmannianSeed
from .programs import (
    DEFAULT_TRIALS,
    ProgramError,
    check_value_parameters,
    general_flag_program,
    mt_program,
    run_program,
    sh_program,
    verify_theorem,
)
from .quiver import (
    MAX_EXPONENT, LaurentError, LaurentExpr, Quiver, QuiverError, Seed, VariableState, Vertex,
    tableau_weight,
)


# -- serialization ------------------------------------------------------------


def seed_to_dict(seed: Seed) -> dict:
    vertices = []
    for vid in sorted(seed.quiver.vertices):
        v = seed.quiver.vertices[vid]
        st = seed.variables[vid]
        vertices.append(
            {
                "id": vid,
                "name": v.name,
                "frozen": v.frozen,
                "tableau": [list(r) for r in st.tableau.rows],
                "weight": list(tableau_weight(st.tableau, seed.heights)),
                "laurent": sorted(
                    [list(exps), coeff] for exps, coeff in st.laurent.exponent_items()
                ),
            }
        )
    dictionary = []
    for pos in sorted(seed.dictionary):
        poly = seed.dictionary[pos]
        dictionary.append(
            {
                "position": pos,
                "terms": sorted(
                    [[list(idx) for idx in mono], coeff]
                    for mono, coeff in poly.terms.items()
                ),
            }
        )
    return {
        "schema": "clusterflag-seed/1",
        "weight_rank": len(seed.heights),
        "nvars": seed.nvars,
        "vertices": vertices,
        "arrows": sorted([u, w, m] for (u, w), m in seed.quiver.arrows.items()),
        "dictionary": dictionary,
    }


def _typed(value, kind: type, what: str):
    """``value`` when its type is exactly ``kind`` (so a bool is not an int)."""
    if type(value) is not kind:
        raise ValueError("%s must be of type %s, got %r" % (what, kind.__name__, value))
    return value


def _ints(value, what: str) -> tuple[int, ...]:
    return tuple(_typed(x, int, what) for x in _typed(value, list, what))


def _index(value) -> tuple[int, ...]:
    """A Plucker index: strictly increasing entries, the first at least 1."""
    idx = _ints(value, "index")
    if any(b <= a for a, b in zip((0,) + idx, idx)):
        raise ValueError("Plucker index %s is not strictly increasing from 1" % list(idx))
    return idx


def _terms(pairs, key, what: str) -> dict:
    """A nonzero polynomial's terms, given as [monomial, coefficient] pairs
    with each monomial read by ``key``; no monomial may repeat."""
    terms = {key(mono): _typed(coeff, int, "coefficient") for mono, coeff in _typed(pairs, list, what)}
    if not terms or len(terms) != len(pairs) or 0 in terms.values():
        raise ValueError("%s must be nonzero, with distinct monomials" % what)
    return terms


def seed_from_dict(data: dict) -> Seed:
    """The seed a ``seed_to_dict`` snapshot describes; raises ValueError,
    KeyError or TypeError on a malformed one, or on one whose ``weight_rank``
    or weights are not those its tableaux give."""
    if type(data) is not dict or data.get("schema") != "clusterflag-seed/1":
        raise ValueError("unrecognized seed schema")
    nvars = _typed(data["nvars"], int, "nvars")
    weight_rank = _typed(data["weight_rank"], int, "weight_rank")
    entries = _typed(data["dictionary"], list, "dictionary")
    positions = sorted(_typed(e["position"], int, "position") for e in entries)
    if nvars != len(positions) or positions != list(range(nvars)):  # no range of a huge nvars
        raise ValueError("dictionary positions must be 0..%d" % (nvars - 1))
    dictionary = {
        e["position"]: pk.PluckerPoly(_terms(
            e["terms"],
            lambda mono: tuple(sorted(_index(idx) for idx in _typed(mono, list, "monomial"))),
            "dictionary terms",
        ))
        for e in entries
    }
    vertices = []
    variables = {}
    weights = {}
    for v in _typed(data["vertices"], list, "vertices"):
        vid = _typed(v["id"], int, "vertex id")
        if vid in variables:
            raise ValueError("duplicate vertex id %d" % vid)
        vertices.append(Vertex(vid, _typed(v["name"], str, "name"), _typed(v["frozen"], bool, "frozen")))
        laurent = LaurentExpr(
            nvars, _terms(v["laurent"], lambda exps: _ints(exps, "exponent"), "laurent terms")
        )
        tableau = tb.Tableau(_ints(r, "tableau entry") for r in _typed(v["tableau"], list, "tableau"))
        variables[vid] = VariableState(laurent, tableau)
        weights[vid] = _ints(v["weight"], "weight")
    if len({v.name for v in vertices}) != len(vertices):
        raise ValueError("vertex names must be distinct")
    arrows = [_ints(arrow, "arrow entry") for arrow in _typed(data["arrows"], list, "arrows")]
    if len({frozenset(arrow[:2]) for arrow in arrows}) != len(arrows):
        raise ValueError("two arrows join the same pair of vertices")
    quiver = Quiver(vertices)
    for u, w, m in arrows:
        if m < 1:
            raise ValueError("arrow %d -> %d has multiplicity %d, below 1" % (u, w, m))
        if m > MAX_EXPONENT:
            raise ValueError(
                "arrow %d -> %d has multiplicity %d, above %d: an exchange through it"
                " raises a non-constant neighbour's exponents past +-%d"
                % (u, w, m, MAX_EXPONENT, MAX_EXPONENT)
            )
        quiver.add_arrow(u, w, m)
        if quiver.is_frozen(u) and quiver.is_frozen(w):
            raise ValueError("arrow %d -> %d joins two frozen vertices" % (u, w))
    seed = Seed(quiver, variables, dictionary)
    if len(seed.heights) != weight_rank:
        raise ValueError("tableaux use %d column heights, not weight_rank %d" % (len(seed.heights), weight_rank))
    for vid, st in variables.items():
        if tableau_weight(st.tableau, seed.heights) != weights[vid]:
            raise ValueError("vertex %d: tableau columns by height do not match its weight" % vid)
    return seed


def _tableau_brief(t: tb.Tableau) -> str:
    if not t.rows:
        return "1"
    cols = t.columns()
    sep = "," if max(max(r) for r in t.rows) > 9 else ""
    return " ".join(sep.join(map(str, col)) for col in cols)


def seed_to_dot(seed: Seed) -> str:
    lines = ["digraph seed {", "  rankdir=LR;"]
    for vid in sorted(seed.quiver.vertices):
        v = seed.quiver.vertices[vid]
        st = seed.variables[vid]
        shape = "box" if v.frozen else "ellipse"
        name = v.name.replace("\\", "\\\\").replace('"', '\\"')
        label = "%s\\n%s" % (name, _tableau_brief(st.tableau))
        lines.append('  v%d [label="%s" shape=%s];' % (vid, label, shape))
    for (u, w), m in sorted(seed.quiver.arrows.items()):
        extra = ' [label="%d"]' % m if m > 1 else ""
        lines.append("  v%d -> v%d%s;" % (u, w, extra))
    lines.append("}")
    return "\n".join(lines) + "\n"


def render_seed(seed: Seed, fmt: str) -> str:
    """A seed as DOT when ``fmt`` is "dot", else as indented JSON."""
    return seed_to_dot(seed) if fmt == "dot" else json.dumps(seed_to_dict(seed), indent=1)


# -- option helpers -----------------------------------------------------------


def parse_flag_option(text: str) -> FlagType:
    try:
        parts = [int(p) for p in text.split(",")]
    except ValueError:
        raise click.UsageError("--flag expects integers n,d1,d2,...") from None
    if len(parts) < 2:
        raise click.UsageError("--flag expects n followed by at least one dimension")
    try:
        return FlagType(parts[1:], parts[0])
    except FlagError as exc:
        raise click.UsageError(str(exc)) from None


def parse_gr_option(text: str) -> tuple[int, int]:
    try:
        k, n = (int(p) for p in text.split(","))
    except ValueError:
        raise click.UsageError("--gr expects k,n") from None
    if not (1 <= k < n):
        raise click.UsageError("--gr expects 1 <= k < n")
    return k, n


@contextlib.contextmanager
def _opened(output: str | None) -> Iterator[Callable[[str], None]]:
    """A writer of text to the file ``output``, opened here so that an
    unwritable path exits 2 before any work, or to standard output.  Each
    write is flushed, so the file keeps what was written if the work fails."""
    if not output:
        yield functools.partial(click.echo, nl=False)
        return
    try:
        with open(output, "w") as fh:
            def write(text: str) -> None:
                fh.write(text)
                fh.flush()

            yield write
    except OSError as exc:
        raise click.UsageError("cannot write %s: %s" % (output, exc.strerror)) from None


def _write_output(text: str, output: str | None) -> None:
    """``text`` to the file ``output``, or to standard output ending in a newline."""
    with _opened(output) as write:
        write(text if output or text.endswith("\n") else text + "\n")


def _vertex_id(seed: Seed, token: str) -> int:
    """The vertex a ``--at`` token names: a numeric id or a vertex name."""
    try:
        vid = int(token)
    except ValueError:
        try:
            return seed.vertex_by_name(token)
        except QuiverError as exc:
            raise click.UsageError(str(exc)) from None
    if vid not in seed.quiver.vertices:
        raise click.UsageError("no vertex with id %d" % vid)
    return vid


def _build_seed(flag_opt: str | None, gr_opt: str | None, seed_file: str | None) -> Seed:
    given = sum(x is not None for x in (flag_opt, gr_opt, seed_file))
    if given != 1:
        raise click.UsageError("give exactly one of --flag, --gr, --seed-file")
    if seed_file is not None:
        try:
            with open(seed_file) as fh:
                try:
                    data = json.load(fh)
                except RecursionError:
                    raise ValueError("JSON nested too deeply to decode") from None
            return seed_from_dict(data)
        except (OSError, ValueError, KeyError, TypeError, LaurentError) as exc:
            raise click.UsageError("cannot read seed file: %s" % exc) from None
    if flag_opt is not None:
        return FlagSeed(parse_flag_option(flag_opt)).seed
    k, n = parse_gr_option(gr_opt)
    return GrassmannianSeed(k, n).seed


# -- commands -----------------------------------------------------------------


@click.group()
def main() -> None:
    """Exact cluster seeds for Grassmannians and partial flag varieties."""


@main.command("seed")
@click.option("--flag", "flag_opt", default=None, help="n,d1,d2,... flag type")
@click.option("--gr", "gr_opt", default=None, help="k,n Grassmannian grid seed")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def seed_cmd(flag_opt, gr_opt, fmt, output):
    """Construct an initial seed and print it."""
    seed = _build_seed(flag_opt, gr_opt, None)
    _write_output(render_seed(seed, fmt), output)


@main.command("mutate")
@click.option("--flag", "flag_opt", default=None, help="n,d1,d2,... flag type")
@click.option("--gr", "gr_opt", default=None, help="k,n Grassmannian grid seed")
@click.option("--seed-file", default=None, type=click.Path(exists=False, dir_okay=False))
@click.option("--at", "at_opt", required=True, help="comma-separated vertex names or ids")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="json")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def mutate_cmd(flag_opt, gr_opt, seed_file, at_opt, fmt, output):
    """Mutate a seed at the listed vertices, in order."""
    seed = _build_seed(flag_opt, gr_opt, seed_file)
    tokens = [token.strip() for token in at_opt.split(",")]
    vids = [_vertex_id(seed, token) for token in tokens]
    for token, vid in zip(tokens, vids):
        try:
            seed = seed.mutate(vid)
        except (QuiverError, LaurentError, tb.TableauError) as exc:
            raise click.ClickException("mutation at %r failed: %s" % (token, exc)) from None
    _write_output(render_seed(seed, fmt), output)


@main.command("run")
@click.option("--preset", type=click.Choice(["mt", "sh"]), default=None)
@click.option("--n", "n_opt", type=int, default=None, help="ambient size for --preset")
@click.option("--flag", "flag_opt", default=None, help="n,d1,d2,... flag type")
@click.option("--export", "export_fmt", type=click.Choice(["dot", "json"]), default=None)
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def run_cmd(preset, n_opt, flag_opt, export_fmt, output):
    """Run a mutation program and report the freeze/delete endgame."""
    if (preset is None) == (flag_opt is None):
        raise click.UsageError("give exactly one of --preset or --flag")
    if n_opt is not None and preset is None:
        raise click.UsageError("--n applies only to --preset")
    if output is not None and export_fmt is None:
        raise click.UsageError("--output applies only to --export")
    if preset is not None and n_opt is None:
        raise click.UsageError("--preset %s needs --n" % preset)
    try:
        if preset is not None:
            program = {"mt": mt_program, "sh": sh_program}[preset](n_opt)
        else:
            program = general_flag_program(parse_flag_option(flag_opt))
    except ProgramError as exc:
        raise click.UsageError(str(exc)) from None

    flag = program.flag
    gr = GrassmannianSeed(*flag.target_grassmannian)
    result = run_program(gr, program)
    click.echo(flag.heading())
    for title, labels in (
        ("mutations:", result.mutation_labels),
        ("freezes:  ", result.freeze_labels),
        ("deleted:  ", result.deleted_labels),
    ):
        click.echo("%s %s" % (title, " ".join("(%d)" % lab for lab in labels)))
    for p in result.match_problems:
        click.echo("problem: %s" % p)
    if result.restricted is None:
        raise click.ClickException(
            "endpoint did not restrict to the flag seed: %s" % result.restrict_problem
        )
    click.echo("kept %d vertices" % len(result.mapping))
    if export_fmt:
        _write_output(render_seed(result.restricted, export_fmt), output)


def _value_check_options(command: Callable) -> Callable:
    """The value check's ``--trials``, ``--prime`` and ``--seed``, for ``verify`` and ``sweep``;
    a refused ``--trials``, ``--prime`` or ``--seed`` exits 2 before the command opens its output."""
    @functools.wraps(command)
    def checked(*args, trials: int, prime: int, master_seed: int, **kwargs):
        try:
            check_value_parameters(trials, prime, master_seed)
        except ProgramError as exc:
            raise click.UsageError(str(exc)) from None
        return command(*args, trials=trials, prime=prime, master_seed=master_seed, **kwargs)

    checked = click.option("--seed", "master_seed", type=int, default=0, envvar="CLUSTERFLAG_SEED",
                           help="master RNG seed (env CLUSTERFLAG_SEED)")(checked)
    checked = click.option("--prime", type=int, default=pk.DEFAULT_PRIME)(checked)
    return click.option("--trials", type=int, default=DEFAULT_TRIALS, show_default=True)(checked)


@main.command("verify")
@click.option("--flag", "flag_opt", required=True, help="n,d1,d2,... flag type")
@_value_check_options
@click.option("--output", default=None, type=click.Path(dir_okay=False), help="write JSON report")
@click.pass_context
def verify_cmd(ctx, flag_opt, trials, prime, master_seed, output):
    """Certify freeze/delete endpoint == flag initial seed for one flag."""
    flag = parse_flag_option(flag_opt)
    with _opened(output) as write:
        try:
            report = verify_theorem(flag, trials=trials, prime=prime, master_seed=master_seed)
        except ProgramError as exc:
            raise click.UsageError(str(exc)) from None
        for line in report.summary_lines():
            click.echo(line)
        if output:
            write(json.dumps(report.to_dict(), indent=1))
    ctx.exit(0 if report.passed else 1)


@main.command("sweep")
@click.option("--max-n", "max_n", type=int, required=True, help="largest ambient size n")
@_value_check_options
@click.option("--output", default=None, type=click.Path(dir_okay=False), help="write the JSONL here")
@click.pass_context
def sweep_cmd(ctx, max_n, trials, prime, master_seed, output):
    """Certify every flag type with 3 <= n <= MAX_N; one JSON report per line."""
    if max_n < 3:
        raise click.UsageError("--max-n expects at least 3")
    passed = True
    with _opened(output) as write:
        for n in range(3, max_n + 1):
            for k in range(1, n):
                for dims in combinations(range(1, n), k):
                    try:
                        report = verify_theorem(FlagType(dims, n), trials=trials, prime=prime,
                                                master_seed=master_seed)
                    except ProgramError as exc:
                        raise click.UsageError(str(exc)) from None
                    write(json.dumps(report.to_dict()) + "\n")
                    passed = passed and report.passed
    ctx.exit(0 if passed else 1)


@main.command("translate")
@click.option("--sh", "sh_n", type=int, default=None, help="ambient size, angle/bracket pairs")
@click.option("--mt", "mt_n", type=int, default=None, help="ambient size, angle 2/4-tuples")
@click.argument("token")
def translate_cmd(sh_n, mt_n, token):
    """Translate an angle/bracket coordinate into Plucker form."""
    if (sh_n is None) == (mt_n is None):
        raise click.UsageError("give exactly one of --sh or --mt")
    token = token.strip()
    if len(token) < 3 or token[0] + token[-1] not in ("<>", "[]"):
        raise click.UsageError("token must look like <ij> or [ij]")
    body = token[1:-1]
    try:
        entries = [int(p) for p in (body.split(",") if "," in body else body)]
    except ValueError:
        raise click.UsageError("token entries must be integers, got %r" % token) from None
    try:
        if sh_n is not None:
            if len(entries) != 2:
                raise click.UsageError("angle/bracket pairs have two entries")
            kind = "angle" if token[0] == "<" else "bracket"
            poly = pk.sh_coordinate(sh_n, kind, *entries)
        else:
            if token[0] != "<":
                raise click.UsageError("only angle tuples exist here")
            poly = pk.mt_coordinate(mt_n, entries)
    except pk.PluckerError as exc:
        raise click.UsageError(str(exc)) from None
    click.echo(pk.format_poly(poly))


@main.command("export")
@click.option("--seed-file", default=None, type=click.Path(dir_okay=False))
@click.option("--flag", "flag_opt", default=None, help="n,d1,d2,... flag type")
@click.option("--gr", "gr_opt", default=None, help="k,n Grassmannian grid seed")
@click.option("--format", "fmt", type=click.Choice(["json", "dot"]), default="dot")
@click.option("--output", default=None, type=click.Path(dir_okay=False))
def export_cmd(seed_file, flag_opt, gr_opt, fmt, output):
    """Re-emit a seed as JSON or DOT."""
    seed = _build_seed(flag_opt, gr_opt, seed_file)
    _write_output(render_seed(seed, fmt), output)


if __name__ == "__main__":
    sys.exit(main())
