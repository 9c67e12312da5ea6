"""Workload definitions of the certification benchmark.

A workload is a list of flag types, each certified with
``verify_theorem(flag, trials=..., master_seed=<benchmark seed>)``.
Types are written ``d1,...,dk;n`` and kept as plain tuples here, so that
building the input list (part of ``setup_s``) goes through the package's
own ``FlagType`` constructor.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations


@dataclass(frozen=True)
class Workload:
    name: str
    trials: int
    types: tuple[tuple[tuple[int, ...], int], ...]  # ((d1, ..., dk), n)
    why: str


def _distinct(types):
    return tuple(dict.fromkeys(types))


def _all_types_up_to(n_max: int):
    return tuple(
        (dims, n)
        for n in range(3, n_max + 1)
        for k in range(1, n)
        for dims in combinations(range(1, n), k)
    )


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "exchange_deep",
            trials=20,
            types=(((2, 8), 10),),
            why="one Laurent-heavy type: 75 exchanges on deep expansions, "
            "time dominated by LaurentExpr.exact_div and __mul__",
        ),
        Workload(
            "eval_ladder",
            trials=20,
            types=_distinct(
                [((2, 4), n) for n in range(5, 9)]
                + [((2, n - 2), n) for n in range(6, 9)]
                + [((4, 6, 9), 12), ((4, 8), 12)]
                + [
                    ((4, 8, 10), 12),
                    ((6, 9), 12),
                    ((5, 8, 11), 13),
                    ((2, 5, 8), 10),
                    ((3, 7), 10),
                    ((4, 8), 10),
                ]
            ),
            why="14 distinct worked-family and evaluation-heavy types, "
            "time dominated by Plucker evaluation (det_mod); control for Laurent work",
        ),
        Workload(
            "sweep_n8",
            trials=5,
            types=_all_types_up_to(8),
            why="all 246 flag types with n <= 8: the certification table, "
            "where per-type fixed costs (builds, endgame, small det_mod) show",
        ),
    )
}


def label(dims, n) -> str:
    return "%s;%d" % (",".join(map(str, dims)), n)
