"""Seeded inputs for the benchmark workloads.

Every module here is ``d + d(phi) C`` over Q_3: a potential ``phi`` with
``k`` monomials in ``d`` annulus variables, a constant ``rank x rank``
matrix ``C``, and ``N_i = d_i(phi) C``.  Two such matrices commute and
``d_i N_j = d_j N_i``, so every module is integrable.  Only the public
API of the library is used.

Each workload runs a fixed anchor module and one seeded variant of it:
the seed permutes the variables, flips the sign of the potential and
conjugates every ``N_i`` by a signed permutation matrix.  The variant is a
different descriptor with a different report, but its exponents,
coefficient sizes and term counts match the anchor's, so the work one run
measures is the same from seed to seed.  Drawing fresh exponents and
valuations per seed instead moved the cost of one ``cutcheck`` case
between 1.4 s and 10.8 s, far more than any change worth measuring.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from nabla_radius import (
    ConnectionModule,
    LaurentPoly,
    ModuleDescriptor,
    PolyMatrix,
    module_descriptor_to_dict,
    random_integrable_module,
)

PRIME = 3


@dataclass(frozen=True)
class Case:
    """One descriptor and the CLI analysis command run on it."""

    label: str
    document: dict
    argv: tuple[str, ...]  # subcommand and options; the descriptor path follows
    shape: dict

    def descriptor_text(self) -> str:
        return json.dumps(self.document, sort_keys=True, indent=2) + "\n"


def potential_module(
    monomials: Sequence[tuple[Sequence[int], Fraction]],
    C: Sequence[Sequence[int]],
) -> ConnectionModule:
    """The module with N_i = d_i(phi) C for phi = sum of coeff * t^exps."""
    dims = len(monomials[0][0])
    phi = LaurentPoly(PRIME, dims, 0, {tuple(exps): coeff for exps, coeff in monomials})
    rank = len(C)
    matrices = []
    for i in range(dims):
        d_phi = phi.partial(i)
        matrices.append(PolyMatrix(tuple(
            tuple(d_phi.scalar_mul(C[r][c]) for c in range(rank))
            for r in range(rank)
        )))
    return ConnectionModule(PRIME, dims, 0, rank, tuple(matrices))


def variant(module: ConnectionModule, rng: random.Random) -> ConnectionModule:
    """Permute the variables, flip the potential's sign with probability
    1/2 and conjugate by a signed permutation matrix.  Each step maps an
    integrable module to an integrable one with the same term counts and
    coefficient sizes."""
    dims, rank = module.dims, module.rank
    order = list(range(dims))
    rng.shuffle(order)
    sign = rng.choice((1, -1))
    perm = list(range(rank))
    rng.shuffle(perm)
    flips = [rng.choice((1, -1)) for _ in range(rank)]

    def move(entry: LaurentPoly, scale: int) -> LaurentPoly:
        return LaurentPoly(PRIME, dims, 0, {
            tuple(exps[order[l]] for l in range(dims)): coeff * scale
            for exps, coeff in entry.terms.items()
        })

    matrices = []
    for i in range(dims):
        rows = module.matrices[order[i]].rows
        # (P N P^-1)[r][c] = flips[r] * flips[c] * N[perm[r]][perm[c]]
        matrices.append(PolyMatrix(tuple(
            tuple(
                move(rows[perm[r]][perm[c]], sign * flips[r] * flips[c])
                for c in range(rank)
            )
            for r in range(rank)
        )))
    return ConnectionModule(PRIME, dims, 0, rank, tuple(matrices))


@dataclass(frozen=True)
class Workload:
    """A named pair of cases: the anchor and its seeded variant."""

    name: str
    why: str
    anchor: Callable[[], ConnectionModule]
    shape: dict  # d, k and rank of the anchor's potential
    argv: Callable[[int], tuple[str, ...]]  # depth -> subcommand and options
    depth: int
    # counters of the traced run that this workload must drive, and ones it must not
    drives: tuple[str, ...]
    idle: tuple[str, ...] = ()

    def cases(self, seed: int, depth: int | None = None) -> list[Case]:
        depth = self.depth if depth is None else depth
        argv = self.argv(depth)
        shape = dict(self.shape, depth=depth)
        base = self.anchor()
        modules = {
            f"{self.name}-anchor": base,
            f"{self.name}-s{seed}": variant(base, random.Random(f"{self.name}:{seed}")),
        }
        return [
            Case(label, module_descriptor_to_dict(ModuleDescriptor(module, label)), argv, shape)
            for label, module in modules.items()
        ]


def _roadmap_module() -> ConnectionModule:
    return random_integrable_module(random.Random(7), PRIME, 2)


def _cutcheck_module() -> ConnectionModule:
    return potential_module(
        [((-2, -2), Fraction(-2, 3)), ((1, 1), Fraction(1, 3))],
        [[-1, 2], [2, 1]],
    )


def _taylor_module() -> ConnectionModule:
    return potential_module([((-1, -2, 1, 2), Fraction(1))], [[1]])


WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="oc-deep",
            why=(
                "oc at depth 150 on rank-2 one-monomial modules in 2 variables; "
                "coefficients pass 1100 bits, so p-adic valuation and Gauss norms dominate"
            ),
            anchor=_roadmap_module,
            shape={"d": 2, "k": 1, "rank": 2},
            argv=lambda depth: ("oc", "--depth", str(depth)),
            depth=150,
            drives=(
                "padic.valuation.calls",
                "laurent.gauss_lognorm.calls",
                "laurent.mul.calls",
                "connection.matmul.calls",
                "connection.ladder.steps",
                "radius.intrinsic_radius.calls",
            ),
            idle=("laurent.sup_vertex_lognorm.calls", "laurent.specialize.calls"),
        ),
        Workload(
            name="cutcheck-dense",
            why=(
                "cutcheck at depth 48 on a 2-term potential with valuations <= 0: entries reach "
                "142 terms, so Laurent mul/add dominate; the witness ladder is built again per check"
            ),
            anchor=_cutcheck_module,
            shape={"d": 2, "k": 2, "rank": 2},
            argv=lambda depth: ("cutcheck", "--depth", str(depth), "--trials", "10", "--seed", "0"),
            depth=48,
            drives=(
                "laurent.mul.calls",
                "laurent.add.calls",
                "laurent.partial.calls",
                "laurent.specialize.calls",
                "connection.matmul.calls",
                "connection.ladder.steps",
                "curves.generic_equality_check.calls",
                "curves.curve_witness_search.calls",
                "curves.trials_tried",
            ),
            idle=("laurent.sup_vertex_lognorm.calls",),
        ),
        Workload(
            name="taylor-wide",
            why=(
                "taylor at J=40 on rank-1 one-monomial modules in 4 variables: "
                "shallow ladder, small coefficients; time goes to 2^4-corner sup norms and level assembly"
            ),
            anchor=_taylor_module,
            shape={"d": 4, "k": 1, "rank": 1},
            argv=lambda depth: ("taylor", "--lambda", "1/8", "--eta", "1/4", "--depth", str(depth)),
            depth=40,
            drives=(
                "laurent.sup_vertex_lognorm.calls",
                "radius.taylor_probe.calls",
                "connection.ladder.steps",
            ),
            idle=("laurent.specialize.calls",),
        ),
    )
}
