"""Distance-formula evaluation and two-sided constant fitting.

For a pair (x, y) the right-hand side at threshold L is the sum of coset
projection gaps exceeding L (over the separating cosets, which carry every
nonzero term in the exact regime) plus the coned-off distance.  The fitter
finds, per threshold, the multiplicative constant lambda making
``lhs/lambda <= rhs <= lambda*lhs`` hold over a pair sample with additive
slack mu = 0; mu-free fits always exist here because the two sides vanish
together.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from ..errors import TheoremViolationError
from ..group import Element, GroupSpec, element_str
from ..peripheral import projection, separating_cosets


@dataclass
class FormulaEval:
    x: Element
    y: Element
    lhs: int
    dhat: int
    terms: list
    rhs_by_l: dict

    def rhs(self, threshold: int) -> int:
        return self.rhs_by_l[threshold]

    def included_terms(self, threshold: int) -> list:
        return [(P, v) for P, v in self.terms if v > threshold]


@dataclass
class FitRow:
    threshold: int
    lam: Fraction
    mu: int
    witness: str


def distance_formula(
    spec: GroupSpec,
    x: Element,
    y: Element,
    thresholds,
    backend,
    hat_backend,
    *,
    sigma: int,
    entry_m: int,
) -> FormulaEval:
    """Evaluate both sides of the distance formula and the lower-bound estimate.

    The estimate (lhs dominates the sum of projection gaps shrunk by
    2*sigma + 2*entry_m) is a theorem; its failure raises
    TheoremViolationError rather than being reported as data.
    """
    lhs = backend.distance(x, y)
    dhat = hat_backend.distance(x, y)
    terms = []
    for P in separating_cosets(spec, x, y):
        px = projection(spec, backend, P, x)
        py = projection(spec, backend, P, y)
        terms.append((P, backend.distance(px, py)))
    rhs_by_l = {
        L: sum(v for _, v in terms if v > L) + dhat for L in thresholds
    }
    shrink = 2 * sigma + 2 * entry_m
    bound = sum(v - shrink for _, v in terms if v >= shrink)
    if lhs < bound:
        raise TheoremViolationError(
            f"distance lower bound failed: d={lhs} < {bound} for "
            f"x={element_str(spec, x)} y={element_str(spec, y)}"
        )
    return FormulaEval(
        x=x,
        y=y,
        lhs=lhs,
        dhat=dhat,
        terms=terms,
        rhs_by_l=rhs_by_l,
    )


def fit_formula_constants(spec: GroupSpec, evals, thresholds) -> list[FitRow]:
    """Per threshold, the minimal lambda with mu = 0 covering every evaluated
    pair (``evals`` are ``distance_formula`` results at these thresholds).

    lambda is the worst two-sided ratio max(lhs/rhs, rhs/lhs); identical pairs
    contribute nothing (both sides are 0).  Raises ValueError on an empty
    sample.
    """
    evals = list(evals)
    if not evals:
        raise ValueError("fit_formula_constants needs a nonempty sample")
    rows = []
    for L in thresholds:
        lam = Fraction(1)
        witness = "degenerate"
        for ev in evals:
            rhs = ev.rhs(L)
            if ev.lhs == 0 and rhs == 0:
                continue
            if ev.lhs == 0 or rhs == 0:
                raise TheoremViolationError(
                    "one side of the formula vanished without the other: "
                    f"lhs={ev.lhs} rhs={rhs}"
                )
            ratio = max(Fraction(ev.lhs, rhs), Fraction(rhs, ev.lhs))
            if ratio > lam:
                lam = ratio
                witness = f"{element_str(spec, ev.x)} | {element_str(spec, ev.y)}"
        rows.append(FitRow(threshold=L, lam=lam, mu=0, witness=witness))
    return rows
