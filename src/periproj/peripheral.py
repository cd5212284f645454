"""Peripheral cosets and closest-point projections.

A coset ``g H_i`` of a peripheral factor is identified structurally by its
factor index and canonical representative (the normal form of ``g`` with any
trailing ``i``-syllable stripped), so coset equality is O(1).

Projection routes:

* ``ExactBackend.project``, the only way to the closed form for the
  standard generating set: it gates through the leading ``i``-syllable of
  ``w = rep^-1 x``, the unique distance-minimizing point in that regime.
* the backend's ``project_block(P, xs)``: the canonical point of each x,
  None where it is not certified.  In exact mode it reads the gate off the
  syllables of x (rep's successor in x when rep is a syllable prefix of x
  followed by an ``i``-syllable, else rep), with no products; in BFS mode it
  walks to every x^-1 rep in the ball at once and reads the nearest members
  of its coset.  The ``ap`` and ``battery`` suites project this way.
* ``proj_entrypoint`` / ``proj_conedoff``: the first path vertex entering a
  neighborhood of the coset, along a metric geodesic or a coned-off geodesic
  (the paper's alternative projections); each returns that vertex alone.

``projection`` and ``dist_to_coset`` are the scalar canonical projection
point and d(x, P), answered by the backend; the ``dstg`` and ``formula``
suites use them.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InvalidFactorError
from .group import (
    Element,
    GroupSpec,
    element_str,
    inv,
    mul,
    mul_syllable,
)


@dataclass(frozen=True)
class Coset:
    """Left coset of a peripheral factor, keyed by (factor_index, canonical rep)."""

    factor_index: int
    rep: Element


def coset_of(spec: GroupSpec, x: Element, i: int) -> Coset:
    """The coset x * H_i; the rep is x with any trailing i-syllable stripped."""
    _check_peripheral(spec, i)
    if x and x[-1][0] == i:
        return Coset(i, x[:-1])
    return Coset(i, x)


def coset_str(spec: GroupSpec, coset: Coset) -> str:
    return f"H{coset.factor_index} @ {element_str(spec, coset.rep)}"


def coset_member(spec: GroupSpec, coset: Coset, coord) -> Element:
    """The member rep * h for a factor coordinate h (identity gives the rep)."""
    f = spec.factors[coset.factor_index]
    if f.is_identity(coord):
        return coset.rep
    return mul_syllable(spec, coset.rep, coset.factor_index, coord)


def member_coord(spec: GroupSpec, coset: Coset, p: Element):
    """Inverse of ``coset_member``: the factor coordinate of a coset point."""
    i = coset.factor_index
    if p == coset.rep:
        return spec.factors[i].identity
    if p[:-1] == coset.rep and p[-1][0] == i:
        return p[-1][1]
    raise InvalidFactorError("element does not lie in the coset")


def contains(spec: GroupSpec, coset: Coset, x: Element) -> bool:
    return coset_of(spec, x, coset.factor_index) == coset


def dist_to_coset(spec: GroupSpec, backend, P: Coset, x: Element) -> int:
    """d(x, P) under the backend's metric (certified)."""
    return backend.coset_distance(P, x)


def projection(spec: GroupSpec, backend, P: Coset, x: Element) -> Element:
    """The canonical projection point: gate in exact mode, else the
    deterministically-least element of the certified minimizing set."""
    return backend.project(P, x)


def proj_entrypoint(
    spec: GroupSpec,
    backend,
    P: Coset,
    x: Element,
    target: Element,
    enter_radius: int,
) -> Element:
    """First vertex of the backend geodesic x -> target within ``enter_radius`` of P.

    ``target`` must lie in P, so the entry vertex always exists.
    """
    if not contains(spec, P, target):
        raise InvalidFactorError("entry-point target must lie in the coset")
    path = backend.geodesic(x, target)
    for v in path.vertices:
        if dist_to_coset(spec, backend, P, v) <= enter_radius:
            return v
    raise AssertionError("geodesic to a coset point never entered its neighborhood")


def proj_conedoff(spec: GroupSpec, hat_backend, P: Coset, x: Element) -> Element:
    """First vertex of a coned-off geodesic from x to P that lies in P."""
    path = hat_backend.geodesic(x, P.rep)
    for v in path.vertices:
        if contains(spec, P, v):
            return v
    raise AssertionError("coned-off geodesic to the coset never met it")


def separating_cosets(spec: GroupSpec, x: Element, y: Element) -> list[Coset]:
    """The cosets contributing nonzero projection gaps between x and y.

    These are x * s_1..s_{j-1} * H_i for each peripheral syllable s_j of the
    normal form of x^-1 y; in the exact regime they are precisely the cosets
    whose two gate projections differ.
    """
    w = mul(spec, inv(spec, x), y)
    out: list[Coset] = []
    prefix = x
    for fi, coord in w:
        if fi in spec.peripheral_indices:
            out.append(coset_of(spec, prefix, fi))
        prefix = mul_syllable(spec, prefix, fi, coord)
    return out


def cosets_meeting_ball(spec: GroupSpec, elements) -> list[Coset]:
    """All peripheral cosets containing at least one of the given elements,
    in deterministic first-seen order."""
    seen: dict[Coset, None] = {}
    for x in elements:
        for i in spec.peripheral_indices:
            seen.setdefault(coset_of(spec, x, i), None)
    return list(seen)


def _check_peripheral(spec: GroupSpec, i: int) -> None:
    if i not in spec.peripheral_indices:
        raise InvalidFactorError(f"factor {i} is not peripheral")
