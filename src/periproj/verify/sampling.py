"""Seeded sampling helpers shared by the verification suites."""

from __future__ import annotations

from dataclasses import dataclass

from ..group import Element, GroupSpec, mul, random_normal_form


@dataclass
class SamplePlan:
    """Deterministic sampling parameters for the lemma battery.

    Every randomized suite draws from ``random.Random(seed)``, so identical
    plans reproduce identical reports.
    """

    seed: int = 7
    n_pairs: int = 300
    n_walks: int = 60
    max_syllables: int = 5
    max_syllable_len: int = 4
    sample_radius: int = 3
    coset_radius: int = 2


def random_element_by_length(
    spec: GroupSpec, rng, max_syllables: int, max_syllable_len: int
) -> Element:
    """Random normal form whose every syllable has factor length <= the bound."""
    return random_normal_form(
        spec, rng, max_syllables, lambda f: f.random_coord_by_length(rng, max_syllable_len)
    )


def seeded_pairs(
    spec: GroupSpec, rng, n: int, max_syllables: int, max_syllable_len: int
) -> list[tuple[Element, Element]]:
    return [
        (
            random_element_by_length(spec, rng, max_syllables, max_syllable_len),
            random_element_by_length(spec, rng, max_syllables, max_syllable_len),
        )
        for _ in range(n)
    ]


def random_walk(spec: GroupSpec, rng, start: Element, length: int):
    """A random edge path (not a geodesic) from ``start``; used to exercise
    path statements whose hypotheses do not require geodesics."""
    moves = spec.moves()
    vertices = [start]
    cur = start
    for _ in range(length):
        _, g = moves[rng.randrange(len(moves))]
        cur = mul(spec, cur, g)
        vertices.append(cur)
    return vertices
