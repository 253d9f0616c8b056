"""Workload definitions and the seeded grid generator.

Each workload is a family of aflcalc invocations with equal cost.  The seed
picks one member: the residue sizes q and, for ``afl_deep``, an offset of
the v(b) window.  The t, l and level ranges never change, so the row count
is the same for every seed.  Member 0 of every family (seed 0) is the
canonical grid quoted in README.md.

Why these three workloads:

- ``afl_deep`` spends nearly all its time in ``orbital.orb_s`` (quadratic in
  t, evaluated twice per row) and ``LaurentPoly`` construction; it is where
  an orbital-engine change shows.
- ``deform_grid`` makes no orbital call at all.  Its time goes to
  ``cli.render_report`` and the lift-bound closed form and recursion, so it
  is where rendering and memory changes show, and an orbital change should
  leave it unchanged.
- ``near_diagonal`` uses the orbital layer differently (many boxes per
  function, short shell ranges, full polynomials compared and multiplied)
  and runs the germ, battery and ATI code the other two never reach.
"""

from __future__ import annotations

from dataclasses import dataclass


@dataclass(frozen=True)
class Workload:
    name: str
    # Each member is one grid: a tuple of aflcalc argv lists run in order by
    # one child process.
    members: tuple[tuple[tuple[str, ...], ...], ...]
    rows: int
    # Spans that must record at least one call in a traced run ...
    exercised: frozenset[str]
    # ... and span-name prefixes that must record none.
    idle_prefixes: tuple[str, ...] = ()

    def grid(self, seed: int) -> tuple[tuple[str, ...], ...]:
        return self.members[seed % len(self.members)]


def _afl_members() -> tuple:
    q_sets = ("3,5,7", "5,7,11", "3,7,11", "3,5,11")
    offsets = (0, 2, -2, 1, -1)
    members = []
    # q varies fastest, so seeds 0..3 differ in q and the offset moves every
    # four seeds; the pairing covers all twenty combinations.
    for offset in offsets:
        for qs in q_sets:
            vb = f"{-6 + offset}..{6 + offset}"
            members.append((("afl", "--q", qs, "--t", "1..41", "--vb", vb),))
    return tuple(members)


def _deform_members() -> tuple:
    q_sets = ("2..7", "3..8", "2,3,4,5,7,8", "2,3,5,6,7,8")
    return tuple((("deform", "--ram", "0,1", "--q", qs, "--ij", "0..7",
                   "--e", "1..3", "--l", "0..60"),) for qs in q_sets)


def _near_diagonal_members() -> tuple:
    q_pairs = (("3,5,7,11", "2,3,5"), ("3,5,7,13", "2,3,7"),
               ("3,5,11,13", "2,5,7"), ("5,7,11,13", "3,5,7"))
    return tuple((("germ", "--q", germ_q, "--ram", "0,1"),
                  ("ati", "--q", ati_q, "--ram", "0,1", "--i", "0..3", "--j", "0..3",
                   "--e", "1..3", "--t", "0..40"))
                 for germ_q, ati_q in q_pairs)


_CLI = frozenset({"cli.main", "cli.run", "cli.render_report"})

WORKLOADS: dict[str, Workload] = {w.name: w for w in (
    Workload(
        name="afl_deep",
        members=_afl_members(),
        rows=1599,
        exercised=_CLI | {
            "orbital.orb_s", "orbital.orb", "orbital.d_orb",
            "symbolic.LaurentPoly.__add__",
            "matching.afl_verify", "matching.intersection_length",
            "deformation.lift_bound"},
    ),
    Workload(
        name="deform_grid",
        members=_deform_members(),
        rows=98640,
        exercised=_CLI | {
            "deformation.lift_bound", "deformation.lift_bound_recursive",
            "deformation.hom_height_attainable"},
        idle_prefixes=("orbital.",),
    ),
    Workload(
        name="near_diagonal",
        members=_near_diagonal_members(),
        rows=188 + 288,
        exercised=_CLI | {
            "orbital.orb_s", "orbital.d_orb", "orbital.clear_diagonal",
            "symbolic.LaurentPoly.__add__", "symbolic.LaurentPoly.__mul__",
            "symbolic.LaurentPoly.__eq__", "symbolic.LaurentPoly.text",
            "germs.extract_germ", "germs.function_from_germ",
            "germs.GermExpansion.predicted_orb_s", "germs.GermExpansion.equivalent",
            "battery.germ_battery",
            "matching.intersection_length", "matching.ati_growth_check",
            "matching.ati_end_to_end", "deformation.lift_bound"},
    ),
)}


def grid_key(grid: tuple[tuple[str, ...], ...]) -> str:
    """The key a grid's reference hashes are stored under."""
    return " ; ".join(" ".join(argv) for argv in grid)
