import json
from typing import NamedTuple

import pytest
from hypothesis import example, given, settings, strategies as st

from aflcalc import deformation
from aflcalc.cli import main
from aflcalc.deformation import (InadmissibleParityError, geometric_sum, hom_height_attainable,
                                 inadmissible_heights, lift_bound, lift_bound_recursive,
                                 ramification_index, reduction_commutes)
from aflcalc.field import FieldSetup

UNRAM3 = FieldSetup(3, ramified=False)
RAM3 = FieldSetup(3, ramified=True)


def sweep_setups(qs=(2, 3, 4, 5)):
    for ram in (False, True):
        for q in qs:
            yield FieldSetup(q, ram)


def columns(setup, ij_max=5, e_max=3, l_max=25, attainable_only=True):
    """(i, j, e_rel, heights) for each level pair and e_rel of the grid, the
    heights 0..l_max, with attainable_only only those some honest
    homomorphism has; inadmissible heights stay in."""
    for i in range(ij_max + 1):
        for j in range(ij_max + 1):
            heights = [l for l in range(l_max + 1)
                       if not attainable_only or hom_height_attainable(setup, i, j, l)]
            for e_rel in range(1, e_max + 1):
                yield i, j, e_rel, heights


class TestIndices:
    def test_unit_index_values(self):
        # above level 0 the ramification index is the unit-group index
        assert ramification_index(RAM3, 2) == 18
        assert ramification_index(UNRAM3, 1) == 4

    def test_ramification_index_level_zero(self):
        assert ramification_index(RAM3, 0) == 2
        assert ramification_index(UNRAM3, 0) == 1
        assert ramification_index(RAM3, 3) == 54

    @pytest.mark.parametrize("setup", [RAM3, UNRAM3])
    def test_negative_level_rejected(self, setup):
        with pytest.raises(ValueError):
            ramification_index(setup, -1)

    def test_geometric_sum(self):
        assert geometric_sum(2, 3) == 13
        assert geometric_sum(-1, 7) == 0
        assert geometric_sum(0, 7) == 1
        with pytest.raises(ValueError):
            geometric_sum(-2, 3)

    def test_geometric_sum_closed_form_matches_the_series(self):
        for q in range(2, 14):
            for n in range(-1, 41):
                assert geometric_sum(n, q) == sum(q ** k for k in range(n + 1)), (n, q)


class TestClosedForm:
    def test_level_zero_odd_height(self):
        # (1 + l)/2 at both levels zero
        assert lift_bound(UNRAM3, 0, 0, 1, [3]) == [2]

    def test_height_zero_below_gap(self):
        for setup in (UNRAM3, RAM3):
            for e_rel in (1, 2, 3):
                assert lift_bound(setup, 0, 2, e_rel, [0]) == [e_rel]

    def test_first_case_geometric(self):
        assert lift_bound(UNRAM3, 0, 3, 2, [2]) == [26]
        assert lift_bound(UNRAM3, 1, 4, 2, [2]) == [26]

    def test_equal_levels_even_height(self):
        assert lift_bound(FieldSetup(2, False), 2, 2, 1, [2]) == [4]

    def test_ramified_fourth_case(self):
        assert lift_bound(RAM3, 1, 1, 1, [4]) == [11]

    def test_ramified_level_zero_uses_double_index(self):
        # level-(0,0) ramified growth step is the full base ramification
        assert lift_bound(RAM3, 0, 0, 1, [0, 1, 2]) == [1, 2, 3]


class TestRecursion:
    def test_first_case_recursion_steps(self):
        assert lift_bound_recursive(UNRAM3, 0, 3, 2, [2]) == [26]

    def test_equal_levels_base_case_only(self):
        assert lift_bound_recursive(FieldSetup(2, False), 2, 2, 1, [2]) == [4]

    def test_ramified_fourth_case(self):
        assert lift_bound_recursive(RAM3, 1, 1, 1, [4]) == [11]


class TestEquivalenceSweep:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("ram", [False, True])
    def test_closed_equals_recursive(self, q, ram):
        # unattainable heights too: ATI bounds ramified odd heights below 2k at levels (k, k)
        setup = FieldSetup(q, ram)
        checked = 0
        for i, j, e_rel, heights in columns(setup, attainable_only=False):
            closed = lift_bound(setup, i, j, e_rel, heights)
            assert closed == lift_bound_recursive(setup, i, j, e_rel, heights)
            checked += len(closed) - closed.count(None)
        assert checked > 500

    def test_symmetry(self):
        for setup in sweep_setups(qs=(2, 3)):
            for i, j, e_rel, heights in columns(setup, ij_max=4, e_max=2, l_max=12):
                assert lift_bound(setup, i, j, e_rel, heights) == \
                    lift_bound(setup, j, i, e_rel, heights)

    def test_positivity(self):
        for setup in sweep_setups(qs=(2, 3)):
            for i, j, e_rel, heights in columns(setup, ij_max=4, e_max=2, l_max=12):
                for l, bound in zip(heights, lift_bound(setup, i, j, e_rel, heights)):
                    if bound is not None:
                        assert bound >= e_rel
                        assert (bound == e_rel) == (l == 0)

    def test_monotone_in_height(self):
        for setup in sweep_setups(qs=(2, 3)):
            for i, j, e_rel, heights in columns(setup, ij_max=3, e_max=1, l_max=15):
                bounds = [b for b in lift_bound(setup, i, j, e_rel, heights) if b is not None]
                assert bounds == sorted(bounds)

    def test_fourth_case_slope(self):
        for setup in sweep_setups(qs=(2, 3)):
            for i in range(4):
                for j in range(4):
                    step = ramification_index(setup, max(i, j))
                    for e_rel in (1, 2):
                        for l in range(i + j, i + j + 9):
                            lo, hi = lift_bound(setup, i, j, e_rel, [l, l + 2])
                            if lo is None:
                                assert hi is None
                                continue
                            assert hi - lo == e_rel * step


class TestRandomQueries:
    @settings(max_examples=400)
    @given(st.integers(2, 13), st.booleans(), st.integers(0, 12), st.integers(0, 12),
           st.integers(1, 4), st.lists(st.integers(0, 80), max_size=6))
    def test_closed_recursive_and_mirror_agree(self, q, ram, i, j, e_rel, heights):
        # q in 2..13, levels up to 12, e_rel up to 4 and heights up to 80:
        # well past the sweep grids above
        setup = FieldSetup(q, ram)
        closed = lift_bound(setup, i, j, e_rel, heights)
        assert closed == lift_bound_recursive(setup, i, j, e_rel, heights) == \
            lift_bound(setup, j, i, e_rel, heights)


class Query(NamedTuple):
    setup: FieldSetup
    i: int
    j: int
    e_rel: int
    l: int


def oracle_query(setup, i, j, e_rel, l) -> Query:
    """The per-point query check the columns replaced."""
    if i < 0 or j < 0:
        raise ValueError("levels are >= 0")
    if e_rel < 1:
        raise ValueError("ramification index e_rel is >= 1")
    if l < 0:
        raise ValueError("class height is >= 0")
    if l >= i + j:
        prod = (l - (i + j - 1)) * ramification_index(setup, max(i, j))
        if prod % 2:
            raise InadmissibleParityError(
                f"height {l} at levels ({i}, {j}) has no attainable parity")
    return Query(setup, i, j, e_rel, l)


def oracle_lift_bound(query: Query) -> int:
    """The per-point closed form the columns replaced."""
    setup, i, j, e, l = query
    if i > j:
        i, j = j, i
    q = setup.q
    d = j - i
    if l < d:
        return e * geometric_sum(l, q)
    if l <= i + j - 1:
        n = (l + d) // 2
        if (l + d) % 2 == 0:
            return e * (geometric_sum(n, q) + geometric_sum(n - 1, q) - geometric_sum(d - 1, q))
        return e * (2 * geometric_sum(n, q) - geometric_sum(d - 1, q))
    prod = (l - (i + j - 1)) * ramification_index(setup, j)
    assert prod % 2 == 0
    return e * (2 * geometric_sum(j - 1, q) - geometric_sum(d - 1, q)) + e * (prod // 2)


def oracle_lift_bound_recursive(query: Query) -> int:
    """The per-point recursion the columns replaced."""
    setup, i, j, e, l = query
    if i > j:
        i, j = j, i
    q = setup.q
    d = j - i
    if l < d:
        base = e * q ** l
        low = j - l + 1
    else:
        lp = l - d
        ehat_j = ramification_index(setup, j)
        ehat_i = ramification_index(setup, i)
        assert ehat_j % ehat_i == 0
        ratio = ehat_j // ehat_i
        if lp < 2 * i:
            half = lp // 2
            if lp % 2 == 0:
                base = e * ratio * (geometric_sum(half, q) + geometric_sum(half - 1, q))
            else:
                base = e * ratio * 2 * geometric_sum(half, q)
        else:
            prod = (lp - (2 * i - 1)) * ehat_j
            assert prod % 2 == 0
            base = e * ratio * 2 * geometric_sum(i - 1, q) + e * (prod // 2)
        low = i + 1
    step = e
    for _ in range(low, j + 1):
        base += step
        step *= q
    return base


ROUTES = [(lift_bound, oracle_lift_bound), (lift_bound_recursive, oracle_lift_bound_recursive)]


class TestColumns:
    """Each route's column is its per-point value height by height, None
    exactly where the per-point query check refused the parity."""

    @pytest.mark.parametrize("route, oracle", ROUTES, ids=["lift_bound", "lift_bound_recursive"])
    @settings(max_examples=300, deadline=None)
    @example(q=3, ram=False, i=0, j=0, e_rel=1, heights=[2, 1, 2, 0])  # (0, 0): even inadmissible
    @example(q=2, ram=False, i=1, j=0, e_rel=2, heights=[1, 3, 2, 200])  # e_hat(1) = 3 is odd
    @example(q=4, ram=True, i=8, j=3, e_rel=3, heights=[11, 5, 200, 0, 5, 19])
    @given(q=st.integers(2, 13), ram=st.booleans(), i=st.integers(0, 8), j=st.integers(0, 8),
           e_rel=st.integers(1, 3), heights=st.lists(st.integers(0, 200), max_size=12))
    def test_equals_the_per_point_oracle(self, route, oracle, q, ram, i, j, e_rel, heights):
        setup = FieldSetup(q, ram)
        want = []
        for l in heights:
            try:
                want.append(oracle(oracle_query(setup, i, j, e_rel, l)))
            except InadmissibleParityError:
                want.append(None)
        assert route(setup, i, j, e_rel, heights) == want
        assert inadmissible_heights(setup, i, j, e_rel, heights) == \
            {l for l, value in zip(heights, want) if value is None}

    @pytest.mark.parametrize("route", [lift_bound, lift_bound_recursive])
    @pytest.mark.parametrize("point", [(-1, 0, 1, 0), (0, -1, 1, 0), (0, 0, 0, 1),
                                       (2, 1, 1, -1)])
    def test_out_of_range_input_is_refused_as_before(self, route, point):
        i, j, e_rel, l = point
        for setup in (UNRAM3, RAM3):
            with pytest.raises(ValueError) as refused:
                oracle_query(setup, i, j, e_rel, l)
            with pytest.raises(ValueError) as refused_column:
                route(setup, i, j, e_rel, [3, l, 1])
            assert refused_column.type is refused.type is ValueError

    def test_an_empty_column_is_empty(self):
        assert lift_bound(UNRAM3, 1, 4, 2, []) == lift_bound_recursive(UNRAM3, 1, 4, 2, []) == []


class TestKernelContract:
    @pytest.mark.parametrize("bound", [lift_bound, lift_bound_recursive])
    def test_plain_tuple_refused(self, bound):
        # a route takes a level pair and a column, so a query tuple or a bare
        # height is refused, and every height passes inadmissible_heights:
        # (0, 0) at even height is parity-inadmissible unramified, and comes
        # back as None, never as a value
        with pytest.raises(TypeError):
            bound((UNRAM3, 0, 0, 1, 2))
        with pytest.raises(TypeError):
            bound((UNRAM3, 0, 0, 1, 3))  # admissible, still no column
        with pytest.raises(TypeError):
            bound(UNRAM3, 0, 0, 1, 3)
        assert bound(UNRAM3, 0, 0, 1, [2, 3]) == [None, 2]


class TestParityAdmissibility:
    def test_unramified_level_zero_even_height_rejected(self):
        assert inadmissible_heights(UNRAM3, 0, 0, 1, [2, 3]) == {2}
        for route in (lift_bound, lift_bound_recursive):
            assert route(UNRAM3, 0, 0, 1, [2]) == [None]

    def test_even_residue_odd_index_rejected(self):
        # q = 2 unramified has odd class-field ramification at level 1, so an
        # odd height past the level sum leaves an odd half-step
        for route in (lift_bound, lift_bound_recursive):
            assert route(FieldSetup(2, False), 0, 1, 1, [1, 2]) == [None, 4]

    def test_fourth_case_always_integral_on_admitted_inputs(self):
        for setup in sweep_setups():
            for i, j, e_rel, heights in columns(setup, ij_max=5, e_max=1, l_max=25):
                refused = inadmissible_heights(setup, i, j, e_rel, heights)
                for l in heights:
                    if l >= i + j and l not in refused:
                        prod = (l - (i + j - 1)) * ramification_index(setup, max(i, j))
                        assert prod % 2 == 0


class TestSharedPremise:
    """The recursion shares no premise with the closed form: a wrong
    class-field ramification index fails the default deform sweep."""

    # the Baseline's unramified (q + 3) q^(s - 1), and a ramified 4 q^s; both
    # keep every index's parity, and so the set of admissible heights
    @pytest.mark.parametrize("ramified", [False, True], ids=["unramified-q+3", "ramified-4q^s"])
    def test_a_wrong_index_fails_the_default_sweep(self, ramified, tmp_path, monkeypatch):
        real = ramification_index

        def mutant(setup, s):
            if s < 1 or setup.ramified != ramified:
                return real(setup, s)
            return 4 * setup.q ** s if ramified else (setup.q + 3) * setup.q ** (s - 1)

        monkeypatch.setattr(deformation, "ramification_index", mutant)
        monkeypatch.setenv("AFL_CALC_THREADS", "1")
        out = tmp_path / "r.json"
        assert main(["deform", "--out", str(out)]) == 1
        rows = json.loads(out.read_text())["rows"]
        failed = [row for row in rows if not row["passed"]]
        assert failed and all(row["ramified"] == ramified and row["closed"] != row["recursive"]
                              for row in failed)


class TestAttainability:
    def test_minimum_shift(self):
        assert hom_height_attainable(UNRAM3, 0, 0, 0)
        assert not hom_height_attainable(UNRAM3, 1, 3, 0)
        assert not hom_height_attainable(UNRAM3, 1, 3, 1)
        assert hom_height_attainable(UNRAM3, 1, 3, 2)

    def test_unramified_parity(self):
        assert not hom_height_attainable(UNRAM3, 2, 2, 3)
        assert hom_height_attainable(UNRAM3, 2, 2, 4)

    def test_ramified_odd_heights_need_depth(self):
        assert not hom_height_attainable(RAM3, 2, 2, 3)
        assert hom_height_attainable(RAM3, 2, 2, 5)
        assert hom_height_attainable(RAM3, 0, 0, 1)

    @given(st.integers(2, 13), st.booleans(), st.integers(0, 12), st.integers(0, 12),
           st.integers(0, 80))
    def test_symmetric_in_the_levels(self, q, ram, i, j, l):
        # a deform sweep tests each height once per unordered level pair
        setup = FieldSetup(q, ram)
        assert hom_height_attainable(setup, i, j, l) == hom_height_attainable(setup, j, i, l)


class TestReductionCommutes:
    @pytest.mark.parametrize("i,j,want", [(1, 2, True), (0, 0, True), (2, 4, True)])
    def test_ramified_always(self, i, j, want):
        assert reduction_commutes(RAM3, i, j) is want

    @pytest.mark.parametrize("i,j,want", [(1, 2, False), (0, 0, True), (1, 3, True),
                                          (0, 5, False)])
    def test_unramified_parity(self, i, j, want):
        assert reduction_commutes(UNRAM3, i, j) is want
