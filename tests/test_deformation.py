import pytest
from hypothesis import assume, given, settings, strategies as st

from aflcalc.deformation import (DeformQuery, InadmissibleParityError, geometric_sum,
                                 hom_height_attainable, lift_bound,
                                 lift_bound_recursive, ramification_index,
                                 reduction_commutes)
from aflcalc.field import FieldSetup

UNRAM3 = FieldSetup(3, ramified=False)
RAM3 = FieldSetup(3, ramified=True)


def sweep_setups(qs=(2, 3, 4, 5)):
    for ram in (False, True):
        for q in qs:
            yield FieldSetup(q, ram)


def admissible_queries(setup, ij_max=5, e_max=3, l_max=25, attainable_only=True):
    """The queries DeformQuery admits on the grid; with attainable_only, only
    at heights some honest homomorphism has."""
    for i in range(ij_max + 1):
        for j in range(ij_max + 1):
            for e_rel in range(1, e_max + 1):
                for l in range(l_max + 1):
                    if attainable_only and not hom_height_attainable(setup, i, j, l):
                        continue
                    try:
                        yield DeformQuery(setup, i, j, e_rel, l)
                    except InadmissibleParityError:
                        continue


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
        assert lift_bound(DeformQuery(UNRAM3, 0, 0, 1, 3)) == 2

    def test_height_zero_below_gap(self):
        for setup in (UNRAM3, RAM3):
            for e_rel in (1, 2, 3):
                assert lift_bound(DeformQuery(setup, 0, 2, e_rel, 0)) == e_rel

    def test_first_case_geometric(self):
        assert lift_bound(DeformQuery(UNRAM3, 0, 3, 2, 2)) == 26
        assert lift_bound(DeformQuery(UNRAM3, 1, 4, 2, 2)) == 26

    def test_equal_levels_even_height(self):
        assert lift_bound(DeformQuery(FieldSetup(2, False), 2, 2, 1, 2)) == 4

    def test_ramified_fourth_case(self):
        assert lift_bound(DeformQuery(RAM3, 1, 1, 1, 4)) == 11

    def test_ramified_level_zero_uses_double_index(self):
        # level-(0,0) ramified growth step is the full base ramification
        assert lift_bound(DeformQuery(RAM3, 0, 0, 1, 0)) == 1
        assert lift_bound(DeformQuery(RAM3, 0, 0, 1, 1)) == 2
        assert lift_bound(DeformQuery(RAM3, 0, 0, 1, 2)) == 3


class TestRecursion:
    def test_first_case_recursion_steps(self):
        assert lift_bound_recursive(DeformQuery(UNRAM3, 0, 3, 2, 2)) == 26

    def test_equal_levels_base_case_only(self):
        assert lift_bound_recursive(DeformQuery(FieldSetup(2, False), 2, 2, 1, 2)) == 4

    def test_ramified_fourth_case(self):
        assert lift_bound_recursive(DeformQuery(RAM3, 1, 1, 1, 4)) == 11


class TestEquivalenceSweep:
    @pytest.mark.parametrize("q", [2, 3, 4, 5])
    @pytest.mark.parametrize("ram", [False, True])
    def test_closed_equals_recursive(self, q, ram):
        # unattainable heights too: ATI bounds ramified odd heights below 2k at levels (k, k)
        setup = FieldSetup(q, ram)
        checked = 0
        for query in admissible_queries(setup, attainable_only=False):
            closed = lift_bound(query)
            assert closed == lift_bound_recursive(query)
            checked += 1
        assert checked > 500

    def test_symmetry(self):
        for setup in sweep_setups(qs=(2, 3)):
            for query in admissible_queries(setup, ij_max=4, e_max=2, l_max=12):
                mirror = DeformQuery(setup, query.j, query.i, query.e_rel, query.l)
                assert lift_bound(query) == lift_bound(mirror)

    def test_positivity(self):
        for setup in sweep_setups(qs=(2, 3)):
            for query in admissible_queries(setup, ij_max=4, e_max=2, l_max=12):
                bound = lift_bound(query)
                assert bound >= query.e_rel
                assert (bound == query.e_rel) == (query.l == 0)

    def test_monotone_in_height(self):
        for setup in sweep_setups(qs=(2, 3)):
            heights = {}
            for query in admissible_queries(setup, ij_max=3, e_max=1, l_max=15):
                heights.setdefault((query.i, query.j), []).append(
                    (query.l, lift_bound(query)))
            for series in heights.values():
                series.sort()
                bounds = [b for _, b in series]
                assert bounds == sorted(bounds)

    def test_fourth_case_slope(self):
        for setup in sweep_setups(qs=(2, 3)):
            for i in range(4):
                for j in range(4):
                    step = ramification_index(setup, max(i, j))
                    for e_rel in (1, 2):
                        for l in range(i + j, i + j + 9):
                            try:
                                lo = DeformQuery(setup, i, j, e_rel, l)
                                hi = DeformQuery(setup, i, j, e_rel, l + 2)
                            except InadmissibleParityError:
                                continue
                            assert lift_bound(hi) - lift_bound(lo) == e_rel * step


@st.composite
def random_queries(draw):
    """An admissible query, its height attainable or not, with q in 2..13,
    levels up to 12, e_rel up to 4 and height up to 80: well past the sweep
    grids above."""
    setup = FieldSetup(draw(st.integers(2, 13)), draw(st.booleans()))
    i, j = draw(st.integers(0, 12)), draw(st.integers(0, 12))
    e_rel, l = draw(st.integers(1, 4)), draw(st.integers(0, 80))
    try:
        return DeformQuery(setup, i, j, e_rel, l)
    except InadmissibleParityError:
        assume(False)


class TestRandomQueries:
    @settings(max_examples=400)
    @given(random_queries())
    def test_closed_recursive_and_mirror_agree(self, query):
        setup, i, j, e_rel, l = query
        mirror = DeformQuery(setup, j, i, e_rel, l)
        assert lift_bound(query) == lift_bound_recursive(query) == lift_bound(mirror)


class TestKernelContract:
    @pytest.mark.parametrize("bound", [lift_bound, lift_bound_recursive])
    def test_plain_tuple_refused(self, bound):
        # (0, 0) at even height is parity-inadmissible unramified; a plain
        # tuple must not get past DeformQuery's check by being unpacked
        with pytest.raises(TypeError):
            bound((UNRAM3, 0, 0, 1, 2))
        with pytest.raises(TypeError):
            bound((UNRAM3, 0, 0, 1, 3))  # admissible, still no DeformQuery


class TestParityAdmissibility:
    def test_unramified_level_zero_even_height_rejected(self):
        with pytest.raises(InadmissibleParityError):
            DeformQuery(UNRAM3, 0, 0, 1, 2)

    def test_even_residue_odd_index_rejected(self):
        # q = 2 unramified has odd class-field ramification at level 1, so an
        # odd height past the level sum leaves an odd half-step
        with pytest.raises(InadmissibleParityError):
            DeformQuery(FieldSetup(2, False), 0, 1, 1, 1)
        assert lift_bound(DeformQuery(FieldSetup(2, False), 0, 1, 1, 2)) == 4

    def test_fourth_case_always_integral_on_admitted_inputs(self):
        for setup in sweep_setups():
            for query in admissible_queries(setup, ij_max=5, e_max=3, l_max=25):
                if query.l >= query.i + query.j:
                    prod = (query.l - (query.i + query.j - 1)) * ramification_index(
                        setup, max(query.i, query.j))
                    assert prod % 2 == 0


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
