"""Value semantics of ``SquareFreeLevel``, ``TableSpec`` and ``Decomposition``:
construction, equality, hashing, repr and immutability, as the frozen
dataclasses they replace defined them."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from siegel_dims.arithmetic import SquareFreeLevel
from siegel_dims.errors import (
    EvenLevelError,
    EvenPrimeError,
    IndexOutOfRangeError,
    InputError,
    NotPrimeError,
)
from siegel_dims.irreps import irrep_dim
from siegel_dims.newforms import Decomposition, decompose
from siegel_dims.tables import TableSpec, emit_table

# Every index 1..15 of a walk-built solution at p = 3, zeros included.
WALK_MULTIPLICITIES = {n: 0 for n in range(1, 16)} | {14: 1}

# One instance of each value class; the two decompositions are the same
# solution, built by the validating constructor and by the walk.
INSTANCES = {
    "SquareFreeLevel": lambda: SquareFreeLevel((3, 5)),
    "TableSpec": lambda: TableSpec("full", weights=(10,)),
    "Decomposition-constructed": lambda: Decomposition({14: 1}, 3, 15),
    "Decomposition-walk-built": lambda: decompose(3, 15)[0],
}


@pytest.mark.parametrize("build", INSTANCES.values(), ids=INSTANCES.keys())
def test_instances_are_slotted_with_no_dict(build):
    value = build()
    assert not hasattr(value, "__dict__")
    with pytest.raises(FrozenInstanceError):
        value.unknown_attribute = 1


class TestSquareFreeLevel:
    def test_positional_and_keyword_construction(self):
        assert SquareFreeLevel((3, 5)) == SquareFreeLevel(primes=(3, 5))
        assert SquareFreeLevel(primes=(7,)).primes == (7,)

    def test_equality_is_by_value_and_class(self):
        assert SquareFreeLevel((3, 5)) == SquareFreeLevel((3, 5))
        assert SquareFreeLevel((3, 5)) != SquareFreeLevel((3, 7))
        assert SquareFreeLevel((3, 5)) != (3, 5)
        assert SquareFreeLevel((3, 5)).__eq__((3, 5)) is NotImplemented

    def test_hash_matches_the_field_tuple(self):
        a, b = SquareFreeLevel((3, 5, 7)), SquareFreeLevel((3, 5, 7))
        assert hash(a) == hash(b) == hash(((3, 5, 7),))
        assert {a: "x"}[b] == "x"
        assert len({a, b, SquareFreeLevel((3,))}) == 2

    def test_repr_and_str(self):
        level = SquareFreeLevel((3, 5))
        assert repr(level) == "SquareFreeLevel(primes=(3, 5))"
        assert str(level) == "15"
        assert level.N == 15

    def test_assignment_and_deletion_raise(self):
        level = SquareFreeLevel((3, 5))
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'primes'"):
            level.primes = (3,)
        with pytest.raises(FrozenInstanceError, match="cannot assign to field 'other'"):
            level.other = 1
        with pytest.raises(FrozenInstanceError, match="cannot delete field 'primes'"):
            del level.primes
        assert level.primes == (3, 5)

    def test_match_args(self):
        assert SquareFreeLevel.__match_args__ == ("primes",)

    def test_copy_and_pickle_round_trip(self):
        level = SquareFreeLevel((3, 5))
        assert copy.copy(level) == level
        assert copy.deepcopy(level) == level
        assert pickle.loads(pickle.dumps(level)) == level

    def test_checks_run_on_keyword_construction(self):
        with pytest.raises(InputError):
            SquareFreeLevel(primes=())
        with pytest.raises(EvenLevelError):
            SquareFreeLevel(primes=(2,))
        with pytest.raises(NotPrimeError):
            SquareFreeLevel(primes=(3, 15))


class TestTableSpec:
    def test_defaults(self):
        spec = TableSpec("full")
        assert (spec.family, spec.weights, spec.levels, spec.fmt, spec.group_digits) == (
            "full", (), (), "text", False)

    def test_positional_and_keyword_construction(self):
        positional = TableSpec("principal", (4,), (3, 5), "csv", True)
        keyword = TableSpec(family="principal", weights=(4,), levels=(3, 5), fmt="csv",
                            group_digits=True)
        assert positional == keyword
        assert TableSpec(**dict(family="gamma0", weights=(4,), levels=(3,))) == TableSpec(
            "gamma0", (4,), (3,))

    def test_too_many_arguments(self):
        with pytest.raises(TypeError):
            TableSpec("full", (), (), "text", False, "extra")
        with pytest.raises(TypeError):
            TableSpec(family="full", colour="red")
        with pytest.raises(TypeError):
            TableSpec()

    def test_equality_is_by_value_and_class(self):
        assert TableSpec("full", weights=(10,)) == TableSpec("full", (10,))
        assert TableSpec("full", weights=(10,)) != TableSpec("full", weights=(10,), fmt="csv")
        assert TableSpec("full", weights=(10,)) != ("full", (10,), (), "text", False)
        assert TableSpec("full").__eq__(("full", (), (), "text", False)) is NotImplemented

    def test_equal_specs_are_one_dict_key(self):
        a = TableSpec("principal", weights=(4,), levels=(3, 15))
        b = TableSpec("principal", (4,), (3, 15), "text", False)
        assert hash(a) == hash(b) == hash(("principal", (4,), (3, 15), "text", False))
        assert {a: 1, b: 2} == {a: 2}

    def test_repr(self):
        assert repr(TableSpec("full", weights=(10,))) == (
            "TableSpec(family='full', weights=(10,), levels=(), fmt='text', group_digits=False)"
        )
        assert repr(TableSpec("principal", (4,), (15,), "json", True)) == (
            "TableSpec(family='principal', weights=(4,), levels=(15,), fmt='json', "
            "group_digits=True)"
        )

    @pytest.mark.parametrize("field", ["family", "weights", "levels", "fmt", "group_digits"])
    def test_assignment_and_deletion_raise(self, field):
        spec = TableSpec("full", weights=(10,))
        with pytest.raises(FrozenInstanceError, match=f"cannot assign to field '{field}'"):
            setattr(spec, field, None)
        with pytest.raises(FrozenInstanceError, match=f"cannot delete field '{field}'"):
            delattr(spec, field)
        assert spec == TableSpec("full", weights=(10,))

    def test_match_args(self):
        assert TableSpec.__match_args__ == ("family", "weights", "levels", "fmt", "group_digits")

    def test_copy_and_pickle_round_trip(self):
        spec = TableSpec("principal", (4,), (3, 15), "latex", True)
        assert copy.copy(spec) == spec
        assert pickle.loads(pickle.dumps(spec)) == spec


DECOMPOSITIONS = {
    "constructed": lambda: Decomposition({14: 1}, 3, 15),
    "walk-built": lambda: decompose(3, 15)[0],
}
DECOMPOSITION_REPRS = {
    "constructed": "Decomposition(multiplicities={14: 1}, prime=3, target=15)",
    "walk-built": (
        "Decomposition(multiplicities={1: 0, 2: 0, 3: 0, 4: 0, 5: 0, 6: 0, 7: 0, 8: 0, "
        "9: 0, 10: 0, 11: 0, 12: 0, 13: 0, 14: 1, 15: 0}, prime=3, target=15)"
    ),
}
DECOMPOSITION_FIELDS = {
    "constructed": ({14: 1}, 3, 15),
    "walk-built": (WALK_MULTIPLICITIES, 3, 15),
}


@pytest.mark.parametrize("kind", DECOMPOSITIONS)
class TestDecomposition:
    @pytest.mark.parametrize("field", ["multiplicities", "prime", "target", "_counts", "other"])
    def test_exact_assignment_and_deletion_messages(self, kind, field):
        sol = DECOMPOSITIONS[kind]()
        with pytest.raises(FrozenInstanceError) as assigned:
            setattr(sol, field, None)
        assert str(assigned.value) == f"cannot assign to field '{field}'"
        with pytest.raises(FrozenInstanceError) as deleted:
            delattr(sol, field)
        assert str(deleted.value) == f"cannot delete field '{field}'"
        assert sol == DECOMPOSITIONS[kind]()

    def test_exact_repr(self, kind):
        assert repr(DECOMPOSITIONS[kind]()) == DECOMPOSITION_REPRS[kind]

    def test_reduce_calls_the_constructor_with_the_fields(self, kind):
        sol = DECOMPOSITIONS[kind]()
        assert sol.__reduce__() == (Decomposition, DECOMPOSITION_FIELDS[kind])
        assert Decomposition(*sol.__reduce__()[1]) == sol

    def test_equality_is_by_value_and_class(self, kind):
        sol = DECOMPOSITIONS[kind]()
        assert sol == Decomposition(*DECOMPOSITION_FIELDS[kind])
        assert sol.__eq__(DECOMPOSITION_FIELDS[kind]) is NotImplemented
        assert sol != Decomposition({15: 2}, 3, 12)


def test_decomposition_is_unhashable_by_declaration():
    assert Decomposition.__hash__ is None


class TestSequencesAreStoredAsTuples:
    def test_square_free_level_copies_a_list(self):
        primes = [3, 5]
        level = SquareFreeLevel(primes)
        assert level == SquareFreeLevel((3, 5))
        assert hash(level) == hash(SquareFreeLevel((3, 5)))
        primes.append(9)
        assert level.primes == (3, 5) and level.N == 15

    def test_table_spec_copies_lists(self):
        weights, levels = [4], [5, 7]
        spec = TableSpec("principal", weights=weights, levels=levels)
        assert spec == TableSpec("principal", (4,), (5, 7))
        assert hash(spec) == hash(TableSpec("principal", (4,), (5, 7)))
        weights.append(6)
        levels.append(9)
        assert (spec.weights, spec.levels) == ((4,), (5, 7))

    def test_paramodular_spec_from_lists_renders(self):
        assert emit_table(TableSpec("paramodular", weights=[4], levels=[5, 7])) == (
            emit_table(TableSpec("paramodular", weights=(4,), levels=(5, 7))))


class TestDecompositionValidation:
    @pytest.mark.parametrize("count", [0.5, 1.0, "1", None])
    def test_non_integer_multiplicity_is_refused(self, count):
        with pytest.raises(InputError, match="is not an integer"):
            Decomposition({11: count}, 3, 15)

    def test_negative_multiplicity_message_is_kept(self):
        with pytest.raises(InputError, match=r"^multiplicity c_14 = -1 is negative$"):
            Decomposition({14: -1}, 3, -15)

    def test_index_rule_is_irrep_dims(self):
        with pytest.raises(IndexOutOfRangeError,
                           match=r"^representation index must be in 1\.\.17, got 18$"):
            Decomposition({18: 1}, 3, 0)

    def test_prime_is_checked_without_terms(self):
        with pytest.raises(EvenPrimeError):
            Decomposition({}, 2, 0)


class TestNonIntegerValuesAreRefused:
    """Every integer field of the value classes takes only an ``int``, the
    rule ``Decomposition`` applies to its counts."""

    @pytest.mark.parametrize("primes", [[3.0, 5], [3, "5"], [True]])
    def test_square_free_level(self, primes):
        with pytest.raises(InputError, match="is not an integer"):
            SquareFreeLevel(primes)

    @pytest.mark.parametrize("index", [14.0, "14", None])
    def test_decomposition_index_through_irrep_dim(self, index):
        message = rf"^representation index {index!r} is not an integer$"
        with pytest.raises(IndexOutOfRangeError, match=message):
            irrep_dim(index, 3)
        with pytest.raises(IndexOutOfRangeError, match=message):
            Decomposition({index: 1}, 3, 15)

    @pytest.mark.parametrize("weights,levels", [("10", ()), ((4,), (3.0,)), ((4.5,), ())])
    def test_table_spec(self, weights, levels):
        with pytest.raises(InputError, match="must be integers"):
            TableSpec("principal", weights=weights, levels=levels)
