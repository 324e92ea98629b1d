"""Value semantics of ``SquareFreeLevel`` and ``TableSpec``: construction,
equality, hashing, repr and immutability, as the frozen dataclasses they
replace defined them."""

import copy
import pickle
from dataclasses import FrozenInstanceError

import pytest

from siegel_dims.arithmetic import SquareFreeLevel
from siegel_dims.errors import EvenLevelError, InputError, NotPrimeError
from siegel_dims.tables import TableSpec


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
