"""Record contracts: the package's result and config types are immutable
NamedTuples, and the ones that validate do so however they are built."""

import importlib
import json
import pkgutil
from fractions import Fraction

import pytest

import stirlingzero
from stirlingzero.algebra import MultiPoly
from stirlingzero.bridge import BridgeInstance, BridgeReport
from stirlingzero.config_sums import (ConfigSumInstance, ConfigSumResult, NonzeroConfirmation,
                                      SweepEntry)
from stirlingzero.ledger import LedgerRecord
from stirlingzero.partitions import GroundSet
from stirlingzero.series_vanishing import ExpansionConfig, VanishingCheck


def _records():
    ground = GroundSet.numeric([2, 3])
    inst = ConfigSumInstance(2, 0, ground)
    result = ConfigSumResult(inst, Fraction(0), 3, 0.0)
    bridge = BridgeInstance((2, 3), 0)
    return [
        ground,
        inst,
        result,
        NonzeroConfirmation(Fraction(1), ground, Fraction(1)),
        SweepEntry(inst, "asserted", result=result),
        ExpansionConfig(h_max=2),
        VanishingCheck(1, 3, MultiPoly.zero(), 2),
        bridge,
        BridgeReport(bridge, MultiPoly.zero(), result),
        LedgerRecord("part1", {"g": 2}, "asserted", "zero", "0"),
    ]


RECORDS = _records()


def test_every_public_record_is_covered():
    # each public NamedTuple the package defines is one of RECORDS' types
    modules = [importlib.import_module(f"stirlingzero.{info.name}")
               for info in pkgutil.iter_modules(stirlingzero.__path__)
               if info.name != "__main__"]
    defined = {obj for module in modules for name, obj in vars(module).items()
               if isinstance(obj, type) and issubclass(obj, tuple) and hasattr(obj, "_fields")
               and obj.__module__ == module.__name__ and not name.startswith("_")}
    assert defined == {type(record) for record in RECORDS}


@pytest.mark.parametrize("record", RECORDS, ids=lambda r: type(r).__name__)
def test_fields_cannot_be_assigned(record):
    for name in record._fields:
        with pytest.raises(AttributeError):
            setattr(record, name, getattr(record, name))
    with pytest.raises(AttributeError):
        record.note = "added"
    assert not hasattr(record, "note")


def test_ground_stays_frozen_with_its_cached_table():
    ground = GroundSet.numeric([Fraction(1, 2), 3])
    den, sums = ground.scaled_sums
    assert ground.scaled_sums is ground.scaled_sums
    for name in ("values", "scaled_sums", "names"):
        with pytest.raises(AttributeError, match="GroundSet is immutable"):
            setattr(ground, name, None)
    assert ground.scaled_sums == (den, sums) == (2, (0, 1, 6, 7))
    assert ground.block_sum(3) == Fraction(7, 2)


class TestValidatedRecords:
    GROUND = GroundSet.numeric([1, 2, 3])

    @pytest.mark.parametrize("change, message", [
        (dict(g=1, ground=GroundSet.numeric([1])), "need g >= 2"),
        (dict(w=-1), "w >= 0, got g=3, w=-1"),
        (dict(ground=GroundSet.numeric([1, 2])), "ground set size does not match g"),
        (dict(w=0.0), "is not an integer"),
        (dict(g=True), "is not an integer"),
    ], ids=["g-small", "w-negative", "ground-size", "w-float", "g-bool"])
    def test_instance_refuses_built_or_replaced(self, change, message):
        fields = {"g": 3, "w": 1, "ground": self.GROUND, **change}
        with pytest.raises(ValueError, match=message):
            ConfigSumInstance(**fields)
        with pytest.raises(ValueError, match=message):
            ConfigSumInstance(3, 1, self.GROUND)._replace(**change)
        with pytest.raises(ValueError, match=message):
            ConfigSumInstance._make(fields.values())

    @pytest.mark.parametrize("w", [2, 9], ids=["w-large", "w-far"])
    def test_instance_takes_any_w_built_or_replaced(self, w):
        # the band w <= g-2 is checked where a zero is claimed, not by the type
        for inst in (ConfigSumInstance(3, w, self.GROUND),
                     ConfigSumInstance(3, 1, self.GROUND)._replace(w=w),
                     ConfigSumInstance._make((3, w, self.GROUND))):
            assert inst == (3, w, self.GROUND) and type(inst) is ConfigSumInstance

    def test_instance_replace_normalizes(self):
        inst = ConfigSumInstance(3, 1, self.GROUND)._replace(w=Fraction(0))
        assert inst == (3, 0, self.GROUND)
        assert type(inst) is ConfigSumInstance and type(inst.w) is int

    @pytest.mark.parametrize("change, message", [
        (dict(s_max=2), "need s_max >= 5"),
        (dict(h_max=0), "need h_max >= 1"),
        (dict(h_max=6), "need s_max >= 7"),
        (dict(j_samples=(5, 5, 6, 7, 8, 9, 10, 11, 12)), "distinct"),
        (dict(j_samples=range(4, 13)), r"must be >= h_max\+1 = 5"),
        (dict(j_samples=range(5, 13)), "needs 9 j samples, got 8"),
        (dict(s_max=6.0), "is not an integer"),
    ], ids=["s-small", "h-zero", "h-past-s", "j-repeat", "j-low", "j-few", "s-float"])
    def test_config_refuses_built_or_replaced(self, change, message):
        # h_max = 4 derives s_max = 6 and j_samples = 5..16
        fields = {"h_max": 4, "s_max": 6, "j_samples": range(5, 17), **change}
        with pytest.raises(ValueError, match=message):
            ExpansionConfig(**fields)
        with pytest.raises(ValueError, match=message):
            ExpansionConfig(h_max=4)._replace(**change)
        with pytest.raises(ValueError, match=message):
            ExpansionConfig._make(fields.values())


def test_ledger_record_without_extra_writes_an_empty_object():
    first = LedgerRecord("part2", {"H": 1}, "asserted", "zero", "0")
    second = LedgerRecord("part2", {"H": 2}, "asserted", "zero", "0")
    assert first.extra is None and second.extra is None
    assert json.loads(first.to_json())["extra"] == {}
    assert '"extra": {}' in second.to_json()
    kept = first._replace(extra={"j_degree_at_order": 2})
    assert json.loads(kept.to_json())["extra"] == {"j_degree_at_order": 2}
