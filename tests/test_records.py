"""Every record of the package is a plain named tuple: it has no instance
dictionary, so nothing rides beside its fields, and its equality and
hashing are those of its fields."""

import pytest

from hodge_series import recursion, rootdata
from hodge_series.formulas import closed_terms
from hodge_series.recursion import enumerate_hn_types, verify_recursion
from hodge_series.rootdata import build_root_system, parse_group


def _records():
    spec = parse_group("GL3xSO5")
    datum = build_root_system(spec)
    hn = enumerate_hn_types(spec, (2, 1), 2, 15)[0]
    return {
        "FTerm": closed_terms(datum, datum.fund_residues(datum.lift_degree((2, 1))), 2)[1],
        "HNType": hn,
        "LeviDatum": datum.levi((0, 2)),
        "RecursionReport": verify_recursion(spec, (2, 1), 2, 12),
        "_HNSetup": recursion._hn_setup(datum, hn.I),
        "GroupSpec": spec,
        "_Family": rootdata._FAMILY["SOodd"],
    }


@pytest.mark.parametrize("name", ["FTerm", "HNType", "LeviDatum", "RecursionReport",
                                  "_HNSetup", "GroupSpec", "_Family"])
def test_record_is_its_fields(name):
    rec = _records()[name]
    assert type(rec).__name__ == name
    assert not hasattr(rec, "__dict__")
    copy = type(rec)(*rec)
    assert copy == rec == tuple(rec)
    try:
        expect = hash(tuple(rec))
    except TypeError:  # a field is a dict, as an FTerm's den
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(copy) == expect
