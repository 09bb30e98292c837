"""The exact outage against the independent reference of reference_law.py."""

import pytest

from satcuma.metrics import outage_exact

from reference_law import outage_s, outage_s_mpmath, outage_theta, preset_outage_rows

ROWS = preset_outage_rows()

# rows where today's uncut theta integral misses the cut law (ROADMAP item 1)
_ITEM_1_ROWS = {"fig3/W=2,U=5,gamma=0.35/mu=2", "fig3/W=2,U=5,gamma=0.35/mu=3",
                "fig3/W=2,U=5,gamma=0.35/mu=4", "fig4/W=2,U=5/K=9", "fig4/W=4,U=5/K=9",
                "fig4/W=2,U=8/K=9"}
_ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 1: outage_exact integrates the uncut "
                                   "law past the noise-floor angle")


def test_rows_are_every_preset_outage_row_with_interferers():
    assert len(ROWS) == 69
    assert _ITEM_1_ROWS <= {r.label for r in ROWS}


def test_s_and_theta_routes_agree():
    for row in ROWS:
        s, theta = outage_s(row.gamma, row.sc), outage_theta(row.gamma, row.sc)
        assert abs(s - theta) <= 1e-12, (row.label, s, theta)


@pytest.mark.parametrize("label", ["fig3/W=2,U=5,gamma=0.35/mu=2",
                                   "fig3/W=2,U=5,gamma=0.35/mu=3",
                                   "fig3/W=2,U=5,gamma=0.35/mu=4",
                                   "fig4/W=4,U=5/K=9"])
def test_s_route_matches_mpmath(label):
    row = next(r for r in ROWS if r.label == label)
    ref = outage_s_mpmath(row.gamma, row.sc)
    assert abs(outage_s(row.gamma, row.sc) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("row", [
    pytest.param(r, id=r.label, marks=[_ITEM_1] if r.label in _ITEM_1_ROWS else [])
    for r in ROWS])
def test_outage_exact_matches_reference(row):
    ref = outage_s(row.gamma, row.sc)
    r = outage_exact(row.gamma, row.sc)
    assert abs(r.value - ref) <= r.est_error + 1e-9 * abs(ref)
