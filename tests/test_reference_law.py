"""The exact metrics against the independent reference of reference_law.py."""

import pytest

from satcuma.metrics import ergodic_rate, mean_sinr, outage_exact

from reference_law import (log1p_sinr_s, log1p_sinr_s_mpmath, mean_sinr_s, mean_sinr_s_mpmath,
                           outage_s, outage_s_mpmath, outage_theta, preset_rows, rate_s)

ROWS = preset_rows("outage_exact")
MEAN_ROWS = preset_rows("mean_sinr")
RATE_ROWS = preset_rows("rate_exact")

# rows where today's uncut theta integral misses the cut law (ROADMAP item 1)
_ITEM_1_ROWS = {"fig3/W=2,U=5,gamma=0.35/mu=2", "fig3/W=2,U=5,gamma=0.35/mu=3",
                "fig3/W=2,U=5,gamma=0.35/mu=4", "fig4/W=2,U=5/K=9", "fig4/W=4,U=5/K=9",
                "fig4/W=2,U=8/K=9"}
_ITEM_1 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 1: outage_exact integrates the uncut "
                                   "law past the noise-floor angle")

# rows where the density's inner integral misses its Gaussian window (ROADMAP item 3)
_ITEM_3_ROWS = {"fig3/W=2,U=5,gamma=0.35/mu=2", "fig3/W=2,U=5,gamma=0.35/mu=3",
                "fig4/W=4,U=5/K=9"}
_ITEM_3 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 3: mean_sinr integrates a density "
                                   "that misses its Gaussian window")

# rows where the rate of the uncut outage, integrated by parts up to its
# root, misses the cut law (ROADMAP item 2): every fig7 and fig8 row at U=5
# but fig8's "B=1e+07" mu=58, and five of fig9
_ITEM_2_FIG9 = {"fig9/mu=10/U=4", "fig9/mu=10/U=7", "fig9/mu=10/U=10", "fig9/mu=10/U=13",
                "fig9/mu=50/U=4"}
_ITEM_2 = pytest.mark.xfail(strict=True, raises=AssertionError,
                            reason="ROADMAP item 2: ergodic_rate integrates the uncut "
                                   "outage up to its root")


def _in_item_2(row):
    if row.preset == "fig9":
        return row.label in _ITEM_2_FIG9
    return row.sc.users.U == 5 and row.label != "fig8/N-CUMA,U=5,B=1e+07/mu=58"


def test_rows_are_every_preset_outage_row_with_interferers():
    assert len(ROWS) == 69
    assert _ITEM_1_ROWS <= {r.label for r in ROWS}


def test_rows_are_every_preset_mean_and_rate_row_with_interferers():
    assert len(MEAN_ROWS) == 69
    assert _ITEM_3_ROWS <= {r.label for r in MEAN_ROWS}
    assert len(RATE_ROWS) == 84
    assert sum(map(_in_item_2, RATE_ROWS)) == 37
    assert _ITEM_2_FIG9 | {"fig8/N-CUMA,U=5,B=1e+07/mu=58"} <= {r.label for r in RATE_ROWS}


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


@pytest.mark.parametrize("label", ["fig3/W=2,U=5,gamma=0.35/mu=2",
                                   "fig3/W=2,U=5,gamma=0.35/mu=3",
                                   "fig3/W=2,U=5,gamma=0.35/mu=4",
                                   "fig4/W=4,U=5/K=9"])
def test_mean_sinr_reference_matches_mpmath(label):
    row = next(r for r in MEAN_ROWS if r.label == label)
    ref = mean_sinr_s_mpmath(row.sc)
    assert abs(mean_sinr_s(row.sc) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("label", ["fig8/N-CUMA,U=5,B=1e+07/mu=4",
                                   "fig8/N-CUMA,U=5,B=2e+07/mu=4"])
def test_rate_reference_matches_mpmath(label):
    row = next(r for r in RATE_ROWS if r.label == label)
    ref = log1p_sinr_s_mpmath(row.sc)
    assert abs(log1p_sinr_s(row.sc) - ref) <= 1e-11 * abs(ref)


@pytest.mark.parametrize("row", [
    pytest.param(r, id=r.label, marks=[_ITEM_1] if r.label in _ITEM_1_ROWS else [])
    for r in ROWS])
def test_outage_exact_matches_reference(row):
    ref = outage_s(row.gamma, row.sc)
    r = outage_exact(row.gamma, row.sc)
    assert abs(r.value - ref) <= r.est_error + 1e-9 * abs(ref)


@pytest.mark.parametrize("row", [
    pytest.param(r, id=r.label, marks=[_ITEM_3] if r.label in _ITEM_3_ROWS else [])
    for r in MEAN_ROWS])
def test_mean_sinr_matches_reference(row):
    # mean_sinr reports no error estimate: the table's est_error of these rows is 0
    ref = mean_sinr_s(row.sc)
    assert abs(mean_sinr(row.sc) - ref) <= 1e-9 * abs(ref)


@pytest.mark.parametrize("row", [
    pytest.param(r, id=r.label, marks=[_ITEM_2] if _in_item_2(r) else [])
    for r in RATE_ROWS])
def test_rate_exact_matches_reference(row):
    ref = rate_s(row.sc)
    r = ergodic_rate(row.sc)
    assert abs(r.value - ref) <= r.est_error + 1e-9 * abs(ref)
