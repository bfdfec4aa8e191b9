"""Unit tests for the topology object model (repro.netsim.topology)."""

import numpy as np
import pytest

from repro.netsim.topology import Binder, Bras, Dslam, Topology


def make_valid_topology():
    """2 BRAS x 2 DSLAMs x 3 lines each."""
    dslams = [
        Dslam(dslam_id=0, bras_id=0, geo=0, line_ids=np.array([0, 1, 2])),
        Dslam(dslam_id=1, bras_id=1, geo=1, line_ids=np.array([3, 4, 5])),
    ]
    brases = [
        Bras(bras_id=0, dslam_ids=np.array([0])),
        Bras(bras_id=1, dslam_ids=np.array([1])),
    ]
    line_dslam = np.array([0, 0, 0, 1, 1, 1])
    line_bras = np.array([0, 0, 0, 1, 1, 1])
    return Topology(brases=brases, dslams=dslams,
                    line_dslam=line_dslam, line_bras=line_bras)


class TestTopology:
    def test_valid_topology_passes(self):
        make_valid_topology().validate()

    def test_counts(self):
        topo = make_valid_topology()
        assert topo.n_lines == 6
        assert topo.n_dslams == 2
        assert topo.n_brases == 2

    def test_lines_of_dslam(self):
        topo = make_valid_topology()
        assert list(topo.lines_of_dslam(1)) == [3, 4, 5]

    def test_detects_orphan_line(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([3, 4]))  # line 5 orphaned
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_double_homed_line(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([2, 3, 4, 5]))  # line 2 twice
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_bad_bras_reference(self):
        topo = make_valid_topology()
        topo.dslams[0] = Dslam(dslam_id=0, bras_id=7, geo=0,
                               line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_line_map_mismatch(self):
        topo = make_valid_topology()
        topo.line_dslam = np.array([1, 0, 0, 1, 1, 1])  # line 0 misfiled
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_line_bras_mismatch(self):
        topo = make_valid_topology()
        topo.line_bras = np.array([1, 1, 1, 0, 0, 0])  # every line on the other BRAS
        with pytest.raises(ValueError, match="line_bras"):
            topo.validate()

    def test_detects_bras_membership_mismatch(self):
        topo = make_valid_topology()
        topo.brases[0] = Bras(bras_id=0, dslam_ids=np.array([0, 1]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_empty_dslam(self):
        topo = make_valid_topology()
        topo.dslams.append(
            Dslam(dslam_id=2, bras_id=1, geo=0, line_ids=np.empty(0, dtype=int))
        )
        with pytest.raises(ValueError, match="serves no lines"):
            topo.validate()

    def test_detects_out_of_range_bras_in_bras_list(self):
        topo = make_valid_topology()
        topo.brases[1] = Bras(bras_id=1, dslam_ids=np.array([1, 9]))
        with pytest.raises(ValueError, match="out-of-range DSLAM"):
            topo.validate()

    def test_detects_out_of_range_line_ids(self):
        topo = make_valid_topology()
        topo.dslams[1] = Dslam(dslam_id=1, bras_id=1, geo=1,
                               line_ids=np.array([3, 4, 99]))
        with pytest.raises(ValueError, match="out-of-range lines"):
            topo.validate()


def with_binders(topo):
    """Attach one binder per DSLAM covering all of its lines."""
    topo.binders = [
        Binder(binder_id=i, dslam_id=i, line_ids=d.line_ids.copy())
        for i, d in enumerate(topo.dslams)
    ]
    topo.line_binder = topo.line_dslam.copy()
    return topo


class TestBinders:
    def test_valid_binder_layer_passes(self):
        topo = with_binders(make_valid_topology())
        topo.validate()
        assert topo.has_binders
        assert topo.n_binders == 2
        assert topo.binder_of_line(4) == 1
        assert list(topo.lines_of_binder(0)) == [0, 1, 2]
        assert topo.dslam_of_binder(1) == 1

    def test_no_binders_is_still_valid(self):
        topo = make_valid_topology()
        topo.validate()
        assert not topo.has_binders
        assert topo.binder_of_line(0) == -1

    def test_line_binder_without_binders_rejected(self):
        topo = make_valid_topology()
        topo.line_binder = topo.line_dslam.copy()
        with pytest.raises(ValueError, match="no binders defined"):
            topo.validate()

    def test_detects_uncovered_line(self):
        topo = with_binders(make_valid_topology())
        topo.binders[1] = Binder(binder_id=1, dslam_id=1,
                                 line_ids=np.array([3, 4]))  # line 5 loose
        with pytest.raises(ValueError, match="no binder"):
            topo.validate()

    def test_detects_cross_dslam_binder(self):
        topo = with_binders(make_valid_topology())
        topo.binders[0] = Binder(binder_id=0, dslam_id=1,
                                 line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_line_binder_mismatch(self):
        topo = with_binders(make_valid_topology())
        topo.line_binder = np.array([0, 1, 0, 1, 1, 1])  # line 1 misfiled
        with pytest.raises(ValueError):
            topo.validate()

    def test_detects_misnumbered_binder(self):
        topo = with_binders(make_valid_topology())
        topo.binders[0] = Binder(binder_id=5, dslam_id=0,
                                 line_ids=np.array([0, 1, 2]))
        with pytest.raises(ValueError, match="list position"):
            topo.validate()
