"""The difference report of ``solver_corpus.py --against REV --diff`` on
two small synthetic dumps."""

import copy
import math

from solver_corpus import compare

DUMP = {
    "random_gains": [{"allocation": {"pw1": 0.25, "beta3": 0.5}, "method": "numeric"},
                     {"allocation": {"pw1": 0.0, "beta3": 1.0}, "method": "trivial"}],
    "grid_region": [[{"restriction": "composite", "vertices": 1}, {"r1": 0.75, "r2": 0.0}]],
    "cli": ["classify", "0", "x,y,beta3"],
}


def test_identical_dumps_read_identical():
    assert compare(DUMP, copy.deepcopy(DUMP), "REV") == [
        "random_gains: identical", "grid_region: identical", "cli: identical"]


def test_moved_float_and_changed_count_are_reported():
    moved = copy.deepcopy(DUMP)
    moved["random_gains"][1]["allocation"]["beta3"] = math.nextafter(1.0, 0.0)
    moved["grid_region"][0][0]["vertices"] = 2
    moved["cli"][2] = "x,y,pw1"
    del moved["cli"][1]
    assert compare(DUMP, moved, "REV") == [
        "random_gains: 1 floats moved, max abs 1.11e-16, max rel 1.11e-16; 0 other values changed; "
        "2 records here, 2 at REV; first at #1",
        "grid_region: 0 floats moved, max abs 0, max rel 0; 1 other values changed; "
        "1 records here, 1 at REV; first at #0",
        "cli: 0 floats moved, max abs 0, max rel 0; 1 other values changed; 3 records here, 2 at REV; first at #1",
    ]
