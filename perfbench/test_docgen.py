"""Checks of the benchmark's own input generator and expectations.

    PYTHONPATH=src python3 -m pytest perfbench/test_docgen.py
"""

import json
import random

import pytest

import docgen
import expect
from lf_forge import (
    LefschetzFibration,
    fibration_certificate,
    isomorphism_certificate,
    ishikawa_fibration,
    johns_fibration,
)

BUILDERS = {"johns": johns_fibration, "ishikawa": ishikawa_fibration}


@pytest.mark.parametrize("genus", range(9))
@pytest.mark.parametrize("construction", sorted(BUILDERS))
def test_relabelled_documents_keep_the_oriented_fibration(construction, genus):
    canonical = BUILDERS[construction](genus)
    cert = fibration_certificate(canonical)
    assert expect.check_certificate(cert, construction, genus) is None
    other = BUILDERS["ishikawa" if construction == "johns" else "johns"](genus)
    for seed in range(3):
        doc = docgen.relabel(canonical.to_json_dict(), random.Random(seed))
        assert doc != canonical.to_json_dict()
        relabelled = LefschetzFibration.from_json_dict(json.loads(json.dumps(doc)))
        assert json.dumps(fibration_certificate(relabelled), indent=2) == json.dumps(cert, indent=2)
        found = isomorphism_certificate(relabelled, other)
        assert expect.check_comparison(found, relabelled.names(), other.names(),
                                       same_genus=True, preserving=True) is None


@pytest.mark.parametrize("genus", range(5))
def test_mirrored_documents_compare_orientation_reversing(genus):
    doc = docgen.mirror(docgen.relabel(ishikawa_fibration(genus).to_json_dict(), random.Random(genus)))
    mirrored = LefschetzFibration.from_json_dict(doc)
    other = johns_fibration(genus)
    found = isomorphism_certificate(mirrored, other)
    assert expect.check_comparison(found, mirrored.names(), other.names(),
                                   same_genus=True, preserving=False) is None


def test_relabel_is_seeded():
    doc = ishikawa_fibration(2).to_json_dict()
    assert docgen.relabel(doc, random.Random(7)) == docgen.relabel(doc, random.Random(7))
    assert docgen.relabel(doc, random.Random(7)) != docgen.relabel(doc, random.Random(8))


def test_signs_follow_twist_bits():
    fiber = ishikawa_fibration(1).fiber
    assert docgen.local_signs(fiber.to_json_dict()) == fiber.local_orientations()
