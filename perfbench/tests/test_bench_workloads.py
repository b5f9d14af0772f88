from collections import Counter

import numpy as np
import pytest

import workloads
from hbortho import parse_symbol


def _describe(workload, seed, rounds, tmp_path):
    return [[r.describe() for r in batch] for batch in workloads.generate(workload, seed, rounds, str(tmp_path))]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_same_seed_same_requests(name, tmp_path):
    w = workloads.WORKLOADS[name]
    assert _describe(w, 7, 3, tmp_path) == _describe(w, 7, 3, tmp_path)
    assert _describe(w, 7, 3, tmp_path) != _describe(w, 8, 3, tmp_path)


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_rounds_depend_only_on_seed_and_index(name, tmp_path):
    w = workloads.WORKLOADS[name]
    assert _describe(w, 3, 2, tmp_path) == _describe(w, 3, 5, tmp_path)[:2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_every_round_has_the_same_mix(name, tmp_path):
    w = workloads.WORKLOADS[name]

    def mix(batch):
        # recurrence degrees are drawn; structure sizes cycle over rounds (cheap)
        return Counter((r.label, None if r.label in ("cli-recurrence", "cli-structure") else r.n) for r in batch)

    first = mix(workloads.generate(w, 1, 1, str(tmp_path))[0])
    for seed in (1, 2):
        for batch in workloads.generate(w, seed, 4, str(tmp_path)):
            assert len(batch) == w.round_size
            assert mix(batch) == first


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_probe_is_seeded_and_apart_from_the_timed_classes(name, tmp_path):
    w = workloads.WORKLOADS[name]
    probe = [r.describe() for r in workloads.probe_requests(w, 4, str(tmp_path))]
    assert probe == [r.describe() for r in workloads.probe_requests(w, 4, str(tmp_path))]
    timed = {(g.label, n, cls) for g in w.groups for n, cls in g.pattern}
    assert timed.isdisjoint(w.probe)


def test_spec_matches_program_symbol(tmp_path):
    rng = np.random.default_rng(0)
    for cls in ("sarason", "blaschke", "o1", "o2", "o3", "m1", "m2", "m3", "stream", "r1", "r2", "catalog"):
        spec = workloads._spec(rng, cls)
        phi = spec.build()
        assert np.allclose(spec.taylor(200), phi.taylor(200), rtol=1e-12, atol=1e-12), cls
        if spec.compose == 1:
            assert parse_symbol(spec.text()) == phi


def test_catalog_specs_match_catalog():
    from hbortho import catalog

    for entry in catalog():
        spec = workloads.catalog_spec(entry.name)
        assert np.allclose(spec.taylor(64), entry.phi.taylor(64), atol=1e-12)
