"""The verifier's seeded samples, which the library builds on integer
forms, against the Fraction builders of tests/reference.py: for seeds
0-19 every instance's sample has the forms of the reference sample, at the
default sizes and at each limit of build_instance."""

from functools import lru_cache

import pytest

import reference
from evslib.cli import main
from evslib.instances import (MAX_CARRIER, MAX_DEPTH, MAX_SAMPLE,
                              build_instance, point_set)
from evslib.rationals import to_ints

NAMES = ("metrics", "metrics-reversed-order", "metrics-no-abs-scale",
         "norms", "cone", "hyperspace")
DEFAULTS = {"carrier": 6, "depth": 12, "dim": 2, "sample": 50}
SIZES = {"default": {}, "max-sample": {"sample": MAX_SAMPLE},
         "max-carrier": {"carrier": MAX_CARRIER},
         "max-depth": {"depth": MAX_DEPTH}}
SEEDS = range(20)


def upper(full: tuple) -> tuple:
    """The upper triangle of a full table, diagonal included, row by row:
    the entries of a metric's integer form."""
    return tuple(x for i, row in enumerate(full) for x in row[i:])


@lru_cache(maxsize=None)
def expected(kind: str, carrier: int, depth: int, dim: int, sample: int,
             seed: int) -> list:
    """The integer forms of the reference sample of an instance kind."""
    if kind == "metrics":
        return [to_ints(upper(full)) for full in
                reference.metric_sample(carrier, seed, sample)]
    if kind == "norms":
        return [to_ints(t) for t in reference.norm_sample(depth, seed,
                                                          sample)]
    if kind == "cone":
        return [to_ints(e) for e in reference.cone_sample(dim, seed, sample)]
    return [point_set(a) for a in reference.hyper_sample(dim, seed, sample)]


@pytest.mark.parametrize("size", SIZES)
@pytest.mark.parametrize("name", NAMES)
def test_seeded_samples_are_the_reference_forms(name, size):
    sizes = {**DEFAULTS, **SIZES[size]}
    kind = "metrics" if name.startswith("metrics") else name
    for seed in SEEDS:
        _, sample, _ = build_instance(name, seed=seed, **sizes)
        assert sample == expected(kind, seed=seed, **sizes), seed


@pytest.mark.parametrize("seed", SEEDS)
def test_norms_sample_at_the_least_depth(seed):
    """At depth 4 the backbone is {h0, h2}, so the second family norm's C
    is h0 alone: it is every member but one."""
    _, sample, _ = build_instance("norms", depth=4, seed=seed)
    assert sample == expected("norms", 6, 4, 2, 50, seed)


def test_axioms_on_norms_at_the_least_depth(capsys):
    """`evs axioms --instance norms --depth 4` verifies its sample: it does
    not refuse a family parameter that the user never gave."""
    code = main(["axioms", "--instance", "norms", "--seed", "0", "--depth",
                 "4"])
    out = capsys.readouterr().out
    assert code == 0, out
    assert '"instance": "norms[10 probes]"' in out
