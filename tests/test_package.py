"""Tests for the package namespace: each public name is listed once, in its module."""

import importlib

import pytest

import loem

SUBMODULES = [
    importlib.import_module(f"loem.{name}")
    for name in ("errors", "estimation", "information", "probes", "quantum")
]


def test_no_name_exported_by_two_submodules():
    # a duplicate would make the later star import silently win
    names = [name for module in SUBMODULES for name in module.__all__]
    assert len(names) == len(set(names))


def test_every_public_name_is_the_defining_module_object():
    defining = {name: module for module in SUBMODULES for name in module.__all__}
    assert sorted(loem.__all__) == sorted(defining)
    for name in loem.__all__:
        assert getattr(loem, name) is getattr(defining[name], name), name


@pytest.mark.parametrize(
    "name",
    ["crb_bound", "SingularBoundError", "check_state", "Estimate", "mle_closed_form", "loem_state"]
    + ["sample_counts", "mle_grid", "sld_pure", "phase_shifted_family", "antiparallel_state", "qubit_unitary"]
    + ["tensor_product"],
)
def test_deleted_name_absent(name):
    assert not hasattr(loem, name)
