"""The public API: 31 names, each loaded from its home module on first use."""

import importlib

import pytest

import otto_tls


ROOT_NAMES = {"OttoError", "DomainError"}


def test_each_name_is_its_home_modules_object():
    # The error types are defined in the package root; every other name in
    # a submodule other than cli.
    for name in otto_tls.__all__:
        obj = getattr(otto_tls, name)
        home = obj.__module__
        if name in ROOT_NAMES:
            assert home == "otto_tls", name
        else:
            assert home.startswith("otto_tls.") and home != "otto_tls.cli", name
        assert vars(importlib.import_module(home))[name] is obj, name


def test_all_lists_distinct_names():
    assert len(otto_tls.__all__) == len(set(otto_tls.__all__)) == 31


def test_dir_covers_all():
    assert set(otto_tls.__all__) <= set(dir(otto_tls))


def test_star_import_binds_exactly_all():
    namespace = {}
    exec("from otto_tls import *", namespace)
    del namespace["__builtins__"]
    assert set(namespace) == set(otto_tls.__all__)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="eig_hermitian2"):
        otto_tls.eig_hermitian2
