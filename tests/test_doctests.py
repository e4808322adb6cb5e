"""The docstring examples of every package module run as part of the suite."""

import doctest
import importlib
import pkgutil

import groupoid_homology


def test_docstring_examples_pass():
    modules = [groupoid_homology] + [
        importlib.import_module(f"groupoid_homology.{info.name}")
        for info in pkgutil.iter_modules(groupoid_homology.__path__)
    ]
    failed = attempted = 0
    for module in modules:
        result = doctest.testmod(module)
        failed += result.failed
        attempted += result.attempted
    assert failed == 0
    assert attempted > 0
