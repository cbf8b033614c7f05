"""The program under test: linsetlab and its modules, by short name.

This module imports nothing but importlib, so that a set-up process
that starts with it pays for every module the program itself imports.
"""

import importlib

LIB_MODULES = ("gf", "linalg", "linpoly", "dickson", "linset", "classify")


class Lib:
    """The imported package and its modules, by short name."""

    def __init__(self):
        self.package = importlib.import_module("linsetlab")
        for name in LIB_MODULES:
            setattr(self, name, importlib.import_module(f"linsetlab.{name}"))

    def modules(self) -> dict:
        mods = {name: getattr(self, name) for name in LIB_MODULES}
        mods["package"] = self.package
        return mods
