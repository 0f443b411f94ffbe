"""Setuptools shim so ``pip install -e .`` works without the ``wheel`` package.

The project declares no packaging metadata beyond what ``setup()`` infers;
this file only enables legacy editable installs (``pip install -e .
--no-use-pep517``) in offline environments that lack PEP 660 build
requirements.  The tests and tools run from a checkout with
``PYTHONPATH=src``.
"""

from setuptools import setup

setup()
