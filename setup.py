"""Setuptools shim for legacy editable installs (pip install -e .).

All metadata lives in setup.cfg; this file exists so environments
without the ``wheel`` package (offline clusters) can still do editable
installs through the legacy setup.py code path.
"""

from setuptools import setup

setup()
