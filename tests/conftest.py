"""Test-session setup shared by every test module.

When a ``@given`` test fails, hypothesis's pytest plugin imports
``hypothesis.extra._patching`` to suggest an explicit example.  Where
``libcst`` is installed, that import raises a DeprecationWarning from one of
libcst's own dependencies, which ``error::DeprecationWarning`` in
``pyproject.toml`` turns into an error: pytest then ends in INTERNALERROR and
prints no falsifying example.  Importing the module once here, with that
warning ignored, lets the failure report its input; the filter stays in force
for all test code.  Without ``libcst`` the import fails, and the plugin skips
the suggestion on its own.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
