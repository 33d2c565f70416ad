"""Test-session setup shared by every test module."""

import warnings

# hypothesis imports its failing-example patch writer, and through it
# libcst, from a pytest hook; libcst warns on import (DeprecationWarning from
# mypy_extensions), which under -W error turns a falsifying example into an
# INTERNALERROR.  Importing it here once, with that warning ignored, leaves
# the library's own DeprecationWarnings as errors.
with warnings.catch_warnings():
    warnings.simplefilter("ignore", DeprecationWarning)
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass
