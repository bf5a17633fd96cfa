"""Shared test set-up.

Warnings fail the run (``filterwarnings = ["error"]`` in pyproject.toml).
When a property test fails, hypothesis builds its report with
``hypothesis.extra._patching``, whose first import pulls in libcst, and libcst
defines types with ``mypy_extensions.TypedDict``, which warns that it is
deprecated.  Raised inside the report, that warning stops pytest with an
internal error, and no later test runs.  Importing the module once here, with
warnings ignored, keeps the failure a reported one.  Every warning the tests
and qwsearch raise stays an error.
"""

import warnings

with warnings.catch_warnings():
    warnings.simplefilter("ignore")
    import hypothesis.extra._patching  # noqa: F401
