"""Setup shim: editable installs plus the *optional* compiled kernel tier.

The C extension ``repro._kernels`` carries C twins of the Gaze, vBerti,
PMP and Triangel train loops (see ``src/repro/prefetchers/compiled.py``) and carries the
``DriverKernel`` batched driver loop (see ``src/repro/sim/driver.py``),
which runs the whole single-core simulation chunk-at-a-time in C under
``kernel="compiled"``.  It is strictly optional —
``Extension(..., optional=True)`` makes a missing compiler or headers a
warning rather than a build failure, and every consumer falls back to
the pure-Python object prefetchers when the artifact is absent.

Build it in place with::

    python setup.py build_ext --inplace

Debug/sanitizer tier
--------------------
``REPRO_DEBUG_KERNELS=1 python setup.py build_ext --inplace`` compiles
the extension with internal invariant assertions (LRU chain integrity,
MSHR occupancy accounting, stat-delta conservation; see the
``REPRO_DEBUG_KERNELS`` block in ``src/repro/_kernels.c``).  The checks
are read-only, so a debug build stays bit-identical to a release build —
the module exports ``DEBUG_KERNELS`` (0/1) so tests can tell which
variant is loaded.  Combine with ASan/UBSan via ``CFLAGS``/``LDFLAGS``
(see ``.github/workflows/ci.yml``, lane ``kernel-sanitize``).
"""

import os
import sys

from setuptools import Extension, setup

# MSVC takes neither -Wall-style spellings nor -g; everything else we
# target (gcc, clang) takes both.
_msvc = sys.platform == "win32"
extra_compile_args = [] if _msvc else ["-Wall", "-Wextra"]
define_macros = []
undef_macros = []

if os.environ.get("REPRO_DEBUG_KERNELS") == "1":
    define_macros.append(("REPRO_DEBUG_KERNELS", "1"))
    # Keep assert-friendly codegen: no NDEBUG, symbols, light optimisation.
    undef_macros.append("NDEBUG")
    if not _msvc:
        extra_compile_args += ["-g", "-O1"]

setup(
    ext_modules=[
        Extension(
            "repro._kernels",
            sources=["src/repro/_kernels.c"],
            optional=True,
            extra_compile_args=extra_compile_args,
            define_macros=define_macros,
            undef_macros=undef_macros,
        )
    ]
)
