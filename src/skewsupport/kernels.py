"""Kernel selection: compiled extension when available, pure Python otherwise.

Set SKEWSUPPORT_PURE=1 to force the pure backend (useful for benchmarking and
for debugging the compiled twin).
"""

import os

from skewsupport.config import ENV_PURE

if os.environ.get(ENV_PURE) == "1":
    from skewsupport import _kernels_py as _impl
else:
    try:
        from skewsupport import _kernels as _impl  # type: ignore[attr-defined]
    except ImportError:
        from skewsupport import _kernels_py as _impl

descent_tally = _impl.descent_tally
lr_tally = _impl.lr_tally
BACKEND: str = _impl.BACKEND
