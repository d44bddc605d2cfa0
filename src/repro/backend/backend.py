"""Supported dtypes and operand coercion for the compute substrate.

There is no ambient dtype: every op computes in the dtype of its inputs
and allocates its own output, so a model's precision is the dtype of its
parameters (``model.to(np.float32)`` selects single precision). Raw
python scalars and sequences that enter the substrate without a dtype
become ``float64``, the precision training and the gradient checks need.
"""

from __future__ import annotations

import numpy as np

#: Dtypes the substrate supports. float16 is deliberately absent: numpy
#: computes float16 by round-tripping through float32, so it is slower
#: *and* less precise — there is no hardware half-precision to exploit.
SUPPORTED_DTYPES = (np.float32, np.float64)

#: Canonicalised once — ``resolve_dtype`` sits on the per-op hot path
#: (every tensor allocation), so the membership check must not rebuild
#: the supported list per call.
_SUPPORTED_RESOLVED = frozenset(np.dtype(d) for d in SUPPORTED_DTYPES)
_FLOAT64 = np.dtype(np.float64)


def resolve_dtype(dtype: "str | np.dtype | type | None") -> np.dtype:
    """Canonicalise ``dtype`` (name, numpy type or dtype) to ``np.dtype``.

    ``None`` resolves to ``float64``, so callers can thread an optional
    dtype straight through without branching.
    """
    if dtype is None:
        return _FLOAT64
    resolved = np.dtype(dtype)
    if resolved not in _SUPPORTED_RESOLVED:
        raise ValueError(
            f"unsupported dtype {resolved}; supported: "
            f"{[np.dtype(d).name for d in SUPPORTED_DTYPES]}"
        )
    return resolved


def asarray(value, dtype: "str | np.dtype | type | None" = None) -> np.ndarray:
    """Coerce ``value`` to an array of ``dtype`` (``float64`` if None).

    This is the single place raw python ints/floats/sequences acquire a
    dtype — binary ops route their non-tensor operand through here with
    the tensor operand's dtype, so a ``float32`` graph is never silently
    upcast by a python scalar.
    """
    return np.asarray(value, dtype=resolve_dtype(dtype))
