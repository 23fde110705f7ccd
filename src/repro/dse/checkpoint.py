"""The checkpoint envelope shared by the DSE and composition explorers.

A checkpoint is one JSON object written with
:func:`repro.utils.fsio.atomic_write`: ``version``, the *pinned*
settings the trajectory depends on (seed, budgets, fidelity knobs, ...),
the explorer's human-readable *fields* (iteration, history, objective,
...), and ``state_blob``, a base64 pickle of the state that must
round-trip bit-exactly (ADGs whose warm routes name link ids, surrogate
training buffers). Resuming refuses any file whose version or pinned
settings differ from the running explorer's, naming the mismatched key,
because a resumed run must replay the uninterrupted trajectory.
"""

import base64
import json
import pickle

from repro.errors import DseError
from repro.utils.fsio import atomic_write

__all__ = ["load_checkpoint", "save_checkpoint"]


def save_checkpoint(path, version, pinned, fields, state):
    """Atomically write the envelope for ``(pinned, fields, state)``."""
    record = {
        "version": version,
        **pinned,
        **fields,
        "state_blob": base64.b64encode(pickle.dumps(state)).decode("ascii"),
    }
    atomic_write(path, json.dumps(record).encode())


def load_checkpoint(path, version, pinned):
    """``(record, state)`` from ``path``, or :class:`DseError` when its
    version or a pinned setting differs from ``version``/``pinned``."""
    with open(path) as handle:
        record = json.load(handle)
    for key, value in {"version": version, **pinned}.items():
        if record.get(key) != value:
            raise DseError(
                f"checkpoint {path!r} was written with "
                f"{key}={record.get(key)!r}; this run uses {value!r} — "
                "resuming would break trajectory determinism"
            )
    state = pickle.loads(base64.b64decode(record.pop("state_blob")))
    return record, state
