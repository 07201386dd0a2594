"""Checkpoint files written by hand, for the tests of what `spc.encoder` reads.

Format 1 is JSON text: `write_format_1` writes the bytes of one `json.dumps`
of a payload (`format_1_payload` gives a model's), which is what the
format-1 writer wrote. Format 2 is an `np.savez` archive of a model's
tensors and a JSON "header" member: `write_format_2` writes one from a
header and members (`format_2_parts` gives a model's) that a test may have
edited, so a save of the same model gives the same bytes.
"""

from __future__ import annotations

import json

import numpy as np

from spc.encoder import EncoderParams


def format_1_payload(params: EncoderParams) -> dict:
    return {"format_version": 1, "kind": params.kind, "arch": dict(params.arch),
            "tensors": {name: {"shape": list(t.values.shape), "values": t.values.ravel().tolist()}
                        for name, t in params.tensors.items()}}


def write_format_1(path, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(payload))


def format_2_parts(params: EncoderParams) -> tuple[dict, dict[str, np.ndarray]]:
    """The header and the tensor members of a model's format-2 checkpoint."""
    header = {"format_version": 2, "kind": params.kind, "arch": dict(params.arch)}
    return header, {name: t.values.copy() for name, t in params.tensors.items()}


def write_format_2(path, header, members: dict) -> None:
    """`members`, then a "header" member: the JSON text of `header` if it is
    a dict, no header if it is None, else `header` itself (an array)."""
    if header is not None:
        members = {**members, "header": json.dumps(header) if isinstance(header, dict) else header}
    with open(path, "wb") as fh:
        np.savez(fh, **{name: np.asarray(value) for name, value in members.items()})
