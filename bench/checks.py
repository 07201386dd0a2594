"""Output checks on one finished `spc` command, and the digest of its results.

A command passes when it exited 0, wrote exactly one run directory holding
`report.json` and `manifest.json`, every artifact hash in the manifest
matches the file on disk, and its headline number beats chance. The digest
covers the `results` block of `report.json` only (not `timing`), so reruns
of the same code on the same inputs give the same digest.
"""

from __future__ import annotations

import hashlib
import json
import os


def find_run_dir(out_root: str) -> str | None:
    """The single run directory a command wrote under its own output root."""
    if not os.path.isdir(out_root):
        return None
    found = [os.path.join(out_root, d) for d in sorted(os.listdir(out_root))
             if os.path.isfile(os.path.join(out_root, d, "manifest.json"))]
    return found[0] if len(found) == 1 else None


def _sha256(path: str) -> str:
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(1 << 20), b""):
            h.update(chunk)
    return h.hexdigest()


def headline(kind: str, results: dict, classes: int) -> tuple[float, float]:
    """(headline value, its chance level) for a command on a `classes`-way task.

    Macro-F1 of a constant or random predictor is at most 1/C on the
    class-balanced splits the workloads use; the adjusted Rand index is 0.
    """
    if kind == "train":
        return results["summary"]["mean"], 1.0 / classes
    if kind == "sweep":
        return max(row["test_mean"] for row in results["rows"]), 1.0 / classes
    if kind == "noise-study":
        return min(row["mean"] for row in results["rows"]), 1.0 / classes
    if kind == "eval":
        return results["metrics"]["macro_f1"], 1.0 / classes
    if kind == "repr-quality":
        return results["ari_median"], 0.0
    raise KeyError(kind)


def check(kind: str, returncode: int, out_root: str, classes: int) -> tuple[list[str], str | None]:
    """Return (problems, results digest); no problems means the command passed."""
    if returncode != 0:
        return [f"{kind}: exit code {returncode}"], None
    run_dir = find_run_dir(out_root)
    if run_dir is None:
        return [f"{kind}: expected one run directory under {out_root}"], None
    report_path = os.path.join(run_dir, "report.json")
    if not os.path.isfile(report_path):
        return [f"{kind}: report.json missing"], None
    with open(report_path, encoding="utf-8") as fh:
        results = json.load(fh)["results"]
    with open(os.path.join(run_dir, "manifest.json"), encoding="utf-8") as fh:
        manifest = json.load(fh)
    problems = []
    for name, expected in sorted(manifest.get("artifacts", {}).items()):
        path = os.path.join(run_dir, name)
        if not os.path.isfile(path) or _sha256(path) != expected:
            problems.append(f"{kind}: artifact {name} does not match its manifest hash")
    if "report.json" not in manifest.get("artifacts", {}):
        problems.append(f"{kind}: manifest lists no report.json")
    if kind == "gen-data":
        if results["classes"] != classes or results["rows"] < 1:
            problems.append(f"{kind}: wrote {results['rows']} rows of {results['classes']} classes")
    else:
        value, chance = headline(kind, results, classes)
        if not value > chance:
            problems.append(f"{kind}: headline {value:.4f} is not above chance {chance:.4f}")
    digest = hashlib.sha256(json.dumps(results, sort_keys=True).encode("utf-8")).hexdigest()
    return problems, digest


def combined_digest(digests) -> str:
    """One digest over a pass's per-command digests, in order."""
    return hashlib.sha256("\n".join(d or "-" for d in digests).encode("utf-8")).hexdigest()
