"""Atomic checkpoint/resume of the agglomerative outer loop.

A snapshot captures everything the outer loop needs to continue from the
top of its next iteration: the golden-section anchor triplet (including
their blockmodels), the pending candidate blockmodel and its MDL, the
iteration and sweep counters, accumulated phase timings and the search
history. Because all randomness in a run is a pure function of
``(seed, phase tag, sweep)`` (see :mod:`repro.utils.rng`), no RNG state
needs saving — a resumed run replays the exact uninterrupted chain.

On-disk layout (one directory per run)::

    state_00007.json           # manifest, written last, atomically
    state_00007.current.npz    # candidate blockmodel
    state_00007.anchor0.npz    # golden-section anchors (absent if unset)
    state_00007.anchor1.npz
    run_00.result.json         # best-of-N: completed run results
    run_00.result.digest       # best-of-N: config digest of that run
    run_00/                    # best-of-N: per-run snapshot directory

The manifest is written *after* its ``.npz`` companions via
:func:`~repro.io.serialize.atomic_write`, so a crash mid-save leaves at
worst orphaned ``.npz`` files and the previous snapshot intact; loading
walks snapshots newest-first and skips damaged ones.
"""

from __future__ import annotations

import hashlib
import json
import os
import re
from dataclasses import dataclass, field
from pathlib import Path

from repro.core.partition_search import GoldenSectionSearch
from repro.core.results import SBPResult
from repro.core.variants import SBPConfig
from repro.errors import CheckpointError, SerializationError
from repro.io.serialize import (
    atomic_write,
    load_blockmodel,
    load_result,
    save_blockmodel,
    save_result,
)
from repro.sbm.blockmodel import Blockmodel
from repro.utils.log import get_logger

__all__ = ["RunCheckpoint", "RunCheckpointer", "config_digest"]

_log = get_logger("resilience.checkpoint")

_CHECKPOINT_FORMAT = "repro.run_checkpoint"
_CHECKPOINT_VERSION = 1
_MANIFEST_RE = re.compile(r"^state_(\d{5})\.json$")

#: Config fields that determine the chain (and therefore the result).
#: Backend choices are deliberately excluded: every execution backend is
#: bit-identical by construction, so a run checkpointed under
#: ``--backend distributed:pipes:2`` may resume under ``--backend serial``.
#: ``block_storage`` IS included even though its engines are
#: bit-identical too: dense and sparse matrices maintain state through
#: different code paths, so a resume that silently switched engines would
#: mask exactly the class of drift the equivalence tests exist to catch —
#: a mismatch is rejected, not papered over.
_DETERMINISM_FIELDS = (
    "variant",
    "seed",
    "beta",
    "vstar_fraction",
    "num_batches",
    "tier_split",
    "mcmc_threshold",
    "mcmc_threshold_final",
    "max_sweeps",
    "merge_proposals_per_block",
    "block_reduction_rate",
    "block_storage",
    # SamBaS front-end: the sample (and therefore every later chain
    # position) is a pure function of these, so a resume under a
    # different rate/sampler/batching must be refused.
    "sample_rate",
    "sampler",
    "extension_batches",
)


def config_digest(config: SBPConfig) -> str:
    """Hash of the chain-determining config fields (resume compatibility)."""
    payload = {name: getattr(config, name) for name in _DETERMINISM_FIELDS}
    payload["variant"] = str(payload["variant"])
    blob = json.dumps(payload, sort_keys=True).encode("utf-8")
    return hashlib.sha256(blob).hexdigest()[:16]


@dataclass
class RunCheckpoint:
    """Outer-loop state at the top of iteration ``outer + 1``."""

    outer: int
    total_sweeps: int
    bm: Blockmodel
    mdl: float
    #: golden-section anchor triplet, as ``(blockmodel | None, mdl)``
    anchors: list[tuple[Blockmodel | None, float]]
    search_history: list[tuple[int, float]] = field(default_factory=list)
    timings: dict[str, float] = field(default_factory=dict)
    config_digest: str = ""

    def restore_search(self, search: GoldenSectionSearch) -> None:
        search.restore_anchors(self.anchors)


class RunCheckpointer:
    """Writes and reads :class:`RunCheckpoint` snapshots in a directory.

    Parameters
    ----------
    directory:
        Snapshot directory; created on first save.
    keep_last:
        Completed snapshots retained; older ones are pruned after each
        successful save (>= 1 so a valid snapshot always survives).
    """

    def __init__(self, directory: str | os.PathLike[str], keep_last: int = 2) -> None:
        if keep_last < 1:
            raise ValueError(f"keep_last must be >= 1, got {keep_last}")
        self.directory = Path(directory)
        self.keep_last = keep_last

    def child(self, name: str) -> "RunCheckpointer":
        """A checkpointer for a nested run (best-of-N member runs)."""
        return RunCheckpointer(self.directory / name, keep_last=self.keep_last)

    # ------------------------------------------------------------------
    # Snapshots
    # ------------------------------------------------------------------
    def save(self, state: RunCheckpoint) -> Path:
        """Atomically persist ``state``; returns the manifest path."""
        self.directory.mkdir(parents=True, exist_ok=True)
        stem = f"state_{state.outer:05d}"
        current_file = f"{stem}.current.npz"
        save_blockmodel(state.bm, self.directory / current_file)
        anchors_meta: list[dict[str, object]] = []
        for idx, (bm, mdl) in enumerate(state.anchors):
            entry: dict[str, object] = {"mdl": mdl, "file": None}
            if bm is not None:
                anchor_file = f"{stem}.anchor{idx}.npz"
                save_blockmodel(bm, self.directory / anchor_file)
                entry["file"] = anchor_file
            anchors_meta.append(entry)
        manifest = {
            "format": _CHECKPOINT_FORMAT,
            "version": _CHECKPOINT_VERSION,
            "outer": state.outer,
            "total_sweeps": state.total_sweeps,
            "mdl": state.mdl,
            "current": current_file,
            "anchors": anchors_meta,
            "search_history": [[int(c), float(m)] for c, m in state.search_history],
            "timings": state.timings,
            "config_digest": state.config_digest,
        }
        manifest_path = self.directory / f"{stem}.json"
        with atomic_write(manifest_path) as fh:
            json.dump(manifest, fh, indent=2)
        self._prune()
        return manifest_path

    def load(self) -> RunCheckpoint | None:
        """Return the latest valid snapshot, or None for a fresh directory.

        Damaged snapshots (truncated manifest, unreadable blockmodel,
        unknown version) are skipped with a warning; if snapshots exist
        but none is loadable a :class:`CheckpointError` is raised so a
        half-destroyed checkpoint directory is never silently ignored.
        """
        manifests = self._manifests()
        if not manifests:
            return None
        errors: list[str] = []
        for path in reversed(manifests):
            try:
                return self._load_one(path)
            except SerializationError as exc:
                _log.warning("skipping damaged checkpoint %s: %s", path, exc)
                errors.append(str(exc))
        raise CheckpointError(
            f"{self.directory}: no valid checkpoint among {len(manifests)} "
            f"snapshot(s); last error: {errors[-1]}"
        )

    def has_snapshot(self) -> bool:
        return bool(self._manifests())

    def _load_one(self, path: Path) -> RunCheckpoint:
        try:
            with open(path, "r", encoding="utf-8") as fh:
                manifest = json.load(fh)
        except (json.JSONDecodeError, UnicodeDecodeError, OSError) as exc:
            raise SerializationError(
                f"{path}: corrupt or truncated manifest ({exc})"
            ) from exc
        if not isinstance(manifest, dict) or manifest.get("format") != _CHECKPOINT_FORMAT:
            raise SerializationError(f"{path}: not a run checkpoint manifest")
        version = manifest.get("version", 0)
        if not isinstance(version, int) or version < 1 or version > _CHECKPOINT_VERSION:
            raise SerializationError(
                f"{path}: unsupported checkpoint version {version!r} "
                f"(supported: 1..{_CHECKPOINT_VERSION})"
            )
        try:
            bm = load_blockmodel(self.directory / str(manifest["current"]))
            anchors: list[tuple[Blockmodel | None, float]] = []
            for entry in manifest["anchors"]:
                anchor_bm = (
                    load_blockmodel(self.directory / str(entry["file"]))
                    if entry["file"] is not None
                    else None
                )
                anchors.append((anchor_bm, float(entry["mdl"])))
            return RunCheckpoint(
                outer=int(manifest["outer"]),
                total_sweeps=int(manifest["total_sweeps"]),
                bm=bm,
                mdl=float(manifest["mdl"]),
                anchors=anchors,
                search_history=[
                    (int(c), float(m)) for c, m in manifest["search_history"]
                ],
                timings={
                    str(k): float(v) for k, v in manifest["timings"].items()
                },
                config_digest=str(manifest["config_digest"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise SerializationError(
                f"{path}: malformed checkpoint field ({exc!r})"
            ) from exc

    def _manifests(self) -> list[Path]:
        if not self.directory.is_dir():
            return []
        found = [
            p for p in self.directory.iterdir() if _MANIFEST_RE.match(p.name)
        ]
        return sorted(found)

    def _prune(self) -> None:
        for stale in self._manifests()[: -self.keep_last]:
            stem = stale.name[: -len(".json")]
            # Drop the manifest first so a partial prune can't leave a
            # manifest pointing at deleted blockmodels.
            stale.unlink(missing_ok=True)
            for companion in self.directory.glob(f"{stem}.*.npz"):
                companion.unlink(missing_ok=True)

    # ------------------------------------------------------------------
    # Best-of-N bookkeeping
    # ------------------------------------------------------------------
    def _result_path(self, index: int) -> Path:
        return self.directory / f"run_{index:02d}.result.json"

    def _result_digest_path(self, index: int) -> Path:
        return self.directory / f"run_{index:02d}.result.digest"

    def save_completed(
        self, index: int, result: SBPResult, digest: str = ""
    ) -> None:
        """Record a finished best-of-N member run (plus its config digest)."""
        self.directory.mkdir(parents=True, exist_ok=True)
        save_result(result, self._result_path(index))
        if digest:
            with atomic_write(self._result_digest_path(index)) as fh:
                fh.write(digest)

    def load_completed(self, index: int, digest: str = "") -> SBPResult | None:
        """Load a finished member run; None if absent, warn if damaged.

        When ``digest`` is given and the stored run carries a digest
        sidecar, a mismatch raises :class:`CheckpointError` — replaying
        a result computed under a different configuration would
        silently bypass the resume-compatibility check that in-progress
        snapshots already enforce. Results saved without a sidecar
        (older checkpoints) are accepted as before.
        """
        path = self._result_path(index)
        if not path.exists():
            return None
        digest_path = self._result_digest_path(index)
        if digest and digest_path.exists():
            stored = digest_path.read_text(encoding="utf-8").strip()
            if stored != digest:
                raise CheckpointError(
                    f"{path}: completed run was produced by an incompatible "
                    "configuration (seed/variant/chain parameters differ); "
                    "refusing to reuse it"
                )
        try:
            return load_result(path)
        except SerializationError as exc:
            _log.warning("ignoring damaged best-of result %s: %s", path, exc)
            return None
