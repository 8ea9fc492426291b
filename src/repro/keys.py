"""Shared content-addressing primitives: key version, digests, seeds.

Every content-addressed key in the repository — the run-level key of
:func:`repro.batch.cache.cache_key` and the per-stage keys of
:class:`repro.synthesis.pipeline.SynthesisPipeline` — embeds the single
:data:`KEY_VERSION` constant below, and every disk-cache entry is wrapped in
an envelope carrying it.  Bump it exactly once per incompatible change of
any cached payload's semantics; stale disk entries from an older version are
then ignored (treated as misses and dropped), never unpickled into the
wrong shape.

The module deliberately has no repro-internal imports so every layer
(graph generators, the router, the batch cache) can use it without cycles.
"""

from __future__ import annotations

import hashlib
import json
from typing import Any

#: Version of all content-addressed cache keys and disk-entry envelopes.
#: v1: run-level keys over (graph, config) pairs (PR 1).
#: v2: staged pipeline — per-stage keys, artifact payloads, FlowConfig.seed.
#: v3: solver backends — scheduler_backend/archsyn_backend/mip_rel_gap join
#:     the stage config slices, and stage artifacts carry backend identity.
#: v4: stochastic verification — the verify_* FlowConfig fields, the
#:     optional verify stage, and simulation problems in artifact payloads.
#: v5: aggregated verification reports — VerificationArtifact payloads now
#:     carry a TrialAggregate (and elide per-trial detail on large runs),
#:     so v4 pickles must not unpickle into the new report shape; also
#:     excludes runtime-advice fields (verify_workers) from run-level keys.
#: v6: solver provenance moves into a SolveRecord on the artifact's
#:     Schedule/ChipArchitecture, so v5 artifact pickles would replay with
#:     their provenance silently dropped.
#: v7: counter-based Monte-Carlo draws replace the per-trial Mersenne
#:     Twister streams, so every cached verification report changes.
#: v8: SolveRecord gains ``bound``, and a scheduling solve whose warm start
#:     meets the certified lower bound returns that warm start, so a stage
#:     key may now hold a different optimal point than the one cached before.
#: v9: SolveRecord loses ``fallback_used``, and the default backend becomes
#:     ``highs`` (``branch-and-bound`` without scipy), so v8 artifact
#:     pickles no longer match the record's shape.
#: v10: a HiGHS scheduling solve that carries a verified warm start skips
#:     HiGHS's feasibility-jump heuristic, and HiGHS then returns another
#:     optimal point (same objective) for some stage keys.
#: v11: normal jitter samples each rounded duration by exact inverse CDF
#:     from one draw instead of by Box-Muller from two, so every cached
#:     normal-jitter verification report changes.
KEY_VERSION = 11


def stable_digest(payload: Any) -> str:
    """SHA-256 hex digest of a JSON-serializable payload.

    The payload is serialized with sorted keys and no whitespace, so dicts
    hash equal regardless of insertion order and the digest is stable across
    processes and Python versions (unlike built-in ``hash()``, which is
    randomized per process).
    """
    blob = json.dumps(payload, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def derive_job_id(payload: Any, sequence: int) -> str:
    """Derive the id of one synthesis-service job from its manifest body.

    The id is ``job-<digest12>-<sequence>``: a 12-hex-digit prefix of the
    manifest's :func:`stable_digest` (version-stamped, so a
    :data:`KEY_VERSION` bump renames every job id together with every cache
    key) plus the server-assigned submission sequence number.  The digest
    prefix makes identical submissions *recognizable* — two clients posting
    the same sweep see ids sharing a prefix — while the sequence keeps every
    submission individually addressable, so re-posting a manifest yields a
    fresh job whose stages replay from cache rather than a collision.
    """
    digest = stable_digest({"version": KEY_VERSION, "manifest": payload})
    return f"job-{digest[:12]}-{sequence}"


def derive_seed(root_seed: int, label: str) -> int:
    """Derive a stable 63-bit sub-seed from ``root_seed`` for ``label``.

    Lets one root seed fan out into independent, reproducible streams (one
    per generated assay, one for router tie-breaking) without the streams
    correlating.  Uses SHA-256 rather than ``hash()`` so the derivation is
    identical in every worker process.
    """
    blob = f"{root_seed}:{label}".encode("utf-8")
    return int.from_bytes(hashlib.sha256(blob).digest()[:8], "big") >> 1
