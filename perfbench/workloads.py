"""The three benchmark workloads: inputs, one op each, and its verdict.

Every op is a pure function of its op seed, and op seeds are derived from
the workload seed alone (:func:`op_seed`), so a run's op sequence does not
depend on timing.  ``run`` is the timed call into the program; ``check``
applies the workload's verdict and returns the bytes that feed the run's
output digest.  Why each workload exists is written in its ``why``.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
from dataclasses import dataclass


def op_seed(workload: str, seed: int, index: int) -> int:
    """63-bit seed of op ``index`` of a run, from the workload seed only."""
    digest = hashlib.sha256(f"{workload}:{seed}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "big") >> 1


# Warm-up ops use a seed outside every run's op sequence, so set-up costs
# the same whatever the workload seed is.
WARMUP_SEED = -1

# A timed run's output digest covers its first DIGEST_OPS ops, not all of
# them: how many ops a run completes depends on machine speed.  Every gated
# workload completes about 140 ops or more in a 60-second run on a 2-core
# 2.1 GHz Xeon, so every run reaches this prefix and two runs with one seed
# digest the same ops.
DIGEST_OPS = 50


def canonical(obj) -> bytes:
    """Canonical JSON bytes of a library result (sorted keys, exact floats)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")).encode()


@dataclass
class Verdict:
    ok: bool
    material: bytes
    reason: str = ""


class TreeSearch:
    """Library API on one long-lived depth-6 binary tree (n=127), R=1, S=5."""

    name = "tree-search"
    why = (
        "library API on one depth-6 binary tree: compress, column search and "
        "refinement over balls of which 124 of 127 are non-maximal"
    )

    depth, band_radius, loc_radius, search_budget, power = 6, 1, 5, 6, 2

    def setup(self, workdir: str) -> None:
        import normloc as nl

        self.nl = nl
        self.space = nl.generate_family("binary_tree", {"depth": self.depth})
        self.certificate = nl.subset_to_vector(
            nl.tree_ray_certificate(self.space, self.loc_radius)
        )

    def run(self, seed: int):
        nl = self.nl
        profile = nl.onl_profile(
            self.space,
            self.band_radius,
            self.loc_radius,
            samples=1,
            seed=seed,
            search_budget=self.search_budget,
            certificate=self.certificate,
        )
        sample = nl.random_banded(
            self.space, self.band_radius, profile.sample_seeds[0]
        )
        witness = nl.power_trick_witness(sample, self.loc_radius, self.power)
        return profile, witness

    def check(self, result) -> Verdict:
        profile, witness = result
        reports = list(profile.sample_reports)
        reports += [rep for _, rep in profile.probe_reports]
        ok = (
            profile.consistent is True
            and all(rep.chain_ok for rep in reports)
            and witness.measured_ratio >= witness.threshold - 1e-10
        )
        material = canonical(
            {"profile": profile.to_json(), "witness": witness.to_json()}
        )
        return Verdict(ok, material, "" if ok else "tree-search verdict failed")


class CliWorkload:
    """Ops that call ``normloc.cli.main`` in-process, reloading the space."""

    name = ""
    why = ""
    space_argv: tuple = ()
    artifacts: tuple = ()

    def setup(self, workdir: str) -> None:
        from normloc import cli

        self.cli = cli
        self.space_path = os.path.join(workdir, "space.json")
        self.out = os.path.join(workdir, "out")
        code, text = self._call(
            ["space", "gen", *self.space_argv, "--out", self.space_path]
        )
        if code != 0:
            raise RuntimeError(f"space gen exited {code}: {text}")

    def _call(self, argv: list) -> tuple[int, str]:
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(buf):
            code = self.cli.main(argv)
        return code, buf.getvalue()

    def argv(self, seed: int) -> list:
        raise NotImplementedError

    def run(self, seed: int):
        for suffix in self.artifacts:
            with contextlib.suppress(FileNotFoundError):
                os.unlink(self.out + suffix)
        return self._call(self.argv(seed))

    def verdict(self, files: dict) -> bool:
        """Workload-specific check of the artifacts of an op that exited 0."""
        return True

    def check(self, result) -> Verdict:
        code, text = result
        files = {}
        material = hashlib.sha256()
        material.update(f"exit={code}\n".encode())
        material.update(text.encode())
        for suffix in self.artifacts:
            try:
                with open(self.out + suffix, "rb") as fh:
                    files[suffix] = fh.read()
            except FileNotFoundError:
                files[suffix] = None
            material.update(suffix.encode() + b"\0")
            material.update(files[suffix] or b"<missing>")
        ok = code == 0 and self.verdict(files)
        reason = "" if ok else f"exit {code}: {text.strip()[-200:]}"
        return Verdict(ok, material.digest(), reason)


class EquivCycle(CliWorkload):
    """``normloc equiv run`` on the 60-cycle, R=1, S=10, ball certificate."""

    name = "equiv-cycle"
    why = (
        "CLI equiv run on the 60-cycle: O(n^4) kernel extraction and exact "
        "Gram work, every ball maximal, space reloaded per op"
    )
    artifacts = (".json", ".csv")
    space_argv = ("--kind", "cycle", "--n", "60")

    def argv(self, seed: int) -> list:
        return [
            "equiv", "run", "--space", self.space_path,
            "--band-radius", "1", "--loc-radius", "10",
            "--certificate", "ball", "--samples", "2",
            "--profile-samples", "1", "--budget", "4",
            "--seed", str(seed), "--out", self.out,
        ]

    def verdict(self, files: dict) -> bool:
        doc = json.loads(files[".json"])
        return doc["epsilon"]["epsilon_exact"] == "1/7"


class CbWide(CliWorkload):
    """``normloc cb check`` on a 260-cycle with amplification 2 (side 520).

    Runnable, but not among the workloads ``BENCHMARK.json`` gates: the
    single-vector power iteration in ``_top_right_vector`` makes op times
    range from 0.1 s to 6 s by seed.  Resampling 150 measured op times, the
    interquartile range of 50-second runs is 21% of the median for
    ``ops_per_s`` and 42% for ``op_p90_ms``, beyond any bound allowed.
    """

    name = "cb-wide"
    why = (
        "CLI cb check on a 260-cycle amplified to side 520, past the dense "
        "norm limit of 512, so norms take the power-iteration path"
    )
    artifacts = ("",)

    def __init__(self, n: int = 260, extra: tuple = ()):
        self.space_argv = ("--kind", "cycle", "--n", str(n))
        self.extra = tuple(extra)

    def argv(self, seed: int) -> list:
        return [
            "cb", "check", "--space", self.space_path,
            "--band-radius", "1", "--loc-radius", "3",
            "--amplification", "2", "--samples", "1",
            "--seed", str(seed), "--out", self.out, *self.extra,
        ]


WORKLOADS = {w.name: w for w in (TreeSearch, EquivCycle, CbWide)}
