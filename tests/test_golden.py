"""Golden corpus: pinned sha256 of CLI outputs and experiment CSVs.

Each case runs one CLI command in-process on a graph or an experiment
config under ``tests/golden/`` and hashes every file it writes. Refactors
must leave every hash unchanged. A change that means to alter outputs
re-records the hashes, from the root of the repository, with

    PYTHONPATH=src python tests/test_golden.py --record

and says in CHANGES.md which outputs changed and why.
"""

from __future__ import annotations

import hashlib
import json
import sys
import tempfile
from pathlib import Path

import pytest

from bisect_bayes import EdgeModel, Graph, exact_posterior, hpd_credible_set, parse_prior
from bisect_bayes.cli import main

GOLDEN = Path(__file__).resolve().parent / "golden"
HASHES = GOLDEN / "hashes.json"

# graph file stem -> (prior, p, q): sharp, flat, Beta prior with odd n,
# and p == q, where every labeling ties
GRAPHS = {
    "n08-sharp": ("bernoulli:r=0.5", 0.7, 0.2),
    "n10-flat": ("uniform-m", 0.5, 0.45),
    "n11-beta": ("beta:alpha=1,beta=1", 0.8, 0.3),
    "n12-tied": ("bernoulli:r=0.5", 0.4, 0.4),
    "n14-sharp": ("bernoulli:r=0.5", 0.7, 0.2),
}
# sharp graphs at odd n and at the enumeration cap (where class size n/2
# ties), pinned for credible --enlarge 1 and 3, test and posterior --mode
# exact: their posterior CSVs (2^20 and 2^21 rows) are written in many
# chunks, and radius 3 dilates the set at the cap
CAP_GRAPHS = {
    "n21-sharp": ("bernoulli:r=0.5", 0.7, 0.2),
    "n22-sharp": ("bernoulli:r=0.5", 0.7, 0.2),
}
# a flat graph over eight chunks of half-cube keys, pinned for credible
# --enlarge 1 and 2 only: its credible set is large (not listed from the
# levels) and takes part of its last probability group
LARGE_SET_GRAPHS = {
    "n18-flat": ("uniform-m", 0.5, 0.45),
}
# graphs whose posterior is also pinned as sampled by the chain
MCMC_GRAPHS = ("n14-sharp",)
# coverage-tied (p == q) leaves two or three large probability groups, the
# last of them partly taken; coverage-n20 is a flat coverage near the cap;
# bound-check-n20 plants uniformly over the whole labeling space near the
# cap; recovery-mcmc lies past the cap, so its replications run the sampler;
# coverage-wide (radius 6 at n = 12) and bound-check-wide (ball radius 5)
# ask about balls that hold about 3/4 and 2/5 of the labelings;
# bound-check-n20-wide (ball radius 8) and coverage-n18-r4 (radius 4, whose
# enlarged set holds theta where the credible set does not) ask about balls
# that span many chunks of half-cube keys
EXPERIMENTS = ("coverage-flat", "coverage-r2", "coverage-tied", "coverage-n20",
               "coverage-n18-r4", "coverage-wide", "test-error", "bound-check",
               "bound-check-n20", "bound-check-n20-wide", "bound-check-wide", "recovery",
               "recovery-mcmc", "phase-diagram")


def _cases() -> dict[str, tuple[list[str], list[str]]]:
    """Case id -> (argv with {out} placeholders, output file names)."""
    cases = {}
    for stem, (prior, p, q) in {**GRAPHS, **CAP_GRAPHS}.items():
        common = ["--graph", str(GOLDEN / f"{stem}.json"), "--prior", prior,
                  "--p", str(p), "--q", str(q)]
        cases[f"{stem}:test"] = (
            ["test", *common, "--m0", "0", "--complement", "--out", "{out}/test.json"],
            ["test.json"],
        )
        cases[f"{stem}:posterior"] = (
            ["posterior", *common, "--mode", "exact", "--out", "{out}/posterior.csv",
             "--marginals-out", "{out}/marginals.csv"],
            ["posterior.csv", "marginals.csv"],
        )
        if stem in CAP_GRAPHS:
            for radius, suffix in ((1, ""), (3, "-r3")):
                cases[f"{stem}:credible{suffix}"] = (
                    ["credible", *common, "--gamma", "0.05", "--enlarge", str(radius),
                     "--out", "{out}/credible.json"],
                    ["credible.json"],
                )
            continue
        if stem in MCMC_GRAPHS:
            cases[f"{stem}:posterior-mcmc"] = (
                ["posterior", *common, "--mode", "mcmc", "--seed", "7", "--burn-in", "500",
                 "--samples", "2000", "--thin", "7", "--out", "{out}/posterior.csv",
                 "--marginals-out", "{out}/marginals.csv"],
                ["posterior.csv", "marginals.csv"],
            )
        # radius 1 leaves the set as it is; radii 2 and 3 widen it
        for radius, suffix in ((1, ""), (2, "-r2"), (3, "-r3")):
            cases[f"{stem}:credible{suffix}"] = (
                ["credible", *common, "--gamma", "0.05", "--enlarge", str(radius),
                 "--out", "{out}/credible.json"],
                ["credible.json"],
            )
    for stem, (prior, p, q) in LARGE_SET_GRAPHS.items():
        common = ["--graph", str(GOLDEN / f"{stem}.json"), "--prior", prior,
                  "--p", str(p), "--q", str(q)]
        for radius, suffix in ((1, ""), (2, "-r2")):
            cases[f"{stem}:credible{suffix}"] = (
                ["credible", *common, "--gamma", "0.05", "--enlarge", str(radius),
                 "--out", "{out}/credible.json"],
                ["credible.json"],
            )
    for name in EXPERIMENTS:
        # the .meta.json sidecar holds a timestamp, so only the CSV is pinned
        cases[f"{name}:experiment"] = (
            ["experiment", "--config", str(GOLDEN / f"{name}.json"), "--threads", "1",
             "--out", "{out}/result.csv"],
            ["result.csv"],
        )
    return cases


CASES = _cases()


def run_case(case: str, out: Path) -> dict[str, str]:
    """Run one case into ``out``; returns output file name -> sha256."""
    argv, files = CASES[case]
    code = main([a.replace("{out}", str(out)) for a in argv])
    if code != 0:
        raise RuntimeError(f"{case}: exit code {code}")
    return {f: hashlib.sha256((out / f).read_bytes()).hexdigest() for f in files}


@pytest.mark.parametrize("case", sorted(CASES))
def test_output_bytes_match_pinned_hashes(case, tmp_path):
    pinned = json.loads(HASHES.read_text())
    assert run_case(case, tmp_path) == pinned[case]


def test_every_case_is_pinned():
    assert sorted(json.loads(HASHES.read_text())) == sorted(CASES)


@pytest.mark.parametrize("stem", sorted(LARGE_SET_GRAPHS))
def test_large_set_graphs_are_large(stem):
    # so that their cases pin the mask of a large set, not a listed one
    prior, p, q = LARGE_SET_GRAPHS[stem]
    graph = Graph.from_json((GOLDEN / f"{stem}.json").read_text())
    table = exact_posterior(graph, parse_prior(prior), EdgeModel(p, q))
    hpd = hpd_credible_set(table, 0.05)
    assert not hpd.small
    assert 0 < hpd.taken < hpd.tied
    assert len(table) // 2**14 == 8


def record() -> None:
    hashes = {}
    for case in sorted(CASES):
        with tempfile.TemporaryDirectory() as tmp:
            hashes[case] = run_case(case, Path(tmp))
    HASHES.write_text(json.dumps(hashes, indent=2, sort_keys=True) + "\n")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: PYTHONPATH=src python tests/test_golden.py --record")
    record()
