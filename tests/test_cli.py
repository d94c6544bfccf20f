import csv
import json

import pytest

from bisect_bayes import EdgeModel, canonicalize, inference, posterior, sample_graph
from bisect_bayes.cli import main
from bisect_bayes.model import _canonical_words


def run(argv, capsys=None):
    code = main(argv)
    if capsys is None:
        return code, None, None
    captured = capsys.readouterr()
    return code, captured.out, captured.err


class TestSample:
    def test_writes_graph_and_labeling(self, tmp_path):
        out = tmp_path / "g.json"
        lab = tmp_path / "theta.txt"
        code = main([
            "sample", "--n", "10", "--p", "0.9", "--q", "0.1", "--m", "5",
            "--seed", "7", "--out", str(out), "--labeling-out", str(lab),
        ])
        assert code == 0
        obj = json.loads(out.read_text())
        assert obj["n"] == 10
        assert all(i < j for i, j in obj["edges"])
        assert obj["edges"] == sorted(obj["edges"])
        assert lab.read_text().strip() == "0000011111"

    def test_explicit_labeling(self, tmp_path):
        out = tmp_path / "g.json"
        code = main([
            "sample", "--n", "4", "--p", "0.5", "--q", "0.2",
            "--labeling", "0011", "--seed", "1", "--out", str(out),
        ])
        assert code == 0

    def test_deterministic_bytes(self, tmp_path):
        argv = lambda name: [
            "sample", "--n", "8", "--p", "0.7", "--q", "0.2", "--m", "3",
            "--seed", "42", "--out", str(tmp_path / name),
        ]
        assert main(argv("a.json")) == 0
        assert main(argv("b.json")) == 0
        assert (tmp_path / "a.json").read_bytes() == (tmp_path / "b.json").read_bytes()

    def test_m_out_of_range_exits_2(self, tmp_path, capsys):
        code, _, err = run([
            "sample", "--n", "4", "--p", "0.5", "--q", "0.2", "--m", "3",
            "--seed", "1", "--out", str(tmp_path / "g.json"),
        ], capsys)
        assert code == 2
        assert err.strip().startswith("error:")
        assert err.strip().count("\n") == 0


@pytest.fixture()
def graph_file(tmp_path):
    out = tmp_path / "g.json"
    main([
        "sample", "--n", "10", "--p", "0.9", "--q", "0.1", "--m", "5",
        "--seed", "7", "--out", str(out),
    ])
    return out


class TestPosterior:
    def test_exact_round_trip(self, tmp_path, graph_file):
        post = tmp_path / "post.csv"
        marg = tmp_path / "marg.csv"
        code = main([
            "posterior", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--mode", "exact",
            "--out", str(post), "--marginals-out", str(marg),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(post)))
        assert len(rows) == 512
        probs = [float(r["probability"]) for r in rows]
        assert probs == sorted(probs, reverse=True)
        assert abs(sum(probs) - 1.0) < 1e-9
        marg_rows = list(csv.DictReader(open(marg)))
        assert [r["vertex"] for r in marg_rows] == [str(v) for v in range(10)]

    def test_mcmc_mode(self, tmp_path, graph_file):
        post = tmp_path / "post_mcmc.csv"
        code = main([
            "posterior", "--graph", str(graph_file), "--prior", "uniform-m",
            "--p", "0.9", "--q", "0.1", "--mode", "mcmc",
            "--burn-in", "200", "--samples", "500", "--thin", "2",
            "--seed", "3", "--out", str(post),
        ])
        assert code == 0
        rows = list(csv.DictReader(open(post)))
        assert abs(sum(float(r["probability"]) for r in rows) - 1.0) < 1e-9

    def test_mcmc_flags_override_only_their_defaults(self, tmp_path, graph_file):
        # n=10: the default burn-in is 10 n^2 and the default thinning n
        common = ["posterior", "--graph", str(graph_file), "--prior", "uniform-m",
                  "--p", "0.9", "--q", "0.1", "--mode", "mcmc", "--samples", "50",
                  "--seed", "3"]
        implicit, explicit = tmp_path / "implicit.csv", tmp_path / "explicit.csv"
        assert main([*common, "--out", str(implicit)]) == 0
        assert main([*common, "--burn-in", "1000", "--thin", "10",
                     "--out", str(explicit)]) == 0
        assert implicit.read_bytes() == explicit.read_bytes()

    def test_mcmc_zero_count_exits_2(self, tmp_path, graph_file, capsys):
        code, _, err = run([
            "posterior", "--graph", str(graph_file), "--prior", "uniform-m",
            "--p", "0.9", "--q", "0.1", "--mode", "mcmc", "--burn-in", "0",
            "--out", str(tmp_path / "x.csv"),
        ], capsys)
        assert code == 2
        assert "burn_in must be positive" in err

    def test_boundary_probability_exits_2(self, tmp_path, graph_file, capsys):
        code, _, err = run([
            "posterior", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "1.0", "--q", "0.1", "--mode", "exact",
            "--out", str(tmp_path / "x.csv"),
        ], capsys)
        assert code == 2
        assert "p=1.0" in err

    def test_bad_prior_exits_2(self, tmp_path, graph_file, capsys):
        code, _, err = run([
            "posterior", "--graph", str(graph_file), "--prior", "cauchy:x=1",
            "--p", "0.9", "--q", "0.1", "--out", str(tmp_path / "x.csv"),
        ], capsys)
        assert code == 2

    def test_missing_graph_exits_2(self, tmp_path, capsys):
        code, _, err = run([
            "posterior", "--graph", str(tmp_path / "nope.json"),
            "--prior", "uniform-m", "--p", "0.9", "--q", "0.1",
            "--out", str(tmp_path / "x.csv"),
        ], capsys)
        assert code == 2
        assert "not found" in err


class TestCredible:
    def test_json_shape(self, graph_file, capsys):
        code, out, _ = run([
            "credible", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--gamma", "0.05", "--enlarge", "1",
        ], capsys)
        assert code == 0
        obj = json.loads(out)
        assert set(obj) == {"members", "achieved_mass", "gamma", "radius"}
        assert obj["radius"] == 1
        assert obj["achieved_mass"] >= 0.95
        assert obj["members"] == sorted(obj["members"])

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("radius", range(4))
    def test_output_is_indented_json_dumps(self, tmp_path, capsys, n, radius):
        # the members are written as joined lines, byte for byte what the
        # indented encoder writes, on a sharp and a flat graph
        graph = tmp_path / "g.json"
        theta = canonicalize([v < n // 3 for v in range(n)])
        for p, q in ((0.7, 0.2), (0.5, 0.45)):
            graph.write_text(sample_graph(theta, EdgeModel(p, q), n).to_json())
            code, out, _ = run(["credible", "--graph", str(graph), "--prior", "uniform-m",
                                "--p", str(p), "--q", str(q), "--gamma", "0.05",
                                "--enlarge", str(radius)], capsys)
            assert code == 0
            payload = json.loads(out)
            assert payload["members"]
            assert out == json.dumps(payload, indent=2, sort_keys=True) + "\n"

    def test_large_set_and_uniform_plant_build_no_index(self, tmp_path):
        # a large flat credible set widened by 2 is printed, and a bound
        # check plants uniformly, with no canonical index built
        n = 20
        graph = tmp_path / "g.json"
        theta = canonicalize([v < 5 for v in range(n)])
        graph.write_text(sample_graph(theta, EdgeModel(0.5, 0.45), 0).to_json())
        config = tmp_path / "bound.json"
        config.write_text(json.dumps({
            "schema_version": 1, "kind": "bound-check", "n": n, "prior": "bernoulli:r=0.5",
            "p": 0.7, "q": 0.2, "ball_radius": 2, "replications": 1, "master_seed": 5}))
        _canonical_words.cache_clear()
        assert main(["credible", "--graph", str(graph), "--prior", "uniform-m",
                     "--p", "0.5", "--q", "0.45", "--gamma", "0.05", "--enlarge", "2",
                     "--out", str(tmp_path / "credible.json")]) == 0
        assert main(["experiment", "--config", str(config), "--threads", "1",
                     "--out", str(tmp_path / "bound.csv")]) == 0
        assert _canonical_words.cache_info().currsize == 0
        members = json.loads((tmp_path / "credible.json").read_text())["members"]
        assert len(members) > (1 << (n - 1)) // 2

    def test_composes_from_sample(self, tmp_path, graph_file):
        # sample -> posterior -> credible without manual edits
        out = tmp_path / "cred.json"
        assert main([
            "credible", "--graph", str(graph_file), "--prior", "uniform-m",
            "--p", "0.9", "--q", "0.1", "--gamma", "0.1", "--out", str(out),
        ]) == 0
        assert json.loads(out.read_text())["members"]


class TestTestCommand:
    def test_complement_alternative(self, graph_file, capsys):
        code, out, _ = run([
            "test", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--m0", "5", "--complement",
            "--threshold", "1.0",
        ], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["reject_null"] == (obj["log_f"] > 0)
        assert obj["error_bound_one_sided"] is None

    def test_with_rates(self, graph_file, capsys):
        code, out, _ = run([
            "test", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--m0", "5", "--m1", "0",
            "--threshold", "2.0", "--a-n", "0.05",
        ], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["error_bound_one_sided"] == pytest.approx(0.15)

    def test_equal_sizes_exit_2(self, graph_file, capsys):
        code, _, err = run([
            "test", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--m0", "5", "--m1", "5",
        ], capsys)
        assert code == 2

    @pytest.mark.parametrize("threshold", ["0", "-1", "nan", "inf"])
    def test_bad_threshold_exits_2(self, graph_file, capsys, monkeypatch, threshold):
        def unscored(*args, **kwargs):
            raise AssertionError("the threshold is checked before scoring")

        monkeypatch.setattr(inference, "exact_posterior", unscored)
        code, out, err = run([
            "test", "--graph", str(graph_file), "--prior", "bernoulli:r=0.5",
            "--p", "0.9", "--q", "0.1", "--m0", "5", "--complement",
            "--threshold", threshold,
        ], capsys)
        assert code == 2
        assert err.startswith("error: threshold ") and err.count("\n") == 1
        assert out == ""


class TestBounds:
    def test_point_tail_uniform(self, capsys):
        code, out, _ = run(
            ["bounds", "point-tail-uniform", "--n", "10", "--alpha", "4"], capsys
        )
        assert code == 0
        obj = json.loads(out)
        assert obj["value"] == pytest.approx(0.2210, abs=5e-5)
        assert set(obj) == {"name", "value", "value_clipped", "inputs"}

    def test_sandwich(self, capsys):
        code, out, _ = run(
            ["bounds", "detectability-sandwich", "--c", "4", "--d", "1"], capsys
        )
        obj = json.loads(out)
        assert (obj["lower"], obj["mid"], obj["upper"]) == (1.0, 1.8, 2.0)

    def test_missing_flag_exits_2(self, capsys):
        code, _, err = run(["bounds", "ball-tail", "--n", "10"], capsys)
        assert code == 2
        assert "requires" in err

    def test_unknown_name_exits_2(self, capsys):
        code, _, _ = run(["bounds", "no-such-bound"], capsys)
        assert code == 2


class TestExperimentCommand:
    def test_runs_config_and_env_threads(self, tmp_path, monkeypatch):
        cfg = {
            "schema_version": 1,
            "kind": "recovery",
            "n": 6,
            "prior": "bernoulli:r=0.5",
            "replications": 8,
            "master_seed": 5,
            "p": 0.9,
            "q": 0.1,
            "planted_m": 3,
        }
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        out1 = tmp_path / "a.csv"
        out8 = tmp_path / "b.csv"
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out1)]) == 0
        monkeypatch.setenv("BISECT_BAYES_THREADS", "8")
        assert main(["experiment", "--config", str(cfg_path), "--out", str(out8)]) == 0
        assert out1.read_bytes() == out8.read_bytes()
        meta = json.loads((tmp_path / "a.csv.meta.json").read_text())
        assert meta["config"]["master_seed"] == 5

    def test_bad_env_threads_exits_2(self, tmp_path, monkeypatch, capsys):
        monkeypatch.setenv("BISECT_BAYES_THREADS", "lots")
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text("{}")
        code, _, err = run(
            ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2

    def test_invalid_config_exits_2(self, tmp_path, capsys):
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps({"schema_version": 1, "kind": "recovery"}))
        code, _, err = run(
            ["experiment", "--config", str(cfg_path), "--out", str(tmp_path / "x.csv")],
            capsys,
        )
        assert code == 2
        assert "missing required field" in err


class TestMalformedJson:
    """Wrongly typed JSON values give exit code 2 and a one-line
    diagnostic, never a traceback or a silently truncated value."""

    @pytest.mark.parametrize("text", [
        '{"n": 4, "edges": [[0, null]]}',
        '{"n": 4, "edges": [[0, 1.7]]}',
        '{"n": 4, "edges": [[0, "1"]]}',
        '{"n": 4, "edges": [[true, 1]]}',
        '{"n": 4, "edges": [[0, 1, 2]]}',
        '{"n": 4, "edges": 5}',
        '{"n": 4.0, "edges": []}',
    ])
    @pytest.mark.parametrize("command", ["posterior", "credible", "test"])
    def test_bad_graph_exits_2(self, tmp_path, capsys, text, command):
        graph = tmp_path / "g.json"
        graph.write_text(text)
        extra = {"posterior": ["--out", str(tmp_path / "x.csv")],
                 "credible": ["--gamma", "0.05"],
                 "test": ["--m0", "0", "--complement"]}[command]
        code, out, err = run([command, "--graph", str(graph), "--prior", "uniform-m",
                              "--p", "0.9", "--q", "0.1", *extra], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert out == ""

    @pytest.mark.parametrize("command", ["posterior", "credible", "test"])
    def test_past_the_cap_exits_2_before_scoring(self, tmp_path, capsys, monkeypatch,
                                                 command):
        def scoring(*args):
            raise AssertionError("the half cube was scored")

        monkeypatch.setattr(posterior, "_HalfCubeStream", scoring)
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 23, "edges": [[0, 1]]}')
        extra = {"posterior": ["--mode", "exact", "--out", str(tmp_path / "x.csv")],
                 "credible": ["--gamma", "0.05"],
                 "test": ["--m0", "0", "--complement"]}[command]
        code, out, err = run([command, "--graph", str(graph), "--prior", "uniform-m",
                              "--p", "0.9", "--q", "0.1", *extra], capsys)
        assert code == 2
        assert err == "error: n=23 exceeds enumeration cap 22\n"
        assert out == ""

    def test_integer_endpoints_still_read(self, tmp_path, capsys):
        graph = tmp_path / "g.json"
        graph.write_text('{"n": 4, "edges": [[0, 1], [2, 3]]}')
        code, out, _ = run(["credible", "--graph", str(graph), "--prior", "uniform-m",
                            "--p", "0.9", "--q", "0.1", "--gamma", "0.05"], capsys)
        assert code == 0
        assert json.loads(out)["members"] == ["0011"]

    @pytest.mark.parametrize("field, value", [
        ("n", None), ("n", 6.0), ("n", "6"), ("replications", True),
        ("master_seed", None), ("p", None), ("p", "0.9"), ("gamma", [0.05]),
        ("thresholds", 5), ("thresholds", [1.0, None]), ("prior", 3),
        ("kind", ["recovery"]), ("planted_m", 1.5), ("radius", "2"), ("out", 7),
        # out of range: checked when the config loads, whatever the kind
        ("planted_m", 4), ("m0", 4), ("m0", -2), ("m1", 7), ("m1", -1),
        ("ball_radius", -3), ("radius", -1), ("thresholds", [0.0]),
        ("thresholds", [1.0, -2.0]), ("thresholds", [float("inf")]),
    ])
    def test_bad_config_field_exits_2(self, tmp_path, capsys, field, value):
        cfg = {"schema_version": 1, "kind": "recovery", "n": 6,
               "prior": "bernoulli:r=0.5", "replications": 2, "master_seed": 5,
               "p": 0.9, "q": 0.1, "planted_m": 3, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, err = run(["experiment", "--config", str(cfg_path),
                            "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert repr(field) in err
        assert not (tmp_path / "x.csv").exists()

    @pytest.mark.parametrize("field, value", [
        ("m1", 4), ("m0", 4), ("ball_radius", 0), ("radius", 0),
    ])
    def test_config_range_endpoints_still_read(self, tmp_path, capsys, field, value):
        cfg = {"schema_version": 1, "kind": "test-error", "n": 8,
               "prior": "bernoulli:r=0.5", "replications": 2, "master_seed": 5,
               "p": 0.9, "q": 0.1, "m0": 0, "m1": 2, field: value}
        cfg_path = tmp_path / "cfg.json"
        cfg_path.write_text(json.dumps(cfg))
        code, _, _ = run(["experiment", "--config", str(cfg_path),
                          "--out", str(tmp_path / "x.csv")], capsys)
        assert code == 0
        assert (tmp_path / "x.csv").exists()


class TestVerify:
    def test_passes_and_reports(self, capsys):
        code, out, _ = run(["verify"], capsys)
        assert code == 0
        obj = json.loads(out)
        assert obj["ok"] is True
        names = {c["name"] for c in obj["checks"]}
        assert "binomial-profile-sum" in names
        assert "bernoulli-ratio-sandwich" in names
        assert "beta-ratio-bound" in names


class TestParserContract:
    def test_unknown_subcommand_exits_2(self, capsys):
        code, _, err = run(["frobnicate"], capsys)
        assert code == 2
        assert err.strip().count("\n") == 0

    def test_unknown_flag_exits_2(self, capsys):
        code, _, err = run(["verify", "--frobnicate"], capsys)
        assert code == 2
