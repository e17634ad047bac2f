import json
import subprocess
import sys
import zipfile
from pathlib import Path

import numpy as np
import pytest

from boxdyn import morse_graph_from_jsonable, oracles
from boxdyn.cli import (
    AnalysisConfig,
    load_config,
    load_mlp_weights,
    load_trajectory_data,
    main,
    run_analysis,
)
from boxdyn.errors import (
    BoxdynError,
    ConfigError,
    DimensionMismatch,
    EmptyDataset,
    ParseError,
)


def write_config(path, **over):
    doc = {
        "domain": {"lower": [-2.0], "upper": [2.0]},
        "depths": [6],
        "rho": 1e-3,
        "prime": 5,
        "oracle": {"type": "piecewise1d", "theta": 1.5},
        "out": str(path.parent / "out"),
    }
    doc.update(over)
    path.write_text(json.dumps(doc))
    return path


class TestWeightsParsing:
    def test_identity_layer(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text(
            "mlp-weights v1\nactivation relu\nlayers 1\n"
            "layer 2 2\n1 0\n0 1\n0 0\n"
        )
        o = load_mlp_weights(p)
        assert o.dimension == 2
        assert o.lipschitz_upper_bound() == pytest.approx(1.0)

    def test_three_layer_bias_composition(self, tmp_path):
        # at the origin with relu: f(0) = W3 relu(W2 relu(b1) + b2) + b3
        p = tmp_path / "w.txt"
        p.write_text(
            "mlp-weights v1\nactivation relu\nlayers 3\n"
            "layer 1 2\n1\n-1\n1 2\n"
            "layer 2 2\n1 0\n0 1\n-0.5 0\n"
            "layer 2 1\n1 1\n0.25\n"
        )
        o = load_mlp_weights(p)
        got = o.eval(np.array([0.0]))
        # relu([1,2])=[1,2]; relu([1-0.5,2])=[0.5,2]; 0.5+2+0.25
        assert got[0] == pytest.approx(2.75)

    def test_mismatched_bias_length(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text(
            "mlp-weights v1\nactivation relu\nlayers 1\n"
            "layer 2 2\n1 0\n0 1\n0 0 0\n"
        )
        with pytest.raises(DimensionMismatch):
            load_mlp_weights(p)

    def test_missing_tag(self, tmp_path):
        p = tmp_path / "w.txt"
        p.write_text("something else\n")
        with pytest.raises(ParseError):
            load_mlp_weights(p)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    def test_non_finite_weight_reports_line_number(self, tmp_path, value):
        p = tmp_path / "w.txt"
        p.write_text("mlp-weights v1\nactivation relu\nlayers 1\n"
                     f"layer 2 2\n1 0\n0 {value}\n0 0\n")
        with pytest.raises(ParseError, match=":6:"):
            load_mlp_weights(p)


class TestTrajectoryLoading:
    def test_single_pair(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.5 0.25\n")
        o = load_trajectory_data(p, 2.0)
        assert o.dimension == 1
        assert o.xs.shape == (1, 1)

    def test_comma_separated_with_tag(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("trajectory-pairs v1\n0.1, 0.2, 0.3, 0.4\n")
        o = load_trajectory_data(p, 1.0)
        assert o.dimension == 2

    def test_malformed_row_reports_line_number(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.5 0.25\n0.1 oops\n")
        with pytest.raises(ParseError, match=":2:"):
            load_trajectory_data(p, 2.0)

    @pytest.mark.parametrize("value", ["nan", "-inf"])
    def test_non_finite_sample_reports_line_number(self, tmp_path, value):
        p = tmp_path / "d.txt"
        p.write_text(f"0.5 0.25\n0.1 {value}\n")
        with pytest.raises(ParseError, match=":2:"):
            load_trajectory_data(p, 2.0)

    def test_ragged_row_rejected(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("0.5 0.25\n0.1 0.2 0.3\n")
        with pytest.raises(ParseError, match=":2:"):
            load_trajectory_data(p, 2.0)

    def test_empty_dataset(self, tmp_path):
        p = tmp_path / "d.txt"
        p.write_text("# only a comment\n")
        with pytest.raises(EmptyDataset):
            load_trajectory_data(p, 2.0)


class TestConfigValidation:
    def test_round_trip(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        assert cfg.depths == [6] and cfg.prime == 5

    def test_rejects_composite_prime(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path / "c.json", prime=6))

    def test_rejects_inverted_domain(self, tmp_path):
        with pytest.raises(ConfigError):
            load_config(
                write_config(tmp_path / "c.json",
                             domain={"lower": [2.0], "upper": [-2.0]})
            )

    def test_missing_field(self, tmp_path):
        p = tmp_path / "c.json"
        p.write_text(json.dumps({"domain": {"lower": [0], "upper": [1]}}))
        with pytest.raises(ConfigError):
            load_config(p)

    @pytest.mark.parametrize("over", [
        {"rho": "abc"},
        {"prime": "x"},
        {"domain": {"lower": ["-2"], "upper": [2.0]}},
        {"domain": [[-2.0], [2.0]]},
        {"out": 5},
        None,
        {"prime": 7.9},
        {"rho": True},
        {"depths": [True]},
        {"domain": {"lower": [False], "upper": [True]}},
        {"domain": {"lower": [-2.0], "upper": [True]}},
    ], ids=["rho-text", "prime-text", "domain-bound-text", "domain-list",
            "out-number", "top-level-array", "prime-fraction", "rho-bool",
            "depths-bool", "domain-bounds-bool", "domain-upper-bool"])
    def test_ill_typed_value_exit_code(self, tmp_path, capsys, over):
        """A JSON value of the wrong type is a configuration error (exit
        2), not a traceback, and is never converted: a fractional prime
        is not truncated, and true is neither a rho of 1.0 nor a depth
        of 1."""
        p = tmp_path / "c.json"
        if over is None:
            p.write_text(json.dumps([1, 2]))
        else:
            write_config(p, **over)
        assert main(["analyze", "--config", str(p), "--no-cache"]) == 2
        assert "configuration error" in capsys.readouterr().err

    @pytest.mark.parametrize("oracle, key, bad", [
        ({"type": "piecewise1d", "theta": 1.5}, "theta", "1.5"),
        ({"type": "piecewise1d", "theta": 1.5}, "theta", True),
        ({"type": "leslie", "theta": [23.5, 23.5]}, "theta", ["23.5", "23.5"]),
        ({"type": "leslie", "theta": [23.5, 23.5]}, "theta", [True, 23.5]),
        ({"type": "data", "lipschitz": 34}, "lipschitz", "34"),
        ({"type": "data", "lipschitz": 34}, "lipschitz", True),
    ], ids=["piecewise1d-theta-text", "piecewise1d-theta-bool",
            "leslie-theta-text", "leslie-theta-bool", "data-lipschitz-text",
            "data-lipschitz-bool"])
    def test_ill_typed_oracle_value_exit_code(self, tmp_path, capsys, oracle,
                                              key, bad):
        """An oracle value of the wrong JSON type is refused (exit 2), not
        converted: true is no theta or Lipschitz constant of 1.0.  The
        same spec with the value well typed runs."""
        samples = tmp_path / "pairs.txt"
        samples.write_text("10 10 12 8\n30 20 28 22\n")
        over = {"oracle": dict(oracle, samples=str(samples))}
        if oracle["type"] != "piecewise1d":
            over.update(domain={"lower": [0.0, 0.0], "upper": [90.0, 70.0]},
                        depths=[3, 3])
        p = write_config(tmp_path / "c.json", **over)
        assert main(["analyze", "--config", str(p), "--no-cache"]) == 0
        over["oracle"][key] = bad
        write_config(p, **over)
        capsys.readouterr()
        assert main(["analyze", "--config", str(p), "--no-cache"]) == 2
        assert "must be a number" in capsys.readouterr().err

    def test_cache_key_ignores_out_dir(self, tmp_path):
        a = load_config(write_config(tmp_path / "a.json", out="x"))
        b = load_config(write_config(tmp_path / "b.json", out="y"))
        assert a.cache_key() == b.cache_key()


class TestAnalyzeCommand:
    def test_writes_all_outputs(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        for name in ("morse_graph.dot", "morse_graph.json",
                     "regions.csv", "manifest.json"):
            assert (out / name).exists(), name
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["n_boxes"] == 64
        assert manifest["n_morse_nodes"] >= 1
        assert "boxdyn" in manifest["versions"]
        rss = manifest["peak_rss_mb"]
        assert list(rss) == ["boxmap", "morse_graph", "conley"]
        assert 0 < rss["boxmap"] <= rss["morse_graph"] <= rss["conley"]
        # one record per node, its sizes those of the node's index pair
        from boxdyn import (CubicalGrid, PhaseSpace, PiecewiseExample1D,
                            build_boxmap, condensation, index_pair, morse_graph)
        bm = build_boxmap(CubicalGrid(PhaseSpace([-2.0], [2.0]), [6]),
                          PiecewiseExample1D(1.5), 1e-3)
        cond = condensation(bm)
        mg = morse_graph(cond)
        nodes = manifest["nodes"]
        assert [nd["id"] for nd in nodes] == list(range(len(mg.nodes)))
        for nd, cid, region in zip(nodes, mg.component_ids, mg.regions):
            pair = index_pair(cond, cid)
            assert set(nd) == {"id", "region_boxes", "p1_boxes", "p0_boxes",
                               "conley_s"}
            assert nd["region_boxes"] == region.size
            assert (nd["p1_boxes"], nd["p0_boxes"]) == (pair.p1.size,
                                                        pair.p0.size)
            assert nd["conley_s"] > 0
        timings = manifest["timings"]
        assert sum(nd["conley_s"] for nd in nodes) <= timings["conley_s"]
        # caching is on: the cache write has its own entry, outside boxmap_s
        assert 0 < timings["boxmap_cache_write_s"]
        assert timings["boxmap_s"] + timings["boxmap_cache_write_s"] \
            <= timings["total_s"]
        dot = (out / "morse_graph.dot").read_text()
        assert "digraph" in dot and "x - 1" in dot

    def test_manifest_records_the_graph_levels(self, tmp_path, monkeypatch):
        from boxdyn import (CubicalGrid, PhaseSpace, PiecewiseExample1D,
                            build_boxmap, graph_dynamics)
        cfg = load_config(write_config(tmp_path / "c.json"))
        mg, manifest = run_analysis(cfg)
        graph = manifest["graph"]
        bm = build_boxmap(CubicalGrid(PhaseSpace([-2.0], [2.0]), [6]),
                          PiecewiseExample1D(1.5), 1e-3)
        edges = bm.total_edges()
        assert graph["levels"] == [{"shape": [64], "candidate_boxes": 64,
                                    "candidate_edges": edges,
                                    "graph_edges": edges, "hub_nodes": 0}]
        assert graph["recurrent_boxes"] == sum(r.size for r in mg.regions) > 0

        monkeypatch.setattr(graph_dynamics, "_COARSEST_BOXES", 8)
        cfg_path = tmp_path / "c.json"
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        out = tmp_path / "out"
        levels = json.loads((out / "manifest.json").read_text())["graph"]
        doc = json.loads((out / "morse_graph.json").read_text())
        assert [lv["shape"] for lv in levels["levels"]] == [[8], [16], [32],
                                                             [64]]
        assert levels["levels"][0]["candidate_boxes"] == 8
        for lv in levels["levels"]:
            assert 0 < lv["candidate_boxes"] <= lv["shape"][0]
            assert lv["candidate_edges"] > 0
            assert lv["graph_edges"] == lv["candidate_edges"]
            assert lv["hub_nodes"] == 0
        assert levels["recurrent_boxes"] == sum(len(nd["region"])
                                                for nd in doc["nodes"])
        assert levels["recurrent_boxes"] == graph["recurrent_boxes"]

    def test_json_round_trip_equals_graph(self, tmp_path):
        cfg = load_config(write_config(tmp_path / "c.json"))
        mg, _ = run_analysis(cfg)
        from boxdyn.cli import write_outputs
        write_outputs(cfg, mg, {})
        path = tmp_path / "out" / "morse_graph.json"
        back = morse_graph_from_jsonable(json.loads(path.read_text()))
        assert back.nodes == mg.nodes
        assert back.order == mg.order
        for q in mg.nodes:
            assert back.region_of(q).tolist() == mg.region_of(q).tolist()
            assert back.index_of[q] == mg.index_of[q]

    def test_edited_label_is_refused(self, tmp_path):
        """A record whose label disagrees with its invariant factors
        cannot be reloaded: the factors are the index, the label derives."""
        cfg = load_config(write_config(tmp_path / "c.json"))
        mg, _ = run_analysis(cfg)
        from boxdyn.cli import write_outputs
        write_outputs(cfg, mg, {})
        path = tmp_path / "out" / "morse_graph.json"
        doc = json.loads(path.read_text())
        ci = next(nd["conley_index"] for nd in doc["nodes"]
                  if nd["conley_index"]["labels"][0] == "x - 1")
        ci["labels"][0] = "x + 1"
        path.write_text(json.dumps(doc))
        with pytest.raises(BoxdynError, match="labels"):
            morse_graph_from_jsonable(json.loads(path.read_text()))

    def test_flag_overrides(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        out2 = tmp_path / "alt"
        rc = main(["analyze", "--config", str(cfg_path),
                   "--depth", "5", "--rho", "0.002",
                   "--out", str(out2), "--no-cache"])
        assert rc == 0
        manifest = json.loads((out2 / "manifest.json").read_text())
        assert manifest["config"]["depths"] == [5]
        assert manifest["config"]["rho"] == 0.002
        assert not list(out2.glob("boxmap_*.npz"))

    def test_cache_reuse(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        caches = list((tmp_path / "out").glob("boxmap_*.npz"))
        assert len(caches) == 1
        stamp = caches[0].stat().st_mtime_ns
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert caches[0].stat().st_mtime_ns == stamp  # reused, not rebuilt

    def test_cache_reused_across_primes(self, tmp_path):
        """The box map does not depend on the prime, so a run that
        changes only the prime reads the cache the first run wrote."""
        cfg_path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert main(["analyze", "--config", str(cfg_path),
                     "--prime", "7"]) == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["prime"] == 7
        assert "boxmap_cache_write_s" not in manifest["timings"]
        assert len(list(out.glob("boxmap_*.npz"))) == 1

    def test_cache_is_written_uncompressed(self, tmp_path):
        """The cache is written with np.savez: zlib at 2^21 boxes took
        longer than the build it saves."""
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        cache, = (tmp_path / "out").glob("boxmap_*.npz")
        with zipfile.ZipFile(cache) as z:
            members = z.infolist()
        assert sorted(m.filename for m in members) == [
            "exterior.npy", "jmax.npy", "jmin.npy"]
        assert all(m.compress_type == zipfile.ZIP_STORED for m in members)

    def test_cache_follows_enclosure_semantics(self, tmp_path, monkeypatch):
        """A box map cached under one enclosure tag is not reused under
        another: the second run builds and caches its own."""
        cfg_path = write_config(tmp_path / "c.json")
        out = tmp_path / "out"
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        first, = out.glob("boxmap_*.npz")
        stamp = first.stat().st_mtime_ns
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["enclosure_semantics"] == oracles.ENCLOSURE_SEMANTICS
        monkeypatch.setattr(oracles, "ENCLOSURE_SEMANTICS", "changed")
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert len(list(out.glob("boxmap_*.npz"))) == 2
        assert first.stat().st_mtime_ns == stamp
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["enclosure_semantics"] == "changed"

    def test_cache_key_computed_once_per_run(self, tmp_path, monkeypatch):
        """The key hashes the whole weights or samples file, so one
        analyze computes it once, for the cache file and the manifest."""
        calls = []
        key = AnalysisConfig.cache_key

        def counted(cfg):
            calls.append(cfg)
            return key(cfg)

        monkeypatch.setattr(AnalysisConfig, "cache_key", counted)
        cfg_path = write_config(tmp_path / "c.json")
        assert main(["analyze", "--config", str(cfg_path)]) == 0
        assert len(calls) == 1
        manifest = json.loads((tmp_path / "out" / "manifest.json").read_text())
        assert list((tmp_path / "out").glob("boxmap_*.npz")) == [
            tmp_path / "out" / f"boxmap_{manifest['cache_key']}.npz"]

    def test_cache_follows_oracle_file_contents(self, tmp_path):
        """Rewriting the weights file must not reuse the old box map."""
        weights = tmp_path / "w.txt"
        cfg_path = write_config(tmp_path / "c.json",
                                domain={"lower": [-1.0], "upper": [1.0]},
                                oracle={"type": "mlp",
                                        "weights": str(weights)})
        graph = tmp_path / "out" / "morse_graph.json"

        def label_at_origin(slope):
            weights.write_text("mlp-weights v1\nactivation relu\nlayers 1\n"
                               f"layer 1 1\n{slope}\n0\n")
            assert main(["analyze", "--config", str(cfg_path)]) == 0
            mg = morse_graph_from_jsonable(json.loads(graph.read_text()))
            box = mg.grid.linearize(mg.grid.box_containing([0.0]))
            q, = [q for q in mg.nodes if box in mg.region_of(q)]
            return mg.index_of[q].labels()

        assert label_at_origin(0.5) == ("x - 1", "0")  # attracting
        assert label_at_origin(2.0) == ("0", "x - 1")  # repelling
        assert len(list((tmp_path / "out").glob("boxmap_*.npz"))) == 2

    @pytest.mark.parametrize("damage", ["truncated", "jmax-off-grid",
                                        "key-missing", "exterior-shape"])
    def test_damaged_cache_is_rebuilt(self, tmp_path, capsys, damage):
        """A cache file that is not a box map on the grid is a miss: the
        run says so, rebuilds from the oracle, rewrites the file and
        writes the same graph as an uncached run."""
        argv = ["analyze", "--domain=0:90,0:70", "--depth", "5,5",
                "--rho", "0.03", "--oracle", "leslie"]
        assert main(argv + ["--out", str(tmp_path / "ref"), "--no-cache"]) == 0
        out = tmp_path / "out"
        assert main(argv + ["--out", str(out)]) == 0
        cache, = out.glob("boxmap_*.npz")
        with np.load(cache) as z:
            built = dict(z)
        arrays = {k: v.copy() for k, v in built.items()}
        if damage == "truncated":
            cache.write_bytes(cache.read_bytes()[:100])
        else:
            if damage == "jmax-off-grid":
                box = int(np.flatnonzero(~arrays["exterior"])[0])
                arrays["jmax"][box, 0] = 32
            elif damage == "key-missing":
                del arrays["exterior"]
            else:
                arrays["exterior"] = arrays["exterior"][:-1]
            np.savez_compressed(cache, **arrays)
        capsys.readouterr()
        assert main(argv + ["--out", str(out)]) == 0
        assert "cache" in capsys.readouterr().err
        assert ((out / "morse_graph.json").read_bytes()
                == (tmp_path / "ref" / "morse_graph.json").read_bytes())
        with np.load(cache) as z:
            assert sorted(z) == sorted(built)
            for key in built:
                assert np.array_equal(z[key], built[key]), key

    def test_config_error_exit_code(self, tmp_path):
        cfg_path = write_config(tmp_path / "c.json", prime=9)
        assert main(["analyze", "--config", str(cfg_path)]) == 2

    def test_unreadable_config_exit_code(self, tmp_path):
        assert main(["analyze", "--config", str(tmp_path / "nope.json")]) == 2

    @pytest.mark.parametrize("flags", [
        ["--depth", "x"],
        ["--depth", "-1"],
        ["--oracle", "leslie:a,b"],
        ["--oracle", "leslie:1"],
        ["--oracle", "piecewise1d:-1"],
        ["--oracle", "data:{tmp}/missing.txt:3"],
        ["--config", "{tmp}/no_theta.json"],
        ["--rho", "nan"],
        ["--domain", "nan:2"],
        ["--domain=-2:inf"],
        ["--domain=0:90,0:70", "--depth", "3,3", "--oracle", "leslie:nan,23.5"],
        ["--oracle", "data:{tmp}/pairs.txt:nan"],
        ["--oracle", "data:{tmp}/nan_sample.txt:3"],
        ["--prime", "65537"],
    ], ids=["depth-not-int", "depth-negative", "leslie-theta-not-float",
            "leslie-theta-short", "piecewise-theta-negative", "data-file-missing",
            "piecewise-theta-missing", "rho-nan", "domain-nan", "domain-inf",
            "leslie-theta-nan", "data-lipschitz-nan", "data-sample-nan",
            "prime-above-2e16"])
    def test_bad_input_exit_code(self, tmp_path, capsys, flags):
        """A bad flag value or oracle spec is an input error: exit 2 with
        a message, not a traceback.  A non-finite value is one too, not a
        box whose image escapes."""
        good = write_config(tmp_path / "c.json")
        write_config(tmp_path / "no_theta.json", oracle={"type": "piecewise1d"})
        (tmp_path / "pairs.txt").write_text("0.5 0.25\n-0.5 -0.25\n")
        (tmp_path / "nan_sample.txt").write_text("0.5 nan\n-0.5 -0.25\n")
        argv = ["analyze", "--config", str(good), "--no-cache"]
        assert main(argv + [f.format(tmp=tmp_path) for f in flags]) == 2
        assert "configuration error" in capsys.readouterr().err

    def test_oracle_flag_parsing(self, tmp_path):
        rc = main(["analyze", "--domain=-2:2", "--depth", "6",
                   "--rho", "0.001", "--oracle", "piecewise1d:0.5",
                   "--out", str(tmp_path / "o"), "--no-cache"])
        assert rc == 0
        doc = json.loads((tmp_path / "o" / "morse_graph.json").read_text())
        assert len(doc["nodes"]) == 1

    def test_spaced_domain_with_negative_lower_bound(self, tmp_path):
        """"--domain -1:1" is the flag's value, not an unknown option."""
        rc = main(["analyze", "--domain", "-1:1", "--depth", "6",
                   "--rho", "0.01", "--oracle", "piecewise1d:0.5",
                   "--no-cache", "--out", str(tmp_path / "o")])
        assert rc == 0
        manifest = json.loads((tmp_path / "o" / "manifest.json").read_text())
        assert manifest["config"]["lower"] == [-1.0]
        assert manifest["config"]["upper"] == [1.0]


def test_closed_form_runs_never_load_scipy_spatial(tmp_path):
    """Only the data oracle needs scipy.spatial (a k-d tree): importing
    boxdyn and running a Leslie analysis leave it unloaded, and building
    a data oracle loads it.  Checked in a fresh interpreter, since this
    one may have loaded it already."""
    src = Path(__file__).resolve().parents[1] / "src"
    code = f"""
import sys
sys.path.insert(0, {str(src)!r})
import boxdyn, boxdyn.cli
assert boxdyn.cli.main(["analyze", "--domain=0:90,0:70", "--depth", "4,4",
                        "--rho", "0.03", "--oracle", "leslie", "--no-cache",
                        "--out", {str(tmp_path / "out")!r}]) == 0
assert "scipy.spatial" not in sys.modules, "scipy.spatial loaded"
boxdyn.LipschitzDataOracle([[0.0], [1.0]], [[0.5], [0.5]], 1.0)
assert "scipy.spatial" in sys.modules
"""
    run = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True)
    assert run.returncode == 0, run.stderr


class TestCompareCommand:
    def test_emits_nu_report(self, tmp_path):
        fine = write_config(tmp_path / "fine.json", depths=[8],
                            out=str(tmp_path / "f"))
        coarse = write_config(tmp_path / "coarse.json", depths=[6],
                              out=str(tmp_path / "c"))
        rc = main(["compare", "--fine", str(fine), "--coarse", str(coarse),
                   "--out", str(tmp_path / "cmp")])
        assert rc == 0
        report = json.loads((tmp_path / "cmp" / "nu_report.json").read_text())
        facts = report["epimorphism_check"]
        assert facts["total"] and facts["order_preserving"]
        assert "assignment" in report
        # each finding is written once, under epimorphism_check
        assert not {"well_defined", "surjective", "order_preserving",
                    "counterexamples"} & set(report)
