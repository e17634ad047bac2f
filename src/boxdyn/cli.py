"""Command-line pipeline: configuration, data loading, and exports.

boxdyn analyze  --config cfg.json [overrides]
boxdyn compare  --fine fine.json --coarse coarse.json [--out dir]

Exit codes: 0 success, 2 configuration or input error, 3 computation
failure (e.g. a carrier acyclicity failure with its remediation hint).
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import json
import math
import platform
import resource
import sys
import time
import zipfile
import zlib
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

from . import __version__, oracles
from .compare import project
from .conley import conley_index
from .errors import (BoxdynError, ConfigError, DimensionMismatch,
                     EmptyDataset, ParseError)
from .graph_dynamics import MorseGraph, condensation, morse_graph
from .grid import CubicalGrid, PhaseSpace
from .homology import check_prime
from .oracles import LeslieOracle, LipschitzDataOracle, MlpOracle, \
    PiecewiseExample1D
from .outer_approx import BoxMap, build_boxmap

WEIGHTS_FORMAT_TAG = "mlp-weights v1"
DATA_FORMAT_TAG = "trajectory-pairs v1"

# what np.load raises on a damaged or foreign .npz file
_UNREADABLE = (OSError, EOFError, KeyError, ValueError, NotImplementedError,
               zipfile.BadZipFile, zlib.error)


def _number(value, what: str):
    """value if it is a JSON number; ConfigError for a bool, a text or
    any other type, which is never converted to fit."""
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ConfigError(f"{what} must be a number, got {value!r}")
    return value


@dataclass
class AnalysisConfig:
    lower: list
    upper: list
    depths: list
    rho: float
    prime: int = 5
    oracle: dict = field(default_factory=dict)
    out: str = "out"
    cache: bool = True

    def validate(self):
        if len(self.lower) != len(self.upper) or len(self.lower) != len(self.depths):
            raise ConfigError("domain bounds and depths must share one dimension")
        if any(isinstance(d, bool) or not isinstance(d, int) or d < 0
               for d in self.depths):
            raise ConfigError(f"depths must be nonnegative integers, got "
                              f"{self.depths}")
        for v in [*self.lower, *self.upper]:
            _number(v, "a domain bound")
        if any(not lo < up for lo, up in zip(self.lower, self.upper)):
            raise ConfigError("domain lower bounds must be below upper bounds")
        if not all(map(math.isfinite, [*self.lower, *self.upper])):
            raise ConfigError("domain bounds must be finite")
        self.rho = float(_number(self.rho, "rho"))
        if not self.rho >= 0:
            raise ConfigError("rho must be nonnegative")
        try:
            check_prime(self.prime)
        except BoxdynError as e:
            raise ConfigError(str(e)) from e
        if not isinstance(self.oracle, dict) or "type" not in self.oracle:
            raise ConfigError("oracle spec must be a mapping with a 'type' key")
        if not isinstance(self.out, str):
            raise ConfigError(f"out must be a directory path, got {self.out!r}")
        return self

    def to_jsonable(self) -> dict:
        return {
            "lower": list(self.lower),
            "upper": list(self.upper),
            "depths": list(self.depths),
            "rho": self.rho,
            "prime": self.prime,
            "oracle": self.oracle,
            "out": self.out,
        }

    def cache_key(self) -> str:
        """Hash of everything the box map depends on: the configuration
        without its output directory and prime, the boxdyn version and
        the enclosure tag, plus the bytes of the oracle's weights or
        samples file, so that editing the file misses the cache."""
        doc = self.to_jsonable()
        doc.pop("out")
        doc.pop("prime")
        doc["boxdyn"] = __version__
        doc["enclosure_semantics"] = oracles.ENCLOSURE_SEMANTICS
        h = hashlib.sha256(json.dumps(doc, sort_keys=True).encode())
        for key in ("weights", "samples"):
            if key in self.oracle:
                h.update(Path(self.oracle[key]).read_bytes())
        return h.hexdigest()[:16]


def load_config(path) -> AnalysisConfig:
    try:
        doc = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise ConfigError(f"cannot read config {path}: {e}") from e
    try:
        return AnalysisConfig(
            lower=doc["domain"]["lower"],
            upper=doc["domain"]["upper"],
            depths=doc["depths"],
            rho=doc["rho"],
            prime=doc.get("prime", 5),
            oracle=doc["oracle"],
            out=doc.get("out", "out"),
        ).validate()
    except KeyError as e:
        raise ConfigError(f"config {path} missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid config {path}: {e}") from e


def load_mlp_weights(path) -> MlpOracle:
    """Parse the plain-text weights format.

    Line 1: format tag.  Line 2: 'activation relu'.  Line 3:
    'layers <k>'.  Then per layer: 'layer <in> <out>', <out> rows of
    <in> weights, one row of <out> biases.
    """
    lines = Path(path).read_text().splitlines()

    def fail(lineno, msg):
        raise ParseError(f"{path}:{lineno}: {msg}")

    def floats(lineno, expect):
        if lineno > len(lines):
            fail(lineno, "unexpected end of file")
        parts = lines[lineno - 1].split()
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            fail(lineno, f"expected numbers, got {lines[lineno - 1]!r}")
        if not all(map(math.isfinite, vals)):
            fail(lineno, f"non-finite value in {lines[lineno - 1]!r}")
        if len(vals) != expect:
            raise DimensionMismatch(
                f"{path}:{lineno}: expected {expect} values, got {len(vals)}"
            )
        return vals

    if not lines or lines[0].strip() != WEIGHTS_FORMAT_TAG:
        fail(1, f"expected format tag {WEIGHTS_FORMAT_TAG!r}")
    if len(lines) < 3 or lines[1].split() != ["activation", "relu"]:
        fail(2, "expected 'activation relu'")
    head = lines[2].split()
    if len(head) != 2 or head[0] != "layers":
        fail(3, "expected 'layers <count>'")
    try:
        n_layers = int(head[1])
    except ValueError:
        fail(3, f"layer count must be an integer, got {head[1]!r}")

    layers = []
    ln = 4
    for k in range(n_layers):
        if ln > len(lines):
            fail(ln, f"missing header for layer {k}")
        parts = lines[ln - 1].split()
        if len(parts) != 3 or parts[0] != "layer":
            fail(ln, "expected 'layer <in> <out>'")
        try:
            n_in, n_out = int(parts[1]), int(parts[2])
        except ValueError:
            fail(ln, "layer sizes must be integers")
        ln += 1
        w = [floats(ln + r, n_in) for r in range(n_out)]
        ln += n_out
        b = floats(ln, n_out)
        ln += 1
        layers.append((np.array(w), np.array(b)))
    return MlpOracle(layers)


def load_trajectory_data(path, lipschitz: float) -> LipschitzDataOracle:
    """Rows of 2d numbers (x then f(x)), whitespace or comma separated.
    An optional leading format-tag line is accepted."""
    lines = Path(path).read_text().splitlines()
    rows = []
    ncols = None
    for lineno, raw in enumerate(lines, start=1):
        text = raw.strip()
        if not text or text.startswith("#"):
            continue
        if lineno == 1 and text == DATA_FORMAT_TAG:
            continue
        parts = text.replace(",", " ").split()
        try:
            vals = [float(v) for v in parts]
        except ValueError:
            raise ParseError(f"{path}:{lineno}: non-numeric value in {text!r}")
        if not all(map(math.isfinite, vals)):
            raise ParseError(f"{path}:{lineno}: non-finite value in {text!r}")
        if ncols is None:
            ncols = len(vals)
            if ncols == 0 or ncols % 2 != 0:
                raise ParseError(
                    f"{path}:{lineno}: rows need an even number of columns"
                )
        elif len(vals) != ncols:
            raise ParseError(
                f"{path}:{lineno}: expected {ncols} columns, got {len(vals)}"
            )
        rows.append(vals)
    if not rows:
        raise EmptyDataset(f"{path} contains no samples")
    arr = np.array(rows)
    d = ncols // 2
    return LipschitzDataOracle(arr[:, :d], arr[:, d:], lipschitz)


def build_oracle(cfg: AnalysisConfig):
    """The oracle of cfg's spec; a missing field, a bad value or an
    unreadable file is a ConfigError."""
    spec = cfg.oracle
    kind = spec["type"]
    try:
        if kind == "leslie":
            # LeslieOracle refuses any length but two
            return LeslieOracle(tuple(_number(t, "leslie theta")
                                      for t in spec.get("theta", [23.5, 23.5])))
        if kind == "piecewise1d":
            return PiecewiseExample1D(
                float(_number(spec["theta"], "piecewise1d theta")))
        if kind == "mlp":
            return load_mlp_weights(spec["weights"])
        if kind == "data":
            return load_trajectory_data(
                spec["samples"],
                float(_number(spec["lipschitz"], "data lipschitz")))
    except KeyError as e:
        raise ConfigError(f"{kind} oracle spec missing field {e}") from e
    except (TypeError, ValueError) as e:
        raise ConfigError(f"invalid {kind} oracle spec: {e}") from e
    except OSError as e:
        raise ConfigError(f"cannot read {kind} oracle file: {e}") from e
    raise ConfigError(f"unknown oracle type {kind!r}")


def _load_boxmap(path, grid: CubicalGrid) -> BoxMap:
    """The box map stored at path.  ValueError if the arrays are not a
    box map on grid: integer ranges of shape (n, d) that lie on the grid
    for every non-exterior box, and a bool exterior flag of shape (n,)."""
    # np.load given a path leaves the file open when it cannot parse it
    with open(path, "rb") as fh, np.load(fh) as z:
        jmin, jmax, exterior = z["jmin"], z["jmax"], z["exterior"]
    shape = (grid.box_count, grid.dimension)
    if not (jmin.dtype.kind in "iu" and jmax.dtype.kind in "iu"
            and jmin.shape == jmax.shape == shape):
        raise ValueError(f"jmin and jmax are not integer arrays of shape {shape}")
    if exterior.dtype != bool or exterior.shape != shape[:1]:
        raise ValueError(f"exterior is not a bool array of shape {shape[:1]}")
    off = (jmin < 0) | (jmin > jmax) | (jmax >= np.array(grid.shape))
    if (off.any(axis=1) & ~exterior).any():
        raise ValueError("a target range leaves the grid")
    return BoxMap(grid, jmin=jmin, jmax=jmax, exterior=exterior)


def _cached_boxmap(cfg: AnalysisConfig, key: str, grid: CubicalGrid,
                   oracle) -> tuple[BoxMap, float | None]:
    """The box map of cfg, read from the cache file named by key (cfg's
    cache_key) when it holds a valid one; otherwise built from the
    oracle and, with caching on, (re)written.  Returns (box map, the
    seconds the cache write took, or None when nothing was written)."""
    out = Path(cfg.out)
    cache = out / f"boxmap_{key}.npz"
    if cfg.cache and cache.exists():
        try:
            return _load_boxmap(cache, grid), None
        except _UNREADABLE as e:
            print(f"box-map cache {cache} is unusable ({e}); rebuilding it",
                  file=sys.stderr)
    bm = build_boxmap(grid, oracle, cfg.rho)
    if not cfg.cache:
        return bm, None
    t0 = time.perf_counter()
    out.mkdir(parents=True, exist_ok=True)
    np.savez(cache, jmin=bm.jmin, jmax=bm.jmax, exterior=bm.exterior)
    return bm, time.perf_counter() - t0


def _peak_rss_mb() -> float:
    """Peak resident memory of this process so far, in MB (Linux reports
    ru_maxrss in KB)."""
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def run_analysis(cfg: AnalysisConfig):
    """Full pipeline; returns (MorseGraph, manifest dict)."""
    timings = {}
    peak_rss_mb = {}
    t0 = time.perf_counter()
    grid = CubicalGrid(PhaseSpace(cfg.lower, cfg.upper), cfg.depths)
    oracle = build_oracle(cfg)
    if oracle.dimension != grid.dimension:
        raise ConfigError(
            f"oracle dimension {oracle.dimension} != domain dimension "
            f"{grid.dimension}"
        )
    key = cfg.cache_key()
    boxmap, write_s = _cached_boxmap(cfg, key, grid, oracle)
    # the cache write is timed on its own: at 2^21 boxes it takes longer
    # than the build
    timings["boxmap_s"] = time.perf_counter() - t0 - (write_s or 0.0)
    if write_s is not None:
        timings["boxmap_cache_write_s"] = write_s
    peak_rss_mb["boxmap"] = _peak_rss_mb()

    t1 = time.perf_counter()
    cond = condensation(boxmap)
    mg = morse_graph(cond)
    timings["morse_graph_s"] = time.perf_counter() - t1
    peak_rss_mb["morse_graph"] = _peak_rss_mb()

    # per node: |P1| is the downset without its exterior boxes, and P0 is
    # P1 without the region (a recurrent box has targets, so it is never
    # exterior); the downsets are the Morse graph's, not searched again
    t2 = time.perf_counter()
    nodes = []
    for q, cid in enumerate(mg.component_ids):
        t = time.perf_counter()
        mg.index_of[q] = conley_index(boxmap, cond, cid, cfg.prime)
        seconds = time.perf_counter() - t
        region = int(mg.regions[q].size)
        p1 = int(np.count_nonzero(~boxmap.exterior[mg.downsets[q]]))
        nodes.append({"id": q, "region_boxes": region, "p1_boxes": p1,
                      "p0_boxes": p1 - region, "conley_s": seconds})
    timings["conley_s"] = time.perf_counter() - t2
    timings["total_s"] = time.perf_counter() - t0
    peak_rss_mb["conley"] = _peak_rss_mb()

    manifest = {
        "config": cfg.to_jsonable(),
        "cache_key": key,
        "enclosure_semantics": oracles.ENCLOSURE_SEMANTICS,
        "oracle_lipschitz_bound": float(oracle.lipschitz_upper_bound()),
        "n_boxes": grid.box_count,
        "n_exterior_boxes": int(boxmap.exterior.sum()),
        "n_morse_nodes": len(mg.nodes),
        "graph": {
            "levels": cond.levels,
            "recurrent_boxes": sum(int(r.size) for r in mg.regions),
        },
        "nodes": nodes,
        "timings": timings,
        "peak_rss_mb": peak_rss_mb,
        "versions": {
            "boxdyn": __version__,
            "numpy": np.__version__,
            "scipy": scipy.__version__,
            "python": platform.python_version(),
        },
        "notes": [
            "Exterior boxes (image enclosure outside the domain) are kept "
            "out of index pairs; they may still appear in downsets.",
        ],
    }
    return mg, manifest


def write_outputs(cfg: AnalysisConfig, mg: MorseGraph, manifest: dict):
    out = Path(cfg.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "morse_graph.dot").write_text(mg.to_dot())
    (out / "morse_graph.json").write_text(mg.to_json())
    (out / "manifest.json").write_text(json.dumps(manifest, indent=2))
    with open(out / "regions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["# grid"] + [f"{lo}:{up}:{s}" for lo, up, s in
                                 zip(cfg.lower, cfg.upper, mg.grid.subdivisions)])
        w.writerow(["box_index", "node_id"])
        for q in mg.nodes:
            for b in mg.region_of(q):
                w.writerow([int(b), q])


def cmd_analyze(cfg: AnalysisConfig):
    mg, manifest = run_analysis(cfg)
    write_outputs(cfg, mg, manifest)
    print(f"morse graph: {len(mg.nodes)} nodes -> {cfg.out}/morse_graph.dot")
    for q in mg.nodes:
        print(f"  node {mg.node_label(q)}  region={mg.region_of(q).size} boxes")
    return mg


def cmd_compare(cfg_fine: AnalysisConfig, cfg_coarse: AnalysisConfig, out=None):
    fine, man_f = run_analysis(cfg_fine)
    coarse, man_c = run_analysis(cfg_coarse)
    nu = project(fine, coarse)
    report = nu.to_jsonable()
    report["fine_manifest"] = man_f
    report["coarse_manifest"] = man_c
    out = Path(out or cfg_fine.out)
    out.mkdir(parents=True, exist_ok=True)
    (out / "nu_report.json").write_text(json.dumps(report, indent=2))
    ok = nu.facts["is_epimorphism"]
    print(f"nu: {'poset epimorphism verified' if ok else 'NOT an epimorphism'} "
          f"-> {out}/nu_report.json")
    return nu


def _apply_overrides(cfg: AnalysisConfig, args) -> AnalysisConfig:
    if args.domain:
        try:
            pairs = [tuple(map(float, p.split(":"))) for p in args.domain.split(",")]
        except ValueError:
            raise ConfigError(f"cannot parse --domain {args.domain!r}")
        cfg.lower = [p[0] for p in pairs]
        cfg.upper = [p[1] for p in pairs]
    if args.depth:
        try:
            cfg.depths = [int(v) for v in args.depth.split(",")]
        except ValueError:
            raise ConfigError(f"cannot parse --depth {args.depth!r}")
    if args.rho is not None:
        cfg.rho = args.rho
    if args.prime is not None:
        cfg.prime = args.prime
    if args.oracle:
        cfg.oracle = _parse_oracle_flag(args.oracle)
    if args.out:
        cfg.out = args.out
    if args.no_cache:
        cfg.cache = False
    return cfg.validate()


def _parse_oracle_flag(text: str) -> dict:
    kind, _, rest = text.partition(":")
    try:
        if kind == "leslie":
            return {"type": "leslie",
                    "theta": ([float(v) for v in rest.split(",")] if rest
                              else [23.5, 23.5])}
        if kind == "piecewise1d":
            return {"type": "piecewise1d", "theta": float(rest)}
        if kind == "mlp":
            return {"type": "mlp", "weights": rest}
        if kind == "data":
            path, _, lip = rest.rpartition(":")
            return {"type": "data", "samples": path, "lipschitz": float(lip)}
    except ValueError:
        raise ConfigError(f"cannot parse --oracle {text!r}")
    raise ConfigError(f"unknown oracle flag {text!r}")


def _empty_config() -> AnalysisConfig:
    return AnalysisConfig(lower=[], upper=[], depths=[], rho=0.0)


def _bind_domain(argv):
    """Join "--domain VALUE" into "--domain=VALUE": argparse reads a
    value with a negative lower bound, such as -1:1, as an option."""
    out = []
    for arg in argv:
        if out and out[-1] == "--domain":
            out[-1] = f"--domain={arg}"
        else:
            out.append(arg)
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="boxdyn",
        description="Rigorous Morse graphs and Conley indices for "
                    "approximated maps on a cubical grid.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    pa = sub.add_parser("analyze", help="run one analysis")
    pa.add_argument("--config", help="JSON config file")
    pa.add_argument("--domain", help="per-axis bounds lo:hi,lo:hi,...")
    pa.add_argument("--depth", help="per-axis dyadic depths d0,d1,...")
    pa.add_argument("--rho", type=float, help="inflation radius")
    pa.add_argument("--prime", type=int, help="field order")
    pa.add_argument("--oracle", help="leslie:t1,t2 | piecewise1d:t | "
                                     "mlp:path | data:path:L")
    pa.add_argument("--out", help="output directory")
    pa.add_argument("--no-cache", action="store_true",
                    help="skip the box-map cache")

    pc = sub.add_parser("compare", help="project a fine Morse graph onto a "
                                        "coarse one")
    pc.add_argument("--fine", required=True, help="fine config JSON")
    pc.add_argument("--coarse", required=True, help="coarse config JSON")
    pc.add_argument("--out", help="output directory for nu_report.json")

    if argv is None:
        argv = sys.argv[1:]
    args = parser.parse_args(_bind_domain(argv))
    try:
        if args.command == "analyze":
            cfg = load_config(args.config) if args.config else _empty_config()
            cfg = _apply_overrides(cfg, args)
            cmd_analyze(cfg)
        else:
            cmd_compare(load_config(args.fine), load_config(args.coarse),
                        out=args.out)
        return 0
    except (ConfigError, ParseError, EmptyDataset, DimensionMismatch) as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return 2
    except BoxdynError as e:
        print(f"computation failed: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
