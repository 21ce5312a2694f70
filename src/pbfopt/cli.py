"""Command-line front end for the simulate/train/optimize/validate chain.

Every subcommand accepts ``--config PATH`` pointing at a JSON document,
the only source of a run's settings; absent keys fall back to the nominal
defaults, so running without a config reproduces the published setup.
Exit status is 0 on success, 1 on a domain error (bad values, missing
artifacts, simulator failure) and 2 on a usage error.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import optimize, pipeline, risk
from .surrogate import OUTPUT_NAMES, load_bundle
from .thermal import DesignPoint, SimulationError

__all__ = ["main", "build_parser"]

# the simulate stage's artifacts, in the order run_simulations returns them
_MATRICES = ("doe.csv", "T.csv", "S.csv")


def _parse_design(text: str) -> tuple[float, float]:
    try:
        v, p = map(float, text.split(","))
    except ValueError:  # a count other than two, or a non-number
        raise argparse.ArgumentTypeError(f"design must be 'v,P', got {text!r}") from None
    return v, p


def _load_cfg(args) -> pipeline.PipelineConfig:
    if getattr(args, "config", None):
        return pipeline.load_config(args.config)
    return pipeline.PipelineConfig()


def _require(path: Path, producer: str) -> Path:
    if not path.exists():
        raise FileNotFoundError(
            f"missing artifact {path}; run `pbfopt {producer}` first"
        )
    return path


def cmd_simulate(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    for name, data in zip(_MATRICES, pipeline.run_simulations(cfg)):
        print(f"wrote {out / name} ({data.shape[0]} x {data.shape[1]})")
    return 0


def cmd_train(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    doe, T, S = (
        np.loadtxt(_require(out / name, "simulate"), delimiter=",", ndmin=2)
        for name in _MATRICES
    )
    bundle = pipeline.train_from_matrices(cfg, doe, T, S)
    prov = bundle.provenance
    print(f"wrote {out / 'bundle.json'}")
    print(f"temperature features: {prov['K_T']} (r2 {prov['temperature_r2']})")
    print(f"stress features: {prov['K_S']} (r2 {prov['stress_r2']})")
    if args.plot_data:
        curves = json.loads((out / "err_curves.json").read_text(encoding="utf-8"))
        for name in OUTPUT_NAMES:
            errs = curves[name]["errors"]
            rows = np.column_stack([np.arange(1, len(errs) + 1), errs])
            path = pipeline.write_artifact(out, f"plot_err_{name}.csv", rows)
            print(f"wrote {path}")
    return 0


def cmd_optimize(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    bundle = load_bundle(_require(out / "bundle.json", "train"))
    starts = tuple(args.d0) if args.d0 else pipeline.DEFAULT_STARTS
    results = pipeline.run_optimization(cfg, bundle, starts)
    for d0, res in zip(starts, results):
        tag = "feasible" if res.feasible else "infeasible"
        print(
            f"start ({d0[0]:g}, {d0[1]:g}) -> "
            f"v={res.d_star.v:.4g} P={res.d_star.P:.4g} "
            f"E={res.energy:.6g} J zeta={res.zeta_star:.6g} [{tag}]"
        )
    print(f"wrote {out / 'optimize.json'}")
    print(f"wrote {out / 'optimize_history.csv'}")
    if args.plot_data:
        # per start: (start, evaluation, lowest feasible energy so far), from
        # the first feasible evaluation on
        rows = []
        for i, res in enumerate(results):
            h = res.history
            ok = optimize.is_feasible(cfg.optimize, h[:, 4], h[:, 5])
            best = np.minimum.accumulate(np.where(ok, h[:, 3], np.inf))
            j = np.flatnonzero(np.isfinite(best))
            rows.append(np.column_stack([np.full(j.size, i), j, best[j]]))
        path = pipeline.write_artifact(out, "plot_convergence.csv", np.vstack(rows))
        print(f"wrote {path}")
    return 0


def cmd_validate(args) -> int:
    if (args.design is None) != (args.zeta is None):
        raise ValueError("--design and --zeta must be given together")
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    bundle = load_bundle(_require(out / "bundle.json", "train"))
    if args.design:
        d_star, zeta = DesignPoint(v=args.design[0], P=args.design[1]), args.zeta
    else:
        text = _require(out / "optimize.json", "optimize").read_text(encoding="utf-8")
        doc = json.loads(text)
        # the stored optimum is validated only under the settings and on the
        # bundle it was solved with; an older optimize.json has no digest
        for what, key, here in (
            ("config hash", "config_hash", pipeline.config_hash(cfg)),
            ("bundle digest", "bundle_digest", pipeline.bundle_digest(bundle)),
        ):
            if doc.get(key) != here:
                raise ValueError(
                    f"optimize.json was solved under {what} {doc.get(key)}, but "
                    f"this run's is {here}; rerun `pbfopt optimize` with this "
                    f"config and bundle"
                )
        d_star, zeta = DesignPoint(*doc["best"]["d_star"]), doc["best"]["zeta_star"]
    report = pipeline.validate(d_star, zeta, bundle, cfg, self_check=args.self_check)
    print(f"design: ({d_star.v:.6g}, {d_star.P:.6g})")
    print(f"zeta: {float(zeta):.10g}")
    print(f"q_sim: {report.q_sim:.10g}")
    print(f"q_surr: {report.q_surr:.10g}")
    print(f"rel_diff: {report.rel_diff:.6%}")
    print(f"wrote {out / 'validation.json'}")
    return 0


def cmd_risk(args) -> int:
    values = np.loadtxt(args.samples, ndmin=1)
    # bPOF first and the quantile before the superquantile, so a bad --tau
    # is reported before a bad --alpha
    bpof, zeta = risk.estimate_bpof_minform(values, args.tau)
    print(f"quantile: {risk.estimate_quantile(values, args.alpha):.10g}")
    print(f"superquantile: {risk.estimate_superquantile(values, args.alpha):.10g}")
    print(f"pof: {risk.estimate_pof(values, args.tau):.10g}")
    print(f"bpof: {bpof:.10g}")
    print(f"zeta: {zeta:.10g}")
    return 0


def cmd_model(args) -> int:
    cfg = _load_cfg(args)
    out = Path(cfg.out_dir)
    bundle = load_bundle(_require(out / "bundle.json", "train"))
    prov = bundle.provenance
    print(f"inputs: {len(bundle.input_bounds)}")
    for name in OUTPUT_NAMES:
        print(f"{name} features: {len(getattr(bundle, name).features)}")
    for name in OUTPUT_NAMES:
        for i, m in enumerate(getattr(bundle, name).features):
            print(
                f"{name}[{i}]: r={m.subspace.r} degree={m.poly.degree} "
                f"r2={m.poly.r2:.6f}"
            )
    for key in sorted(prov):
        print(f"provenance {key}: {prov[key]}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="pbfopt",
        description="Risk-based process design for a powder-bed scan model.",
    )
    sub = p.add_subparsers(dest="command", required=True)

    def common(name: str, func, help_text: str):
        sp = sub.add_parser(name, help=help_text)
        sp.add_argument("--config", metavar="PATH", help="JSON config file")
        sp.set_defaults(func=func)
        return sp

    common("simulate", cmd_simulate, "run the training design of experiments")

    sp = common("train", cmd_train, "reduce matrices and fit the surrogate bundle")
    sp.add_argument("--plot-data", action="store_true", help="emit err-vs-k CSVs")

    sp = common("optimize", cmd_optimize, "minimize scan energy under constraints")
    sp.add_argument(
        "--d0", action="append", metavar="V,P", type=_parse_design,
        help="initial design",
    )
    sp.add_argument("--plot-data", action="store_true", help="emit convergence CSV")

    sp = common("validate", cmd_validate, "compare simulator and surrogate risk")
    sp.add_argument(
        "--design", metavar="V,P", type=_parse_design, help="design to validate"
    )
    sp.add_argument("--zeta", type=float, help="superquantile anchor, MPa")
    sp.add_argument(
        "--self-check",
        action="store_true",
        help="replace the surrogate side with fresh simulations",
    )

    sp = sub.add_parser("risk", help="risk measures of a plain sample file")
    sp.add_argument("samples", help="text file of sample values")
    sp.add_argument("--alpha", type=float, default=0.95)
    sp.add_argument("--tau", type=float, required=True)
    sp.set_defaults(func=cmd_risk)

    sp = common("model", cmd_model, "inspect a trained bundle")
    sp.add_argument("what", choices=["info"])

    return p


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return int(e.code or 0)
    try:
        return args.func(args)
    except (ValueError, OSError, KeyError, SimulationError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
