"""Command-line front door.

Subcommands: gen (synthetic data), tune (grid search and model archive),
predict (archived model on query CSV), embed (eigenmap coordinates),
benchmark (experiment suites), verify (generator and embedding self-checks).

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 file/archive I/O.
All numeric CSV output uses 17-significant-digit decimals, which round-trip
float64 exactly.
"""

from __future__ import annotations

import argparse
import inspect
import os
import sys

import numpy as np

from .archive import Preprocessing, load_model, save_model
from .benchmarks import LOSS_FIELDS, SUITES, TIME_FIELDS
from .dataset import (
    Dataset,
    SplitSpec,
    gen_circle,
    gen_spiral,
    gen_uniform_interval,
    load_csv,
    split,
    standardize,
    unit_normalize_rows,
)
from .diffusion import EigenMethod, Mode, fit_basis
from .errors import ArchiveError, InputError, NumericalError
from .kernels import KernelSpec, bandwidth_grid
from .model_selection import TuneGrid, evaluate_on, tune_series
from .nystrom import eigenmap
from .series import predict

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (bool, np.bool_)):
        return str(int(value))
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _atomic_write_text(path: str, text: str) -> None:
    tmp = f"{path}.tmp.{os.getpid()}"
    try:
        with open(tmp, "w", encoding="utf-8", newline="") as fh:
            fh.write(text)
        os.replace(tmp, path)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)


def _write_csv(path: str, header: list[str], rows, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    _atomic_write_text(path, "\n".join(lines) + "\n")


def _resolve_seed(args) -> int:
    if args.seed is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2**31))
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _parse_floats(text: str) -> tuple[float, ...]:
    try:
        return tuple(float(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise InputError(f"cannot parse float list {text!r}") from None


def _parse_ints(text: str) -> tuple[int, ...]:
    try:
        return tuple(int(t) for t in text.split(",") if t.strip())
    except ValueError:
        raise InputError(f"cannot parse integer list {text!r}") from None


def _load_table(path: str) -> Dataset:
    """Load a CSV, treating a 'y' column as the response when present."""
    data = load_csv(path)
    if data.column_names and "y" in data.column_names:
        return load_csv(path, response_column="y")
    return data


def _method_from_args(args, seed: int | None) -> EigenMethod:
    """EigenMethod from the solver flags; a flag left out keeps its field default."""
    fields = {"name": getattr(args, "method", None),
              "oversample": getattr(args, "oversample", None),
              "power_iters": getattr(args, "power_iters", None),
              "seed": seed}
    return EigenMethod(**{k: v for k, v in fields.items() if v is not None})


def _local_bandwidth(X: np.ndarray) -> float:
    """Default embedding bandwidth: 2nd-percentile squared distance over 4.

    Embeddings need a bandwidth at the local-neighborhood scale; the global
    median rule merges distant manifold branches.
    """
    from scipy.spatial.distance import pdist

    sq = pdist(np.atleast_2d(X), "sqeuclidean")
    sq = sq[sq > 0.0]
    if sq.size == 0:
        raise InputError("all points identical; no distance scale available")
    return float(np.percentile(sq, 2.0)) / 4.0


def cmd_gen(args) -> int:
    seed = _resolve_seed(args)
    if args.kind == "spiral":
        data = gen_spiral(args.n, noise_sd=args.noise_sd, u_max=args.u_max, seed=seed)
    elif args.kind == "circle":
        data = gen_circle(args.n, d=args.d, noise_var=args.noise_var, seed=seed,
                          rotate=args.rotate)
    else:
        data = gen_uniform_interval(args.n, args.lo, args.hi, seed=seed)
    header = list(data.column_names)
    rows = data.features
    if data.responses is not None:
        header.append("y")
        rows = np.column_stack([data.features, data.responses])
    _write_csv(args.out, header, rows, comment=f"seed={seed}")
    print(f"wrote {rows.shape[0]} rows to {args.out}")
    return 0


def _preprocess_splits(args, train, val, test):
    std = None
    if args.standardize:
        train, std = standardize(train)
        val = Dataset(std.transform(val.features), val.responses, val.column_names)
        test = Dataset(std.transform(test.features), test.responses, test.column_names)
    if args.unit_norm:
        train = unit_normalize_rows(train)
        val = unit_normalize_rows(val)
        test = unit_normalize_rows(test)
    return train, val, test, Preprocessing(std, args.unit_norm)


def cmd_tune(args) -> int:
    seed = _resolve_seed(args)
    data = load_csv(args.data, response_column=args.response)
    if data.responses is None:
        raise InputError(f"response column {args.response!r} not found in {args.data}")
    fracs = _parse_floats(args.split)
    if len(fracs) != 3:
        raise InputError(f"--split needs three fractions, got {args.split!r}")
    train, val, test = split(data, SplitSpec(*fracs, seed=seed))
    train, val, test, prep = _preprocess_splits(args, train, val, test)

    unlabeled = None
    if args.unlabeled:
        unl = _load_table(args.unlabeled)
        unlabeled = prep.apply(unl.features)

    n_basis = train.n + (0 if unlabeled is None else unlabeled.shape[0])
    j_max = args.jmax if args.jmax is not None else min(n_basis - 1, 60)
    if args.kernel == "gaussian":
        bandwidths = (_parse_floats(args.bandwidth) if args.bandwidth
                      else tuple(bandwidth_grid(train.features, args.grid_size)))
        grid = TuneGrid(bandwidths=tuple(sorted(bandwidths)), j_max=j_max)
    else:
        degrees = _parse_ints(args.degree) if args.degree else (1, 2, 3, 4, 5, 6)
        grid = TuneGrid(degrees=degrees, j_max=j_max)

    model, report = tune_series(
        train, val, grid, mode=Mode.parse(args.mode),
        method=_method_from_args(args, seed), unlabeled=unlabeled,
    )
    report.test_loss, report.test_se = evaluate_on(lambda X: predict(model, X), test)

    save_model(f"{args.out}.model", model, prep)
    _write_csv(f"{args.out}_loss_surface.csv", ["kernel", "param", "J", "loss"],
               report.surface_rows())
    family, param, J = report.chosen
    lines = [
        f"seed: {seed}",
        f"rows: train={train.n} val={val.n} test={test.n}"
        + (f" unlabeled={unlabeled.shape[0]}" if unlabeled is not None else ""),
        f"chosen kernel: {model.basis.kernel.label()}",
        f"chosen J: {J}",
        f"validation loss: {_fmt(report.val_loss)}",
        f"test loss: {_fmt(report.test_loss)} +/- {_fmt(report.test_se)} (SE)",
        "stage seconds: " + ", ".join(
            f"{k}={v:.4f}" for k, v in report.timings.items()),
    ]
    _atomic_write_text(f"{args.out}_summary.txt", "\n".join(lines) + "\n")
    print("\n".join(lines))
    print(f"artifacts: {args.out}.model {args.out}_loss_surface.csv "
          f"{args.out}_summary.txt")
    return 0


def cmd_predict(args) -> int:
    model, prep = load_model(args.model)
    try:
        queries = _load_table(args.data)
    except InputError as exc:
        if "no data rows" in str(exc):
            _write_csv(args.out, ["prediction"], [])
            print(f"wrote 0 predictions to {args.out}")
            return 0
        raise
    X = prep.apply(queries.features)
    preds = predict(model, X)
    _write_csv(args.out, ["prediction"], [[p] for p in preds])
    print(f"wrote {preds.shape[0]} predictions to {args.out}")
    return 0


def cmd_embed(args) -> int:
    # full eigensolver is deterministic; only draw a seed when it matters
    seed = _resolve_seed(args) if args.method == "randomized" else (args.seed or 0)
    data = _load_table(args.data)
    if args.model:
        model, prep = load_model(args.model)
        basis = model.basis
        X = prep.apply(data.features)
    else:
        X = data.features
        if args.kernel == "gaussian":
            bw = (_parse_floats(args.bandwidth)[0] if args.bandwidth
                  else _local_bandwidth(X))
            spec = KernelSpec.gaussian(bw)
        else:
            degrees = _parse_ints(args.degree) if args.degree else (2,)
            spec = KernelSpec.polynomial(degrees[0])
        mode = Mode.parse(args.mode)
        if spec.family == "poly":
            mode = Mode.UNIFORM
        j_fit = args.jmax if args.jmax is not None else args.jdim
        basis = fit_basis(X, spec, j_fit, mode, _method_from_args(args, seed))
    if args.jdim > basis.n_components - 1:
        raise NumericalError(
            f"J={args.jdim} exceeds the {basis.n_components - 1} available "
            "nontrivial components"
        )
    coords = eigenmap(basis, X, args.jdim)
    header = [f"psi{j}" for j in range(1, args.jdim + 1)]
    rows = coords
    if data.responses is not None:
        header.append("y")
        rows = np.column_stack([coords, data.responses])
    _write_csv(args.out, header, rows)
    print(f"wrote {rows.shape[0]} embedding rows to {args.out}")
    return 0


# flags that fold into one method=EigenMethod(...) suite argument
_SOLVER_FLAGS = ("method", "oversample", "power_iters", "seed")
_RENAMED_FLAGS = {"n_seeds": "--seeds", "j_max": "--jmax"}


def _flag(dest: str) -> str:
    return _RENAMED_FLAGS.get(dest, "--" + dest.replace("_", "-"))


def cmd_benchmark(args) -> int:
    # the parser suppresses untyped flags, so kwargs holds only what the user
    # gave and every other parameter keeps the suite function's default
    suite = SUITES[args.suite]
    kwargs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "suite", "out")}
    solver = [k for k in _SOLVER_FLAGS if k in kwargs]
    for k in solver:
        del kwargs[k]
    if solver:
        kwargs["method"] = _method_from_args(args, getattr(args, "seed", None))
    params = inspect.signature(suite).parameters
    for key in kwargs:
        if key not in params:
            flag = _flag(solver[0] if key == "method" else key)
            raise InputError(f"suite {args.suite} does not take {flag}")
    for key in ("dims", "ns"):
        if key in kwargs:
            kwargs[key] = _parse_ints(kwargs[key])

    loss_rows, time_rows = suite(**kwargs)
    _write_csv(f"{args.out}_loss.csv", LOSS_FIELDS,
               [[r[k] for k in LOSS_FIELDS] for r in loss_rows])
    _write_csv(f"{args.out}_time.csv", TIME_FIELDS,
               [[r[k] for k in TIME_FIELDS] for r in time_rows])
    print(f"wrote {len(loss_rows)} loss rows and {len(time_rows)} timing rows "
          f"to {args.out}_loss.csv / {args.out}_time.csv")
    return 0


def cmd_verify(args) -> int:
    data = load_csv(args.data, response_column="y")
    X, t = data.features, data.responses
    if args.what == "spiral-identity":
        if X.shape[1] != 2:
            raise InputError("spiral identity check needs 2 feature columns")
        dev = max(
            float(np.abs(X[:, 0] - t * np.cos(t)).max()),
            float(np.abs(X[:, 1] - t * np.sin(t)).max()),
        )
        ok = dev <= args.tol
        print(f"spiral identity max deviation: {_fmt(dev)} "
              f"(tolerance {_fmt(args.tol)}) -> {'PASS' if ok else 'FAIL'}")
        if not ok:
            raise NumericalError(
                f"spiral identity deviation {dev:.3e} exceeds {args.tol:.3e}"
            )
        return 0
    # embedding check: first eigenmap coordinate tracks the response
    from scipy.stats import spearmanr

    seed = _resolve_seed(args) if args.method == "randomized" else (args.seed or 0)
    bw = (_parse_floats(args.bandwidth)[0] if args.bandwidth
          else _local_bandwidth(X))
    basis = fit_basis(X, KernelSpec.gaussian(bw), max(args.jdim, 1),
                      Mode.parse(args.mode), _method_from_args(args, seed))
    coords = eigenmap(basis, X, 1)
    rho = float(spearmanr(coords[:, 0], t).statistic)
    ok = abs(rho) >= args.threshold
    print(f"embedding rank correlation |rho| = {abs(rho):.4f} "
          f"(threshold {args.threshold}) -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericalError(
            f"|rho| = {abs(rho):.4f} below threshold {args.threshold}"
        )
    return 0


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    # no defaults: EigenMethod's fields hold them
    p.add_argument("--method", choices=["full", "randomized"])
    p.add_argument("--oversample", type=int)
    p.add_argument("--power-iters", type=int)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=["gaussian", "poly"], default="gaussian")
    p.add_argument("--degree", help="comma list of polynomial degrees")
    p.add_argument("--bandwidth", help="comma list of Gaussian bandwidths")
    p.add_argument("--grid-size", type=int, default=5,
                   help="bandwidth grid size when --bandwidth is omitted")
    p.add_argument("--mode", default="stochastic",
                   choices=["stochastic", "symmetric", "bias-corrected", "uniform"])


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spectral-series",
        description="Nonparametric regression on adaptive kernel eigenbases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.add_argument("kind", choices=["spiral", "circle", "uniform"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, default=2, help="circle ambient dimension")
    p.add_argument("--noise-sd", type=float, default=0.1, help="spiral feature noise")
    p.add_argument("--noise-var", type=float, default=0.5, help="circle response noise")
    p.add_argument("--u-max", type=float, default=float(9 * np.pi**2))
    p.add_argument("--rotate", action="store_true",
                   help="mix the circle into all d coordinates")
    p.add_argument("--lo", type=float, default=0.0)
    p.add_argument("--hi", type=float, default=1.0)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("tune", help="grid-search (kernel, J) and write a model archive")
    p.add_argument("--data", required=True)
    p.add_argument("--response", default="y", help="response column name")
    p.add_argument("--split", default="0.5,0.25,0.25")
    p.add_argument("--jmax", type=int)
    p.add_argument("--unlabeled", help="CSV of unlabeled rows pooled into the basis")
    p.add_argument("--standardize", action="store_true")
    p.add_argument("--unit-norm", action="store_true")
    _add_kernel_flags(p)
    _add_method_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="tuned", help="output path prefix")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="apply an archived model to query rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("embed", help="export eigenmap coordinates")
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="reuse an archived basis instead of fitting")
    p.add_argument("--jdim", type=int, default=2, help="number of coordinates")
    p.add_argument("--jmax", type=int)
    _add_kernel_flags(p)
    _add_method_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    # no prefix matching here, so a stray --d is rejected, not read as --dims.
    # Untyped flags stay out of the namespace: the suite's own defaults apply,
    # and a flag the suite does not take is rejected by cmd_benchmark.
    p = sub.add_parser("benchmark", help="run an experiment suite", allow_abbrev=False,
                       argument_default=argparse.SUPPRESS,
                       description="Each suite takes only its own flags; a flag "
                       "left out keeps the suite function's default.")
    p.add_argument("--suite", required=True, choices=list(SUITES))
    p.add_argument("--n", type=int, help="sample size")
    p.add_argument("--dims", help="comma list of ambient dimensions")
    p.add_argument("--ns", help="comma list of sample sizes")
    p.add_argument("--seeds", dest="n_seeds", type=int, help="number of replicate seeds")
    p.add_argument("--noise-sd", type=float, help="spiral feature noise")
    p.add_argument("--noise-var", type=float, help="circle response noise")
    p.add_argument("--grid-size", type=int, help="bandwidth grid size")
    p.add_argument("--jmax", dest="j_max", type=int, help="largest truncation J")
    _add_method_flags(p)
    p.add_argument("--seed", type=int, help="randomized eigensolver seed")
    p.add_argument("--out", default="benchmark", help="output path prefix")
    p.set_defaults(func=cmd_benchmark)

    p = sub.add_parser("verify", help="self-checks for generators and embeddings")
    p.add_argument("what", choices=["spiral-identity", "embedding"])
    p.add_argument("--data", required=True)
    p.add_argument("--tol", type=float, default=1e-9)
    p.add_argument("--threshold", type=float, default=0.95)
    p.add_argument("--jdim", type=int, default=1)
    _add_kernel_flags(p)
    _add_method_flags(p)
    p.add_argument("--seed", type=int)
    p.set_defaults(func=cmd_verify)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except NumericalError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ArchiveError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 4


if __name__ == "__main__":
    sys.exit(main())
