"""Command-line front door.

Subcommands: gen (synthetic data), tune (grid search and model archive),
predict (archived model on query CSV), embed (eigenmap coordinates),
benchmark (experiment suites), verify (generator and embedding self-checks).

Exit codes: 0 success, 2 bad input, 3 numerical failure, 4 file/archive I/O.
A flag that the chosen variant does not read, or a randomized-solver flag
given with another --method, is reported before any file is read.
All numeric CSV output uses 17-significant-digit decimals, which round-trip
float64 exactly.
"""

from __future__ import annotations

import argparse
import inspect
import sys

import numpy as np

from . import archive
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
)
from .diffusion import EigenMethod, Mode, fit_basis
from .errors import ArchiveError, InputError, NumericalError
from .kernels import KernelSpec, _positive_sq_distances, bandwidth_grid
from .model_selection import TuneGrid, evaluate_on, tune_series
from .nystrom import eigenmap
from .series import predict

__all__ = ["main"]


def _fmt(value) -> str:
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _write_csv(path: str, header: list[str], rows, comment: str | None = None) -> None:
    lines = []
    if comment:
        lines.append(f"# {comment}")
    lines.append(",".join(header))
    for row in rows:
        lines.append(",".join(_fmt(v) for v in row))
    archive.write_atomic(path, ("\n".join(lines) + "\n").encode("utf-8"))


def _resolve_seed(args) -> int:
    if getattr(args, "seed", None) is not None:
        return args.seed
    seed = int(np.random.SeedSequence().entropy % (2**31))
    print(f"seed: {seed} (drawn; pass --seed {seed} to reproduce)")
    return seed


def _parse_list(text: str, kind=float) -> tuple:
    """A comma list of kind (float or int) values."""
    try:
        return tuple(kind(t) for t in text.split(",") if t.strip())
    except ValueError:
        name = "float" if kind is float else "integer"
        raise InputError(f"cannot parse {name} list {text!r}") from None


def _one_value(args, dest: str, kind):
    """The single value a flag takes where one kernel is fitted, not a grid."""
    values = _parse_list(getattr(args, dest), kind)
    if len(values) != 1:
        raise InputError(f"{_flag(dest)} takes one value here, got "
                         f"{getattr(args, dest)!r}")
    return values[0]


def _load_table(path: str) -> Dataset:
    """Load a CSV, treating a 'y' column as the response when present."""
    data = load_csv(path)
    names = data.column_names
    if not names or "y" not in names:
        return data
    j = names.index("y")
    keep = [k for k in range(data.d) if k != j]
    return Dataset(data.features[:, keep], data.features[:, j], [names[k] for k in keep])


def _method_from_args(args, seed: int | None = None) -> EigenMethod:
    """EigenMethod from the solver flags; a flag left out keeps its field default.

    seed, if given, stands in for --seed (tune's resolved seed, or a fresh
    fit's drawn one).
    """
    fields = {"name": getattr(args, "method", None),
              "oversample": getattr(args, "oversample", None),
              "power_iters": getattr(args, "power_iters", None),
              "seed": getattr(args, "seed", None) if seed is None else seed}
    return EigenMethod(**{k: v for k, v in fields.items() if v is not None})


def _mode_kwargs(args) -> dict:
    """mode= for the library call; with --mode left out, its default applies."""
    return {"mode": Mode.parse(args.mode)} if "mode" in args else {}


def _fresh_basis(args, X: np.ndarray, j_max: int):
    """fit_basis on X from the kernel, mode and solver flags of embed or verify.

    Without --bandwidth a Gaussian kernel takes _local_bandwidth(X); a
    polynomial one (--kernel poly, default degree 2) runs in uniform mode.
    Only the randomized solver draws a seed.
    """
    randomized = getattr(args, "method", None) == "randomized"
    method = _method_from_args(args, _resolve_seed(args) if randomized else None)
    if getattr(args, "kernel", None) == "poly":
        degree = _one_value(args, "degree", int) if "degree" in args else 2
        spec, mode = KernelSpec.polynomial(degree), {"mode": Mode.UNIFORM}
    else:
        bw = (_one_value(args, "bandwidth", float) if "bandwidth" in args
              else _local_bandwidth(X))
        spec, mode = KernelSpec.gaussian(bw), _mode_kwargs(args)
    return fit_basis(X, spec, j_max, method=method, **mode)


def _local_bandwidth(X: np.ndarray) -> float:
    """Default embedding bandwidth: 2nd-percentile squared distance over 4.

    Embeddings need a bandwidth at the local-neighborhood scale; the global
    median rule merges distant manifold branches.
    """
    return float(np.percentile(_positive_sq_distances(X), 2.0, overwrite_input=True)) / 4.0


_RENAMED_FLAGS = {"n_seeds": "--seeds", "j_max": "--jmax"}


def _flag(dest: str) -> str:
    return _RENAMED_FLAGS.get(dest, "--" + dest.replace("_", "-"))


# the flags that only the randomized eigensolver reads
_RANDOMIZED_FLAGS = ("oversample", "power_iters", "seed")


def _check_flags(args, variant: str, reads, seed_read: bool = False) -> None:
    """Raise InputError naming a flag given that the chosen variant does not read.

    The parsers suppress the default of every flag whose use depends on the
    variant, so args holds such a flag only when the user gave it. Only
    --method randomized reads _RANDOMIZED_FLAGS; with seed_read, --seed also
    seeds something besides the solver, so it stays. Every command whose
    flags depend on a variant calls this once, before it reads any file.
    """
    for dest in vars(args):
        if dest not in reads and dest not in ("command", "func"):
            raise InputError(f"{_flag(dest)} is not read with {variant}")
    method = getattr(args, "method", EigenMethod().name)
    for dest in () if method == "randomized" else _RANDOMIZED_FLAGS:
        if dest in args and not (seed_read and dest == "seed"):
            raise InputError(f"{_flag(dest)} is not read with --method {method}; "
                             "only --method randomized reads it")


def _kernel_variant(args) -> tuple[str, set[str]]:
    """The kernel variant of tune or of a fresh embed, and the kernel flags it reads.

    Polynomial Gram entries may be negative, so a polynomial kernel runs in
    uniform mode only.
    """
    if getattr(args, "kernel", None) == "poly":
        reads = {"kernel", "degree"}
        if getattr(args, "mode", None) == "uniform":
            reads.add("mode")
        return "--kernel poly, which runs in uniform mode", reads
    if "bandwidth" in args:
        return "--kernel gaussian --bandwidth", {"kernel", "bandwidth", "mode"}
    return "--kernel gaussian", {"kernel", "grid_size", "mode"}


GENERATORS = {"spiral": gen_spiral, "circle": gen_circle, "uniform": gen_uniform_interval}


def cmd_gen(args) -> int:
    # each kind's parser declares only its generator's parameters, so every
    # flag given is a keyword argument and the rest keep the signature defaults
    seed = _resolve_seed(args)
    kwargs = {k: v for k, v in vars(args).items()
              if k not in ("command", "func", "kind", "seed", "out")}
    data = GENERATORS[args.kind](seed=seed, **kwargs)
    header = list(data.column_names)
    rows = data.features
    if data.responses is not None:
        header.append("y")
        rows = np.column_stack([data.features, data.responses])
    _write_csv(args.out, header, rows, comment=f"seed={seed}")
    print(f"wrote {rows.shape[0]} rows to {args.out}")
    return 0


def _preprocess_splits(args, train, val, test):
    """The splits through the Preprocessing fitted on train, and that record.

    Each split goes through Preprocessing.apply, as archived queries do later.
    """
    prep = Preprocessing(standardize(train)[1] if args.standardize else None,
                         args.unit_norm)
    return (*(Dataset(prep.apply(s.features), s.responses, s.column_names)
              for s in (train, val, test)), prep)


_TUNE_READS = {"data", "response", "split", "jmax", "unlabeled", "standardize",
               "unit_norm", "method", "oversample", "power_iters", "seed", "out"}


def cmd_tune(args) -> int:
    variant, kernel_reads = _kernel_variant(args)
    _check_flags(args, variant, _TUNE_READS | kernel_reads, seed_read=True)
    seed = _resolve_seed(args)
    data = load_csv(args.data, response_column=args.response)
    fracs = _parse_list(args.split)
    if len(fracs) != 3:
        raise InputError(f"--split needs three fractions, got {args.split!r}")
    train, val, test = split(data, SplitSpec(*fracs, seed=seed))
    train, val, test, prep = _preprocess_splits(args, train, val, test)

    unlabeled = None
    if "unlabeled" in args:
        unl = _load_table(args.unlabeled)
        unlabeled = prep.apply(unl.features)

    n_basis = train.n + (0 if unlabeled is None else unlabeled.shape[0])
    j_max = args.jmax if "jmax" in args else min(n_basis - 1, 60)
    if getattr(args, "kernel", None) == "poly":
        degrees = _parse_list(args.degree, int) if "degree" in args else (1, 2, 3, 4, 5, 6)
        grid = TuneGrid(degrees=degrees, j_max=j_max)
    else:
        bandwidths = (_parse_list(args.bandwidth) if "bandwidth" in args
                      else tuple(bandwidth_grid(train.features,
                                                getattr(args, "grid_size", 5))))
        grid = TuneGrid(bandwidths=tuple(sorted(bandwidths)), j_max=j_max)

    model, report = tune_series(
        train, val, grid, method=_method_from_args(args, seed), unlabeled=unlabeled,
        **_mode_kwargs(args),
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
        "grid edge: " + (", ".join(report.grid_edges) or "none"),
        f"validation loss: {_fmt(report.val_loss)}",
        f"test loss: {_fmt(report.test_loss)} +/- {_fmt(report.test_se)} (SE)",
        "stage seconds: " + ", ".join(
            f"{k}={v:.4f}" for k, v in report.timings.items()),
    ]
    archive.write_atomic(f"{args.out}_summary.txt", ("\n".join(lines) + "\n").encode("utf-8"))
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


_EMBED_FIT_READS = {"data", "jdim", "jmax", "method", "oversample", "power_iters",
                    "seed", "out"}


def cmd_embed(args) -> int:
    if "model" in args:
        _check_flags(args, "--model", {"data", "model", "jdim", "out"})
        data = _load_table(args.data)
        model, prep = load_model(args.model)
        basis = model.basis
        X = prep.apply(data.features)
    else:
        variant, kernel_reads = _kernel_variant(args)
        _check_flags(args, variant, _EMBED_FIT_READS | kernel_reads)
        data = _load_table(args.data)
        X = data.features
        basis = _fresh_basis(args, X, getattr(args, "jmax", args.jdim))
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
_SOLVER_FLAGS = ("method", *_RANDOMIZED_FLAGS)


def cmd_benchmark(args) -> int:
    # kwargs holds only the flags the user gave, so every other parameter
    # keeps the suite function's default
    suite = SUITES[args.suite]
    params = inspect.signature(suite).parameters
    reads = {"suite", "out", *params}
    if "method" in params:
        reads.update(_SOLVER_FLAGS)
    _check_flags(args, f"--suite {args.suite}", reads)
    kwargs = {k: v for k, v in vars(args).items() if k in params}
    if any(k in args for k in _SOLVER_FLAGS):
        kwargs["method"] = _method_from_args(args)
    for key in ("dims", "ns"):
        if key in kwargs:
            kwargs[key] = _parse_list(kwargs[key], int)

    loss_rows, time_rows = suite(**kwargs)
    _write_csv(f"{args.out}_loss.csv", LOSS_FIELDS,
               [[r[k] for k in LOSS_FIELDS] for r in loss_rows])
    _write_csv(f"{args.out}_time.csv", TIME_FIELDS,
               [[r[k] for k in TIME_FIELDS] for r in time_rows])
    print(f"wrote {len(loss_rows)} loss rows and {len(time_rows)} timing rows "
          f"to {args.out}_loss.csv / {args.out}_time.csv")
    return 0


def cmd_verify(args) -> int:
    # each check's parser declares only the flags it reads
    _check_flags(args, f"verify {args.what}", vars(args))
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
        shown = f"spiral identity max deviation: {_fmt(dev)} (tolerance {_fmt(args.tol)})"
        failure = f"spiral identity deviation {dev:.3e} exceeds {args.tol:.3e}"
    else:
        # embedding check: first eigenmap coordinate tracks the response
        from scipy.stats import spearmanr

        basis = _fresh_basis(args, X, max(args.jdim, 1))
        rho = abs(float(spearmanr(eigenmap(basis, X, 1)[:, 0], t).statistic))
        ok = rho >= args.threshold
        shown = f"embedding rank correlation |rho| = {rho:.4f} (threshold {args.threshold})"
        failure = f"|rho| = {rho:.4f} below threshold {args.threshold}"
    print(f"{shown} -> {'PASS' if ok else 'FAIL'}")
    if not ok:
        raise NumericalError(failure)
    return 0


_MODES = ["stochastic", "symmetric", "bias-corrected", "uniform"]


def _add_method_flags(p: argparse.ArgumentParser) -> None:
    # no defaults: EigenMethod's fields hold them
    p.add_argument("--method", choices=["lanczos", "full", "randomized"],
                   help="eigensolver (default lanczos); only randomized reads "
                   "--oversample, --power-iters and a solver --seed")
    p.add_argument("--oversample", type=int)
    p.add_argument("--power-iters", type=int)


def _add_kernel_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--kernel", choices=["gaussian", "poly"],
                   help="kernel family (default gaussian)")
    p.add_argument("--degree", help="comma list of polynomial degrees")
    p.add_argument("--bandwidth", help="comma list of Gaussian bandwidths")
    p.add_argument("--mode", choices=_MODES,
                   help="normalization (default stochastic); poly takes only uniform")


def _add_gen_kind(kinds, kind: str, summary: str) -> argparse.ArgumentParser:
    p = kinds.add_parser(kind, help=summary, argument_default=argparse.SUPPRESS,
                         description=f"{summary}. A flag left out keeps the "
                         "generator's default.")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    return p


def build_parser() -> argparse.ArgumentParser:
    # A variant takes only the flags it reads: a flag left out keeps the
    # library function's default, and any other flag exits 2 naming it.
    # Sub-parsers reject another kind's flags; _check_flags rejects the rest.
    parser = argparse.ArgumentParser(
        prog="spectral-series",
        description="Nonparametric regression on adaptive kernel eigenbases",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a synthetic dataset CSV")
    p.set_defaults(func=cmd_gen)
    kinds = p.add_subparsers(dest="kind", required=True)
    k = _add_gen_kind(kinds, "spiral", "noisy planar spiral, response = arc parameter")
    k.add_argument("--noise-sd", type=float, help="feature noise sd")
    k.add_argument("--u-max", type=float,
                   help="the squared arc parameter is uniform on (0, u-max)")
    k = _add_gen_kind(kinds, "circle", "unit circle in R^d, response = noisy angle")
    k.add_argument("--d", type=int, help="ambient dimension")
    k.add_argument("--noise-var", type=float, help="response noise variance")
    k.add_argument("--rotate", action="store_true",
                   help="mix the circle into all d coordinates")
    k = _add_gen_kind(kinds, "uniform", "1-D features uniform on (lo, hi), no response")
    k.add_argument("--lo", type=float)
    k.add_argument("--hi", type=float)

    p = sub.add_parser("tune", help="grid-search (kernel, J) and write a model archive",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True)
    p.add_argument("--response", default="y", help="response column name")
    p.add_argument("--split", default="0.5,0.25,0.25")
    p.add_argument("--jmax", type=int)
    p.add_argument("--unlabeled", help="CSV of unlabeled rows pooled into the basis")
    p.add_argument("--standardize", action="store_true", default=False)
    p.add_argument("--unit-norm", action="store_true", default=False)
    _add_kernel_flags(p)
    p.add_argument("--grid-size", type=int,
                   help="Gaussian bandwidth grid size without --bandwidth (default 5)")
    _add_method_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", default="tuned", help="output path prefix")
    p.set_defaults(func=cmd_tune)

    p = sub.add_parser("predict", help="apply an archived model to query rows")
    p.add_argument("--model", required=True)
    p.add_argument("--data", required=True)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_predict)

    p = sub.add_parser("embed", help="export eigenmap coordinates",
                       argument_default=argparse.SUPPRESS)
    p.add_argument("--data", required=True)
    p.add_argument("--model", help="reuse an archived basis instead of fitting; "
                   "takes only --data, --jdim and --out")
    p.add_argument("--jdim", type=int, default=2, help="number of coordinates")
    p.add_argument("--jmax", type=int, help="basis cutoff of a fresh fit (default --jdim)")
    _add_kernel_flags(p)
    _add_method_flags(p)
    p.add_argument("--seed", type=int)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_embed)

    # no prefix matching here, so a stray --d is rejected, not read as --dims
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
    p.set_defaults(func=cmd_verify)
    checks = p.add_subparsers(dest="what", required=True)
    c = checks.add_parser("spiral-identity", argument_default=argparse.SUPPRESS,
                          help="noiseless spiral rows lie on (t cos t, t sin t)")
    c.add_argument("--data", required=True)
    c.add_argument("--tol", type=float, default=1e-9)
    c = checks.add_parser("embedding", argument_default=argparse.SUPPRESS,
                          help="the first eigenmap coordinate tracks the response")
    c.add_argument("--data", required=True)
    c.add_argument("--threshold", type=float, default=0.95)
    c.add_argument("--jdim", type=int, default=1)
    c.add_argument("--bandwidth", help="Gaussian bandwidth (default: local scale)")
    c.add_argument("--mode", choices=_MODES)
    _add_method_flags(c)
    c.add_argument("--seed", type=int)

    return parser


# the documented exit code of each failure
_EXIT_CODES = {InputError: 2, NumericalError: 3, ArchiveError: 4, OSError: 4}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
