"""Command-line interface.

Exit codes: 0 on success; 2 on argument/usage errors and bad input,
including input files with non-finite or complex entries and malformed
bench configs; 3 on numerical failure during the computation (singular
systems, floating-point errors, a sketch or triangle that overflows on
finite input, a subnormal matrix, a non-finite error). A report whose
`p` holds a NaN or an infinity is not written: json refuses it, and that
ValueError exits 2 with json's message ("Out of range float values are
not JSON compliant: nan").
"""

import json
import sys

import click
import numpy as np

from .bench import (
    ERROR_NORM_KINDS,
    ExperimentConfig,
    run_experiment,
    run_matrix_trial,
    run_tensor_trial,
    write_csv,
)
from .cp_tensor import TENSOR_METHODS, load_cp_dir, save_cp_dir
from .generators import gen_synthetic_matrix, gen_synthetic_tensor
from .matrix_id import DEFAULT_OVERSAMPLE, MATRIX_METHODS, UNSKETCHED_METHODS
from .mmio import read_matrix_market, write_matrix_market

EXIT_ARGUMENT = 2
EXIT_NUMERICAL = 3

_P_SLOT = "\0p"  # stands in for id.p; no path or other report string holds a NUL


def _indented(items, depth):
    """A list of encoded items as json.dumps(indent=2) writes it at `depth` spaces."""
    if not items:
        return "[]"
    pad = "\n" + " " * (depth + 2)
    return f"[{pad}{(',' + pad).join(items)}\n{' ' * depth}]"


def _emit(payload, out):
    """Write the report, byte for byte the text of
    `json.dumps(payload, indent=2, allow_nan=False)` (plus a newline in an
    --out file).

    With an indent, json encodes in pure Python: 42-50 ms for the 100 x 500
    `id.p` of a 32000-row matrix-id report (Python 3.11.7, 2-core Xeon). So
    `p` is rendered apart, by `float.__repr__` (json's float encoding), and
    spliced into the dump of the rest: 22 ms. A non-finite repr (nan, inf,
    -inf) holds an "n" and a finite one never does; a `p` with one, or a
    payload without `id.p`, is dumped whole, which raises for the former.
    """
    ident = payload.get("id", {})
    block = _indented([_indented(list(map(float.__repr__, row)), 6)
                       for row in ident["p"]], 4) if "p" in ident else None
    if block is None or "n" in block:
        text = json.dumps(payload, indent=2, allow_nan=False)
    else:
        text = json.dumps({**payload, "id": {**ident, "p": _P_SLOT}},
                          indent=2, allow_nan=False)
        text = text.replace(json.dumps(_P_SLOT), block, 1)
    if out:
        with open(out, "w") as fh:
            fh.write(text + "\n")
    else:
        click.echo(text)


class _Main(click.Group):
    """The command group; it maps every subcommand's errors to exit codes."""

    def invoke(self, ctx):
        try:
            return super().invoke(ctx)
        except (np.linalg.LinAlgError, FloatingPointError) as exc:
            click.echo(f"numerical failure: {exc}", err=True)
            sys.exit(EXIT_NUMERICAL)
        except (ValueError, OSError) as exc:
            click.echo(f"error: {exc}", err=True)
            sys.exit(EXIT_ARGUMENT)


@click.group(cls=_Main)
def main():
    """Fast randomized interpolative decomposition of matrices and CP tensors."""


def _id_options(methods, default):
    """The options matrix-id and tensor-id share, as one decorator."""
    options = [
        click.option("--rank", "-k", type=int, required=True, help="Target rank K."),
        click.option("--method", type=click.Choice(methods), default=default,
                     show_default=True, help="Decomposition method."),
        click.option("--oversample", type=int, default=DEFAULT_OVERSAMPLE,
                     show_default=True,
                     help="Sketch rows above the rank (L = K + oversample)."),
        click.option("--seed", type=int, default=0, show_default=True,
                     help="Seed of the sketch."),
        click.option("--out", type=click.Path(dir_okay=False), default=None,
                     help="Write the JSON report here instead of stdout."),
    ]

    def decorate(fn):
        for option in reversed(options):  # click lists them in this order
            fn = option(fn)
        return fn

    return decorate


def _id_report(path, load, run_trial, describe, norm_kind,
               rank, method, oversample, seed, out):
    """Load the input, decompose it and emit the JSON report."""
    data = load(path)
    sketch_dim = None if method in UNSKETCHED_METHODS else rank + oversample
    result, err, _, wall = run_trial(data, method, rank, sketch_dim, seed)
    payload = {
        "input": path,
        **describe(data),
        "method": method,
        "rank": rank,
        "sketch_dim": sketch_dim,
        "seed": seed,
        "error_estimate": err,
        "error_norm_kind": norm_kind,
        "wall_time_seconds": wall,
        "id": result.to_dict(),
    }
    _emit(payload, out)


@main.command("matrix-id")
@click.argument("input_path", type=click.Path(exists=True, dir_okay=False))
@_id_options(MATRIX_METHODS, "countsketch")
def matrix_id_cmd(input_path, **options):
    """Decompose a Matrix Market file (sparse coordinate or dense array)."""
    _id_report(
        input_path, read_matrix_market, run_matrix_trial,
        lambda a: {"rows": int(a.shape[0]), "cols": int(a.shape[1])},
        ERROR_NORM_KINDS["matrix"], **options,
    )


@main.command("tensor-id")
@click.argument("cp_dir", type=click.Path(exists=True, file_okay=False))
@_id_options(TENSOR_METHODS, "tensorsketch")
def tensor_id_cmd(cp_dir, **options):
    """Reduce the rank of a CP tensor stored as a directory
    (meta.json, svalues.txt, factor_*.mtx)."""
    _id_report(
        cp_dir, load_cp_dir, run_tensor_trial,
        lambda x: {"n_modes": x.ndim, "mode_dims": list(x.mode_dims), "terms": x.rank},
        ERROR_NORM_KINDS["tensor"], **options,
    )


@main.command()
@click.argument("kind", type=click.Choice(["matrix", "tensor"]))
@click.option("--config", "config_path", required=True,
              type=click.Path(exists=True, dir_okay=False),
              help="ExperimentConfig JSON.")
@click.option("--out", type=click.Path(dir_okay=False), default=None,
              help="Results CSV path (default: stdout summary only).")
def bench(kind, config_path, out):
    """Run a benchmark sweep from a config file and emit a results CSV."""
    cfg = ExperimentConfig.from_json(config_path)
    if cfg.kind != kind:
        raise ValueError(
            f"config kind {cfg.kind!r} does not match command argument {kind!r}"
        )
    reports, summaries = run_experiment(cfg)
    if out:
        write_csv(out, reports, summaries)
    for s in summaries:
        click.echo(
            f"{s['kind']} {s['method']:>12s} size={s['size']:>8d} "
            f"err_median={s['error_median']:.3e} "
            f"wall_median={s['wall_time_median']:.4f}s "
            f"ok={s['n_ok']}/{s['n_trials']}"
        )


@main.command()
@click.argument("kind", type=click.Choice(["matrix", "tensor"]))
@click.option("--rows", type=int, default=2000, show_default=True,
              help="Matrix rows / tensor mode dimension.")
@click.option("--cols", type=int, default=500, show_default=True,
              help="Matrix columns / CP terms.")
@click.option("--rank", type=int, default=100, show_default=True,
              help="Spectral knee position.")
@click.option("--modes", type=int, default=5, show_default=True,
              help="Tensor modes (tensor only).")
@click.option("--density", type=float, default=0.005, show_default=True)
@click.option("--seed", type=int, default=0, show_default=True)
@click.option("--out", required=True, type=click.Path(),
              help="Output .mtx file (matrix) or CP directory (tensor).")
def gen(kind, rows, cols, rank, modes, density, seed, out):
    """Generate a synthetic benchmark input and write it to disk."""
    if kind == "matrix":
        a = gen_synthetic_matrix(rows, cols, rank, density, seed=seed)
        write_matrix_market(out, a)
        click.echo(f"wrote {a.shape[0]}x{a.shape[1]} matrix, nnz={a.nnz}, to {out}")
    else:
        x = gen_synthetic_tensor(modes, rows, cols, rank, density, seed=seed)
        save_cp_dir(out, x)
        click.echo(
            f"wrote {x.ndim}-mode rank-{x.rank} CP tensor "
            f"(dims {list(x.mode_dims)}) to {out}"
        )


if __name__ == "__main__":
    main()
