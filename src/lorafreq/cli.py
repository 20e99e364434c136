"""Command-line surface: analyze | mask | decompress | sweep | correlate | synth.

Exit codes: 0 success, 1 usage or invalid fixture spec, 2 unreadable or
malformed container (bad alpha/r metadata, overflowing updates, and sparse
coefficients beyond binary32 range too), 3 no adapter pairs found, 4 every
update matrix is zero, 5 not-spectral or corrupt sparse input, 6 degenerate
statistics or an SVD that does not converge.
Diagnostics go to stderr; stdout carries only the storage accounting.

Every output file is written to a unique temp file in the target directory,
synced and renamed into place, so interrupted or concurrent runs never leave
truncated files.
"""

from __future__ import annotations

import csv
import io
import json
import os
import re
import tempfile
from concurrent.futures import ThreadPoolExecutor
from itertools import chain
from pathlib import Path

import click
import numpy as np

from . import codec, report
from .analysis import _factored_energies, _factored_selection, _sweep_points
from .container import container_chunks, container_header, read_container
from .dct import _invert_columns, _scatter_rows
from .errors import LorafreqError
from .fixtures import KINDS, FixtureSpec, generate_set, ramp_specs, repeat_specs

_MAX_SEED = 2**64 - 1
# mkstemp creates files 0600; outputs get the mode open() would give them.
# Read once at import, because reading the umask briefly changes it.
_UMASK = os.umask(0o022)
os.umask(_UMASK)


class _NoPairsError(LorafreqError):
    exit_code = 3


_scale_option = click.option(
    "--scale",
    type=click.FloatRange(0, min_open=True),
    default=None,
    help="Override the metadata-derived alpha/r merge scale. Malformed "
    "alpha/r metadata still exits 2.",
)
_threads_option = click.option(
    "--threads",
    type=click.IntRange(1),
    default=None,
    help="Worker threads for per-matrix stages [default: the cores this "
    "process may run on].",
)


@click.group()
def cli():
    """Frequency-domain analysis and compression of low-rank adapter updates."""


@cli.command("analyze")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--out",
    required=True,
    type=click.Path(file_okay=False),
    help="Output directory for report.json and curve CSVs.",
)
@click.option(
    "--energy-target",
    type=click.FloatRange(0, 1, min_open=True),
    default=0.9,
    show_default=True,
    help="Cumulative energy fraction defining the k threshold.",
)
@_scale_option
@_threads_option
def cmd_analyze(input, out, energy_target, scale, threads):
    """Report spectral energy concentration per adapter matrix."""
    pairs = _load_pairs(input, scale)
    rows_points = report.analysis_rows(pairs, energy_target, threads)
    doc = report.analysis_report(input, pairs, rows_points, pairs[0].scale)

    out_dir = Path(out)
    _write_text(out_dir / "report.json", _json_text(doc))
    header = ("coefficient_rank_percent", "cumulative_fraction")
    combined = [_csv_text(("matrix_prefix", *header), ())]
    for i, (pair, (_, points)) in enumerate(zip(pairs, rows_points)):
        if not points:
            click.echo(
                f"warning: {pair.prefix} is a zero update; curve is empty",
                err=True,
            )
        name = f"matrix_{i:03d}_{_slug(pair.prefix)}.curve.csv"
        text = _csv_text(header, points)
        _write_text(out_dir / name, text)
        combined.append(_prefixed_rows(pair.prefix, text))
    _write_text(out_dir / "curves_combined.csv", "".join(combined))
    click.echo(f"analyzed {len(pairs)} matrices into {out}", err=True)


@cli.command("mask")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--k",
    required=True,
    type=click.FloatRange(0, 100, min_open=True),
    help="Percentage of coefficients to retain, in (0, 100].",
)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@click.option(
    "--emit",
    type=click.Choice(["sparse", "dense"]),
    default="sparse",
    show_default=True,
    help="sparse: spectral coefficient file; dense: reconstructed updates.",
)
@click.option(
    "--base-params",
    type=click.IntRange(1),
    default=None,
    help="Base parameter count for the k%-of-base storage accounting "
    "[default: total dense update size].",
)
@_scale_option
@_threads_option
def cmd_mask(input, k, out, emit, base_params, scale, threads):
    """Keep the top-k% spectrum of each update and write the result."""
    pairs = _load_pairs(input, scale)

    def one(pair):
        indices, values = _factored_selection(
            pair.b_matrix, pair.a_matrix, pair.scale, k
        )
        shape = pair.out_shape
        if emit == "sparse":
            return indices.size, codec._sparse(pair.prefix, shape, indices, values, k)
        # Only the kept coefficients wait for the file.
        return indices.size, (f"{pair.prefix}.delta_w", shape, indices, values)

    counts, items = zip(*report.map_matrices(one, pairs, threads))
    base = base_params or sum(p.out_shape[0] * p.out_shape[1] for p in pairs)
    accounting = codec.storage_report(base, k, list(counts))

    if emit == "sparse":
        _write_chunks(Path(out), container_chunks(codec.pack_sparse_file(list(items))))
    else:
        _write_dense(Path(out), items, threads)

    click.echo(
        f"nominal accounting: base {accounting.base_param_count} parameters, "
        f"stored {accounting.nominal_stored} ({accounting.nominal_reduction:.1f}x)"
    )
    click.echo(
        f"coefficient accounting: {accounting.coeff_value_count} values, "
        f"{accounting.coeff_total_units} stored units "
        f"({accounting.coeff_reduction:.1f}x)"
    )
    if accounting.exceeds_base:
        click.echo(
            "note: index+value storage exceeds the dense parameter count at this k",
            err=True,
        )


@cli.command("decompress")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_threads_option
def cmd_decompress(input, out, threads):
    """Reconstruct dense updates from a sparse spectral file."""
    spectra = codec.unpack_sparse_file(read_container(Path(input).read_bytes()))
    # Not through decode_sparse, which allocates each inverse on its own:
    # _write_dense inverts them one at a time in one shared buffer.
    tensors = [
        (f"{s.name}.delta_w", s.shape, s.flat_indices, s.values) for s in spectra
    ]
    _write_dense(Path(out), tensors, threads)
    click.echo(f"decompressed {len(tensors)} matrices into {out}", err=True)


@cli.command("sweep")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option(
    "--k-list",
    required=True,
    callback=lambda ctx, param, value: _parse_k_list(value),
    help="Comma-separated k percentages, each in (0, 100].",
)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_scale_option
@_threads_option
def cmd_sweep(input, k_list, out, scale, threads):
    """Tabulate reconstruction error against the frequency budget k."""
    pairs = _load_pairs(input, scale)

    def one(pair):
        energies = _factored_energies(pair.b_matrix, pair.a_matrix, pair.scale)
        return pair.prefix, _sweep_points(energies, k_list)

    live = list(report.map_matrices(one, pairs, threads))
    rows = [
        (prefix, pt.k_percent, pt.relative_error, pt.retained_energy_fraction)
        for prefix, points in sorted(live, key=lambda item: item[0])
        for pt in points
    ]
    _write_text(
        Path(out),
        _csv_text(
            ("matrix_prefix", "k", "relative_error", "retained_energy_fraction"),
            rows,
        ),
    )
    click.echo(f"swept {len(live)} matrices at {len(k_list)} budgets", err=True)


@cli.command("correlate")
@click.argument("input", type=click.Path(exists=True, dir_okay=False))
@click.option("--out", required=True, type=click.Path(dir_okay=False))
@_scale_option
@_threads_option
def cmd_correlate(input, out, scale, threads):
    """Correlate SVD-based and DCT-based k90 across matrices."""
    pairs = _load_pairs(input, scale)
    doc = report.correlate_report(input, pairs, pairs[0].scale, threads)
    _write_text(Path(out), _json_text(doc))
    click.echo(
        f"pearson {doc['pearson']:.4f}, spearman {doc['spearman']:.4f}, "
        f"n {doc['n']}",
        err=True,
    )


@cli.command("synth")
@click.option("--kind", required=True, type=click.Choice(KINDS))
@click.option("--m", required=True, type=click.IntRange(1))
@click.option("--n", required=True, type=click.IntRange(1))
@click.option("--r", type=click.IntRange(1), default=1, show_default=True)
@click.option("--seed", type=click.IntRange(0, _MAX_SEED), default=0, show_default=True)
@click.option(
    "--count",
    type=click.IntRange(1),
    default=1,
    show_default=True,
    help="Pairs to emit, one layer index each, at consecutive seeds.",
)
@click.option(
    "--noise-level",
    type=click.FloatRange(0),
    default=0.0,
    show_default=True,
    help="Factor perturbation for the mixed kind.",
)
@click.option(
    "--rank-ramp",
    is_flag=True,
    help="Ramp ranks 1..count across layers instead of using --r.",
)
@click.option("--out", required=True, type=click.Path(dir_okay=False))
def cmd_synth(kind, m, n, r, seed, count, noise_level, rank_ramp, out):
    """Generate a deterministic synthetic adapter container."""
    if rank_ramp:
        specs = ramp_specs(kind, m, n, count, seed, noise_level)
    else:
        base = FixtureSpec(
            kind=kind, m=m, n=n, r=r, seed=seed, noise_level=noise_level
        )
        specs = repeat_specs(base, count)
    _write_chunks(Path(out), container_chunks(generate_set(specs)))
    click.echo(f"wrote {count} pair(s) to {out}", err=True)


def main(argv=None) -> int:
    """Entry point mapping domain errors onto documented exit codes."""
    try:
        cli.main(args=argv, standalone_mode=False)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    except LorafreqError as exc:
        click.echo(f"error: {exc}", err=True)
        return exc.exit_code
    return 0


def _load_pairs(path: str, scale):
    file = read_container(Path(path).read_bytes())
    pairs, orphans = report.effective_pairs(file, scale)
    for orphan in orphans:
        click.echo(f"warning: unpaired factor {orphan.tensor_name}", err=True)
    if not pairs:
        raise _NoPairsError(f"no lora_A/lora_B pairs found in {path}")
    return pairs


def _parse_k_list(value: str) -> list[float]:
    tokens = [tok.strip() for tok in value.split(",") if tok.strip()]
    if not tokens:
        raise click.BadParameter("k list is empty")
    try:
        ks = [float(tok) for tok in tokens]
    except ValueError as exc:
        raise click.BadParameter(f"not a number: {exc}") from exc
    for k in ks:
        if not 0.0 < k <= 100.0:
            raise click.BadParameter(f"k must be in (0, 100], got {k}")
    return sorted(set(ks))


def _slug(name: str) -> str:
    return re.sub(r"[^A-Za-z0-9._-]+", "_", name)[:80]


def _json_text(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _csv_text(header, rows) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(header)
    writer.writerows(rows)
    return buf.getvalue()


def _prefixed_rows(prefix: str, text: str) -> str:
    """The data rows of ``_csv_text`` output, each led by ``prefix`` as one
    more field, so the rows' numbers are not formatted a second time.

    The prefix is quoted as csv quotes it in a row of two or more fields;
    alone in a row, an empty field would be written as ``""`` instead.
    """
    lead = _csv_text((prefix, ""), ())[:-1]
    return "".join(f"{lead}{row}\n" for row in text.split("\n")[1:-1])


def _write_dense(path: Path, tensors, threads) -> None:
    """Write (name, shape, flat indices, values) spectra, inverted, as F64.

    The header needs only names and shapes, so it is written first. The
    inverses then run one at a time, in sorted-name order, in one buffer
    sized for the largest and reused by each, so one dense matrix is held
    at any ``threads``. Each inverse is split over the whole pool: every
    worker takes one contiguous share of the rows (zeroes them, scatters in
    their coefficients, found by ``searchsorted`` since each spectrum's flat
    indices ascend, and runs the row pass), then one share of the columns
    for the column pass, and the buffer goes into the file. Each line is
    transformed on its own, so the split changes no output bit.

    The buffer skips Matrix's finiteness scan, which cannot fire here. By
    Parseval an inverse has the spectrum's Frobenius norm. decompress's
    values each passed ``codec._fits_binary32`` and number at most 2^32, so
    ||X||_F <= 2^16 * 2^128; mask's are entries of a product whose pair
    passed LoraPair's cap scale * ||B||_F * ||A||_F <= 2^500, so
    ||X||_F <= 2^500. Both are far below binary64's 2^1024.
    """
    tensors = sorted(tensors, key=lambda t: t[0])
    header = container_header([(t[0], "F64", t[1]) for t in tensors])
    _write_chunks(path, chain([header], _inverses(tensors, threads)))


def _inverses(tensors, threads):
    """Yield each spectrum's inverse, in order, from one reused buffer."""
    workers = report._workers(threads)
    # Zeroed by the allocator, so the first inverse skips clearing its rows.
    buffer = np.zeros(max(m * n for _, (m, n), _, _ in tensors))

    with ThreadPoolExecutor(workers) as pool:

        def split(task, lines):
            """Run task(start, stop) on each worker's share of the lines, the
            empty ones left out, and wait for every share."""
            bounds = [lines * i // workers for i in range(workers + 1)]
            shares = [(a, b) for a, b in zip(bounds, bounds[1:]) if a < b]
            list(pool.map(lambda share: task(*share), shares))

        for i, (_, (m, n), indices, values) in enumerate(tensors):
            x = buffer[: m * n].reshape(m, n)
            split(lambda a, b: _scatter_rows(x, a, b, indices, values, i > 0), m)
            split(lambda a, b: _invert_columns(x, a, b), n)
            yield x.astype("<f8", copy=False)


def _write_chunks(path: Path, chunks) -> None:
    """Write the chunks, in order, to a temp file beside path, sync it and
    rename it into place; on any failure the temp file is removed."""
    path.parent.mkdir(parents=True, exist_ok=True)
    fd, tmp = tempfile.mkstemp(
        dir=path.parent, prefix=f".{path.name}.", suffix=".tmp"
    )
    try:
        with os.fdopen(fd, "wb") as fh:
            os.fchmod(fh.fileno(), 0o666 & ~_UMASK)
            for chunk in chunks:
                fh.write(chunk)
                del chunk  # freed before the next one is made
            fh.flush()
            os.fsync(fh.fileno())
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def _write_text(path: Path, text: str) -> None:
    _write_chunks(path, [text.encode("utf-8")])
