"""Run one solitonlab CLI case as a user would, in this fresh process.

    python3 perfbench/child.py META_PATH TRACE -- <solitonlab CLI arguments>

The case runs as ``cli.run(cfg)`` after the CLI's own parser and config
merge, so the process starts with cold caches exactly like a user's run.
META_PATH receives a JSON object with monotonic timestamps and process CPU
times (set-up done, run started, report written), the time of a fixed
reference computation just before and just after the case, and, when TRACE
is 1, the recorded spans and counters plus a scalar multiply-add kernel
timed on coefficients the case computed.  The exit code is the CLI's: 0
when every check passed, 1 otherwise; an exception escapes with its
traceback on stderr.
"""

import json
import os
import random
import resource
import sys
import time
from fractions import Fraction

CPU_LIMIT_S = 100
KERNEL_OPS = 1024
KERNEL_REPEATS = 3
REFERENCE_PRODUCTS = 12


def reference_s():
    """Seconds for a fixed exact-rational computation that uses nothing from
    src/: products of 8x8 matrices of 12-digit fractions.  Timed next to each
    case, it measures how fast the host runs this kind of arithmetic at that
    moment, which on a shared machine swings by up to 2x for minutes."""
    rng = random.Random(7)
    m = [[Fraction(rng.randint(-10**12, 10**12), rng.randint(1, 10**12))
          for _ in range(8)] for _ in range(8)]
    cols = list(zip(*m))
    start = time.perf_counter()
    for _ in range(REFERENCE_PRODUCTS):
        [[sum((a * b for a, b in zip(row, col)), Fraction(0)) for col in cols]
         for row in m]
    return time.perf_counter() - start


def _scalars(value, out):
    """Collect the nonzero exact scalars inside a (nested matrix) coefficient."""
    rows = getattr(value, "rows", None)
    if rows is not None:
        for row in rows:
            for x in row:
                _scalars(x, out)
    elif value:
        out.append(value)


def _muladd_ns(operands):
    """Median ns per ``acc = acc + x * y`` over operand pairs (x_k, x_k+1)."""
    pairs = [
        (operands[k % len(operands)], operands[(k + 1) % len(operands)])
        for k in range(KERNEL_OPS)
    ]
    zero = operands[0] * 0
    samples = []
    for _ in range(KERNEL_REPEATS):
        acc = zero
        start = time.perf_counter_ns()
        for x, y in pairs:
            acc = acc + x * y
        samples.append((time.perf_counter_ns() - start) / KERNEL_OPS)
    return sorted(samples)[len(samples) // 2]


def scalar_kernels(cell):
    """QQ and QQ(i) multiply-add cost on the bottom-row coefficients of a
    Frobenius cell.  Where the case computed over QQ only, QQ(i) operands are
    the pairs re + im*i of consecutive rational coefficients."""
    from solitonlab.scalars import GaussianRational

    found = []
    for series in cell.bottom_row():
        for c in series.coeffs:
            _scalars(c, found)
    qq = [x for x in found if isinstance(x, Fraction)][:64]
    qqi = [x for x in found if isinstance(x, GaussianRational)][:64]
    if not qq:
        qq = [x.re or x.im for x in qqi]
    if not qqi:
        qqi = [GaussianRational(a, b) for a, b in zip(qq, qq[1:] + qq[:1])]
    return {"qq_muladd_ns": _muladd_ns(qq), "qqi_muladd_ns": _muladd_ns(qqi)}


def main(argv):
    resource.setrlimit(resource.RLIMIT_CPU, (CPU_LIMIT_S, CPU_LIMIT_S))
    meta_path, traced, sep, *cli_args = argv
    if sep != "--":
        raise SystemExit("usage: child.py META_PATH TRACE -- <cli args>")
    root = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
    sys.path.insert(0, os.path.join(root, "src"))
    from solitonlab import cli

    cfg = cli._merge_config(cli._build_parser().parse_args(cli_args))
    meta = {"t_setup": time.monotonic(), "cpu_setup": time.process_time()}
    meta["ref_pre_s"] = reference_s()
    tracer = None
    if traced == "1":
        from spans import Tracer

        tracer = Tracer(keep=("quasidet.frobenius_gamma",))
        tracer.install()
    meta["t_run"], meta["cpu_run"] = time.monotonic(), time.process_time()
    code, _ = cli.run(cfg)
    meta["t_done"], meta["cpu_done"] = time.monotonic(), time.process_time()
    meta["ref_post_s"] = reference_s()
    if tracer is not None:
        tracer.uninstall()
        meta["spans"] = tracer.spans
        meta["counts"] = tracer.counts
        cell = tracer.kept.get("quasidet.frobenius_gamma")
        if cell is not None:
            meta["kernels"] = scalar_kernels(cell)
    with open(meta_path, "w", encoding="utf-8") as fh:
        json.dump(meta, fh, separators=(",", ":"))
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
