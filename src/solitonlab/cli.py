"""Command-line front end: build a solution family, verify it, write a report.

Subcommands: toda, sine-gordon, langmuir, nls, quasidet-selftest.  Parameters
come from a JSON config file and/or inline flags (flags win); exact scalars
are encoded as strings "p/q" and "p/q+r/s*i" (``gf-p`` reads rationals and
reduces them mod p), and non-integer JSON numbers are rejected.  With a fixed
seed the report bytes are identical across runs; wall-clock timings are only
included on request, since they would break that guarantee.

Exit codes: 0 all checks passed, 1 a residual check failed, 2 bad
configuration, 3 singular parameters even after resampling, 4 an internal
cross-check failed (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from math import lcm
from random import Random

from .algebra import QQ, MatrixAlgebra, random_element
from .errors import (
    BNotInvolutive,
    ConfigError,
    EvaluationSingularity,
    NonInvertibleSolution,
    Record,
    SingularMatrix,
    SingularSubmatrix,
    SolitonLabError,
)
from .quasidet import (
    ConventionNote,
    bottom_row_conventions,
    note_dicts,
    quasideterminant,
    wronski,
)
from .residual import (
    check_data,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda,
    check_toda_gamma,
)
from .scalars import GaussianRational, parse_gaussian, parse_rational
from .series import D_T, D_U, D_V
from .solitons import (
    LangmuirParams,
    NlsParams,
    SineGordonParams,
    TodaParams,
    _shaped,
    langmuir_solution,
    nls_scalar_closed_form,
    nls_solution,
    random_langmuir_params,
    random_nls_params,
    random_sine_gordon_params,
    random_toda_params,
    scalar_algebra,
    sine_gordon_solution,
    toda_shift_data,
    toda_solution,
)

REPORT_DIR_ENV = "SOLITONLAB_REPORT_DIR"

_SINGULAR = (SingularMatrix, NonInvertibleSolution)


def _parse_scalar(node, scalar: str):
    """A config scalar, exactly; ``gf-p`` reads rationals, reduced mod p later."""
    if isinstance(node, bool):
        raise ConfigError(f"booleans are not scalars: {node!r}")
    if isinstance(node, float):
        raise ConfigError(f"floats are rejected in exact modes: {node!r}")
    gaussian = scalar == "gaussian-rational"
    if isinstance(node, int):
        return GaussianRational(node) if gaussian else Fraction(node)
    if isinstance(node, str):
        try:
            return parse_gaussian(node) if gaussian else parse_rational(node)
        except (ValueError, ZeroDivisionError) as exc:
            kind = "Gaussian rational" if gaussian else "rational"
            raise ConfigError(f"bad {kind} {node!r}") from exc
    raise ConfigError(f"cannot parse {node!r} as a {scalar} scalar")


def _parse_array(node, depth, scalar, r, what):
    """One element (depth 0), or lists of them nested ``depth`` deep; a node
    that is not a list where one belongs is kept, for the params'
    ``validate`` to name with the shape it needs."""
    if depth:
        if not isinstance(node, list):
            return node
        return [_parse_array(x, depth - 1, scalar, r, what) for x in node]
    if r == 1:
        return _parse_scalar(node, scalar)
    if not _shaped(node, (r, r)):
        raise ConfigError(f"{what}: expected an {r}x{r} array of scalars, got {node!r}")
    rows = [[_parse_scalar(x, scalar) for x in row] for row in node]
    return scalar_algebra(scalar, r).matrix(rows)


class _System(Record):
    """How the command line runs one family.

    ``solve`` and ``draw`` name this module's solver and random draw, looked
    up when a run calls them, so that a name rebound on this module is the
    one that runs.  The explicit parameter arrays, their shapes and the
    default cap are the params class's (``arrays``, ``spare``).  ``keys``
    are the config values that the draw and the params take by name and the
    report lists under dimensions; ``n`` is the period listed there when it
    is not one of them.
    """

    params: type
    solve: str
    draw: str
    keys: tuple = ()
    n: int = None


_SYSTEMS = {
    "toda": _System(TodaParams, "toda_solution", "random_toda_params", ("n",)),
    "sine-gordon": _System(
        SineGordonParams, "sine_gordon_solution", "random_sine_gordon_params", n=2,
    ),
    "langmuir": _System(
        LangmuirParams, "langmuir_solution", "random_langmuir_params", ("window",),
    ),
    "nls": _System(NlsParams, "nls_solution", "random_nls_params", ("mode",)),
}


class _Key(Record):
    """A config key.  ``type`` is int, bool, str or a tuple of the flag's
    choices (a string in a config); a key of type None has no flag."""

    default: object
    type: object
    systems: object  # the names of the subcommands that take it
    null: bool = False
    least: int = None
    help: str = None


_SUBCOMMANDS = {
    "toda": "n-periodic lattice field system",
    "sine-gordon": "2-periodic alternating system",
    "langmuir": "lattice system on a site window",
    "nls": "cubic matrix equation",
    "quasidet-selftest": "commutative determinant oracle over random rational matrices",
}
_LEMMAS = ("toda", "sine-gordon", "langmuir")  # nls has no lemma checker

_KEYS = {
    "n": _Key(3, int, ("toda",)),
    "N": _Key(1, int, _SYSTEMS),
    # None resolves per system: 2 for nls (a grading needs both signs), else 1
    "r": _Key(None, int, _SYSTEMS),
    "cap": _Key(None, int, _SYSTEMS, null=True),
    "seed": _Key(0, int, _SUBCOMMANDS),
    "scalar": _Key(None, ("rational", "gaussian-rational", "gf-p"), _SYSTEMS),
    "window": _Key(5, int, ("langmuir",)),
    "mode": _Key("nls", ("nls", "heat"), ("nls",)),
    "params": _Key(None, None, _SYSTEMS),  # the explicit arrays
    "report": _Key(None, str, _SUBCOMMANDS, null=True, help="report file path"),
    "dump_series": _Key(False, bool, _SYSTEMS),
    "dump_degree": _Key(None, int, _SYSTEMS, null=True, least=0),
    "with_lemmas": _Key(False, bool, _LEMMAS),
    "timings": _Key(False, bool, _SUBCOMMANDS),
    "max_resample": _Key(8, int, _SYSTEMS, least=1),
    "trials": _Key(100, int, ("quasidet-selftest",), least=1),
    "scalar_form": _Key(False, bool, ("nls",), help=(
        "also check the scalar closed form by its exact series identity")),
}
_KINDS = {int: "an integer", bool: "true or false", str: "a string"}
# add_argument's keywords per type, else the choices; a flag not given is None
_FLAGS = {int: {"type": int}, str: {}, bool: {"action": "store_true", "default": None}}


class _Parser(argparse.ArgumentParser):
    """Reports a malformed command line, subcommands' too, as a ConfigError."""
    def error(self, message):
        raise ConfigError(message)


def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="solitonlab",
        description="construct multisoliton solutions exactly and verify them",
    )
    sub = parser.add_subparsers(dest="system", required=True)
    for system, text in _SUBCOMMANDS.items():
        p = sub.add_parser(system, help=text)
        p.add_argument("--config", help="JSON config file")
        for name, key in _KEYS.items():
            if system in key.systems and key.type is not None:
                p.add_argument("--" + name.replace("_", "-"), help=key.help,
                               **_FLAGS.get(key.type, {"choices": key.type}))
    return parser


def _merge_config(args: argparse.Namespace) -> dict:
    given = {}
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, UnicodeDecodeError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        system = file_cfg.pop("system", args.system)
        if system != args.system:
            raise ConfigError(f"config is for system {system!r}, not {args.system!r}")
        for key, value in file_cfg.items():
            norm = key.replace("-", "_")
            if norm not in _KEYS:
                raise ConfigError(f"unknown config key {key!r}")
            given[norm] = value
    given.update((k, v) for k, v in vars(args).items() if k in _KEYS and v is not None)
    cfg = {name: key.default for name, key in _KEYS.items()}
    cfg.update(given, system=args.system)
    if cfg["r"] is None:
        cfg["r"] = 2 if args.system == "nls" else 1
    if cfg["scalar"] is None:
        cfg["scalar"] = (
            "gaussian-rational"
            if args.system == "nls" and cfg["mode"] == "nls"
            else "rational"
        )
    for name, key in _KEYS.items():  # every key's type, used or not
        kind = str if isinstance(key.type, tuple) else key.type
        if kind and type(cfg[name]) is not kind and not (key.null and cfg[name] is None):
            raise ConfigError(f"{name} must be {_KINDS[kind]}" + " or null" * key.null)
    unused = sorted(k for k in given if args.system not in _KEYS[k].systems)
    if unused:
        raise ConfigError(f"{args.system} does not use {', '.join(unused)}")
    for name in given:
        least = _KEYS[name].least
        if least is not None and cfg[name] is not None and cfg[name] < least:
            raise ConfigError(f"{name} must be at least {least}")
    if cfg["dump_degree"] is not None and not cfg["dump_series"]:
        raise ConfigError("dump_degree needs dump_series")
    if cfg["scalar_form"] and cfg["mode"] != "nls":
        raise ConfigError("scalar_form needs the nls system in mode nls")
    return cfg


def _explicit_params(cfg, spec, sizes, fields):
    """Build a params object from the config's explicit arrays, or None."""
    raw = cfg["params"]
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("params must be a JSON object")
    arrays = spec.params.arrays
    unknown = [name for name in raw if name not in arrays]
    if unknown:
        raise ConfigError(f"{', '.join(unknown)}: not a {cfg['system']} array"
                          f" (params take {', '.join(arrays)})")
    fields = dict(fields)  # the arrays join the params, not the report's dimensions
    try:
        for name, (shape, _) in arrays.items():
            fields[name] = _parse_array(
                raw.get(name), len(shape), cfg["scalar"], cfg["r"], name
            )
        return spec.params(**sizes, **fields)
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _run_system(cfg) -> dict:
    """Build, verify, and assemble the report body for one solution family."""
    system = cfg["system"]
    spec = _SYSTEMS[system]
    rng = Random(cfg["seed"])
    cap = cfg["N"] + spec.params.spare if cfg["cap"] is None else cfg["cap"]
    sizes = {"N": cfg["N"], "r": cfg["r"], "cap": cap, "scalar": cfg["scalar"]}
    fields = {k: cfg[k] for k in spec.keys}
    explicit = _explicit_params(cfg, spec, sizes, fields)
    attempts = 1 if explicit is not None else cfg["max_resample"]
    solve, draw = globals()[spec.solve], globals()[spec.draw]
    last_exc = None
    solution = None
    for _ in range(attempts):
        try:
            params = explicit if explicit is not None else draw(rng, **sizes, **fields)
            solution = solve(params)
            break
        except _SINGULAR as exc:
            last_exc = exc
            continue
        except (ValueError, BNotInvolutive) as exc:
            raise ConfigError(str(exc)) from exc
    if solution is None:
        raise EvaluationSingularity(
            f"still singular after {attempts} attempt(s): {last_exc}"
        )

    checks = []
    notes = list(solution.notes)
    if system in ("toda", "sine-gordon"):
        toda = solution.toda if system == "sine-gordon" else solution
        checks.append(check_data("toda", toda.data))
        checks.append(check_toda(toda.gs, D_U, D_V))
        dumps = {f"g[{k}]": g for k, g in enumerate(toda.gs)}
        if cfg["with_lemmas"]:
            checks.append(check_toda_gamma(toda.cells, D_U, D_V))
            gammas, diags = toda_shift_data(toda)
            checks.append(check_marchenko(gammas, diags, D_U, D_V))
            if system == "toda":
                for k, (wp, cell) in enumerate(zip(toda.wronskians, toda.cells)):
                    note = bottom_row_conventions(wp, cell)
                    notes.append(
                        ConventionNote(
                            f"site-{k}-{note.topic}", note.candidates,
                            note.matched, note.detail,
                        )
                    )
    elif system == "langmuir":
        data = solution.data
        checks.append(check_data("langmuir", data))
        checks.append(solution.report)
        dumps = {f"g[{k}]": g for k, g in solution.gs.items()}
        if cfg["with_lemmas"]:
            gamma = {k: wp.W for k, wp in solution.wronskians.items()}
            last = data.sites[-1]  # the one data site past the solution's cells
            gamma[last] = wronski(data.f[last], D_T).W
            checks.append(check_marchenko_lattice(gamma, data.a, D_T))
    else:  # nls
        data = solution.data
        checks.append(check_data("nls", data, solution.wronskian))
        checks.append(
            check_nls(solution, data.b, data.d0, data.d, gamma=solution.cell)
        )
        dumps = {"U": solution.U}
        if solution.U12 is not None:
            dumps.update(U12=solution.U12, U21=solution.U21)
        if cfg["scalar_form"]:
            a = GaussianRational(
                Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                Fraction(rng.randint(1, 3), rng.randint(1, 3)),
            )
            alpha = GaussianRational(2, 1)
            beta = GaussianRational(1, -1)
            comparison = nls_scalar_closed_form(a, alpha, beta, cap=cap)
            checks.append(comparison.report)
            notes.append(comparison.orientation)

    body = {
        "system": system,
        "scalar_mode": cfg["scalar"],
        "dimensions": {
            "n": spec.n, "N": cfg["N"], "r": cfg["r"], "cap": cap, **fields,
        },
        "seed": None if explicit is not None else cfg["seed"],
        "checks": [c.to_dict() for c in checks],
        "conventions": note_dicts(notes),
        "passed": all(c.passed for c in checks),
    }
    if cfg["dump_series"]:
        body["series"] = {
            name: s.algebra.format_element(s, degree_limit=cfg["dump_degree"])
            for name, s in dumps.items()
        }
    return body


def _cofactor_det(rows):
    """Determinant by cofactor expansion along the first row, down to
    ad - bc at 2 x 2."""
    n = len(rows)
    if n == 1:
        return rows[0][0]
    if n == 2:
        return rows[0][0] * rows[1][1] - rows[0][1] * rows[1][0]
    total = 0
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _run_selftest(cfg) -> dict:
    """Quasideterminant against the signed ratio of cofactor determinants.

    Each trial matrix M is lifted once to integers A = D * M, with D the lcm
    of its denominators, so det M = det(A) / D^n and each minor of M is that
    of A over D^(n-1).  The ratio identity |M|_ij = (-1)^(i+j) det M / det M^ij
    for a value p / q is then the integer equation
    p * det(A^ij) * D == (-1)^(i+j) * det(A) * q, checked exactly with no
    fraction.  The reference stays a cofactor expansion, an algorithm
    independent of the elimination that computes the quasideterminant.
    Where det(A^ij) is 0 the quasideterminant must raise SingularSubmatrix;
    a value there is a failure.
    """
    rng = Random(cfg["seed"])
    trials = cfg["trials"]
    failures = []
    checked = 0
    skipped = 0
    sizes = (2, 3, 4)
    for trial in range(trials):
        size = sizes[trial % len(sizes)]
        m = random_element(MatrixAlgebra(QQ, size), rng)
        den = lcm(*(x.denominator for r in m.rows for x in r))
        rows = [[x.numerator * (den // x.denominator) for x in r] for r in m.rows]
        full = _cofactor_det(rows)
        for i in range(size):
            for j in range(size):
                sub = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
                sub_det = _cofactor_det(sub)
                if sub_det == 0:
                    skipped += 1
                    try:
                        quasideterminant(m, i, j)
                    except SingularSubmatrix:
                        continue
                    ok = False
                else:
                    checked += 1
                    p, q = quasideterminant(m, i, j).as_integer_ratio()
                    ok = p * sub_det * den == (-1) ** (i + j) * full * q
                if not ok:
                    failures.append({"trial": trial, "size": size, "i": i, "j": j})
    return {
        "system": "quasidet-selftest",
        "trials": trials,
        "positions_checked": checked,
        "positions_skipped_singular": skipped,
        "failures": failures,
        "passed": checked > 0 and not failures,
    }


def _report_path(cfg) -> str:
    if cfg["report"]:
        return cfg["report"]
    directory = os.environ.get(REPORT_DIR_ENV, ".")
    return os.path.join(directory, f"{cfg['system']}-report.json")


def run(cfg: dict) -> tuple[int, dict]:
    """Execute a validated config; returns (exit_code, report_dict)."""
    started = time.perf_counter()
    if cfg["system"] == "quasidet-selftest":
        body = _run_selftest(cfg)
    else:
        body = _run_system(cfg)
    if cfg["timings"]:
        body["timings"] = {"total_seconds": time.perf_counter() - started}
    path = _report_path(cfg)
    text = json.dumps(body, indent=2, sort_keys=True) + "\n"
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise ConfigError(f"cannot write report {path}: {exc}") from exc
    return (0 if body["passed"] else 1), body


def _summarize(body: dict, path: str):
    for check in body.get("checks", []):
        mark = "PASS" if check["passed"] else "FAIL"
        worst = max(
            (e["max_magnitude"] for e in check["entries"]), default=0.0
        )
        orders = sorted({e["valid_order"] for e in check["entries"]})
        print(
            f"[{mark}] {check['equation']}: {len(check['entries'])} entries, "
            f"max |coeff| {worst:g}, zero through degree < {orders}"
        )
    if body["system"] == "quasidet-selftest":
        mark = "PASS" if body["passed"] else "FAIL"
        print(
            f"[{mark}] quasidet-selftest: {body['positions_checked']} positions, "
            f"{len(body['failures'])} failures"
        )
    print(f"report written to {path}")


def main(argv=None) -> int:
    try:
        args, extra = _build_parser().parse_known_args(argv)
        if extra:
            raise ConfigError(f"{args.system} does not use {' '.join(extra)}")
        cfg = _merge_config(args)
        code, body = run(cfg)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except EvaluationSingularity as exc:
        print(f"singularity: {exc}", file=sys.stderr)
        return 3
    except _SINGULAR as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except SolitonLabError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    _summarize(body, _report_path(cfg))
    return code


if __name__ == "__main__":
    sys.exit(main())
