"""Command-line front end: build a solution family, verify it, write a report.

Subcommands: toda, sine-gordon, langmuir, nls, quasidet-selftest.  Parameters
come from a JSON config file and/or inline flags (flags win); exact scalars
are encoded as strings "p/q" and "p/q+r/s*i", and non-integer JSON numbers
are rejected in exact scalar modes.  With a fixed seed the report bytes are
identical across runs; wall-clock timings are only included on request, since
they would break that guarantee.

Exit codes: 0 all checks passed, 1 a residual check failed (or, in
complex-float mode, a cross-check or closed-form comparison), 2 bad
configuration, 3 singular parameters even after resampling, 4 an internal
cross-check failed in an exact mode (a bug, not bad input).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
import time
from fractions import Fraction
from random import Random

from .algebra import MatrixAlgebra, random_element
from .errors import (
    BNotInvolutive,
    ClosedFormMismatch,
    ConfigError,
    EvaluationSingularity,
    NonInvertibleSolution,
    ShapeViolation,
    SingularMatrix,
    SolitonLabError,
    VerificationError,
)
from .quasidet import ConventionNote, bottom_row_conventions, quasideterminant
from .residual import (
    check_data,
    check_langmuir,
    check_marchenko,
    check_marchenko_lattice,
    check_nls,
    check_toda,
    check_toda_gamma,
)
from .scalars import GaussianRational, parse_gaussian, parse_rational
from .series import D_T, D_U, D_V, constant_series_matrix
from .solitons import (
    LangmuirParams,
    NlsParams,
    SineGordonParams,
    TodaParams,
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
# comparisons that rounding alone can fail in complex-float mode
_COMPARISONS = (ShapeViolation, ClosedFormMismatch, VerificationError)


def _parse_scalar(node, scalar: str):
    if scalar == "rational":
        if isinstance(node, bool) or isinstance(node, float):
            raise ConfigError(f"floats are rejected in exact modes: {node!r}")
        if isinstance(node, int):
            return Fraction(node)
        if isinstance(node, str):
            try:
                return parse_rational(node)
            except ValueError as exc:
                raise ConfigError(f"bad rational {node!r}") from exc
    elif scalar == "gaussian-rational":
        if isinstance(node, bool) or isinstance(node, float):
            raise ConfigError(f"floats are rejected in exact modes: {node!r}")
        if isinstance(node, int):
            return GaussianRational(node)
        if isinstance(node, str):
            try:
                return parse_gaussian(node)
            except ValueError as exc:
                raise ConfigError(f"bad Gaussian rational {node!r}") from exc
    elif scalar == "complex-float":
        if isinstance(node, (int, float)):
            return complex(node)
        if isinstance(node, str):
            try:
                return complex(parse_gaussian(node))
            except ValueError as exc:
                raise ConfigError(f"bad scalar {node!r}") from exc
    raise ConfigError(f"cannot parse {node!r} as a {scalar} scalar")


def _parse_element(node, scalar: str, r: int):
    if r == 1:
        return _parse_scalar(node, scalar)
    if not isinstance(node, list) or len(node) != r or any(
        not isinstance(row, list) or len(row) != r for row in node
    ):
        raise ConfigError(f"expected an {r}x{r} array of scalars, got {node!r}")
    alg = scalar_algebra(scalar, r)
    return alg.matrix(
        [[_parse_scalar(x, scalar) for x in row] for row in node]
    )


def _parse_element_grid(node, scalar, r, shape, what):
    rows, cols = shape
    if not isinstance(node, list) or len(node) != rows or any(
        not isinstance(row, list) or len(row) != cols for row in node
    ):
        raise ConfigError(f"{what} must be a {rows}x{cols} array")
    return [[_parse_element(x, scalar, r) for x in row] for row in node]


def _parse_element_list(node, scalar, r, length, what):
    if not isinstance(node, list) or len(node) != length:
        raise ConfigError(f"{what} must be a list of {length} entries")
    return [_parse_element(x, scalar, r) for x in node]


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="solitonlab",
        description="construct multisoliton solutions exactly and verify them",
    )
    sub = parser.add_subparsers(dest="system", required=True)

    def common(p):
        p.add_argument("--config", help="JSON config file")
        p.add_argument("--N", type=int, dest="N")
        p.add_argument("--r", type=int, dest="r")
        p.add_argument("--cap", type=int)
        p.add_argument("--seed", type=int)
        p.add_argument("--scalar", choices=[
            "rational", "gaussian-rational", "complex-float"])
        p.add_argument("--report", help="report file path")
        p.add_argument("--dump-series", action="store_true", default=None)
        p.add_argument("--dump-degree", type=int)
        p.add_argument("--with-lemmas", action="store_true", default=None)
        p.add_argument("--timings", action="store_true", default=None)
        p.add_argument("--max-resample", type=int)

    p_toda = sub.add_parser("toda", help="n-periodic lattice field system")
    p_toda.add_argument("--n", type=int, dest="n")
    common(p_toda)

    p_sg = sub.add_parser("sine-gordon", help="2-periodic alternating system")
    common(p_sg)

    p_lm = sub.add_parser("langmuir", help="lattice system on a site window")
    p_lm.add_argument("--window", type=int)
    common(p_lm)

    p_nls = sub.add_parser("nls", help="cubic matrix equation")
    p_nls.add_argument("--mode", choices=["nls", "heat"])
    p_nls.add_argument("--scalar-form", action="store_true", default=None,
                       help="also run the numeric scalar closed-form comparison")
    common(p_nls)

    p_self = sub.add_parser(
        "quasidet-selftest",
        help="commutative determinant oracle over random rational matrices",
    )
    p_self.add_argument("--trials", type=int, default=100)
    p_self.add_argument("--seed", type=int)
    p_self.add_argument("--config", help="JSON config file")
    p_self.add_argument("--report", help="report file path")
    p_self.add_argument("--timings", action="store_true", default=None)
    return parser


_DEFAULTS = {
    "n": 3,
    "N": 1,
    "r": None,  # resolved per system: 2 for nls (a grading needs both signs), else 1
    "cap": None,
    "seed": 0,
    "scalar": None,
    "window": 5,
    "mode": "nls",
    "params": None,
    "report": None,
    "dump_series": False,
    "dump_degree": None,
    "with_lemmas": False,
    "timings": False,
    "max_resample": 8,
    "trials": 100,
    "scalar_form": False,
}


def _merge_config(args: argparse.Namespace) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["system"] = args.system
    if getattr(args, "config", None):
        try:
            with open(args.config, "r", encoding="utf-8") as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise ConfigError(f"cannot read config {args.config}: {exc}") from exc
        if not isinstance(file_cfg, dict):
            raise ConfigError("config file must hold a JSON object")
        if "system" in file_cfg and file_cfg["system"] != args.system:
            raise ConfigError(
                f"config is for system {file_cfg['system']!r}, "
                f"not {args.system!r}"
            )
        for key, value in file_cfg.items():
            if key == "system":
                continue
            norm = key.replace("-", "_")
            if norm not in cfg:
                raise ConfigError(f"unknown config key {key!r}")
            cfg[norm] = value
    for key in list(cfg):
        arg_val = getattr(args, key, None)
        if arg_val is not None:
            cfg[key] = arg_val
    if cfg["r"] is None:
        cfg["r"] = 2 if args.system == "nls" else 1
    if cfg["scalar"] is None:
        cfg["scalar"] = (
            "gaussian-rational"
            if args.system == "nls" and cfg["mode"] == "nls"
            else "rational"
        )
    for key in ("n", "N", "r", "seed", "window", "max_resample", "trials"):
        if not _is_int(cfg[key]):
            raise ConfigError(f"{key} must be an integer")
    for key in ("cap", "dump_degree"):
        if cfg[key] is not None and not _is_int(cfg[key]):
            raise ConfigError(f"{key} must be an integer or null")
    if cfg["max_resample"] < 1:
        raise ConfigError("max_resample must be at least 1")
    if cfg["dump_degree"] is not None and cfg["dump_degree"] < 0:
        raise ConfigError("dump_degree must be at least 0")
    for key in ("scalar", "mode"):
        if not isinstance(cfg[key], str):
            raise ConfigError(f"{key} must be a string")
    if cfg["report"] is not None and not isinstance(cfg["report"], str):
        raise ConfigError("report must be a string or null")
    for key in ("dump_series", "with_lemmas", "timings", "scalar_form"):
        if not isinstance(cfg[key], bool):
            raise ConfigError(f"{key} must be true or false")
    return cfg


def _is_int(value) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _default_cap(cfg) -> int:
    if cfg["cap"] is not None:
        return cfg["cap"]
    if cfg["system"] == "langmuir":
        return cfg["N"] + 8
    return cfg["N"] + 6


def _explicit_params(cfg):
    """Build a params object from the config's explicit arrays, or None."""
    raw = cfg["params"]
    if raw is None:
        return None
    if not isinstance(raw, dict):
        raise ConfigError("params must be a JSON object")
    scalar, r, cap = cfg["scalar"], cfg["r"], _default_cap(cfg)
    system = cfg["system"]
    try:
        if system == "toda":
            n, N = cfg["n"], cfg["N"]
            return TodaParams(
                n=n, N=N, r=r, cap=cap,
                a=_parse_element_grid(raw.get("a"), scalar, r, (n, N), "a"),
                p=_parse_element_grid(raw.get("p"), scalar, r, (N, n), "p"),
                scalar=scalar,
            )
        if system == "sine-gordon":
            N = cfg["N"]
            return SineGordonParams(
                N=N, r=r, cap=cap,
                p=_parse_element_list(raw.get("p"), scalar, r, N, "p"),
                q=_parse_element_list(raw.get("q"), scalar, r, N, "q"),
                a=_parse_element_list(raw.get("a"), scalar, r, N, "a"),
                scalar=scalar,
            )
        if system == "langmuir":
            N = cfg["N"]
            return LangmuirParams(
                N=N, r=r, cap=cap,
                p=_parse_element_list(raw.get("p"), scalar, r, N, "p"),
                q=_parse_element_list(raw.get("q"), scalar, r, N, "q"),
                mu=_parse_element_list(raw.get("mu"), scalar, r, N, "mu"),
                k_range=list(range(cfg["window"])),
                scalar=scalar,
            )
        if system == "nls":
            N = cfg["N"]
            return NlsParams(
                N=N, r=r, cap=cap,
                b=_parse_element(raw.get("b"), scalar, r),
                c=_parse_element_list(raw.get("c"), scalar, r, N, "c"),
                d=_parse_element_list(raw.get("d"), scalar, r, N, "d"),
                a=_parse_element_list(raw.get("a"), scalar, r, N, "a"),
                mode=cfg["mode"], scalar=scalar,
            )
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    raise ConfigError(f"explicit params unsupported for {system!r}")


def _random_params(cfg, rng):
    system, scalar = cfg["system"], cfg["scalar"]
    cap = _default_cap(cfg)
    if system == "toda":
        return random_toda_params(
            rng, n=cfg["n"], N=cfg["N"], r=cfg["r"], cap=cap, scalar=scalar
        )
    if system == "sine-gordon":
        return random_sine_gordon_params(
            rng, N=cfg["N"], r=cfg["r"], cap=cap, scalar=scalar
        )
    if system == "langmuir":
        return random_langmuir_params(
            rng, N=cfg["N"], r=cfg["r"], cap=cap, window=cfg["window"],
            scalar=scalar,
        )
    if system == "nls":
        return random_nls_params(
            rng, N=cfg["N"], r=cfg["r"], cap=cap, mode=cfg["mode"],
            scalar=scalar,
        )
    raise ConfigError(f"unknown system {system!r}")


def _note_dicts(notes):
    return [n.to_dict() if isinstance(n, ConventionNote) else n for n in notes]


def _dump_series_map(named_series, degree_limit):
    out = {}
    for name, s in named_series:
        out[name] = s.algebra.format_element(s, degree_limit=degree_limit)
    return out


def _run_system(cfg) -> dict:
    """Build, verify, and assemble the report body for one solution family."""
    rng = Random(cfg["seed"])
    explicit = _explicit_params(cfg)
    attempts = 1 if explicit is not None else cfg["max_resample"]
    last_exc = None
    solution = params = None
    for _ in range(attempts):
        try:
            params = explicit if explicit is not None else _random_params(cfg, rng)
            if cfg["system"] == "toda":
                solution = toda_solution(params)
            elif cfg["system"] == "sine-gordon":
                solution = sine_gordon_solution(params)
            elif cfg["system"] == "langmuir":
                solution = langmuir_solution(params)
            else:
                solution = nls_solution(params)
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
    notes = []
    dumps = []
    system = cfg["system"]
    if system == "toda":
        data = solution.data
        checks.append(check_data("toda", data))
        checks.append(check_toda(solution.gs, D_U, D_V))
        notes.extend(solution.notes)
        dumps = [(f"g[{k}]", g) for k, g in enumerate(solution.gs)]
        if cfg["with_lemmas"]:
            checks.append(check_toda_gamma(solution.cells, D_U, D_V))
            gammas, a_mats = toda_shift_data(solution)
            checks.append(check_marchenko(gammas, a_mats, D_U, D_V))
            for k, (wp, cell) in enumerate(
                zip(solution.wronskians, solution.cells)
            ):
                note = bottom_row_conventions(wp, cell)
                notes.append(
                    ConventionNote(
                        f"site-{k}-{note.topic}", note.candidates,
                        note.matched, note.detail,
                    )
                )
    elif system == "sine-gordon":
        toda_part = solution.toda
        checks.append(check_data("toda", toda_part.data))
        checks.append(check_toda(list(solution.gs), D_U, D_V))
        notes.extend(solution.notes)
        dumps = [(f"g[{k}]", g) for k, g in enumerate(solution.gs)]
        if cfg["with_lemmas"]:
            checks.append(check_toda_gamma(toda_part.cells, D_U, D_V))
            gammas, a_mats = toda_shift_data(toda_part)
            checks.append(check_marchenko(gammas, a_mats, D_U, D_V))
    elif system == "langmuir":
        data = solution.data
        checks.append(check_data("langmuir", data))
        checks.append(check_langmuir(solution.gs, D_T))
        notes.extend(solution.notes)
        dumps = [(f"g[{k}]", solution.gs[k]) for k in sorted(solution.gs)]
        if cfg["with_lemmas"]:
            from .quasidet import wronski

            gamma = {k: wronski(data.f[k], D_T).W for k in data.sites}
            mat_n = MatrixAlgebra(data.algebra, data.N)
            a_const = constant_series_matrix(
                mat_n.diagonal(data.a), 1, data.cap
            )
            checks.append(
                check_marchenko_lattice(
                    gamma, {k: a_const for k in data.sites}, D_T
                )
            )
    else:  # nls
        data = solution.data
        checks.append(check_data("nls", data))
        checks.append(
            check_nls(solution.U, data.b, data.d0, data.d, gamma=solution.cell)
        )
        notes.extend(solution.notes)
        dumps = [("U", solution.U)]
        if solution.U12 is not None:
            dumps += [("U12", solution.U12), ("U21", solution.U21)]
        if cfg["scalar_form"]:
            a = GaussianRational(
                Fraction(rng.randint(1, 3), rng.randint(1, 3)),
                Fraction(rng.randint(1, 3), rng.randint(1, 3)),
            )
            alpha = GaussianRational(2, 1)
            beta = GaussianRational(1, -1)
            comparison = nls_scalar_closed_form(a, alpha, beta, cap=_default_cap(cfg))
            notes.append(
                ConventionNote(
                    "scalar-closed-form", ["numeric-contact"],
                    ["numeric-contact"],
                    detail=json.dumps(comparison.to_dict(), sort_keys=True),
                )
            )

    body = {
        "system": system,
        "scalar_mode": cfg["scalar"],
        "dimensions": {
            "n": cfg["n"] if system == "toda" else (2 if system == "sine-gordon" else None),
            "N": cfg["N"],
            "r": cfg["r"],
            "cap": _default_cap(cfg),
        },
        "seed": None if explicit is not None else cfg["seed"],
        "checks": [c.to_dict() for c in checks],
        "conventions": _note_dicts(notes),
        "passed": all(c.passed for c in checks),
    }
    if system == "langmuir":
        body["dimensions"]["window"] = cfg["window"]
    if system == "nls":
        body["dimensions"]["mode"] = cfg["mode"]
    if cfg["dump_series"]:
        body["series"] = _dump_series_map(dumps, cfg["dump_degree"])
    return body


def _cofactor_det(rows):
    n = len(rows)
    if n == 1:
        return rows[0][0]
    total = Fraction(0)
    for j in range(n):
        minor = [r[:j] + r[j + 1:] for r in rows[1:]]
        term = rows[0][j] * _cofactor_det(minor)
        total += term if j % 2 == 0 else -term
    return total


def _run_selftest(cfg) -> dict:
    """Quasideterminant against the signed ratio of cofactor determinants."""
    rng = Random(cfg["seed"])
    trials = cfg["trials"]
    if trials < 1:
        raise ConfigError("trials must be at least 1")
    from .algebra import QQ

    failures = []
    checked = 0
    skipped = 0
    sizes = (2, 3, 4)
    for trial in range(trials):
        size = sizes[trial % len(sizes)]
        m = random_element(MatrixAlgebra(QQ, size), rng)
        rows = [list(r) for r in m.rows]
        full = _cofactor_det(rows)
        for i in range(size):
            for j in range(size):
                sub = [r[:j] + r[j + 1:] for k, r in enumerate(rows) if k != i]
                sub_det = _cofactor_det(sub)
                if sub_det == 0:
                    skipped += 1
                    continue
                value = quasideterminant(m, i, j)
                checked += 1
                if value * sub_det != (-1) ** (i + j) * full:
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
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
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
        if isinstance(exc, _COMPARISONS) and cfg["scalar"] == "complex-float":
            print(f"float comparison failed: {exc}", file=sys.stderr)
            return 1
        print(f"internal error: {exc}", file=sys.stderr)
        return 4
    _summarize(body, _report_path(cfg))
    return code


if __name__ == "__main__":
    sys.exit(main())
