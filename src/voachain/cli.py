"""Command-line front end: config-driven experiments with JSON reports.

Every report is a single JSON document on standard output carrying the
resolved configuration and the truncation metadata of each numeric
payload; human-readable progress goes to standard error.  Exit codes:
0 success, 2 validation error (with a machine-readable diagnostic on
standard output), 3 assertion failure.
Only the package's own error classes and malformed configs count as
validation errors; any other exception is a fault in the program and
escapes with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import configparser
import json
import math
import sys
from fractions import Fraction
from functools import lru_cache

from .complexes import (
    ComplexError,
    InsertionTuple,
    ProbeComplex,
    Sphere,
    apply_Dg,
    apply_Dn,
    check_chain_conditions,
    cohomology_ranks,
    connection_functional,
    element_from_insertions,
    reduce_to_zero_point,
)
from .elliptic import (
    EllipticError,
    ModularPoint,
    eisenstein,
    f0_iota,
    f0_kernel,
    pm_genus1,
    weierstrass_p,
    weierstrass_series,
)
from .schottky import SchottkyData, SewingData, SewingError
from .series import (
    ExactComplex,
    SeriesError,
    TruncatedSeries,
    _frac_str,
    scalar_abs,
    scalar_is_zero,
)
from .voa import VACUUM_VECTOR, FockState, FockVector

STATE_ALIASES = {
    "1": (),
    "vacuum": (),
    "a": (1,),
    "aa": (1, 1),
    "a2": (2,),
    "a3": (3,),
}


class ConfigError(ValueError):
    pass


def parse_state(token: str) -> FockVector:
    token = token.strip()
    if token in STATE_ALIASES:
        return FockVector({FockState(STATE_ALIASES[token]): 1})
    if token == "omega":
        return FockVector({FockState((1, 1)): Fraction(1, 2)})
    if token.startswith("[") and token.endswith("]"):
        try:
            parts = tuple(int(p) for p in token[1:-1].split(",") if p.strip())
        except ValueError as exc:
            raise ConfigError(f"bad partition spec {token!r}") from exc
        if any(p < 1 for p in parts):
            raise ConfigError(f"partition spec {token!r} has a part below 1")
        return FockVector({FockState(parts): 1})
    raise ConfigError(f"unknown state {token!r}")


def parse_scalar(token: str):
    """An exact point: a Fraction, or an ExactComplex of two Fractions
    when the token has an imaginary part that is not 0.  The token is
    written as complex() reads one (1+2j, (0.5-3J), 2j, j, 1e400), and
    either part as Fraction() reads one (1/2-1/3j); nan and inf are
    refused."""
    text = token.strip()
    if text.startswith("(") and text.endswith(")"):
        text = text[1:-1].strip()
    try:
        if text[-1:] not in ("j", "J"):
            return Fraction(text)
        body = text[:-1]
        # the imaginary part starts at the last sign that is no exponent's
        cut = max((i for i, c in enumerate(body)
                   if c in "+-" and body[i - 1:i] not in ("e", "E")), default=0)
        im = body[cut:]
        re, im = Fraction(body[:cut] or 0), Fraction(im + "1" if im in ("", "+", "-") else im)
    except (ValueError, ZeroDivisionError):
        raise ConfigError(f"cannot parse scalar {token!r}") from None
    return ExactComplex(re, im) if im else re


def parse_order(raw) -> int:
    order = int(raw)
    if order < 0:
        raise ConfigError(f"truncation order {order} is negative")
    return order


def parse_bool(raw: str) -> bool:
    try:
        return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
    except KeyError:
        raise ConfigError(f"not a boolean: {raw!r}") from None


def parse_list(raw: str):
    """The comma-separated tokens of a list value.  A comma inside
    brackets belongs to its token, so a partition spec such as [2,1] is
    one token; brackets that do not pair up are refused."""
    pieces, depth, start = [], 0, 0
    for i, c in enumerate(raw):
        if c in "[]":
            depth += 1 if c == "[" else -1
            if depth not in (0, 1):
                raise ConfigError(f"unbalanced brackets in {raw!r}")
        elif c == "," and not depth:
            pieces.append(raw[start:i])
            start = i + 1
    if depth:
        raise ConfigError(f"unbalanced brackets in {raw!r}")
    pieces.append(raw[start:])
    return [t for t in (piece.strip() for piece in pieces) if t]


def each(read):
    """The reader of a comma-separated list of what ``read`` reads."""
    return lambda raw: tuple(read(token) for token in parse_list(raw))


def parse_pool(raw: str) -> tuple[str, ...]:
    """The pool's state tokens, each checked to name a state."""
    pool = tuple(parse_list(raw))
    for token in pool:
        parse_state(token)
    return pool


def read_value(read, raw, where: str):
    try:
        return read(raw)
    except ValueError as exc:
        raise ConfigError(f"{where}: {exc}") from exc


# -- the keys of each config subcommand ----------------------------------
#
# {section: {key: (reader, default)}}; a key whose default is REQUIRED
# must be given wherever its command reads it.

REQUIRED = object()
INSERTIONS = {"states": (each(parse_state), ()), "points": (each(parse_scalar), ())}
ELEMENT = {"genus": (int, 0), **INSERTIONS}
SEWING = {"zeta1": (parse_scalar, 1), "zeta2": (parse_scalar, -1)}
SCHOTTKY = {
    "genus": (int, REQUIRED),
    "points": (each(parse_scalar), REQUIRED),
    "rho": (str, None),  # read by nothing; refused once the benchmark drops it (ROADMAP item 1)
}

CONFIG_KEYS = {
    "npoint": {
        "experiment": {"genus": (int, REQUIRED)},
        "insertions": INSERTIONS,
        "schottky": SCHOTTKY,
        "truncation": {"q_order": (parse_order, 8), "rho_orders": (each(parse_order), (4, 3))},
    },
    "sew": {
        "experiment": {"genus": (int, 0)},
        "insertions": INSERTIONS,
        "sewing": SEWING,
        "truncation": {"rho_order": (parse_order, 6), "q_order": (parse_order, 6)},
    },
    "partition": {
        "schottky": SCHOTTKY,
        "truncation": {"rho_orders": (each(parse_order), (6,))},
    },
    "reduce": {
        "experiment": {"genus": (int, REQUIRED)},
        "insertions": INSERTIONS,
        "truncation": {"q_order": (parse_order, 8)},
    },
    "check-complex": {
        "experiment": {"kinds": (parse_list, ("n", "g", "gn"))},
        "element": ELEMENT,
        "descriptors": {"x1_state": (parse_state, VACUUM_VECTOR),
                        "x1_point": (parse_scalar, Fraction(11)),
                        "x2_state": (parse_state, VACUUM_VECTOR),
                        "x2_point": (parse_scalar, Fraction(13))},
        "sewing": SEWING,
        "truncation": {"q_order": (parse_order, 5), "rho_order": (parse_order, 3)},
        "assert": {"expect_zero": (parse_bool, False)},
    },
    "connection": {
        "element": ELEMENT,
        "descriptor": {"state": (parse_state, VACUUM_VECTOR),
                       "point": (parse_scalar, Fraction(11))},
        "sewing": SEWING,
        "options": {"f_op": (str, "paper"), "include_vacuum_term": (parse_bool, False)},
        "truncation": {"q_order": (parse_order, 5), "rho_order": (parse_order, 4)},
        "assert": {"vanishing": (parse_bool, None)},
    },
    "cohomology": {
        "probe": {"pool": (parse_pool, ("1", "a")), "g_max": (int, 1), "n_max": (int, 2),
                  "descriptor_pool_index": (int, 0), "zero_dn": (parse_bool, False),
                  "zero_dg": (parse_bool, False)},
        "experiment": {"m": (int, REQUIRED)},
    },
}


class _Values(dict):
    """A config's values by (section, key): each given key as its reader
    read it, the default of every other key.  ``given`` is the config as
    written."""

    def __missing__(self, key):
        raise ConfigError("[{}] {} is not given".format(*key))


def read_config(path: str, command: str) -> _Values:
    """Read the config at ``path`` by the key table of ``command``;
    any other section or key is refused."""
    parser = configparser.ConfigParser()
    if not parser.read(path):
        raise ConfigError(f"config file {path!r} not found")
    table = CONFIG_KEYS[command]
    values = _Values({(section, key): default for section, keys in table.items()
                      for key, (_, default) in keys.items() if default is not REQUIRED})
    values.given = {section: dict(parser[section]) for section in parser.sections()}
    for section, given in values.given.items():
        if section not in table:
            keys = f" (given: {', '.join(given)})" if given else ""
            raise ConfigError(f"{command} takes no section [{section}]{keys}; it takes "
                              + ", ".join(f"[{name}]" for name in table))
        for key, raw in given.items():
            if key not in table[section]:
                raise ConfigError(f"{command} takes no key {key!r} in [{section}]; "
                                  f"[{section}] takes {', '.join(table[section])}")
            values[section, key] = read_value(table[section][key][0], raw,
                                              f"[{section}] {key}")
    return values


def scalar_json(x):
    if isinstance(x, ExactComplex):
        return {"rational_re": _frac_str(x.re), "rational_im": _frac_str(x.im)}
    return {"rational": _frac_str(Fraction(x))}


def corr_json(value) -> dict:
    data = value.data
    out: dict = {"genus": value.genus,
                 "prefactor_q_exponent": _frac_str(value.prefactor_exponent)}
    if isinstance(data, TruncatedSeries):
        out["series"] = data.to_json_dict()
    else:
        out["value"] = scalar_json(data)
    return out


def emit(report: dict) -> None:
    # strict JSON: a nan or infinite number in a report is a fault
    print(json.dumps(report, sort_keys=True, indent=2, allow_nan=False))


def float_size(x: float) -> float | None:
    """A float size field as printed: null where it is infinite, as for
    an exact value past the float range."""
    return x if math.isfinite(x) else None


def emit_report(command: str, cfg: _Values, **fields) -> None:
    """A config command's report: the config as written, the given
    [truncation] keys as read, and the command's own fields."""
    truncation = {key: cfg["truncation", key] for key in cfg.given.get("truncation", {})}
    emit({"command": command, "config": cfg.given, "truncation": truncation, **fields})


def fail_validation(command: str, message: str) -> int:
    emit({"command": command, "error": {"kind": "validation", "message": message}})
    return 2


def build_insertions(cfg: _Values, section: str = "insertions") -> InsertionTuple:
    states, points = cfg[section, "states"], cfg[section, "points"]
    if len(states) != len(points):
        raise ConfigError(f"[{section}] states and points lists must have equal length")
    return InsertionTuple(tuple(zip(states, points)))


def build_sewing(cfg: _Values) -> SewingData:
    return SewingData(zeta1=cfg["sewing", "zeta1"], zeta2=cfg["sewing", "zeta2"])


def build_schottky(cfg: _Values) -> SchottkyData:
    return SchottkyData(genus=cfg["schottky", "genus"], points=cfg["schottky", "points"])


# -- subcommand handlers ------------------------------------------------


def cmd_eval_eisenstein(args) -> int:
    read_value(parse_order, args.order, "--order")
    series = eisenstein(args.k, args.order)
    emit({
        "command": "eval-eisenstein",
        "config": {"k": args.k, "order": args.order},
        "series": series.to_json_dict(),
    })
    return 0


def cmd_eval_weierstrass(args) -> int:
    read_value(parse_order, args.terms, "--terms")
    mp = ModularPoint(complex(args.tau_re, args.tau_im), q_order=args.terms)
    val = weierstrass_p(args.k, complex(args.z_re, args.z_im), mp, z_terms=args.terms)
    series = weierstrass_series(args.k, mp, args.terms)
    emit({
        "command": "eval-weierstrass",
        "config": {"k": args.k, "z": [args.z_re, args.z_im],
                   "tau": [args.tau_re, args.tau_im], "terms": args.terms},
        "value": {"re": val.value.real, "im": val.value.imag},
        # an infinite tail proxy has no JSON number; flagged says it
        "tail_estimate": float_size(val.tail_estimate),
        "flagged": val.flagged(),
        "series": series.to_json_dict(),
    })
    return 0


def cmd_eval_pm(args) -> int:
    read_value(parse_order, args.terms, "--terms")
    mp = ModularPoint(complex(args.tau_re, args.tau_im), q_order=args.terms)
    val = pm_genus1(args.m, complex(args.z_re, args.z_im), mp, terms=args.terms)
    emit({
        "command": "eval-pm",
        "config": {"m": args.m, "z": [args.z_re, args.z_im],
                   "tau": [args.tau_re, args.tau_im], "terms": args.terms},
        "value": {"re": val.real, "im": val.imag},
    })
    return 0


def cmd_eval_f0(args) -> int:
    read_value(parse_order, args.iota_order, "--iota-order")
    point = [parse_scalar(x) for x in (args.z, args.w) if x is not None]
    if len(point) == 1:
        raise ConfigError("--z and --w name one point: give both or neither")
    kernel = f0_kernel(args.n, args.m)
    num, den = kernel.numerator_denominator()
    report = {
        "command": "eval-f0",
        "config": {"n": args.n, "m": args.m, "iota_order": args.iota_order},
        "numerator": [[i, j, _frac_str(Fraction(c))] for (i, j), c in sorted(num.items())],
        "denominator": [[i, j, _frac_str(Fraction(c))] for (i, j), c in sorted(den.items())],
        "iota": [
            [ze, we, _frac_str(c)] for ze, we, c in f0_iota(args.n, args.m, args.iota_order)
        ],
    }
    if point:
        z, w = point
        z_str, w_str = (_frac_str(x) if isinstance(x, Fraction) else str(x) for x in (z, w))
        report["value_at"] = {"z": z_str, "w": w_str,
                              "value": scalar_json(kernel(z, w))}
    emit(report)
    return 0


def cmd_npoint(args) -> int:
    cfg = read_config(args.config, "npoint")
    genus = cfg["experiment", "genus"]
    # a section given below genus 2 is read, and refused, not passed over
    surface = (genus, build_schottky(cfg) if genus >= 2 or "schottky" in cfg.given else None,
               cfg["truncation", "q_order"], cfg["truncation", "rho_orders"])
    ins = build_insertions(cfg)
    if args.path == "oracle":
        elem = element_from_insertions(ins, *surface)
    else:
        # from the zero-point element, one reduction step per insertion
        elem = element_from_insertions(InsertionTuple(()), *surface)
        for state, point in ins.entries:
            elem = apply_Dn((state, point), elem)
    emit_report("npoint", cfg, path=args.path, result=corr_json(elem.value))
    return 0


def cmd_sew(args) -> int:
    cfg = read_config(args.config, "sew")
    sewing = build_sewing(cfg)
    ins = build_insertions(cfg)
    elem = element_from_insertions(ins, cfg["experiment", "genus"],
                                   q_order=cfg["truncation", "q_order"])
    sewn = apply_Dg(elem, sewing, cfg["truncation", "rho_order"])
    emit_report("sew", cfg, result=corr_json(sewn.value))
    return 0


def cmd_partition(args) -> int:
    cfg = read_config(args.config, "partition")
    # the sphere sewn with every handle: at genus 1 too, not the trace
    handles = build_schottky(cfg).handles(cfg["truncation", "rho_orders"])
    series = Sphere(handles).evaluate(()).data
    emit_report("partition", cfg, series=series.to_json_dict())
    return 0


def cmd_reduce(args) -> int:
    cfg = read_config(args.config, "reduce")
    elem = element_from_insertions(build_insertions(cfg), cfg["experiment", "genus"],
                                   q_order=cfg["truncation", "q_order"])
    factor, zero_point = reduce_to_zero_point(elem)
    mismatch = factor * zero_point.data - elem.value.data
    if isinstance(factor, TruncatedSeries):
        factor_json = {"series": factor.to_json_dict()}
    else:
        factor_json = {"value": scalar_json(factor)}
    emit_report("reduce", cfg, factor=factor_json, zero_point=corr_json(zero_point),
                round_trip_residual=float_size(scalar_abs(mismatch)))
    return 0 if scalar_is_zero(mismatch) else 3


def cmd_check_complex(args) -> int:
    cfg = read_config(args.config, "check-complex")
    if not cfg["experiment", "kinds"]:
        raise ConfigError("[experiment] kinds names no condition to check")
    rho_order = cfg["truncation", "rho_order"]
    elem = element_from_insertions(build_insertions(cfg, "element"), cfg["element", "genus"],
                                   q_order=cfg["truncation", "q_order"])
    x1 = (cfg["descriptors", "x1_state"], cfg["descriptors", "x1_point"])
    x2 = (cfg["descriptors", "x2_state"], cfg["descriptors", "x2_point"])
    sewing = build_sewing(cfg)
    suite = []
    for kind in cfg["experiment", "kinds"]:
        if kind == "n":
            suite.append({"kind": "n", "element": elem, "x1": x1, "x2": x2})
        elif kind == "g":
            suite.append({"kind": "g", "element": elem, "rho_order": rho_order,
                          "sewing_a": sewing})
        elif kind == "gn":
            suite.append({"kind": "gn", "element": elem, "x": x1,
                          "sewing": sewing, "rho_order": rho_order})
        else:
            raise ConfigError(f"unknown condition kind {kind!r}")
    reports = check_chain_conditions(suite)
    payload = [
        {"kind": rep.kind, "residual": float_size(rep.residual),
         "composition_norm": float_size(rep.composition_norm), "detail": rep.detail}
        for rep in reports
    ]
    emit_report("check-complex", cfg, reports=payload)
    if cfg["assert", "expect_zero"]:
        # a skipped check computed nothing, so it cannot assert a zero
        skipped = [rep for rep in reports if rep.skipped]
        for rep in skipped:
            print(f"chain check {rep.kind!r} skipped: {rep.skipped}", file=sys.stderr)
        # decided on the exact differences: a printed residual of 0.0 may
        # be a nonzero difference below the float range
        if not all(rep.vanishes for rep in reports):
            print("chain-condition residual is not 0", file=sys.stderr)
            return 3
        if skipped:
            return 3
    return 0


def cmd_connection(args) -> int:
    cfg = read_config(args.config, "connection")
    elem = element_from_insertions(build_insertions(cfg, "element"), cfg["element", "genus"],
                                   q_order=cfg["truncation", "q_order"])
    report = connection_functional(
        elem,
        (cfg["descriptor", "state"], cfg["descriptor", "point"]),
        sewing=build_sewing(cfg),
        f_op=cfg["options", "f_op"],
        include_vacuum_term=cfg["options", "include_vacuum_term"],
        rho_order=cfg["truncation", "rho_order"],
    )
    emit_report("connection", cfg,
                components={k: corr_json(v) for k, v in report.components.items()},
                G_norm=float_size(report.G_norm), vanishing=report.vanishing,
                identification=report.identification)
    expected = cfg["assert", "vanishing"]
    if expected is not None and expected != report.vanishing:
        print("connection vanishing assertion failed", file=sys.stderr)
        return 3
    return 0


def cmd_cohomology(args) -> int:
    cfg = read_config(args.config, "cohomology")
    probe = ProbeComplex(pool=cfg["probe", "pool"], g_max=cfg["probe", "g_max"],
                         n_max=cfg["probe", "n_max"],
                         descriptor_pool_index=cfg["probe", "descriptor_pool_index"],
                         zero_dn=cfg["probe", "zero_dn"], zero_dg=cfg["probe", "zero_dg"])
    report = cohomology_ranks(probe, cfg["experiment", "m"])
    if report.non_complex:
        print("the label maps do not compose to zero: H^m is undefined", file=sys.stderr)
    emit({
        "command": "cohomology",
        "config": cfg.given,
        "report": {
            "m": report.m,
            "dim_domain": report.dim_domain,
            "rank_dm": report.rank_dm,
            "dim_kernel": report.dim_kernel,
            "rank_dm_minus_1": report.rank_dm_minus_1,
            "betti": report.betti,
            "non_complex": report.non_complex,
            "composition_residual": report.composition_residual,
        },
    })
    return 0


@lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on its first call and shared by
    every later one.  It holds no handler: ``main`` looks up the handler
    of a subcommand by name when it calls it."""
    parser = argparse.ArgumentParser(
        prog="voachain",
        description="correlation-function reduction experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-eisenstein", help="Eisenstein q-series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=10)

    p = sub.add_parser("eval-weierstrass", help="Weierstrass kernel value")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--z-re", type=float, default=0.3)
    p.add_argument("--z-im", type=float, default=0.0)
    p.add_argument("--tau-re", type=float, default=0.0)
    p.add_argument("--tau-im", type=float, default=2.0)
    p.add_argument("--terms", type=int, default=40)

    p = sub.add_parser("eval-pm", help="genus-1 reduction kernel value")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z-re", type=float, default=-0.5)
    p.add_argument("--z-im", type=float, default=0.3)
    p.add_argument("--tau-re", type=float, default=0.0)
    p.add_argument("--tau-im", type=float, default=1.5)
    p.add_argument("--terms", type=int, default=40)

    p = sub.add_parser("eval-f0", help="genus-0 rational kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", type=str, default=None)
    p.add_argument("--w", type=str, default=None)
    p.add_argument("--iota-order", type=int, default=8)

    for name in ("npoint", "sew", "partition", "reduce", "check-complex", "connection",
                 "cohomology"):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "npoint":
            p.add_argument("--oracle", dest="path", action="store_const",
                           const="oracle", default="oracle")
            p.add_argument("--reduction", dest="path", action="store_const",
                           const="reduction")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    handler = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return handler(args)
    except (ConfigError, ComplexError, SeriesError, SewingError, EllipticError,
            configparser.Error) as exc:
        return fail_validation(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
