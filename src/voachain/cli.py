"""Command-line front end: config-driven experiments with JSON reports.

Every report is a single JSON document on standard output carrying the
resolved configuration and the truncation metadata of each numeric
payload; human-readable progress goes to standard error.  Exit codes:
0 success, 2 validation error (with a machine-readable diagnostic on
standard output), 3 tolerance or assertion failure in check suites.
Only the package's own error classes and malformed configs count as
validation errors; any other exception is a fault in the program and
escapes with its traceback (exit 1).
"""

from __future__ import annotations

import argparse
import cmath
import configparser
import json
import sys
from fractions import Fraction
from functools import partial

from .complexes import (
    ChainElement,
    ComplexError,
    InsertionTuple,
    ProbeComplex,
    apply_Dg,
    apply_Dn,
    check_chain_conditions,
    cohomology_ranks,
    connection_functional,
    element_from_insertions,
    genus0_npoint,
    genus1_npoint_trace,
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
from .schottky import SchottkyData, SewingData, SewingError, genus_g_partition
from .series import ExactComplex, SeriesError, TruncatedSeries, _frac_str, points_coincide
from .voa import FockState, FockVector

STATE_ALIASES = {
    "1": (),
    "vacuum": (),
    "a": (1,),
    "aa": (1, 1),
    "a2": (2,),
    "a3": (3,),
}


# the [truncation] keys that are truncation orders, each 0 or more
ORDER_KEYS = ("q_order", "rho_order", "rho_orders")


class ConfigError(ValueError):
    pass


def _checked(read):
    def typed_read(self, section, option, **kwargs):
        try:
            return read(self, section, option, **kwargs)
        except ValueError as exc:
            raise ConfigError(f"[{section}] {option}: {exc}") from exc

    return typed_read


class _Config(configparser.ConfigParser):
    """A ConfigParser whose typed reads report a malformed value as a
    ConfigError."""

    getint = _checked(configparser.ConfigParser.getint)
    getfloat = _checked(configparser.ConfigParser.getfloat)
    getboolean = _checked(configparser.ConfigParser.getboolean)


def parse_number(kind, token: str, where: str):
    try:
        return kind(token)
    except ValueError as exc:
        raise ConfigError(f"{where}: cannot read {token.strip()!r} as {kind.__name__}") from exc


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
    token = token.strip()
    try:
        return Fraction(token)
    except (ValueError, ZeroDivisionError):
        pass
    try:
        value = complex(token)
    except ValueError as exc:
        raise ConfigError(f"cannot parse scalar {token!r}") from exc
    # nan or inf is no point, and strict JSON has no literal for it
    if not cmath.isfinite(value):
        raise ConfigError(f"scalar {token!r} is not finite")
    return value


def check_order(order: int, where: str) -> int:
    if order < 0:
        raise ConfigError(f"{where}: truncation order {order} is negative")
    return order


def parse_order(token: str, where: str) -> int:
    return check_order(parse_number(int, token, where), where)


def parse_orders(cfg, fallback: str) -> tuple[int, ...]:
    where = "[truncation] rho_orders"
    return tuple(parse_order(x, where)
                 for x in parse_list(cfg.get("truncation", "rho_orders", fallback=fallback)))


def parse_list(raw: str):
    return [t for t in (piece.strip() for piece in raw.split(",")) if t]


def scalar_json(x):
    if isinstance(x, (int, Fraction)):
        return {"rational": _frac_str(Fraction(x))}
    if isinstance(x, ExactComplex):
        return {"rational_re": _frac_str(x.re), "rational_im": _frac_str(x.im)}
    z = complex(x)
    return {"re": z.real, "im": z.imag}


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
    print(json.dumps(report, sort_keys=True, indent=2))


def fail_validation(command: str, message: str) -> int:
    emit({"command": command, "error": {"kind": "validation", "message": message}})
    return 2


def read_config(path: str) -> configparser.ConfigParser:
    cfg = _Config()
    loaded = cfg.read(path)
    if not loaded:
        raise ConfigError(f"config file {path!r} not found")
    return cfg


def config_echo(cfg: configparser.ConfigParser) -> dict:
    return {section: dict(cfg[section]) for section in cfg.sections()}


def build_insertions(cfg, genus: int, moduli=None, section: str = "insertions") -> InsertionTuple:
    states = parse_list(cfg.get(section, "states", fallback=""))
    points = parse_list(cfg.get(section, "points", fallback=""))
    if len(states) != len(points):
        raise ConfigError(f"[{section}] states and points lists must have equal length")
    entries = tuple(
        (parse_state(s), parse_scalar(p)) for s, p in zip(states, points)
    )
    return InsertionTuple(entries, genus, moduli)


def build_sewing(cfg, section: str = "sewing") -> SewingData:
    if not cfg.has_section(section):
        return SewingData()
    zeta1 = parse_scalar(cfg.get(section, "zeta1", fallback="1"))
    zeta2 = parse_scalar(cfg.get(section, "zeta2", fallback="-1"))
    rho = cfg.get(section, "rho", fallback=None)
    return SewingData(
        rho=complex(parse_scalar(rho)) if rho else None,
        zeta1=zeta1,
        zeta2=zeta2,
    )


def build_schottky(cfg) -> SchottkyData:
    section = "schottky"
    genus = cfg.getint(section, "genus")
    points = tuple(parse_scalar(x) for x in parse_list(cfg.get(section, "points")))
    return SchottkyData(genus=genus, points=points)


def truncations(cfg) -> dict:
    out = {}
    if cfg.has_section("truncation"):
        for key in cfg["truncation"]:
            raw = cfg.get("truncation", key)
            where = f"[truncation] {key}"
            parse = parse_order if key in ORDER_KEYS else partial(parse_number, int)
            if "," in raw:
                out[key] = [parse(x, where) for x in parse_list(raw)]
            else:
                out[key] = parse(raw, where)
    return out


# -- subcommand handlers ------------------------------------------------


def cmd_eval_eisenstein(args) -> int:
    check_order(args.order, "--order")
    series = eisenstein(args.k, args.order)
    emit({
        "command": "eval-eisenstein",
        "config": {"k": args.k, "order": args.order},
        "series": series.to_json_dict(),
    })
    return 0


def cmd_eval_weierstrass(args) -> int:
    check_order(args.terms, "--terms")
    mp = ModularPoint(complex(args.tau_re, args.tau_im), q_order=args.terms)
    val = weierstrass_p(args.k, complex(args.z_re, args.z_im), mp, z_terms=args.terms)
    series = weierstrass_series(args.k, mp, args.terms)
    emit({
        "command": "eval-weierstrass",
        "config": {"k": args.k, "z": [args.z_re, args.z_im],
                   "tau": [args.tau_re, args.tau_im], "terms": args.terms},
        "value": {"re": val.value.real, "im": val.value.imag},
        "tail_estimate": val.tail_estimate,
        "flagged": val.flagged(),
        "series": series.to_json_dict(),
    })
    return 0


def cmd_eval_pm(args) -> int:
    check_order(args.terms, "--terms")
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
    check_order(args.iota_order, "--iota-order")
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
    cfg = read_config(args.config)
    genus = args.genus if args.genus is not None else cfg.getint("experiment", "genus")
    path = args.path or cfg.get("experiment", "path", fallback="oracle")
    trunc = truncations(cfg)
    q_order = trunc.get("q_order", 8)
    sd = rho_orders = None
    if genus == 2:
        sd = build_schottky(cfg)
        rho_orders = parse_orders(cfg, fallback="4,3")
    ins = build_insertions(cfg, genus, moduli=sd)
    if path == "oracle":
        elem = _oracle_element(ins, q_order, trunc.get("weight_cutoff"), rho_orders)
    else:
        elem = _reduce_iteratively(ins, q_order, rho_orders)
    emit({
        "command": "npoint",
        "config": config_echo(cfg),
        "path": path,
        "result": corr_json(elem.value),
        "truncation": trunc,
    })
    return 0


def _oracle_element(ins: InsertionTuple, q_order: int, weight_cutoff=None,
                    rho_orders=None) -> ChainElement:
    """The genus-0 sphere value, the genus-1 graded trace, or the genus-2
    basis sums to rho_orders, of ins."""
    if ins.genus == 0:
        return genus0_npoint(ins)
    if ins.genus == 1:
        return genus1_npoint_trace(ins, q_order, weight_cutoff=weight_cutoff)
    if ins.genus == 2 and rho_orders is not None:
        return element_from_insertions(ins, rho_orders=rho_orders)
    raise ConfigError(f"unsupported genus {ins.genus}")


def _reduce_iteratively(ins: InsertionTuple, q_order: int, rho_orders=None) -> ChainElement:
    # from the zero-point element, one reduction step per insertion
    elem = _oracle_element(InsertionTuple((), ins.genus, ins.moduli), q_order,
                           rho_orders=rho_orders)
    for state, point in ins.entries:
        elem = apply_Dn((state, point), elem)
    return elem


def cmd_sew(args) -> int:
    cfg = read_config(args.config)
    genus = cfg.getint("experiment", "genus", fallback=0)
    trunc = truncations(cfg)
    rho_order = trunc.get("rho_order", 6)
    q_order = trunc.get("q_order", 6)
    sewing = build_sewing(cfg)
    elem = _oracle_element(build_insertions(cfg, genus), q_order)
    sewn = apply_Dg(elem, sewing, rho_order)
    emit({
        "command": "sew",
        "config": config_echo(cfg),
        "result": corr_json(sewn.value),
        "truncation": trunc,
    })
    return 0


def cmd_partition(args) -> int:
    cfg = read_config(args.config)
    sd = build_schottky(cfg)
    orders = parse_orders(cfg, fallback="6")
    series = genus_g_partition(sd, orders)
    emit({
        "command": "partition",
        "config": config_echo(cfg),
        "series": series.to_json_dict(),
        "truncation": {"rho_orders": list(orders)},
    })
    return 0


def cmd_reduce(args) -> int:
    cfg = read_config(args.config)
    genus = cfg.getint("experiment", "genus")
    trunc = truncations(cfg)
    q_order = trunc.get("q_order", 8)
    tol = cfg.getfloat("tolerance", "float_tol", fallback=1e-10)
    elem = _oracle_element(build_insertions(cfg, genus), q_order)
    factor, zero_point = reduce_to_zero_point(elem)
    if isinstance(factor, TruncatedSeries):
        product = factor * zero_point.data
        residual = product.compare(elem.value.data).deviation
        factor_json = {"series": factor.to_json_dict()}
    else:
        product = factor * zero_point.data
        residual = abs(complex(product) - complex(elem.value.data))
        factor_json = {"value": scalar_json(factor)}
    emit({
        "command": "reduce",
        "config": config_echo(cfg),
        "factor": factor_json,
        "zero_point": corr_json(zero_point),
        "round_trip_residual": residual,
        "truncation": trunc,
    })
    return 0 if residual <= tol else 3


def cmd_check_complex(args) -> int:
    cfg = read_config(args.config)
    genus = cfg.getint("element", "genus", fallback=0)
    trunc = truncations(cfg)
    q_order = trunc.get("q_order", 5)
    rho_order = trunc.get("rho_order", 3)
    expect_zero = cfg.getboolean("assert", "expect_zero", fallback=False)
    tol = cfg.getfloat("assert", "tolerance", fallback=1e-9)
    elem = _oracle_element(build_insertions(cfg, genus, section="element"), q_order)
    x1 = (parse_state(cfg.get("descriptors", "x1_state", fallback="1")),
          parse_scalar(cfg.get("descriptors", "x1_point", fallback="11")))
    x2 = (parse_state(cfg.get("descriptors", "x2_state", fallback="1")),
          parse_scalar(cfg.get("descriptors", "x2_point", fallback="13")))
    sewing = build_sewing(cfg)
    kinds = parse_list(cfg.get("experiment", "kinds", fallback="n, g, gn"))
    suite = []
    for kind in kinds:
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
        {"kind": rep.kind, "residual": rep.residual,
         "composition_norm": rep.composition_norm, "detail": rep.detail}
        for rep in reports
    ]
    emit({
        "command": "check-complex",
        "config": config_echo(cfg),
        "reports": payload,
        "truncation": trunc,
    })
    if expect_zero:
        # a skipped check computed nothing, so it cannot assert a zero
        skipped = [rep for rep in reports if rep.skipped]
        for rep in skipped:
            print(f"chain check {rep.kind!r} skipped: {rep.skipped}", file=sys.stderr)
        if any(rep.residual > tol for rep in reports):
            print("chain-condition residual above tolerance", file=sys.stderr)
            return 3
        if skipped:
            return 3
    return 0


def cmd_connection(args) -> int:
    cfg = read_config(args.config)
    genus = cfg.getint("element", "genus", fallback=0)
    trunc = truncations(cfg)
    q_order = trunc.get("q_order", 5)
    rho_order = trunc.get("rho_order", 4)
    expected = cfg.getboolean("assert", "vanishing", fallback=None)
    elem = _oracle_element(build_insertions(cfg, genus, section="element"), q_order)
    descriptor = (
        parse_state(cfg.get("descriptor", "state", fallback="1")),
        parse_scalar(cfg.get("descriptor", "point", fallback="11")),
    )
    report = connection_functional(
        elem,
        descriptor,
        sewing=build_sewing(cfg),
        f_op=cfg.get("options", "f_op", fallback="paper"),
        include_vacuum_term=cfg.getboolean(
            "options", "include_vacuum_term", fallback=False
        ),
        rho_order=rho_order,
        tol=cfg.getfloat("tolerance", "float_tol", fallback=1e-9),
    )
    emit({
        "command": "connection",
        "config": config_echo(cfg),
        "components": {k: corr_json(v) for k, v in report.components.items()},
        "G_norm": report.G_norm,
        "vanishing": report.vanishing,
        "identification": report.identification,
        "truncation": trunc,
    })
    if expected is not None and expected != report.vanishing:
        print("connection vanishing assertion failed", file=sys.stderr)
        return 3
    return 0


def cmd_cohomology(args) -> int:
    cfg = read_config(args.config)
    pool = tuple(parse_list(cfg.get("probe", "pool", fallback="1, a")))
    for token in pool:
        parse_state(token)
    points = tuple(
        parse_scalar(p) for p in parse_list(cfg.get("probe", "points", fallback="3, 1, -2")))
    if points_coincide(points):
        raise ConfigError("[probe] points must be pairwise distinct")
    index = cfg.getint("probe", "descriptor_pool_index", fallback=0)
    if not 0 <= index < len(pool):
        raise ConfigError(f"[probe] descriptor_pool_index {index} names no state of the pool")
    probe = ProbeComplex(
        pool=pool,
        points=points,
        g_max=cfg.getint("probe", "g_max", fallback=1),
        n_max=cfg.getint("probe", "n_max", fallback=2),
        descriptor_pool_index=index,
        zero_dn=cfg.getboolean("probe", "zero_dn", fallback=False),
        zero_dg=cfg.getboolean("probe", "zero_dg", fallback=False),
    )
    m = cfg.getint("experiment", "m")
    report = cohomology_ranks(probe, m)
    if report.non_complex:
        print("the label maps do not compose to zero: H^m is undefined", file=sys.stderr)
    emit({
        "command": "cohomology",
        "config": config_echo(cfg),
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


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="voachain",
        description="correlation-function reduction experiments at desk scale",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval-eisenstein", help="Eisenstein q-series")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--order", type=int, default=10)
    p.set_defaults(handler=cmd_eval_eisenstein)

    p = sub.add_parser("eval-weierstrass", help="Weierstrass kernel value")
    p.add_argument("--k", type=int, default=1)
    p.add_argument("--z-re", type=float, default=0.3)
    p.add_argument("--z-im", type=float, default=0.0)
    p.add_argument("--tau-re", type=float, default=0.0)
    p.add_argument("--tau-im", type=float, default=2.0)
    p.add_argument("--terms", type=int, default=40)
    p.set_defaults(handler=cmd_eval_weierstrass)

    p = sub.add_parser("eval-pm", help="genus-1 reduction kernel value")
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z-re", type=float, default=-0.5)
    p.add_argument("--z-im", type=float, default=0.3)
    p.add_argument("--tau-re", type=float, default=0.0)
    p.add_argument("--tau-im", type=float, default=1.5)
    p.add_argument("--terms", type=int, default=40)
    p.set_defaults(handler=cmd_eval_pm)

    p = sub.add_parser("eval-f0", help="genus-0 rational kernel")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--z", type=str, default=None)
    p.add_argument("--w", type=str, default=None)
    p.add_argument("--iota-order", type=int, default=8)
    p.set_defaults(handler=cmd_eval_f0)

    for name, handler in (
        ("npoint", cmd_npoint),
        ("sew", cmd_sew),
        ("partition", cmd_partition),
        ("reduce", cmd_reduce),
        ("check-complex", cmd_check_complex),
        ("connection", cmd_connection),
        ("cohomology", cmd_cohomology),
    ):
        p = sub.add_parser(name)
        p.add_argument("--config", required=True)
        if name == "npoint":
            p.add_argument("--genus", type=int, default=None)
            p.add_argument("--path", choices=("oracle", "reduction"), default=None)
            p.add_argument("--oracle", dest="path", action="store_const",
                           const="oracle")
            p.add_argument("--reduction", dest="path", action="store_const",
                           const="reduction")
        p.set_defaults(handler=handler)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except (ConfigError, ComplexError, SeriesError, SewingError, EllipticError,
            configparser.Error) as exc:
        return fail_validation(args.command, str(exc))


if __name__ == "__main__":
    sys.exit(main())
