"""The three benchmark workloads: CLI operations drawn from a seed, and
the checks each operation's JSON report must pass.

A workload is a list of operations, each one `voachain <command>
--config <file>` on a generated INI config.  The seed draws only the
insertion and sewing points.  Each role (the points of one operation,
one sewing pair) has a fixed set of small magnitudes; the seed orders
them and picks their signs, so the sizes of the rationals involved, and
with them the cost of a pass, hardly depend on the seed.  The two
points of a sewing pair or handle have opposite signs, as in the
program's own default pair (1, -1), so their distance is the same for
every seed.  No point is 0 or +-3, because the handle-exchange check
sews a second handle at the fixed pair (3, -3); torus points also avoid
+-1.

Every check compares against `oracles` (which imports nothing from
voachain) or against a property the method must have, such as
transposition under a handle swap; none compares with a stored copy of
an earlier output.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import oracles

DEFAULT_SEED = 1

GENUS1_TRACE_QMAX = 14  # q-order of the top op, the (aa,a,a) trace
GENUS1_FOUR_POINT_Q = 12
GENUS1_REDUCTION_Q = 10
GENUS1_SEW = {"rho_order": 4, "q_order": 6}
GENUS1_BARE_SEW = {"rho_order": 5, "q_order": 6}
GENUS2_PARTITION_ORDERS = (6, 6)
GENUS2_NPOINT_ORDERS = (5, 4)
GENUS2_SEW_SPHERE_RHO = 10
CHAIN_RHO = 4
CHAIN_TOP_RHO = 5  # rho-order of the top op, the handle-exchange check
CHAIN_GENUS1_Q = 10
CHAIN_REDUCTION_POINTS = 10
CHAIN_CONNECTION_RHO = 4


class CheckError(Exception):
    """A report that does not have the shape the check expects."""


@dataclass(frozen=True)
class Op:
    """One CLI invocation and the check its report must pass.

    ``check(report, reports)`` returns a list of problems; ``reports``
    maps the names of the operations already run in this pass to their
    parsed reports (None for an operation that failed to produce one).
    """

    name: str
    argv: tuple[str, ...]  # subcommand and flags, without --config
    config: str
    check: Callable[[dict, dict], list[str]]


@dataclass(frozen=True)
class Workload:
    name: str
    ops: tuple[Op, ...]
    top_op: str  # the largest-truncation operation, timed on its own
    points: dict  # the drawn points, echoed on stderr


# -- config and report helpers -------------------------------------------


def ini(sections: dict) -> str:
    lines = []
    for section, entries in sections.items():
        lines.append(f"[{section}]")
        lines.extend(f"{key} = {_ini_value(value)}" for key, value in entries.items())
        lines.append("")
    return "\n".join(lines)


def _ini_value(value) -> str:
    if isinstance(value, (list, tuple)):
        return ", ".join(str(v) for v in value)
    return str(value)


def _signed(rng: random.Random, magnitudes) -> list[int]:
    """The magnitudes in random order, each with a random sign."""
    mags = list(magnitudes)
    rng.shuffle(mags)
    return [m if rng.random() < 0.5 else -m for m in mags]


def _pair(rng: random.Random, m1: int, m2: int) -> tuple[int, int]:
    """A sewing pair of magnitudes m1, m2 with opposite signs."""
    a, b = _signed(rng, (m1, m2))
    return (a, -abs(b) if a > 0 else abs(b))


def exact(parts) -> Fraction:
    """A real exact coefficient from its JSON [re, im] string pair."""
    if len(parts) != 2 or not all(isinstance(p, str) for p in parts):
        raise CheckError(f"coefficient {parts!r} is not exact")
    re, im = (Fraction(p) for p in parts)
    if im != 0:
        raise CheckError(f"coefficient {parts!r} has an imaginary part")
    return re


def series(js: dict, variable: str, truncation: int) -> dict:
    """Coefficients of a serialized series by exponent; nested series
    stay as their JSON dicts.  Absent exponents are zero."""
    if js.get("variable") != variable:
        raise CheckError(f"series variable {js.get('variable')!r}, expected {variable!r}")
    if js.get("truncation") != truncation:
        raise CheckError(f"{variable}-truncation {js.get('truncation')}, expected {truncation}")
    if js.get("min_exponent") != 0:
        raise CheckError(f"{variable}-series starts at {js.get('min_exponent')}, expected 0")
    out = {}
    for entry in js["coeffs"]:
        exp, rest = entry[0], entry[1:]
        out[exp] = rest[0] if isinstance(rest[0], dict) else exact(rest)
    if any(not 0 <= e < truncation for e in out):
        raise CheckError(f"{variable}-series has exponents outside 0..{truncation - 1}")
    return out


def rational(js: dict) -> Fraction:
    if set(js) != {"rational"}:
        raise CheckError(f"value {js!r} is not an exact rational")
    return Fraction(js["rational"])


def compare(label: str, got: dict, want, problems: list[str]) -> None:
    """Exact comparison of a coefficient dict with a list or dict."""
    keys = range(len(want)) if isinstance(want, list) else want
    for k in keys:
        if got.get(k, Fraction(0)) != want[k]:
            problems.append(f"{label}: coefficient {k} is {got.get(k, 0)}, expected {want[k]}")
            return


def nested(js: dict, outer_var: str, inner_var: str, orders) -> dict:
    """(inner, outer) -> coefficient of a two-variable nested series."""
    inner_order, outer_order = orders
    out = {}
    for k_out, inner in series(js, outer_var, outer_order).items():
        for k_in, c in series(inner, inner_var, inner_order).items():
            out[(k_in, k_out)] = c
    return out


def _checked(fn):
    """Turn a malformed report into a problem instead of a crash."""

    def check(report, reports):
        try:
            return fn(report, reports)
        except (CheckError, KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
            return [f"malformed report: {type(exc).__name__}: {exc}"]

    return check


# -- genus1-trace ----------------------------------------------------------


def _torus_config(states, points, q_order, sewing=None, rho_order=None) -> str:
    sections = {
        "experiment": {"genus": 1},
        "insertions": {"states": states, "points": points},
        "truncation": {"q_order": q_order},
    }
    if sewing is not None:
        sections["sewing"] = {"zeta1": sewing[0], "zeta2": sewing[1]}
        sections["truncation"]["rho_order"] = rho_order
    return ini(sections)


def _trace_check(want, q_order, reference=None):
    """Genus-1 trace report: its q-coefficients equal the list ``want``
    or, when a reference op is named, that op's coefficients."""

    @_checked
    def check(report, reports):
        problems = []
        result = report["result"]
        if result["genus"] != 1 or result["prefactor_q_exponent"] != "-1/24":
            problems.append(f"genus/prefactor {result['genus']}, {result['prefactor_q_exponent']}")
        got = series(result["series"], "q", q_order)
        if reference is None:
            compare("trace vs the pairing identity", got, want, problems)
        else:
            ref = reports.get(reference)
            if ref is None:
                return [f"reference op {reference} has no report"]
            ref_series = ref["result"]["series"]
            ref_coeffs = series(ref_series, "q", ref_series["truncation"])
            compare(f"reduction vs {reference}", got, {k: ref_coeffs.get(k, Fraction(0)) for k in range(q_order)},
                    problems)
        return problems

    return check


def _sewn_torus_check(points, zeta, rho_order, q_order):
    """Sewn torus: the rho^0 column is the unsewn trace; with no
    insertions the q^0 row is (zeta1 zeta2)^k p(k)."""

    @_checked
    def check(report, reports):
        problems = []
        result = report["result"]
        if result["genus"] != 2:
            problems.append(f"sewn torus has genus {result['genus']}")
        rows = series(result["series"], "rho", rho_order)
        if 0 not in rows:
            return ["rho^0 column missing"]
        column = series(rows[0], "q", q_order)
        compare("rho^0 column vs unsewn trace", column, oracles.torus_a_trace(points, q_order), problems)
        if not points:
            p = oracles.partition_counts(rho_order)
            zz = Fraction(zeta[0]) * Fraction(zeta[1])
            for k in range(rho_order):
                q0 = series(rows[k], "q", q_order).get(0, Fraction(0)) if k in rows else Fraction(0)
                if q0 != zz ** k * p[k]:
                    problems.append(f"q^0 row at rho^{k} is {q0}, expected {zz ** k * p[k]}")
                    break
        return problems

    return check


def genus1_trace(seed: int) -> Workload:
    rng = random.Random(seed)
    two = _signed(rng, (5, 7))
    three = _signed(rng, (5, 6, 7))
    four = _signed(rng, (4, 5, 6, 7))
    zeta = _signed(rng, (2, 8))
    q = GENUS1_TRACE_QMAX
    q4 = GENUS1_FOUR_POINT_Q
    qr = GENUS1_REDUCTION_Q
    sew, bare = GENUS1_SEW, GENUS1_BARE_SEW
    ops = (
        Op("trace-a-a", ("npoint", "--oracle"),
           _torus_config("a, a", two, q), _trace_check(oracles.torus_a_trace(two, q), q)),
        Op("trace-a-a-a-a", ("npoint", "--oracle"),
           _torus_config("a, a, a, a", four, q4), _trace_check(oracles.torus_a_trace(four, q4), q4)),
        Op("trace-aa-a-a", ("npoint", "--oracle"),
           _torus_config("aa, a, a", three, q), _trace_check(oracles.torus_aa_a_a_trace(three, q), q)),
        Op("reduce-aa-a-a", ("npoint", "--reduction"),
           _torus_config("aa, a, a", three, qr), _trace_check(None, qr, "trace-aa-a-a")),
        Op("reduce-a-a-a-a", ("npoint", "--reduction"),
           _torus_config("a, a, a, a", four, qr), _trace_check(oracles.torus_a_trace(four, qr), qr)),
        Op("sew-torus-a-a", ("sew",),
           _torus_config("a, a", two, sew["q_order"], zeta, sew["rho_order"]),
           _sewn_torus_check(two, zeta, sew["rho_order"], sew["q_order"])),
        Op("sew-torus-bare", ("sew",),
           _torus_config("", (), bare["q_order"], zeta, bare["rho_order"]),
           _sewn_torus_check((), zeta, bare["rho_order"], bare["q_order"])),
    )
    return Workload("genus1-trace", ops, "trace-aa-a-a",
                    {"two": two, "three": three, "four": four, "zeta": zeta})


# -- genus2-sums -----------------------------------------------------------


def _schottky(points, orders, extra=None) -> str:
    sections = {}
    if extra:
        sections.update(extra)
    sections["schottky"] = {"genus": 2, "rho": "0.01, 0.02", "points": points}
    sections["truncation"] = {"rho_orders": orders}
    return ini(sections)


def _corner(handles, k1, k2, points=()) -> Fraction:
    """Coefficient rho1^k1 rho2^k2 for k1, k2 <= 1: at weight one the
    inverse Gram matrix is (w_-a - w_a)^2, so the basis sum is one
    sphere function of a-fields."""
    wm1, w1, wm2, w2 = (Fraction(w) for w in handles)
    pts = list(points) + ([wm1, w1] if k1 else []) + ([wm2, w2] if k2 else [])
    return (wm1 - w1) ** (2 * k1) * (wm2 - w2) ** (2 * k2) * oracles.pairing_sum(pts)


def _check_corners(got: dict, handles, problems: list[str], points=()) -> None:
    for k1 in (0, 1):
        for k2 in (0, 1):
            want = _corner(handles, k1, k2, points)
            if got.get((k1, k2), 0) != want:
                problems.append(f"coefficient ({k1},{k2}) is {got.get((k1, k2), 0)}, expected {want}")


def _partition_check(handles, orders, transpose_of=None):
    @_checked
    def check(report, reports):
        problems = []
        got = nested(report["series"], "rho2", "rho1", orders)
        p = oracles.partition_counts(max(orders))
        compare("rho2^0 row vs p(k)", {k: got.get((k, 0), 0) for k in range(orders[0])}, p[:orders[0]], problems)
        compare("rho1^0 column vs p(k)", {k: got.get((0, k), 0) for k in range(orders[1])}, p[:orders[1]],
                problems)
        _check_corners(got, handles, problems)
        if transpose_of is not None:
            ref = reports.get(transpose_of)
            if ref is None:
                return problems + [f"reference op {transpose_of} has no report"]
            other = nested(ref["series"], "rho2", "rho1", orders[::-1])
            keys = {(a, b) for a, b in got} | {(b, a) for a, b in other}
            if any(got.get((a, b), 0) != other.get((b, a), 0) for a, b in keys):
                problems.append(f"not the transpose of {transpose_of}")
        return problems

    return check


def _genus2_npoint_check(handles, points, orders):
    @_checked
    def check(report, reports):
        result = report["result"]
        problems = []
        if result["genus"] != 2:
            problems.append(f"genus {result['genus']}")
        _check_corners(nested(result["series"], "rho2", "rho1", orders), handles, problems, points)
        return problems

    return check


def _sewn_sphere_check(rho_order):
    @_checked
    def check(report, reports):
        result = report["result"]
        problems = [] if result["genus"] == 1 else [f"sewn sphere has genus {result['genus']}"]
        compare("sewn bare sphere vs p(k)", series(result["series"], "rho", rho_order),
                oracles.partition_counts(rho_order), problems)
        return problems

    return check


def genus2_sums(seed: int) -> Workload:
    rng = random.Random(seed)
    pairs = [_pair(rng, 1, 2), _pair(rng, 4, 5)]
    rng.shuffle(pairs)
    (wm1, w1), (wm2, w2) = pairs
    y1, y2 = _signed(rng, (6, 7))
    handles = (wm1, w1, wm2, w2)
    swapped = (wm2, w2, wm1, w1)
    k1, k2 = GENUS2_PARTITION_ORDERS
    n_orders = GENUS2_NPOINT_ORDERS
    rho = GENUS2_SEW_SPHERE_RHO
    ops = (
        Op("partition-12", ("partition",), _schottky(handles, (k1, k2)),
           _partition_check(handles, (k1, k2))),
        Op("partition-21", ("partition",), _schottky(swapped, (k2, k1)),
           _partition_check(swapped, (k2, k1), transpose_of="partition-12")),
        Op("npoint-genus2-a-a", ("npoint",),
           _schottky(handles, n_orders, {"experiment": {"genus": 2},
                                         "insertions": {"states": "a, a", "points": (y1, y2)}}),
           _genus2_npoint_check(handles, (y1, y2), n_orders)),
        Op("sew-sphere-bare", ("sew",),
           ini({"experiment": {"genus": 0}, "sewing": {"zeta1": wm1, "zeta2": w1},
                "truncation": {"rho_order": rho}}),
           _sewn_sphere_check(rho)),
    )
    return Workload("genus2-sums", ops, "partition-12",
                    {"handles": list(handles), "insertions": [y1, y2]})


# -- chain-conditions --------------------------------------------------------


def _complex_config(genus, points, descriptors, kinds, sewing, rho_order, q_order=None) -> str:
    truncation = {"rho_order": rho_order}
    if q_order is not None:
        truncation["q_order"] = q_order
    return ini({
        "experiment": {"kinds": kinds},
        "element": {"genus": genus, "states": ", ".join("a" for _ in points), "points": points},
        "descriptors": {"x1_state": "a", "x1_point": descriptors[0],
                        "x2_state": "a", "x2_point": descriptors[1]},
        "sewing": {"zeta1": sewing[0], "zeta2": sewing[1]},
        "truncation": truncation,
    })


def _complex_check(kinds, n_value):
    """Every residual exactly 0 and nothing skipped; the raw n
    composition norm is |n_value|, the magnitude of the element's
    value with both descriptors inserted."""

    @_checked
    def check(report, reports):
        problems = []
        got_kinds = [r["kind"] for r in report["reports"]]
        if got_kinds != list(kinds):
            problems.append(f"report kinds {got_kinds}, expected {list(kinds)}")
        for rep in report["reports"]:
            if "skipped" in rep["detail"]:
                problems.append(f"{rep['kind']} check skipped: {rep['detail']['skipped']}")
            if rep["residual"] != 0:
                problems.append(f"{rep['kind']} residual {rep['residual']!r} is not 0")
            if rep["kind"] == "n":
                want = float(n_value)
                if abs(rep["composition_norm"] - want) > 1e-12 * max(want, 1e-300):
                    problems.append(f"n composition norm {rep['composition_norm']!r}, expected {want!r}")
        return problems

    return check


def _reduction_check(points):
    @_checked
    def check(report, reports):
        got = rational(report["result"]["value"])
        want = oracles.pairing_sum(points)
        return [] if got == want else [f"genus-0 reduction {got}, expected pairing sum {want}"]

    return check


def _connection_check(points, descriptor, sewing, rho_order):
    """bracket_term = -(-1)^g <phi, a(descriptor)> with g = 0, and the
    rho^1 coefficient of the sewing term is -(zeta1-zeta2)^2 times the
    pairing sum with the sewing points appended."""

    @_checked
    def check(report, reports):
        problems = []
        comps = report["components"]
        bracket = rational(comps["bracket_term"]["value"])
        want = -oracles.pairing_sum(list(points) + [descriptor])
        if bracket != want:
            problems.append(f"bracket term {bracket}, expected {want}")
        sewn = series(comps["sewing_term"]["series"], "rho", rho_order)
        z1, z2 = (Fraction(z) for z in sewing)
        want1 = -(z1 - z2) ** 2 * oracles.pairing_sum(list(points) + [z1, z2])
        if sewn.get(0, 0) != 0:
            problems.append(f"sewing term has a rho^0 coefficient {sewn[0]}")
        if sewn.get(1, 0) != want1:
            problems.append(f"sewing term rho^1 coefficient {sewn.get(1, 0)}, expected {want1}")
        return problems

    return check


def chain_conditions(seed: int) -> Workload:
    rng = random.Random(seed)
    e1, e2, e3 = _signed(rng, (1, 2, 4))
    d1, d2 = _signed(rng, (5, 6))
    sewings = [_pair(rng, 7, 8), _pair(rng, 9, 10), _pair(rng, 11, 12)]
    t1, t2, s1, s2 = _signed(rng, (2, 4, 5, 6))
    many = _signed(rng, [m for m in range(1, CHAIN_REDUCTION_POINTS + 2) if m != 3])
    element, descriptors = (e1, e2), (d1, d2)
    genus0_value = oracles.pairing_sum(element + descriptors)
    genus1_value = max(abs(c) for c in oracles.torus_a_trace((t1, t2, s1, s2), CHAIN_GENUS1_Q))
    ops = [
        Op(f"check-genus0-n-g-gn-{i + 1}", ("check-complex",),
           _complex_config(0, element, descriptors, "n, g, gn", sewing, CHAIN_RHO),
           _complex_check(("n", "g", "gn"), genus0_value))
        for i, sewing in enumerate(sewings)
    ]
    ops += [
        Op("check-genus0-g-top", ("check-complex",),
           _complex_config(0, element, descriptors, "g", sewings[0], CHAIN_TOP_RHO),
           _complex_check(("g",), genus0_value)),
        Op("check-genus1-n", ("check-complex",),
           _complex_config(1, (t1, t2), (s1, s2), "n", sewings[0], CHAIN_RHO, CHAIN_GENUS1_Q),
           _complex_check(("n",), genus1_value)),
        Op("reduce-genus0-many", ("npoint", "--reduction"),
           ini({"experiment": {"genus": 0},
                "insertions": {"states": ", ".join("a" for _ in many), "points": many}}),
           _reduction_check(many)),
    ]
    for label, phi in (("even", (e1, e2)), ("odd", (e1, e2, e3))):
        ops.append(Op(
            f"connection-genus0-{label}", ("connection",),
            ini({"element": {"genus": 0, "states": ", ".join("a" for _ in phi), "points": phi},
                 "descriptor": {"state": "a", "point": d1},
                 "sewing": {"zeta1": sewings[0][0], "zeta2": sewings[0][1]},
                 "truncation": {"rho_order": CHAIN_CONNECTION_RHO}}),
            _connection_check(phi, d1, sewings[0], CHAIN_CONNECTION_RHO),
        ))
    return Workload("chain-conditions", tuple(ops), "check-genus0-g-top",
                    {"element": [e1, e2, e3], "descriptors": [d1, d2], "sewings": sewings,
                     "torus": [t1, t2, s1, s2], "reduction": many})


WORKLOADS = {
    "genus1-trace": genus1_trace,
    "genus2-sums": genus2_sums,
    "chain-conditions": chain_conditions,
}
