"""Command-line interface: evaluate, solve, generate, reduce, sweep, verify.

Exit codes: 0 success, 2 input/parse error, 3 semantic error (bad menu index,
infeasible parameters, caps), 4 a proven guarantee failed to hold (which
means an implementation bug, not an unlucky instance).
"""

from __future__ import annotations

import argparse
import csv
import functools
import json
import os
import random
import re
import sys
import time
from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from typing import Any, Callable, NoReturn

from .evaluate import (
    EvalReport,
    decompose,
    derandomize_interference,
    eval_bruteforce_product,
    evaluate,
)
from .model import (
    DEFAULT_ACTION_CAP,
    DEFAULT_PROFILE_CAP,
    CapExceededError,
    CorrelatedInstance,
    DelegationError,
    IndependentInstance,
    Instance,
    InvalidInstanceError,
    Menu,
    candidates,
    full_menu,
    threshold_menu,
    validate_menu,
)
from .serialize import (
    ParseError,
    check_fields,
    dump_instance,
    load_instance,
    parse_json,
    read_field,
    read_fields,
    read_text,
    xnum_to_obj,
)
from .solve import (
    BOUND_FLAGS,
    BoundReport,
    SolveResult,
    bound_report,
    brute_force_opt,
    solve,
    threshold_menus,
)
from .xnum import RATIONAL, DigitLimitError, XNum, parse_integer, parse_rational, xnum, xsum

EXIT_OK = 0
EXIT_INPUT = 2
EXIT_SEMANTIC = 3
EXIT_VIOLATION = 4

# A standard part is present only when a sign starts the iota part: "12i" is 12i.
_XNUM_RE = re.compile(f"(?:(?P<std>{RATIONAL})(?=[+-]))?(?P<inf>{RATIONAL})i")


MESSAGE_CAP = 200  # characters of an error message that its error line shows whole
# Each character that str.splitlines splits on, to its backslash escape.
_LINE_BREAKS = str.maketrans({c: repr(c)[1:-1] for c in "\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029"})


def _bounded(message: str) -> str:
    """``message`` on one line, whole or as its first ``MESSAGE_CAP`` characters and its length.

    Every ``error:`` line, the parser's and ``main``'s, shows its message
    through this, so no line grows with its input or breaks in two: each
    line break is shown escaped, then a long path, choice or literal is
    cut, not echoed whole.
    """
    message = message.translate(_LINE_BREAKS)
    if len(message) <= MESSAGE_CAP:
        return message
    return f"{message[:MESSAGE_CAP]}... ({len(message)} characters)"


def _shown(literal: str, exc: ValueError) -> str:
    """How an error line shows a bad literal: quoted, or by the digit limit it exceeds."""
    return f": {exc}" if isinstance(exc, DigitLimitError) else f" {literal!r}"


def parse_xnum_literal(text: str) -> XNum:
    """Parse '24/7', '-3', '4-1i', '3/2+2i', '1i' into an exact number; blanks are rejected."""
    match = _XNUM_RE.fullmatch(text)
    try:
        return xnum(match["std"] or 0, match["inf"]) if match else xnum(text)
    except ValueError as exc:
        raise InvalidInstanceError(f"invalid number literal{_shown(text, exc)}") from exc


def positive_int(text: str) -> int:
    """An integer option of at least 1 (argparse reports anything else with exit 2)."""
    value = parse_integer(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def _read_option(reader: Callable[[str], Any], text: str) -> Any:
    """``reader(text)``, with a literal over the digit limit named by that limit.

    argparse prints an ``ArgumentTypeError``'s own message, so the limit
    reaches the error line and the literal never does; any other bad
    spelling keeps argparse's ``invalid <reader> value`` line.
    """
    try:
        return reader(text)
    except DigitLimitError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


class _Parser(argparse.ArgumentParser):
    """The CLI's parser and, through ``add_subparsers``, each of its subparsers.

    An option's ``type`` stays its reader, and argparse calls it through
    :func:`_read_option`; an error message is shown through :func:`_bounded`.
    """

    def __init__(self, **kwargs: Any) -> None:
        super().__init__(**kwargs)
        for reader in (parse_integer, positive_int, parse_rational):
            self.register("type", reader, functools.partial(_read_option, reader))

    def error(self, message: str) -> NoReturn:
        super().error(_bounded(message))


def parse_menu_spec(instance: Instance, spec: str) -> Menu:
    spec = spec.strip()
    if spec == "all":
        return full_menu(instance)
    if spec == "empty":
        return validate_menu(instance, frozenset())
    if spec.startswith("threshold:"):
        t = parse_xnum_literal(spec[len("threshold:") :])
        return validate_menu(instance, threshold_menu(instance, t))
    try:
        menu = frozenset(parse_integer(part.strip()) for part in spec.split(","))
    except ValueError as exc:
        raise InvalidInstanceError(f"invalid menu spec{_shown(spec, exc)}") from exc
    return validate_menu(instance, menu)


@contextmanager
def _digit_limit():
    """Raise ``CapExceededError`` for a number too long to convert to text.

    ``str`` of an integer of more digits than the interpreter allows
    (``sys.get_int_max_str_digits()``, 4300 by default) raises a bare
    ``ValueError``.  The limit stays: it is what keeps a huge input literal
    from costing quadratic parse time.  So every command renders its output
    before it writes any, and a result beyond the limit is a cap: exit 3,
    or a skipped sweep row.
    """
    try:
        yield
    except ValueError as exc:
        if type(exc) is not ValueError or "integer string conversion" not in str(exc):
            raise
        raise CapExceededError(
            f"a number exceeds the interpreter's limit of {sys.get_int_max_str_digits()}"
            " digits for integer string conversion"
        ) from exc


def decimal_str(x: Fraction) -> str:
    with localcontext() as ctx:
        ctx.prec = 12
        return str(Decimal(x.numerator) / Decimal(x.denominator))


def _report_obj(instance: Instance, menu: Menu, report: EvalReport) -> dict[str, Any]:
    order = candidates(instance, menu)
    return {
        "menu": sorted(menu),
        "f": xnum_to_obj(report.f),
        "contrib": {str(i): xnum_to_obj(report.contrib[i]) for i in order},
        "freq": {str(i): str(report.freq[i]) for i in order},
        "labels": {str(i): instance.label_of(i) for i in order},
    }


def _solve_obj(row: dict[str, str], result: SolveResult, bounds: BoundReport) -> dict[str, Any]:
    """The JSON of ``solve``; its ratio, rho and p_min strings are those of ``row``."""
    return {
        "opt_menu": sorted(result.opt_menu),
        "opt_value": xnum_to_obj(result.opt_value),
        "best_threshold": (
            xnum_to_obj(result.best_threshold) if result.best_threshold is not None else "empty"
        ),
        "best_threshold_menu": sorted(result.best_threshold_menu),
        "best_threshold_value": xnum_to_obj(result.best_threshold_value),
        "ratio": row["ratio"] or None,
        "ratio_decimal": row["ratio_decimal"] or None,
        "bounds": {
            "rho": row["rho"] or None,
            "p_min": row["p_min"],
            **{flag: getattr(bounds, flag) for flag in BOUND_FLAGS},
            "vacuous": bounds.vacuous,
        },
    }


# ---------------------------------------------------------------------------
# Subcommands
# ---------------------------------------------------------------------------


def cmd_eval(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    menu = parse_menu_spec(instance, args.menu)
    report = evaluate(instance, menu)
    obj = _report_obj(instance, menu, report)
    if args.format == "text":
        print(f"menu: {obj['menu']}")
        print(f"f = {report.f}")
        for i in candidates(instance, menu):
            print(
                f"  {instance.label_of(i):>10}  contrib={report.contrib[i]}  freq={report.freq[i]}"
            )
    else:
        print(json.dumps(obj, indent=2))
    return EXIT_OK


def cmd_solve(args: argparse.Namespace) -> int:
    row, result, bounds = _solve_row(args.instance, load_instance(args.instance), args.cap_n)
    if args.format == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        writer.writerows([SWEEP_COLUMNS, [row[c] for c in SWEEP_COLUMNS]])
    else:
        print(json.dumps(_solve_obj(row, result, bounds), indent=2))
    return _bound_status([row])


def cmd_generate(args: argparse.Namespace) -> int:
    from .families import gen_log_family, gen_outside_family, gen_random, gen_three_approx

    if args.family == "log":
        instance = gen_log_family(args.k)
    elif args.family == "three-approx":
        instance = gen_three_approx(args.eps)
    elif args.family == "outside":
        instance = gen_outside_family(args.n, args.eps, args.alt)
    else:  # random
        instance = gen_random(
            kind=args.kind,
            n=args.n,
            support_size=args.support_size,
            seed=args.seed,
            value_range=(args.value_min, args.value_max),
            bias_range=(args.bias_min, args.bias_max),
            outside=args.outside,
        )
    dump_instance(instance, args.out)
    print(f"wrote {args.out}")
    return EXIT_OK


def cmd_reduce(args: argparse.Namespace) -> int:
    from .reductions import (
        PartitionInstance,
        min_vertex_cover,
        minimal_valid_m,
        parse_graph,
        reduce_integer_partition,
        reduce_vertex_cover,
    )

    text = read_text(args.input)
    try:  # an InvalidInstanceError is a ValueError too
        if args.problem == "vertex-cover":
            graph = parse_graph(text, vertices=args.vertices)
        else:
            part = PartitionInstance(tuple(map(parse_integer, text.split())))
    except ValueError as exc:
        raise ParseError(f"{args.input}: {exc}") from exc
    if args.problem == "vertex-cover":
        instance = reduce_vertex_cover(graph)
        n, m = graph.vertices, len(graph.edges)
        info: dict[str, Any] = {"actions": instance.n, "profiles": len(instance.profiles)}
        try:
            cover = min_vertex_cover(graph, cap_n=args.cap_n)
        except CapExceededError:
            pass  # the instance is still written, without the cover fields
        else:
            info["min_vertex_cover"] = cover
            info["predicted_opt"] = str(Fraction(5 * m + 3 * n - cover, m + n))
    else:
        M = args.big_m if args.big_m is not None else minimal_valid_m(part)
        instance, threshold = reduce_integer_partition(part, M)
        info = {"actions": instance.n, "M": M, "decision_threshold": str(threshold)}
    text = json.dumps(info, indent=2)  # rendered first: a failure leaves no file
    dump_instance(instance, args.out)
    print(text)
    return EXIT_OK


# ---------------------------------------------------------------------------
# Sweeps
# ---------------------------------------------------------------------------

SWEEP_COLUMNS = [
    "instance_id",
    "n",
    "kind",
    "opt_std",
    "best_threshold_std",
    "ratio",
    "ratio_decimal",
    "rho",
    "rho_decimal",
    "p_min",
    *BOUND_FLAGS,
    "runtime_ms",
    "status",
]


Job = tuple[str, Callable[..., Instance], dict[str, Any]]

SWEEP_ROW_CAP = 10**5  # rows of one sweep spec, across all its blocks

RANDOM_FIELDS = {
    "kind": "independent",
    "n": 3,
    "support_size": 2,
    "outside": "none",
    "value_range": (0, 8),
    "bias_range": (-4, 4),
}

# Each sweep generator: its constructor's name on ``families``, its rows'
# instance-id template, and the fields it reads beside "generator", in read
# order, each with its read_field default (a type for a required field).
SWEEP_GENERATORS: dict[str, tuple[str, str, dict[str, Any]]] = {
    "random": ("gen_random", "random-{kind}-s{seed}", {**RANDOM_FIELDS, "seed0": 0, "count": 1}),
    "log": ("gen_log_family", "log-k{k}", {"k": int}),
    "three_approx": ("gen_three_approx", "three-approx-{eps}", {"eps": Fraction(1, 1000)}),
    "outside": ("gen_outside_family", "outside-n{n}", {"n": int}),
}


def _ensemble_jobs(spec: Any) -> list[Job]:
    """Each instance of a sweep spec as (instance id, constructor, keyword arguments).

    Every block is read by one path.  Its ``generator`` is read first;
    then, from that generator's entry in ``SWEEP_GENERATORS``:

    1. The block is read against the schema by ``read_fields``: a field
       outside it is refused before any field is read, then each field
       is read once, with its type checked.
    2. The schema's names, zipped with the values, are the constructor's
       keyword arguments.
    3. A random block's ``seed0`` and ``count`` are taken out: they make
       one row per seed, each with its ``seed``.
    4. A ``count`` below 1 raises ``ParseError``, as does a malformed
       field; a spec of more than ``SWEEP_ROW_CAP`` rows raises
       ``CapExceededError``.  Both are checked before the block's jobs
       are built, so a huge ``count`` builds nothing.
    5. The constructor is looked up on ``families`` now, so wrappers
       installed on it apply; being a module-level function, it pickles
       for worker processes.  Each row's id is the template formatted
       with the row's keyword arguments.
    """
    from . import families

    if isinstance(spec, dict) and "ensembles" in spec:
        check_fields(spec, {"ensembles"}, "ensemble spec")
    blocks = spec.get("ensembles", [spec]) if isinstance(spec, dict) else spec
    if not isinstance(blocks, list):
        raise ParseError("ensemble spec: expected a block, a list or {'ensembles': [...]}")
    jobs: list[Job] = []
    for b, block in enumerate(blocks):
        where = f"ensemble block {b}"
        if not isinstance(block, dict):
            raise ParseError(f"{where}: expected an object")
        gen = read_field(block, "generator", str, where)
        if gen not in SWEEP_GENERATORS:
            raise ParseError(f"{where}: unknown generator {gen!r}")
        name, row_id, schema = SWEEP_GENERATORS[gen]
        _, *values = read_fields(block, {"generator": str, **schema}, where)
        kwargs = dict(zip(schema, values))
        seed0, count = kwargs.pop("seed0", None), kwargs.pop("count", 1)
        if count < 1:
            raise ParseError(f"{where}.count: expected at least 1, got {count}")
        total = len(jobs) + count
        if total > SWEEP_ROW_CAP:
            raise CapExceededError(
                f"sweep of at least {total} rows exceeds the cap of {SWEEP_ROW_CAP} rows"
            )
        seeds = [None] if seed0 is None else range(seed0, seed0 + count)
        rows = [kwargs if seed is None else {**kwargs, "seed": seed} for seed in seeds]
        jobs.extend((row_id.format(**row), getattr(families, name), row) for row in rows)
    return jobs


def _solve_row(
    instance_id: str, instance: Instance, cap_n: int
) -> tuple[dict[str, str], SolveResult, BoundReport]:
    """Solve ``instance``: the row that ``solve`` and ``sweep`` report, its solution and bounds."""
    row = {c: "" for c in SWEEP_COLUMNS}
    row["instance_id"] = instance_id
    start = time.perf_counter()
    row["n"] = str(instance.n)
    row["kind"] = "correlated" if isinstance(instance, CorrelatedInstance) else "independent"
    result = solve(instance, cap_n=cap_n)
    bounds = bound_report(instance, result)
    row["opt_std"] = str(result.opt_value.std)
    row["best_threshold_std"] = str(result.best_threshold_value.std)
    if result.ratio is not None:
        row["ratio"] = str(result.ratio)
        row["ratio_decimal"] = decimal_str(result.ratio)
    if bounds.rho is not None:
        row["rho"] = str(bounds.rho)
        row["rho_decimal"] = decimal_str(bounds.rho)
    row["p_min"] = str(bounds.p_min)
    for flag in BOUND_FLAGS:
        row[flag] = str(getattr(bounds, flag)).lower()
    row["runtime_ms"] = str(int((time.perf_counter() - start) * 1000))
    row["status"] = "ok"
    return row, result, bounds


def _bound_status(rows: list[dict[str, str]]) -> int:
    """Exit status of solved rows: 4, with their ids on stderr, if any bound flag is false."""
    violations = [row["instance_id"] for row in rows if "false" in (row[f] for f in BOUND_FLAGS)]
    if violations:
        print(f"BOUND VIOLATIONS: {', '.join(violations)}", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _sweep_worker(payload: tuple[Job, int]) -> dict[str, str]:
    (instance_id, constructor, kwargs), cap_n = payload
    start = time.perf_counter()
    try:
        with _digit_limit():
            return _solve_row(instance_id, constructor(**kwargs), cap_n)[0]
    except DelegationError as exc:
        row = {c: "" for c in SWEEP_COLUMNS}
        row["instance_id"] = instance_id
        row["runtime_ms"] = str(int((time.perf_counter() - start) * 1000))
        row["status"] = f"skipped: {exc}"
        return row


def sweep_workers(jobs: int, tasks: int, cpus: int | None) -> tuple[int, int]:
    """(worker processes, tasks per chunk) for a sweep of ``tasks`` rows.

    More workers than CPUs or than tasks only add start-up cost, so the
    request is clamped; chunks of about four per worker amortize the
    inter-process round trips.
    """
    workers = max(1, min(jobs, cpus or 1, tasks))
    return workers, max(1, -(-tasks // (4 * workers)))


def cmd_sweep(args: argparse.Namespace) -> int:
    text = read_text(args.spec)
    try:
        spec = parse_json(text)
    except ParseError as exc:
        raise ParseError(f"ensemble spec: {exc}") from exc
    jobs = _ensemble_jobs(spec)
    payloads = [(job, args.cap_n) for job in jobs]
    # The CPUs this process may run on, which an affinity mask (as taskset
    # sets) can make fewer than the machine's.
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    workers, chunksize = sweep_workers(args.jobs, len(payloads), cpus)
    # Opened before any row is solved, so an unwritable path costs no solve.
    with open(args.out, "w", encoding="utf-8", newline="") as fh:
        if workers > 1:
            from concurrent.futures import ProcessPoolExecutor  # only a pool needs it

            with ProcessPoolExecutor(max_workers=workers) as pool:
                rows = list(pool.map(_sweep_worker, payloads, chunksize=chunksize))
        else:
            rows = [_sweep_worker(p) for p in payloads]
        writer = csv.DictWriter(fh, fieldnames=SWEEP_COLUMNS)
        writer.writeheader()
        writer.writerows(rows)
    print(f"wrote {args.out} ({len(rows)} rows)")
    return _bound_status(rows)


# ---------------------------------------------------------------------------
# Guarantee-check suite
# ---------------------------------------------------------------------------


def sample_menus(instance: Instance, count: int, seed: int) -> list[Menu]:
    """Random nonempty-unless-outside menus, always including the full menu."""
    rng = random.Random(seed)
    menus = [full_menu(instance)]
    while len(menus) < count:
        menu = frozenset(i for i in range(1, instance.n + 1) if rng.random() < 0.5)
        if not menu and not instance.has_outside:
            continue
        menus.append(menu)
    return menus


VERIFY_MENU_CAP = 10**5  # sampled menus of one verify run: sample_menus keeps every draw

VERIFY_CHECKS = (
    "decomposition identity",
    "dp/oracle equivalence",
    "threshold dominance",
    "single-action bound",
    "derandomization certificates",
)


def run_verify(
    instance: Instance, menus: int = 5, seed: int = 0, cap: int = DEFAULT_PROFILE_CAP
) -> tuple[list[str], dict[str, str]]:
    """Run the guarantee-check suite.

    Returns the violation descriptions and, for each check of
    ``VERIFY_CHECKS`` that ran on no case, the reason it was skipped.
    ``cap`` bounds the joint profiles the product oracle enumerates on one
    menu; the certificates enumerate none.  Raises ``CapExceededError``,
    before any menu is drawn, for more than ``VERIFY_MENU_CAP`` menus.
    """
    if menus > VERIFY_MENU_CAP:
        raise CapExceededError(f"{menus} menus exceed the cap of {VERIFY_MENU_CAP} menus")
    identity, oracle, dominance, single_action, certificates = VERIFY_CHECKS
    independent = isinstance(instance, IndependentInstance)
    skipped = dict.fromkeys(VERIFY_CHECKS, "no applicable case")
    if independent:
        skipped[oracle] = f"joint support over {cap} profiles on every sampled menu"
        skipped[certificates] = "every threshold menu lies inside the optimal menu"
    else:
        skipped[oracle] = skipped[certificates] = "correlated instance"
    violations: list[str] = []

    def check(name: str, holds: bool, violation: str) -> None:
        """Record that check ``name`` ran on one case, and its violation if it failed."""
        skipped.pop(name, None)
        if not holds:
            violations.append(violation)

    report_of = functools.cache(functools.partial(evaluate, instance))  # once per distinct menu
    threshold_at = functools.cache(functools.partial(threshold_menu, instance))  # once per bias
    for menu in dict.fromkeys(sample_menus(instance, menus, seed)):  # each distinct menu once
        report = report_of(menu)
        on = f"on menu {sorted(menu)}"
        dec = decompose(instance, menu)
        holds = dec.sur + dec.bdif == report.f and dec.bdif >= 0 and dec.sur.std >= 0
        check(identity, holds, f"decomposition identity failed {on}")
        try:
            brute = eval_bruteforce_product(instance, menu, cap=cap) if independent else None
        except CapExceededError:
            brute = None
        if brute is not None:
            holds = brute == report  # f, every contribution and every frequency
            check(oracle, holds, f"dp/oracle mismatch {on}")
            expected_bias = xsum(instance.bias_of(i) * p for i, p in brute.freq.items())
            holds = dec.bdif == dec.u_low - expected_bias
            check(oracle, holds, f"bias-difference mismatch {on}")
        holds = report_of(threshold_at(dec.u_low)).f >= dec.sur
        check(dominance, holds, f"threshold-dominance failed {on}")
        for i in candidates(instance, menu):
            t_menu = threshold_at(instance.bias_of(i))
            if t_menu or instance.has_outside:
                holds = report_of(t_menu).f >= report.contrib[i]
                check(single_action, holds, f"single-action bound failed {on}, action {i}")

    if not independent:
        return violations, skipped
    try:
        opt_menu, _ = brute_force_opt(instance)
    except CapExceededError as exc:
        skipped[certificates] = str(exc)
        return violations, skipped
    for t, a_t in threshold_menus(instance):
        if not a_t <= opt_menu:  # only a menu reaching outside the optimum has interference
            _, certified = derandomize_interference(instance, opt_menu, t)
            check(certificates, certified, f"derandomization certificate failed at t={t}")
    return violations, skipped


def cmd_verify(args: argparse.Namespace) -> int:
    instance = load_instance(args.instance)
    violations, skipped = run_verify(
        instance, menus=args.menus, seed=args.seed, cap=args.cap_profiles
    )
    if violations:
        for v in violations:
            print(f"VIOLATION: {v}")
        return EXIT_VIOLATION
    for c in VERIFY_CHECKS:
        print(f"skipped: {c} ({skipped[c]})" if c in skipped else f"ok: {c}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="delmenu",
        description="Exact evaluation and optimization of delegated-choice menus.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate a menu on an instance file")
    p_eval.add_argument("instance")
    p_eval.add_argument(
        "--menu",
        required=True,
        help="comma-separated indices, 'all', 'empty', or 'threshold:<t>'",
    )
    p_eval.add_argument("--format", choices=["json", "text"], default="json")
    p_eval.set_defaults(func=cmd_eval)

    p_solve = sub.add_parser("solve", help="optimal menu, best threshold, bound report")
    p_solve.add_argument("instance")
    p_solve.add_argument("--cap-n", type=positive_int, default=DEFAULT_ACTION_CAP)
    p_solve.add_argument("--format", choices=["json", "csv"], default="json")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="write a family instance to a file")
    gen_sub = p_gen.add_subparsers(dest="family", required=True)
    g_log = gen_sub.add_parser("log", help="correlated log-factor family")
    g_log.add_argument("--k", type=parse_integer, required=True)
    g_three = gen_sub.add_parser("three-approx", help="five-action threshold-gap family")
    g_three.add_argument("--eps", type=parse_rational, default="1/1000")
    g_out = gen_sub.add_parser("outside", help="random-outside-option family")
    g_out.add_argument("--n", type=parse_integer, required=True)
    g_out.add_argument("--eps", type=parse_rational, default=None)
    g_out.add_argument("--alt", action="store_true", help="nonzero low realizations")
    g_rand = gen_sub.add_parser("random", help="seeded random instance")
    g_rand.add_argument("--kind", choices=["independent", "correlated"])
    g_rand.add_argument("--n", type=parse_integer)
    g_rand.add_argument("--support-size", type=parse_integer)
    g_rand.add_argument("--seed", type=parse_integer, required=True)
    g_rand.add_argument("--outside", choices=["none", "fixed", "random"])
    defaults = dict(RANDOM_FIELDS)  # a sweep random block's, each range as --*-min, --*-max
    for name in ("value", "bias"):
        g_rand.add_argument(f"--{name}-min", type=parse_integer)
        g_rand.add_argument(f"--{name}-max", type=parse_integer)
        defaults[f"{name}_min"], defaults[f"{name}_max"] = defaults.pop(f"{name}_range")
    g_rand.set_defaults(**defaults)
    for g in (g_log, g_three, g_out, g_rand):
        g.add_argument("-o", "--out", required=True)
    p_gen.set_defaults(func=cmd_generate)

    p_red = sub.add_parser("reduce", help="build a hardness-reduction instance")
    red_sub = p_red.add_subparsers(dest="problem", required=True)
    r_vc = red_sub.add_parser("vertex-cover", help="from an edge-list file")
    r_vc.add_argument("input")
    r_vc.add_argument("--vertices", type=parse_integer, default=None)
    r_vc.add_argument("--cap-n", type=positive_int, default=DEFAULT_ACTION_CAP)
    r_part = red_sub.add_parser("partition", help="from a whitespace-separated integer file")
    r_part.add_argument("input")
    r_part.add_argument("--M", dest="big_m", type=parse_integer, default=None)
    for r in (r_vc, r_part):
        r.add_argument("-o", "--out", required=True)
    p_red.set_defaults(func=cmd_reduce)

    p_sweep = sub.add_parser("sweep", help="run an ensemble and write a CSV report")
    p_sweep.add_argument("spec", help="JSON ensemble spec")
    p_sweep.add_argument("-o", "--out", required=True)
    p_sweep.add_argument("--jobs", type=positive_int, default=1)
    p_sweep.add_argument("--cap-n", type=positive_int, default=DEFAULT_ACTION_CAP)
    p_sweep.set_defaults(func=cmd_sweep)

    p_verify = sub.add_parser("verify", help="run the guarantee-check suite on an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("--menus", type=positive_int, default=5)
    p_verify.add_argument("--seed", type=parse_integer, default=0)
    p_verify.add_argument(
        "--cap-profiles",
        type=positive_int,
        default=DEFAULT_PROFILE_CAP,
        help="most joint profiles the product oracle enumerates on one sampled menu"
        " (default %(default)s); the derandomization certificates need no cap",
    )
    p_verify.set_defaults(func=cmd_verify)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        with _digit_limit():
            return args.func(args)
    except (DelegationError, OSError) as exc:
        print(f"error: {_bounded(str(exc))}", file=sys.stderr)
        return EXIT_INPUT if isinstance(exc, (ParseError, OSError)) else EXIT_SEMANTIC


if __name__ == "__main__":
    sys.exit(main())
