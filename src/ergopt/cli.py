"""Command line front end.

Exit codes: 0 success, 2 malformed input, 3 domain error (bad system,
bad parameters, size guard), 4 a node budget or the word-length cap
exceeded, or no separating certificate reached, 5 solver/brute-force
disagreement, 6 an internal invariant failed (a bug in ergopt), 141
stdout closed by its reader (128 + SIGPIPE, as a shell reports it).
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import random
import sys
from collections import Counter
from fractions import Fraction
from pathlib import Path

from .errors import (
    BudgetExceeded,
    ErgoptError,
    InstanceFormatError,
    InternalError,
    OracleMismatch,
)
from .instances import (
    csv_words,
    format_fraction,
    format_word,
    load_instance,
    matrix_csv_text,
    parse_fraction,
    random_instance,
    read_subaction_csv,
    subaction_csv_text,
)
from .oracle import barrier_window, brute_cycles, holonomic_value_brute, path_min_table
from .pipeline import solve_instance
from .potential import TwoSidedPotential
from .subactions import (
    SubAction,
    calibrated_from_boundary,
    dominant_calibrated,
    separating_subaction,
    verify,
)
from .symbolic import DEFAULT_NODE_BUDGET, admissible_words, refine
from .tropical import constraint_polytope, lax_oleinik_step


def _fraction(text: str, where: str = "value") -> Fraction:
    try:
        return parse_fraction(text, where)
    except InstanceFormatError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _boundary(text: str) -> tuple[Fraction, ...]:
    return tuple(_fraction(part, "boundary value") for part in text.split(","))


def _dominant(text: str) -> tuple[int, Fraction]:
    head, sep, tail = text.partition(",")
    try:
        if not sep:
            raise ValueError
        return int(head), parse_fraction(tail)
    except (ValueError, InstanceFormatError) as exc:
        raise argparse.ArgumentTypeError(
            "expected COMPONENT,VALUE (1-based index, rational value)"
        ) from exc


def _yn(flag: bool) -> str:
    return "yes" if flag else "no"


def cmd_solve(args) -> int:
    pot = load_instance(args.instance)
    bundle = solve_instance(pot, node_budget=args.max_nodes)
    s = pot.sft.alphabet_size
    g = bundle.graph
    crit = bundle.crit
    # every listed word is formatted once; the lists below index these
    node_words = g.node_words
    node_text = csv_words(node_words, s)
    edge_text = csv_words(admissible_words(pot.sft, g.order + 1, g.n_edges), s)

    def words(texts, indices):
        return ",".join(map(texts.__getitem__, indices))

    print(f"alphabet size: {s}")
    print(f"graph order: {g.order}")
    print("nodes: " + ",".join(node_text))
    print("edges: " + ",".join(edge_text))
    print(f"abar = {format_fraction(bundle.abar)}")
    cycle = crit.witness_cycle
    walk = [g.tails[cycle[0]]] + [g.heads[k] for k in cycle]
    print("witness cycle: " + " -> ".join(format_word(node_words[v], s) for v in walk))
    print("critical edges: " + words(edge_text, crit.critical_edges))
    print(f"components: {len(crit.components)}")
    for comp in crit.components:
        print(
            f"component {comp.index + 1}:"
            f" representative {format_word(node_words[comp.representative], s)};"
            f" nodes {words(node_text, comp.nodes)};"
            f" edges {words(edge_text, comp.edges)}"
        )
    if len(crit.components) >= 2:
        poly = constraint_polytope(crit)
        print("constraint matrix H:")
        for row in poly.matrix:
            print(",".join(format_fraction(v) for v in row))
    return 0


def cmd_barrier(args) -> int:
    pot = load_instance(args.instance)
    bundle = solve_instance(pot, node_budget=args.max_nodes)
    s = pot.sft.alphabet_size
    words, barriers = bundle.graph.node_words, bundle.barriers
    phi_text = matrix_csv_text(words, barriers.phi_ints, s, barriers.big)
    h_text = matrix_csv_text(words, barriers.h_ints, s, barriers.big)
    if args.out:
        out = Path(args.out)
        out.mkdir(parents=True, exist_ok=True)
        (out / "phi.csv").write_text(phi_text, encoding="utf-8")
        (out / "h.csv").write_text(h_text, encoding="utf-8")
        print(f"wrote {out / 'phi.csv'}")
        print(f"wrote {out / 'h.csv'}")
    else:
        print("phi:")
        print(phi_text, end="")
        print("h:")
        print(h_text, end="")
    return 0


def cmd_calibrate(args) -> int:
    pot = load_instance(args.instance)
    bundle = solve_instance(pot, node_budget=args.max_nodes)
    crit = bundle.crit
    if args.boundary is not None:
        sub = calibrated_from_boundary(args.boundary, crit)
    elif args.dominant is not None:
        index, value = args.dominant
        if not 1 <= index <= len(crit.components):
            raise ValueError(
                f"component index {index} out of range 1..{len(crit.components)}"
            )
        sub = dominant_calibrated(index - 1, value, crit)
    else:
        sub = SubAction(bundle.graph.order, bundle.fixed_point, "calibrated-from-boundary")
    if args.out:  # written first, so a closed stdout cannot stop it
        text = subaction_csv_text(bundle.graph.node_words, sub.values, pot.sft.alphabet_size)
        Path(args.out).write_text(text, encoding="utf-8")
    print("node values: " + ",".join(format_fraction(v) for v in sub.values))
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_separate(args) -> int:
    pot = load_instance(args.instance)
    bundle = solve_instance(pot, node_budget=args.max_nodes)
    s = pot.sft.alphabet_size
    depth = args.depth if args.depth is not None else bundle.graph.order
    sub, cert = separating_subaction(bundle.crit, depth, gamma=args.gamma,
                                     node_budget=args.max_nodes)
    if not cert.ok:
        residual = ", ".join(format_word(w, s) for w in cert.residual_words)
        print(f"certificate: FAILED; residual words: {residual}")
        return 4
    if args.out:  # written first, so a closed stdout cannot stop it
        text = subaction_csv_text(admissible_words(pot.sft, depth, args.max_nodes),
                                  sub.values, s)
        Path(args.out).write_text(text, encoding="utf-8")
    tight = ", ".join(format_word(w, s) for w in cert.tight_words)
    print(f"certificate: OK; tight words: {tight}")
    if args.out:
        print(f"wrote {args.out}")
    return 0


def cmd_verify(args) -> int:
    pot = load_instance(args.instance)
    bundle = solve_instance(pot, node_budget=args.max_nodes)
    words, values = read_subaction_csv(args.subaction, pot.sft.alphabet_size)
    if not words:
        raise InstanceFormatError("sub-action CSV has no rows")
    depth = len(words[0])
    if any(len(w) != depth for w in words):
        raise InstanceFormatError("sub-action words must all share one length")
    if len(set(words)) != len(words):
        word = next(w for w, count in Counter(words).items() if count > 1)
        raise InstanceFormatError(
            f"duplicate word {format_word(word, pot.sft.alphabet_size)!r} in sub-action CSV")
    order = bundle.graph.order
    if depth < order:
        raise ValueError(f"cannot lower order {order} to {depth}")
    # the lifted graph's nodes, checked against --max-nodes up front
    node_words = admissible_words(pot.sft, depth, args.max_nodes)
    if sorted(words) != node_words:
        raise InstanceFormatError(
            f"sub-action words do not match the admissible length-{depth} words"
        )
    by_word = dict(zip(words, values))
    u = SubAction(depth, tuple(by_word[w] for w in node_words), "user-supplied")
    v = verify(u, bundle.crit, args.max_nodes)
    print(
        f"sub-action: {_yn(v.is_subaction)};"
        f" calibrated: {_yn(v.is_calibrated)};"
        f" separating certificate: {_yn(v.separating_certificate)};"
        f" critical containment: {_yn(v.critical_containment)}"
    )
    return 0


def _check(name: str, got, want) -> None:
    if got == want:
        print(f"check {name}: ok")
        return
    print(f"check {name}: MISMATCH")
    raise OracleMismatch(f"{name}: solver {got!r} != brute force {want!r}")


def _oracle_checks(pot, max_nodes: int) -> None:
    bundle = solve_instance(pot, node_budget=max_nodes)
    graph, weights, abar = bundle.graph, bundle.weights, bundle.abar
    n = graph.n_nodes

    _check("abar", abar, min(mean for _, mean in brute_cycles(graph, weights)))

    start, stop = barrier_window(graph, weights, abar, bundle.barriers.h)
    expected_phi = []
    expected_h = []
    for i in range(n):
        rows = path_min_table(graph, weights, abar, i, stop)
        # a minimal walk never needs a cycle it could drop, so short
        # lengths already reach every Mane value
        expected_phi.append(tuple(
            min(row[j] for row in rows[1:n * n + 1] if row[j] is not None)
            for j in range(n)))
        expected_h.append(tuple(
            min(row[j] for row in rows[start:stop + 1] if row[j] is not None)
            for j in range(n)))
    _check("phi", bundle.barriers.phi, tuple(expected_phi))
    _check("h", bundle.barriers.h, tuple(expected_h))

    _check("calibration",
           lax_oleinik_step(bundle.fixed_point, graph, weights, abar),
           bundle.fixed_point)

    if isinstance(bundle.potential, TwoSidedPotential):
        _check("holonomic", abar, holonomic_value_brute(bundle.potential))


def cmd_oracle(args) -> int:
    if (args.instance is None) == (args.seed is None):
        raise InstanceFormatError("oracle needs exactly one of --instance or --seed")
    if args.instance is not None:
        _oracle_checks(load_instance(args.instance), args.max_nodes)
        return 0
    rng = random.Random(args.seed)
    for index in range(1, 21):
        print(f"instance {index}")
        _oracle_checks(random_instance(rng), args.max_nodes)
    return 0


def cmd_info(args) -> int:
    pot = load_instance(args.instance)
    sft = pot.sft
    print(f"alphabet size: {sft.alphabet_size}")
    print(f"lambda: {format_fraction(sft.lam)}")
    if isinstance(pot, TwoSidedPotential):
        print("potential side: two")
        print(f"past depth: {pot.past_depth}")
        print(f"future depth: {pot.future_depth}")
    else:
        print("potential side: one")
        print(f"declared range: {pot.declared_range}")
    graph = refine(sft, pot.working_order, node_budget=args.max_nodes)
    print(f"working order: {graph.order}")
    print(f"nodes: {graph.n_nodes}")
    print(f"edges: {graph.n_edges}")
    theta = getattr(pot, "holder_theta", None)
    const = getattr(pot, "holder_const", None)
    if theta is not None:
        print(f"holder theta: {format_fraction(theta)}")
    if const is not None:
        print(f"holder const: {format_fraction(const)}")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command line parser, built on first use and shared after that,
    so callers must not change it.

    Parsing leaves no state behind: each parse makes a fresh Namespace,
    and help text is formatted when it is printed.
    """
    parser = argparse.ArgumentParser(
        prog="ergopt",
        description="Ergodic optimization on subshifts of finite type.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance_required=True):
        p.add_argument("--instance", required=instance_required,
                       help="instance JSON file")
        p.add_argument("--max-nodes", type=int, default=DEFAULT_NODE_BUDGET,
                       help="abort refinement past this many nodes")

    p = sub.add_parser("solve", help="minimizing value and critical structure")
    common(p)
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("barrier", help="Mane and Peierls matrices")
    common(p)
    p.add_argument("--out", help="directory to receive phi.csv and h.csv")
    p.set_defaults(func=cmd_barrier)

    p = sub.add_parser("calibrate", help="calibrated sub-action values")
    common(p)
    group = p.add_mutually_exclusive_group()
    group.add_argument("--boundary", type=_boundary,
                       help="per-component boundary values v1,v2,...")
    group.add_argument("--dominant", type=_dominant, metavar="I,U",
                       help="pin component I (1-based) at value U")
    p.add_argument("--out", help="write the values as word,value CSV")
    p.set_defaults(func=cmd_calibrate)

    p = sub.add_parser("separate", help="separating sub-action with certificate")
    common(p)
    p.add_argument("--depth", type=int, default=None,
                   help="working word length (default: the graph order)")
    p.add_argument("--gamma", type=_fraction, default=Fraction(1, 2),
                   help="averaging weight in (0,1)")
    p.add_argument("--out", help="write the values as word,value CSV")
    p.set_defaults(func=cmd_separate)

    p = sub.add_parser("verify", help="check a sub-action CSV against an instance")
    common(p)
    p.add_argument("--subaction", required=True, help="CSV with word,value rows")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("oracle", help="re-derive the solve by brute force")
    common(p, instance_required=False)
    p.add_argument("--seed", type=int, default=None,
                   help="check twenty generated instances instead")
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("info", help="instance summary")
    common(p)
    p.set_defaults(func=cmd_info)
    return parser


# Exception type -> exit code; the first entry the error is an instance
# of wins, so subclasses come before ErgoptError.
_EXIT_CODES = {
    BrokenPipeError: 141,
    InstanceFormatError: 2,
    OSError: 2,
    UnicodeDecodeError: 2,
    BudgetExceeded: 4,
    OracleMismatch: 5,
    InternalError: 6,
    ErgoptError: 3,
    ValueError: 3,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        code = args.func(args)
        sys.stdout.flush()  # a closed reader shows here, not at exit
        return code
    except BrokenPipeError:
        # nothing more can reach the reader; point stdout at devnull so
        # the interpreter's final flush does not raise again
        devnull = os.open(os.devnull, os.O_WRONLY)
        with contextlib.suppress(OSError, ValueError):  # a stdout with no descriptor
            os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return _EXIT_CODES[BrokenPipeError]
    except tuple(_EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES.items() if isinstance(exc, kind))


if __name__ == "__main__":
    sys.exit(main())
