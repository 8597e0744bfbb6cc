"""Command-line front end.

Every subcommand is a thin adapter over the library; no domain logic lives
here.  Exit codes: 0 success / accept / all checks pass; 1 verification
failure; 2 usage error; 3 indeterminate (a budget ran out).  Output is
deterministic for a fixed invocation; ``--output kv`` switches to
line-oriented ``key=value`` records meant for diffing in CI.

A call builds the parser of the command its first argument names, and no
other, and parses the rest intermixed, so options may come before or after
the positionals.  The parser of all seven commands (``build_parser``) is
built only when the first argument names no command: no arguments,
``--help``, or an unknown command.

``_INPUTS`` holds, for each action of ``word``, ``verbal``, ``lpp``,
``graded`` and ``endo``, the inputs it reads, spelled as on the command line
(a positional by its name), each with its default: None leaves it unset,
``_NEEDED`` marks one the action cannot run without.  ``main`` applies it in
one pass in table order, before any file is opened: an input the action does
not read, or a needed one left out, is a usage error; any other left out
takes its default.
"""

from __future__ import annotations

import argparse
import os
import shlex
import sys

from . import diagrams, endo, graded, ledger, report
from .errors import (BudgetExceeded, EmptyInput, RelfreeError, Unsatisfiable, content_lines,
                     read_text)
from .verbal import ParamSet, epsilon, make_v, make_w, word_length_symbolic
from .words import Alphabet, Word, canonical_cyclic, conjugate_in_free, parse_words, primitive_root

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2
EXIT_INDETERMINATE = 3


def _emit(args, pairs: list[tuple[str, str]]) -> None:
    if args.output == "kv":
        for key, value in pairs:
            value = str(value)
            if any(ch.isspace() for ch in value):
                value = shlex.quote(value)
            print(f"{key}={value}")
    else:
        for key, value in pairs:
            print(f"{key}: {value}")


def _read_relators(path, m: int | None = None) -> list[Word]:
    """The words of a word file, one per line; blank and ``#`` lines are skipped."""
    return parse_words(content_lines(read_text(path), path), m)


# -- subcommand handlers -------------------------------------------------------


def _cmd_word(args) -> int:
    w, *other = parse_words([("", t) for t in (args.word, args.other) if t is not None], args.m)
    if args.action == "reduce":
        print(w)
        return EXIT_OK
    if args.action == "canon":
        print(canonical_cyclic(w))
        return EXIT_OK
    if args.action == "root":
        root, k = primitive_root(w)
        _emit(args, [("root", str(root)), ("k", k)])
        return EXIT_OK
    verdict = conjugate_in_free(w, other[0])  # conj, the action left
    _emit(args, [("conjugate", str(verdict).lower())])
    return EXIT_OK if verdict else EXIT_FAIL


def _cmd_verbal(args) -> int:
    if args.action == "epsilon":
        print(epsilon(args.i))
        return EXIT_OK
    p = ParamSet(args.h, args.d, args.n)
    if args.action == "length":
        print(word_length_symbolic(args.which, args.lx, args.ly, p))
        return EXIT_OK
    x, y = parse_words([("", args.x), ("", args.y)], args.m)
    make = make_v if args.which[0] == "v" else make_w
    print(make(int(args.which[1]), x, y, p))
    return EXIT_OK


def _cmd_lpp(args) -> int:
    cat = ledger.InequalityCatalog.from_path(args.catalog)
    if args.action == "solve":
        try:
            assignment = ledger.solve(cat)
        except Unsatisfiable as exc:
            print(f"unsatisfiable: item {exc.item_id}", file=sys.stderr)
            return EXIT_FAIL
        pairs = [(name, str(value)) for name, value in assignment.values().items()]
        pairs += [("h", assignment.h), ("d", assignment.d), ("n", assignment.n)]
        _emit(args, pairs)
        if args.out:
            ledger.save_assignment(assignment, args.out)
        return EXIT_OK
    assignment = ledger.load_assignment(args.assign)
    rep = ledger.verify(assignment, cat)
    for res in rep.item_results:
        status = "pass" if res.passed else "FAIL"
        _emit(args, [(res.id, f"{status} lhs={res.lhs} rhs={res.rhs}")])
    for problem in rep.structural_problems:
        _emit(args, [("structural", problem)])
    _emit(args, [("overall", "pass" if rep.passed else "fail")])
    return EXIT_OK if rep.passed else EXIT_FAIL


def _cmd_graded(args) -> int:
    if args.action == "build":
        # an unwritable --out path fails here, before the build; "a" truncates nothing
        created = args.out and not os.path.exists(args.out)
        if args.out:
            open(args.out, "a", encoding="utf-8").close()
        try:
            pres = graded.build_presentation(Alphabet(args.m), ParamSet(args.h, args.d, args.n),
                                             max_rank=args.rank, pair_budget=args.pair_budget)
        except BaseException:
            if created:  # a build that stops leaves no file where there was none
                os.remove(args.out)
            raise
        pairs = []
        for idx in sorted(pres.ranks):
            data = pres.ranks[idx]
            pairs.append((f"rank{idx}",
                          f"provenance={data.provenance} periods={len(data.periods)} "
                          f"relators={len(data.relators)}"))
        _emit(args, pairs)
        if args.out:
            graded.save_presentation(pres, args.out)
        return EXIT_OK
    relators = _read_relators(args.relators, args.m)
    if args.action == "pieces":
        piece, lam = graded.piece_stats(relators)
        _emit(args, [("max_piece", piece), ("lambda", lam)])
        return EXIT_OK
    # dehn over a word file
    if not relators:
        raise EmptyInput(f"{args.relators}: no relators")
    words = _read_relators(args.words, relators[0].alphabet.m)
    table = graded._RelatorTable(relators)
    indeterminate = False
    for w in words:
        res = graded.dehn_reduce_trace(w, table, args.budget_dehn)
        status = "indeterminate" if res.exhausted else "reduced"
        indeterminate = indeterminate or res.exhausted
        _emit(args, [(status, str(res.word))])
    return EXIT_INDETERMINATE if indeterminate else EXIT_OK


def _cmd_endo(args) -> int:
    checks = endo.check_report(ParamSet(args.h, args.d, args.n))
    for c in checks:
        _emit(args, [(c.name, "PASS" if c.passed else "FAIL")])
    _emit(args, [("group-level", "INDETERMINATE (asserted, not desk-checkable)")])
    return EXIT_OK if all(c.passed for c in checks) else EXIT_FAIL


def _cmd_vkd(args) -> int:
    cert = diagrams.load_certificate(args.certificate)
    relators = _read_relators(args.relators, cert.alphabet.m)
    result = diagrams.check_certificate(cert, relators)
    _emit(args, [("verdict", "ACCEPT" if result.accepted else "REJECT")])
    if result.reason:
        _emit(args, [("reason", result.reason)])
    for warning in result.warnings:
        _emit(args, [("warning", warning)])
    return EXIT_OK if result.accepted else EXIT_FAIL


def _cmd_report(args) -> int:
    results = report.run_all(args.seed)
    if args.output == "kv":
        # timings are omitted here so the output is byte-stable for CI diffing
        for res in results:
            print(f"criterion={res.id} name={res.name} "
                  f"pass={'true' if res.passed else 'false'} "
                  f"detail={shlex.quote(res.detail)}")
    else:
        for res in results:
            print(res.line())
    return EXIT_OK if all(res.passed for res in results) else EXIT_FAIL


# -- parser --------------------------------------------------------------------

_COMMANDS = {  # name -> (help line, handler), in the order the usage lists them
    "word": ("free-group word operations", _cmd_word),
    "verbal": ("identity-word constructors", _cmd_verbal),
    "lpp": ("parameter-chain ledger", _cmd_lpp),
    "graded": ("periods, relators, Dehn rewriting", _cmd_graded),
    "endo": ("endomorphism witness checks", _cmd_endo),
    "vkd": ("diagram certificate checking", _cmd_vkd),
    "report": ("run the acceptance criteria", _cmd_report),
}


_NEEDED = object()
_PARAMS = {"--h": 20, "--d": 2, "--n": 3}
_INPUTS = {  # command -> action -> input -> default (see the module docstring)
    "word": {"reduce": {}, "canon": {}, "root": {}, "conj": {"other": _NEEDED}},
    "verbal": {"build": {"--which": "w1", "--x": "a1", "--y": "a2", "--m": None, **_PARAMS},
               "length": {"--which": "w1", "--lx": 1, "--ly": 1, **_PARAMS},
               "epsilon": {"--i": 1}},
    "lpp": {"verify": {"--assign": _NEEDED}, "solve": {"--out": None}},
    "graded": {"dehn": {"words": _NEEDED, "--budget-dehn": graded.DEFAULT_DEHN_BUDGET,
                        "--relators": _NEEDED, "--m": None},
               "pieces": {"--relators": _NEEDED, "--m": None},
               "build": {"--out": None, "--rank": 2, "--pair-budget": 1, "--m": 2, **_PARAMS}},
    "endo": {"check": _PARAMS},
}


def _add_arguments(sub: argparse.ArgumentParser, name: str) -> None:
    """Give ``sub`` the arguments of command ``name``, and its handler."""
    if name == "word":
        sub.add_argument("action", choices=("reduce", "canon", "root", "conj"))
        sub.add_argument("word")
        sub.add_argument("other", nargs="?", help="second word for conj")
        sub.add_argument("--m", type=int, help="alphabet size (default: inferred)")
    elif name == "verbal":
        sub.add_argument("action", choices=("build", "length", "epsilon"))
        sub.add_argument("--which", choices=("v0", "v1", "v2", "w1", "w2"))
        sub.add_argument("--x")
        sub.add_argument("--y")
        sub.add_argument("--lx", type=int)
        sub.add_argument("--ly", type=int)
        sub.add_argument("--i", type=int, help="index for epsilon")
        sub.add_argument("--m", type=int)
    elif name == "lpp":
        sub.add_argument("action", choices=("verify", "solve"))
        sub.add_argument("catalog", help="inequality catalog file")
        sub.add_argument("--assign", help="assignment file (for verify)")
        sub.add_argument("--out", help="write the solved assignment here")
    elif name == "graded":
        sub.add_argument("action", choices=("build", "dehn", "pieces"))
        sub.add_argument("words", nargs="?", help="word file (for dehn)")
        sub.add_argument("--relators", help="relator file (one word per line)")
        sub.add_argument("--rank", type=int)
        sub.add_argument("--pair-budget", type=int)
        sub.add_argument("--budget-dehn", type=int, dest="budget_dehn",
                         help="rewriting steps per word (graded dehn only; default "
                              f"{graded.DEFAULT_DEHN_BUDGET})")
        sub.add_argument("--m", type=int)
        sub.add_argument("--out", help="write the presentation file here")
    elif name == "endo":
        sub.add_argument("action", choices=("check",))
    elif name == "vkd":
        sub.add_argument("action", choices=("check",))
        sub.add_argument("certificate")
        sub.add_argument("--relators", required=True)
    if name in ("verbal", "graded", "endo"):
        for flag in ("--h", "--d", "--n"):
            sub.add_argument(flag, type=int)
    sub.add_argument("--output", choices=("text", "kv"), default="text")
    if name == "report":
        sub.add_argument("--seed", type=int, default=0)
    sub.set_defaults(command=name, func=_COMMANDS[name][1])


def build_parser() -> argparse.ArgumentParser:
    """The parser of all seven commands, as subparsers."""
    parser = argparse.ArgumentParser(
        prog="relfree",
        description="word algebra, identity-word templates, parameter ledger, "
                    "graded presentations, endomorphism witnesses, and diagram "
                    "certificates, from one deterministic command")
    subs = parser.add_subparsers(dest="command", required=True)
    for name, (help_line, _) in _COMMANDS.items():
        _add_arguments(subs.add_parser(name, help=help_line), name)
    return parser


def _command_parser(name: str) -> argparse.ArgumentParser:
    """The parser of command ``name`` alone, as ``build_parser`` makes it."""
    parser = argparse.ArgumentParser(prog=f"relfree {name}")
    _add_arguments(parser, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    try:
        if argv and argv[0] in _COMMANDS:
            args = _command_parser(argv[0]).parse_intermixed_args(argv[1:])
        else:  # no command first: usage, --help, or an unknown command
            args = build_parser().parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for name in ("budget_dehn", "pair_budget", "rank"):
        value = getattr(args, name, None)
        if value is not None and value < 1:
            print(f"{name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    actions = _INPUTS.get(args.command, {})
    for key in dict.fromkeys(key for inputs in actions.values() for key in inputs):
        reads, name = actions[args.action], key.lstrip("-").replace("-", "_")
        value = getattr(args, name)
        if value is None and key in reads:
            if reads[key] is _NEEDED:
                print(f"{args.command} {args.action} needs {key}", file=sys.stderr)
                return EXIT_USAGE
            setattr(args, name, reads[key])
        elif value is not None and key not in reads:
            readers = " and ".join(f"{args.command} {a}" for a in actions if key in actions[a])
            shown = key if key.startswith("--") else f"{key} {value!r}"
            print(f"{shown} applies to {readers} only, not {args.command} {args.action}",
                  file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except RelfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except OSError as exc:  # a path that is missing, a directory, or unreadable
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
