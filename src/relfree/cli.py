"""Command-line front end.

Every subcommand is a thin adapter over the library; no domain logic lives
here.  Exit codes: 0 success / accept / all checks pass; 1 verification
failure; 2 usage error; 3 indeterminate (a budget ran out).  Output is
deterministic for a fixed invocation; ``--output kv`` switches to
line-oriented ``key=value`` records meant for diffing in CI.
"""

from __future__ import annotations

import argparse
import shlex
import sys

from . import diagrams, endo, graded, ledger, report
from .errors import (
    BudgetExceeded,
    EmptyInput,
    InvalidParams,
    RelfreeError,
    Unsatisfiable,
    open_text,
)
from .verbal import ParamSet, epsilon, make_v, make_w1, make_w2, word_length_symbolic
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


def _params_from_args(args) -> ParamSet:
    if getattr(args, "params", None):
        kv = {}
        with open_text(args.params) as fh:
            for lineno, line in enumerate(fh, start=1):
                line = line.strip()
                if not line or line.startswith("#"):
                    continue
                name, _, value = line.partition("=")
                try:
                    kv[name.strip()] = int(value.strip())
                except ValueError:
                    raise InvalidParams(
                        f"{args.params}:{lineno}: expected name = integer, got {line!r}"
                    ) from None
        missing = [name for name in ("h", "d", "n") if name not in kv]
        if missing:
            raise InvalidParams(f"{args.params}: no line sets {', '.join(missing)}")
        return ParamSet(kv["h"], kv["d"], kv["n"])
    return ParamSet(args.h, args.d, args.n)


def _word_lines(path):
    """(``path:line``, text) of every line of a word file that is neither
    blank nor a ``#`` comment; line numbers count every line of the file."""
    with open_text(path) as fh:
        for lineno, line in enumerate(fh, start=1):
            text = line.strip()
            if text and not text.startswith("#"):
                yield f"{path}:{lineno}", text


def _read_relators(path, m: int | None = None) -> list[Word]:
    return parse_words(_word_lines(path), m)


def _enforce_ledger_mode(args) -> int | None:
    """Ledger mode runs only over an assignment that passes verification."""
    if getattr(args, "mode", "toy") != "ledger":
        return None
    if not getattr(args, "assign", None):
        print("ledger mode needs --assign <file>", file=sys.stderr)
        return EXIT_USAGE
    cat = (ledger.InequalityCatalog.from_path(args.catalog)
           if getattr(args, "catalog", None) else ledger.load_default_catalog())
    assignment = ledger.load_assignment(args.assign)
    rep = ledger.verify(assignment, cat)
    if not rep.passed:
        failed = ", ".join(rep.failed_ids()) or "; ".join(rep.structural_problems)
        print(f"ledger verification failed: {failed}", file=sys.stderr)
        return EXIT_FAIL
    return None


# -- subcommand handlers -------------------------------------------------------


def _cmd_word(args) -> int:
    if args.action == "conj" and args.other is None:
        print("word conj needs a second word", file=sys.stderr)
        return EXIT_USAGE
    texts = [args.word] + ([args.other] if args.action == "conj" else [])
    w, *other = parse_words([("", text) for text in texts], args.m)
    if args.action == "reduce":
        print(w)
        return EXIT_OK
    if args.action == "canon":
        print(canonical_cyclic(w).rep)
        return EXIT_OK
    if args.action == "root":
        core = w
        if not core.is_cyclically_reduced():
            print("input must be cyclically reduced", file=sys.stderr)
            return EXIT_FAIL
        root, k = primitive_root(core)
        _emit(args, [("root", str(root)), ("k", k)])
        return EXIT_OK
    if args.action == "conj":
        verdict = conjugate_in_free(w, other[0])
        _emit(args, [("conjugate", str(verdict).lower())])
        return EXIT_OK if verdict else EXIT_FAIL
    raise AssertionError(args.action)


def _cmd_verbal(args) -> int:
    p = _params_from_args(args)
    if args.action == "epsilon":
        print(epsilon(args.i))
        return EXIT_OK
    if args.action == "length":
        print(word_length_symbolic(args.which, args.lx, args.ly, p))
        return EXIT_OK
    x, y = parse_words([("", args.x), ("", args.y)], args.m)
    if args.which in ("v0", "v1", "v2"):
        print(make_v(int(args.which[1]), x, y, p))
    elif args.which == "w1":
        print(make_w1(x, y, p))
    else:
        print(make_w2(x, y, p))
    return EXIT_OK


def _cmd_lpp(args) -> int:
    if args.action == "verify" and not args.assign:
        print("lpp verify needs --assign <file>", file=sys.stderr)
        return EXIT_USAGE
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
    if args.budget_dehn is not None and args.action != "dehn":
        print(f"--budget-dehn applies to graded dehn only, not graded {args.action}",
              file=sys.stderr)
        return EXIT_USAGE
    if args.action == "build":
        code = _enforce_ledger_mode(args)
        if code is not None:
            return code
        p = _params_from_args(args)
        assignment = (ledger.load_assignment(args.assign)
                      if args.mode == "ledger" else None)
        pres = graded.build_presentation(
            Alphabet(args.m or 2), p, max_rank=args.rank,
            pair_budget=args.pair_budget, mode=args.mode, assign=assignment)
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
    if not args.relators:
        print(f"graded {args.action} needs --relators <file>", file=sys.stderr)
        return EXIT_USAGE
    if args.action == "dehn" and not args.words:
        print("graded dehn needs a word file", file=sys.stderr)
        return EXIT_USAGE
    relators = _read_relators(args.relators, args.m)
    if args.action == "pieces":
        piece, lam = graded.piece_stats(relators)
        _emit(args, [("max_piece", piece), ("lambda", lam)])
        return EXIT_OK
    # dehn over a word file
    if not relators:
        raise EmptyInput(f"{args.relators}: no relators")
    words = parse_words(_word_lines(args.words), relators[0].alphabet.m)
    table = graded._RelatorTable(relators)
    budget = graded.DEFAULT_DEHN_BUDGET if args.budget_dehn is None else args.budget_dehn
    indeterminate = False
    for w in words:
        res = graded.dehn_reduce_trace(w, relators, budget, _table=table)
        status = "indeterminate" if res.exhausted else "reduced"
        indeterminate = indeterminate or res.exhausted
        _emit(args, [(status, str(res.word))])
    return EXIT_INDETERMINATE if indeterminate else EXIT_OK


def _cmd_endo(args) -> int:
    code = _enforce_ledger_mode(args)
    if code is not None:
        return code
    p = _params_from_args(args)
    checks = endo.check_report(p)
    all_ok = all(c.passed for c in checks)
    for c in checks:
        _emit(args, [(c.name, "PASS" if c.passed else "FAIL")])
    _emit(args, [("group-level", "INDETERMINATE (asserted, not desk-checkable)")])
    return EXIT_OK if all_ok else EXIT_FAIL


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


def _add_param_flags(sub) -> None:
    sub.add_argument("--h", type=int, default=20)
    sub.add_argument("--d", type=int, default=2)
    sub.add_argument("--n", type=int, default=3)
    sub.add_argument("--params", help="file with h=, d=, n= lines")


def _add_common(sub) -> None:
    sub.add_argument("--output", choices=("text", "kv"), default="text")
    sub.add_argument("--seed", type=int, default=0)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="relfree",
        description="word algebra, identity-word templates, parameter ledger, "
                    "graded presentations, endomorphism witnesses, and diagram "
                    "certificates, from one deterministic command")
    subs = parser.add_subparsers(dest="command", required=True)

    word = subs.add_parser("word", help="free-group word operations")
    word.add_argument("action", choices=("reduce", "canon", "root", "conj"))
    word.add_argument("word")
    word.add_argument("other", nargs="?", help="second word for conj")
    word.add_argument("--m", type=int, help="alphabet size (default: inferred)")
    _add_common(word)
    word.set_defaults(func=_cmd_word)

    verbal = subs.add_parser("verbal", help="identity-word constructors")
    verbal.add_argument("action", choices=("build", "length", "epsilon"))
    verbal.add_argument("--which", choices=("v0", "v1", "v2", "w1", "w2"),
                        default="w1")
    verbal.add_argument("--x", default="a1")
    verbal.add_argument("--y", default="a2")
    verbal.add_argument("--lx", type=int, default=1)
    verbal.add_argument("--ly", type=int, default=1)
    verbal.add_argument("--i", type=int, default=1, help="index for epsilon")
    verbal.add_argument("--m", type=int)
    _add_param_flags(verbal)
    _add_common(verbal)
    verbal.set_defaults(func=_cmd_verbal)

    lpp = subs.add_parser("lpp", help="parameter-chain ledger")
    lpp.add_argument("action", choices=("verify", "solve"))
    lpp.add_argument("catalog", help="inequality catalog file")
    lpp.add_argument("--assign", help="assignment file (for verify)")
    lpp.add_argument("--out", help="write the solved assignment here")
    _add_common(lpp)
    lpp.set_defaults(func=_cmd_lpp)

    gr = subs.add_parser("graded", help="periods, relators, Dehn rewriting")
    gr.add_argument("action", choices=("build", "dehn", "pieces"))
    gr.add_argument("words", nargs="?", help="word file (for dehn)")
    gr.add_argument("--relators", help="relator file (one word per line)")
    gr.add_argument("--rank", type=int, default=2)
    gr.add_argument("--pair-budget", "--budget-pairs", type=int, default=1,
                    dest="pair_budget")
    gr.add_argument("--budget-dehn", type=int, dest="budget_dehn",
                    help="rewriting steps per word (graded dehn only; default "
                         f"{graded.DEFAULT_DEHN_BUDGET})")
    gr.add_argument("--mode", choices=("toy", "ledger"), default="toy")
    gr.add_argument("--assign", help="ledger assignment (required in ledger mode)")
    gr.add_argument("--catalog", help="inequality catalog (ledger mode)")
    gr.add_argument("--m", type=int)
    gr.add_argument("--out", help="write the presentation file here")
    _add_param_flags(gr)
    _add_common(gr)
    gr.set_defaults(func=_cmd_graded)

    en = subs.add_parser("endo", help="endomorphism witness checks")
    en.add_argument("action", choices=("check",))
    en.add_argument("--mode", choices=("toy", "ledger"), default="toy")
    en.add_argument("--assign")
    en.add_argument("--catalog")
    _add_param_flags(en)
    _add_common(en)
    en.set_defaults(func=_cmd_endo)

    vkd = subs.add_parser("vkd", help="diagram certificate checking")
    vkd.add_argument("action", choices=("check",))
    vkd.add_argument("certificate")
    vkd.add_argument("--relators", required=True)
    _add_common(vkd)
    vkd.set_defaults(func=_cmd_vkd)

    rep = subs.add_parser("report", help="run the acceptance criteria")
    _add_common(rep)
    rep.set_defaults(func=_cmd_report)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    for budget_name in ("budget_dehn", "pair_budget"):
        value = getattr(args, budget_name, None)
        if value is not None and value < 1:
            print(f"{budget_name.replace('_', '-')} must be positive", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceeded as exc:
        print(f"indeterminate: {exc}", file=sys.stderr)
        return EXIT_INDETERMINATE
    except RelfreeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_FAIL
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
