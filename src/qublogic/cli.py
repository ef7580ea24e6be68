"""Command-line front end; every subcommand prints JSON on stdout.

Exit codes: 0 for holds/accept/true results, 1 for fails/reject/false,
2 for usage or input errors.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import algebra, bd, calculi, decide, kripke, measures, qp, syntax

_LANG_FLAG = {
    "cpl": "CPL", "bd": "BD", "big": "BIG", "g2ord": "G2ORD", "g2nel": "G2NEL",
    "qg": "QG", "mcb": "MCB", "nmcb": "NMCB", "qp": "QP",
}


def _lang(flag: str) -> str:
    try:
        return _LANG_FLAG[flag.lower()]
    except KeyError:
        raise syntax.LanguageError(f"unknown language {flag!r}") from None


def _emit(obj, code: int = 0) -> int:
    json.dump(obj, sys.stdout, indent=2, sort_keys=True)
    sys.stdout.write("\n")
    return code


def _load_json(source: str):
    """JSON text, or the JSON file it names, its numbers read exactly."""
    if not source.lstrip().startswith(("{", "[")):
        with open(source) as handle:
            source = handle.read()
    return json.loads(source, parse_float=_decimal, parse_constant=_decimal)


def _decimal(text: str) -> Fraction:
    """A JSON number with a fraction or an exponent as a Fraction (0.1 is
    1/10); NaN, Infinity and exponents of over four digits are refused."""
    if len(text.lower().partition("e")[2].lstrip("+-")) > 4:
        raise ValueError(f"number {text} has too large an exponent")
    return Fraction(text)


def _load_model(source: str, kind: type):
    """The model of ``kind`` that the command reads, from JSON text or a file."""
    obj = _load_json(source)
    if not isinstance(obj, dict):
        raise ValueError(f"a model is a JSON object, not {obj!r}")
    return kind.from_json(obj)


def _verdict_exit(verdict: decide.Verdict) -> int:
    return _emit(verdict.to_json(), 0 if verdict.holds else 1)


def _bool_exit(ok: bool, payload: dict) -> int:
    return _emit(payload, 0 if ok else 1)


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built on the first call and reused after it."""
    parser = argparse.ArgumentParser(prog="qublogic",
                                     description="qualitative-uncertainty logic workbench")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("parse")
    p.add_argument("--lang", required=True)
    p.add_argument("text")

    p = sub.add_parser("print")
    p.add_argument("--lang", required=True)
    p.add_argument("ast", help="JSON AST (inline or a file path)")

    p = sub.add_parser("eval-big")
    p.add_argument("--lang", default="big")
    p.add_argument("--valuation", required=True)
    p.add_argument("text")

    p = sub.add_parser("eval-g2")
    p.add_argument("--lang", required=True)
    p.add_argument("--valuation", required=True)
    p.add_argument("text")

    p = sub.add_parser("eval-qg")
    p.add_argument("--model", required=True)
    p.add_argument("text")

    p = sub.add_parser("eval-layer")
    p.add_argument("--lang", required=True)
    p.add_argument("--model", required=True)
    p.add_argument("text")

    p = sub.add_parser("bd-entails")
    p.add_argument("phi")
    p.add_argument("chi")

    p = sub.add_parser("decide")
    dsub = p.add_subparsers(dest="what", required=True)
    for name in ("big-valid", "big-entails", "g2-entails", "qg-entails"):
        d = dsub.add_parser(name)
        d.add_argument("--premise", action="append", default=[])
        if name == "g2-entails":
            d.add_argument("--lang", required=True)
        if name == "qg-entails":
            d.add_argument("--with-cap", action="store_true")
        d.add_argument("text")

    p = sub.add_parser("kripke")
    ksub = p.add_subparsers(dest="what", required=True)
    d = ksub.add_parser("support")
    d.add_argument("--model", required=True)
    d.add_argument("--state", type=int, required=True)
    d.add_argument("text")
    d = ksub.add_parser("entails")
    d.add_argument("--premise", action="append", default=[])
    d.add_argument("--lang", default="g2ord")
    d.add_argument("text")
    d = ksub.add_parser("counterpart")
    d.add_argument("--valuation", help="twist valuation JSON: build its chain model")
    d.add_argument("--model", help="chain model: emit constraints and a valuation")

    p = sub.add_parser("model")
    msub = p.add_subparsers(dest="what", required=True)
    d = msub.add_parser("check-property")
    d.add_argument("--model", required=True)
    d.add_argument("--prop", required=True)
    d.add_argument("--m", type=int)
    d = msub.add_parser("frame-validates")
    d.add_argument("--model", required=True)
    d.add_argument("--layer", required=True)
    d.add_argument("text")
    d = msub.add_parser("correspondence")
    d.add_argument("--cond", required=True)
    d.add_argument("--max-states", type=int, default=2)
    d.add_argument("--grid", type=int, default=3)
    d = msub.add_parser("search-countermodel")
    d.add_argument("--layer", required=True)
    d.add_argument("--premise", action="append", default=[])
    d.add_argument("--max-states", type=int, default=4)
    d.add_argument("--grid", type=int, default=4)
    d.add_argument("--capacity", action="store_true")
    d.add_argument("text")
    d = msub.add_parser("canonical")
    d.add_argument("--layer", required=True)
    d.add_argument("--valuation", required=True)
    d.add_argument("formulas", nargs="+")

    p = sub.add_parser("qp")
    qsub = p.add_subparsers(dest="what", required=True)
    d = qsub.add_parser("sat")
    d.add_argument("--model", required=True)
    d.add_argument("--state", type=int, default=0)
    d.add_argument("text")
    d = qsub.add_parser("translate-sif")
    d.add_argument("text")
    d = qsub.add_parser("gen-e")
    d.add_argument("--phi", action="append", required=True)
    d.add_argument("--chi", action="append", required=True)
    d = qsub.add_parser("gen-kps")
    d.add_argument("--m", type=int, required=True)
    d.add_argument("--phi", action="append", required=True)
    d.add_argument("--chi", action="append", required=True)
    d = qsub.add_parser("counterpart")
    d.add_argument("--model", required=True)
    d = qsub.add_parser("represent-lp")
    d.add_argument("--order", required=True)

    p = sub.add_parser("prove")
    psub = p.add_subparsers(dest="what", required=True)
    d = psub.add_parser("match-axiom")
    d.add_argument("--calculus", required=True)
    d.add_argument("text")
    d = psub.add_parser("check")
    d.add_argument("derivation", help="derivation JSON (inline or a file path)")
    return parser


def main(argv: list[str] | None = None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        return _dispatch(args)
    except (syntax.FormulaSyntaxError, syntax.LanguageError) as exc:
        return _error(str(exc))
    except (ValueError, KeyError, OSError, json.JSONDecodeError) as exc:
        return _error(f"{type(exc).__name__}: {exc}")
    except RecursionError:  # JSON and AST readers recurse once per level of nesting
        return _error("input nests too deeply")


def _error(message: str) -> int:
    """Report an input error as one JSON line on stderr; exit status 2."""
    json.dump({"error": message}, sys.stderr)
    sys.stderr.write("\n")
    return 2


def _dispatch(args) -> int:
    cmd = args.command
    if cmd == "parse":
        f = syntax.parse(_lang(args.lang), args.text)
        return _emit({"lang": f.lang, "text": syntax.print_formula(f),
                      "ast": syntax.formula_to_json(f)})
    if cmd == "print":
        f = syntax.formula_from_json(_lang(args.lang), _load_json(args.ast))
        return _emit({"text": syntax.print_formula(f)})
    if cmd == "eval-big":
        lang = _lang(args.lang)
        if syntax.OUTER.get(lang) != "BIG":
            raise syntax.LanguageError(f"eval-big evaluates BIG or QG formulas, not {lang}")
        f = syntax.parse(lang, args.text)
        e = algebra.valuation_from_json(_load_json(args.valuation))
        return _emit({"value": str(algebra.eval_big(f, e))})
    if cmd == "eval-g2":
        lang = _lang(args.lang)
        f = syntax.parse(lang, args.text)
        e = algebra.twist_valuation_from_json(_load_json(args.valuation))
        return _emit({"value": algebra.format_twist(algebra.eval_g2(f, e, lang))})
    if cmd == "eval-qg":
        f = syntax.parse("QG", args.text)
        model = _load_model(args.model, measures.UncertaintyModel)
        return _emit({"value": str(measures.eval_qg(model, f))})
    if cmd == "eval-layer":
        lang = _lang(args.lang)
        f = syntax.parse(lang, args.text)
        model = _load_model(args.model, measures.BeliefModel)
        return _emit({"value": algebra.format_twist(measures.eval_layer(model, lang, f))})
    if cmd == "bd-entails":
        phi = syntax.parse("BD", args.phi)
        chi = syntax.parse("BD", args.chi)
        ok, witness = bd.bd_entails(phi, chi)
        payload = {"status": "holds" if ok else "fails"}
        if witness is not None:
            payload["witness"] = witness
        return _bool_exit(ok, payload)
    if cmd == "decide":
        return _dispatch_decide(args)
    if cmd == "kripke":
        return _dispatch_kripke(args)
    if cmd == "model":
        return _dispatch_model(args)
    if cmd == "qp":
        return _dispatch_qp(args)
    if cmd == "prove":
        return _dispatch_prove(args)
    raise SystemExit(2)


def _dispatch_decide(args) -> int:
    if args.what == "big-valid":
        return _verdict_exit(decide.big_valid(syntax.parse("BIG", args.text)))
    if args.what == "big-entails":
        gamma = [syntax.parse("BIG", t) for t in args.premise]
        return _verdict_exit(decide.big_entails(gamma, syntax.parse("BIG", args.text)))
    if args.what == "g2-entails":
        lang = _lang(args.lang)
        gamma = [syntax.parse(lang, t) for t in args.premise]
        return _verdict_exit(decide.g2_entails(lang, gamma, syntax.parse(lang, args.text)))
    if args.what == "qg-entails":
        gamma = [syntax.parse("QG", t) for t in args.premise]
        return _verdict_exit(decide.qg_entails(gamma, syntax.parse("QG", args.text),
                                               with_cap=args.with_cap))
    raise SystemExit(2)


def _dispatch_kripke(args) -> int:
    if args.what == "support":
        model = _load_model(args.model, kripke.G2KripkeModel)
        f = _parse_g2_any(args.text)
        pos, neg = kripke.ksupport(model, args.state, f)
        return _emit({"pos": pos, "neg": neg})
    if args.what == "entails":
        lang = _lang(args.lang)
        gamma = [syntax.parse(lang, t) for t in args.premise]
        f = syntax.parse(lang, args.text)
        ok, model, state = kripke.kentails(gamma, f)
        payload = {"status": "holds" if ok else "fails"}
        if model is not None:
            payload["countermodel"] = model.to_json()
            payload["state"] = state
        return _bool_exit(ok, payload)
    if args.what == "counterpart":
        if args.valuation:
            e = algebra.twist_valuation_from_json(_load_json(args.valuation))
            return _emit(kripke.valuation_to_model(e).to_json())
        if args.model:
            model = _load_model(args.model, kripke.G2KripkeModel)
            constraints, valuation = kripke.model_to_valuation(model)
            return _emit({"constraints": constraints,
                          "valuation": algebra.twist_valuation_to_json(valuation)})
        raise ValueError("kripke counterpart takes --valuation or --model")
    raise SystemExit(2)


def _parse_g2_any(text: str):
    for lang in ("G2ORD", "G2NEL"):
        try:
            return syntax.parse(lang, text)
        except (syntax.FormulaSyntaxError, syntax.LanguageError):
            continue
    raise syntax.LanguageError("formula fits neither twist language")


def _dispatch_model(args) -> int:
    if args.what == "check-property":
        # a belief model's reader also takes a QG model, its mu read as pi
        model = _load_model(args.model, measures.BeliefModel)
        ok, witness = measures.check_property(model.states, model.pi, args.prop.lower(), args.m)
        payload = {"property": args.prop, "holds": ok}
        if witness is not None:
            payload["witness"] = _witness_json(witness)
        return _bool_exit(ok, payload)
    if args.what == "frame-validates":
        model = _load_model(args.model, measures.BeliefModel)
        layer = _lang(args.layer)
        f = syntax.parse(layer, args.text)
        ok, witness = measures.frame_validates(model.states, model.pi, f, layer)
        payload = {"valid": ok}
        if witness is not None:
            payload["countervaluation"] = {
                key: {p: bd._mask_to_list(mask) for p, mask in val.items()}
                for key, val in witness.items()
            }
        return _bool_exit(ok, payload)
    if args.what == "correspondence":
        report = measures.correspondence_test(args.cond.lower(), args.max_states, args.grid)
        return _bool_exit(report["equivalent"], report)
    if args.what == "search-countermodel":
        layer = _lang(args.layer)
        xi = [syntax.parse(layer, t) for t in args.premise]
        alpha = syntax.parse(layer, args.text)
        model = measures.find_frame_countermodel(xi, alpha, layer, args.max_states,
                                                 args.grid, capacity=args.capacity)
        if model is None:
            return _emit({"found": False}, 1)
        return _emit({"found": True, "model": model.to_json()})
    if args.what == "canonical":
        layer = _lang(args.layer)
        formulas = [syntax.parse(layer, t) for t in args.formulas]
        raw = _load_json(args.valuation)
        if layer == "QG":
            e = algebra.valuation_from_json(raw)
            model = measures.canonical_qg_model(e, formulas)
        else:
            e2 = algebra.twist_valuation_from_json(raw)
            model = measures.canonical_mcb_model(e2, formulas)
        return _emit(model.to_json())
    raise SystemExit(2)


def _witness_json(witness):
    out = []
    for part in witness:
        if isinstance(part, int):
            out.append(measures._mask_key(part))
        elif isinstance(part, tuple):
            out.append(_witness_json(part))
        else:
            out.append(str(part))
    return out


def _dispatch_qp(args) -> int:
    if args.what == "sat":
        model = _load_model(args.model, qp.GardenforsModel)
        f = syntax.parse("QP", args.text)
        ok = qp.qp_sat(model, args.state, f)
        return _bool_exit(ok, {"satisfied": ok})
    if args.what == "translate-sif":
        f = syntax.parse("QP", args.text)
        out = qp.translate_sif(f)
        return _emit({"lang": "QG", "text": syntax.print_formula(out),
                      "ast": syntax.formula_to_json(out)})
    if args.what == "gen-e":
        phis = [syntax.parse("QP", t) for t in args.phi]
        chis = [syntax.parse("QP", t) for t in args.chi]
        out = qp.e_notation(phis, chis)
        return _emit({"lang": "QP", "text": syntax.print_formula(out)})
    if args.what == "gen-kps":
        phis = [syntax.parse("CPL", t) for t in args.phi]
        chis = [syntax.parse("CPL", t) for t in args.chi]
        out = qp.kps_instance(args.m, phis, chis)
        return _emit({"lang": "QG", "text": syntax.print_formula(out)})
    if args.what == "counterpart":
        model = _load_model(args.model, measures.UncertaintyModel)
        result = qp.qp_counterpart(model)
        if result is None:
            return _emit({"found": False}, 1)
        gmodel, state = result
        return _emit({"found": True, "state": state, "model": gmodel.to_json()})
    if args.what == "represent-lp":
        obj = bd._checked(_load_json(args.order), dict, "an order")
        rank = measures._sets_from_json(obj["rank"], "'rank'",
                                       lambda r: bd._checked(r, int, "a rank"))
        order = qp.OrderInstance(bd._checked(obj["ground"], int, "'ground'"), rank)
        witness = qp.represent_order_lp(order)
        if witness is None:
            return _emit({"representable": False}, 1)
        return _emit({"representable": True, "witness": witness.to_json()})
    raise SystemExit(2)


def _param_json(value):
    """A substitution value as a derivation step writes it: a formula as
    text, a family's ``m`` as a number and its lists as lists of text."""
    if isinstance(value, list):
        return [syntax.print_formula(v) for v in value]
    return value if isinstance(value, int) else syntax.print_formula(value)


def _dispatch_prove(args) -> int:
    if args.what == "match-axiom":
        calc = args.calculus.upper()
        f = syntax.parse(calculi.CALC_LANG[calc], args.text)
        try:
            hit = calculi.match_axiom(calc, f)
        except RecursionError:  # desugar and the tautology check recurse once per node
            return _error("formula nests too deeply")
        if hit is None:
            return _emit({"matched": False}, 1)
        name, binding = hit
        return _emit({"matched": True, "schema": name,
                      "substitution": {k: _param_json(v) for k, v in binding.items()}})
    if args.what == "check":
        obj = _load_json(args.derivation)
        deriv = calculi.Derivation.from_json(obj)
        report = calculi.check_derivation(deriv.calculus, deriv)
        return _bool_exit(report.accepted, report.to_json())
    raise SystemExit(2)


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
