"""Command-line surface: validation, comparison, transforms, builtin metrics,
norm-family tooling, axiom suites, order tools, and demos. Every command
emits a single JSON report on stdout of the shape

    {"command": ..., "inputs": ..., "report": ...}

with all file inputs resolved inline, so any emitted report can be re-run and
re-checked with --replay. Rationals appear as "p/q" in lowest terms; no
floating point is printed anywhere.

Exit codes: 0 success, 1 domain failure (a failed validation, a refuted or
failed check -- always with a structured counterexample or refutation in the
report), 2 input error, 3 internal fault (any other exception; stderr gets
{"error": ..., "internal": true, "traceback": ...} and stdout no report).
"""

from __future__ import annotations

import argparse
import json
import sys
from json.encoder import encode_basestring_ascii
from pathlib import Path

from . import core, instances, metrics, norms, order
from .errors import InputError
from .rationals import fmt, parse_rational, require_int


# ---------------------------------------------------------------------------
# Input loading
# ---------------------------------------------------------------------------


def _unreadable(path: str, exc: OSError) -> InputError:
    if isinstance(exc, FileNotFoundError):
        return InputError(f"no such file: {path}")
    return InputError(f"cannot read {path}: {exc.strerror or exc}")


def _load_json(path: str, object_hook=None):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh, object_hook=object_hook)
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    except ValueError as exc:   # a JSONDecodeError, or an over-long integer
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_matrix(path: str) -> metrics.MetricMatrix:
    """Parse a JSON or CSV table once. The parsed matrix is what `inputs`
    holds: the handler's MetricMatrix.from_json returns it as it is, and
    _emit prints it through to_json, in the bytes of a replayed report."""
    if path.endswith(".csv"):
        try:
            text = Path(path).read_text(encoding="utf-8")
        except OSError as exc:
            raise _unreadable(path, exc) from exc
        except UnicodeDecodeError as exc:
            raise InputError(f"malformed CSV in {path}: {exc}") from exc
        return metrics.MetricMatrix.from_csv_text(text)
    return metrics.MetricMatrix.from_json(_load_json(path))


def _load_element(kind: str, path: str):
    """An element file of a universe of the given instance kind."""
    if kind == "metrics":
        return _load_matrix(path)
    return _load_json(path)


def _int_list(value, what: str) -> list[int]:
    """A JSON list of integers, such as the "depths" of partial-compare."""
    if type(value) is not list:
        raise InputError(f"{what} must be a list of integers, not {value!r}")
    return [require_int(v, f"{what} entry") for v in value]


def _parse_depths(text: str) -> list[int]:
    try:
        return [int(part) for part in text.split(",") if part.strip()]
    except ValueError as exc:
        raise InputError(f"bad depth list {text!r}") from exc


def _parse_lazy_spec(text: str, points_doc=None) -> dict:
    """Spec strings like "shrinking", "usual-grid:step=1", "cauchy-dn:n=10"."""
    name, _, tail = text.partition(":")
    params = {}
    if tail:
        for piece in tail.split(","):
            key, _, value = piece.partition("=")
            if not value:
                raise InputError(f"bad parameter {piece!r} in spec {text!r}")
            params[key.strip()] = value.strip()
    if name == "cauchy-dn" and points_doc is not None:
        params["points"] = points_doc
    return {"name": name, "params": params}


def _build_lazy(spec) -> metrics.LazyMetric:
    if not (isinstance(spec, dict) and isinstance(spec.get("name"), str)
            and isinstance(spec.get("params"), dict)):
        raise InputError('a metric spec needs a string "name" and an object "params"')
    if spec["name"] == "usual":
        # carrier-less alias, resolved against the partner in _lazy_pair
        return None
    return metrics.builtin_lazy(spec["name"], spec["params"])


def _lazy_pair(first: dict, second: dict) -> tuple:
    a, b = _build_lazy(first), _build_lazy(second)
    if a is None and b is None:
        raise InputError('the bare "usual" alias needs a coordinate carrier '
                         "on the other side")
    if a is None:
        a = metrics.usual_metric(b.carrier)
    if b is None:
        b = metrics.usual_metric(a.carrier)
    return a, b


# ---------------------------------------------------------------------------
# Universe loading for the order tools
# ---------------------------------------------------------------------------


def _universe_inline(manifest_path: str) -> dict:
    doc = _load_json(manifest_path)
    if not isinstance(doc, dict) or "instance" not in doc or "elements" not in doc:
        raise InputError('universe manifest needs "instance" and "elements"')
    refs = doc["elements"]
    if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
        raise InputError('universe manifest "elements" must list file names')
    base = Path(manifest_path).parent
    inline = {k: v for k, v in doc.items() if k != "elements"}
    inline["elements"] = [_load_element(doc["instance"], str(base / ref))
                          for ref in refs]
    return inline


def _universe_from_inline(doc) -> order.Universe:
    if not isinstance(doc, dict):
        raise InputError("a universe is an object")
    if not isinstance(doc["elements"], list) or not doc["elements"]:
        raise InputError('universe "elements" must be a nonempty list')
    kind, elements = doc["instance"], doc["elements"]
    if kind == "norm-family":
        depth = require_int(doc.get("depth", 0), 'universe "depth"')
        part = norms.PartitionSpec(depth)
        inst = norms.norm_family_instance(part)
        elements = [norms.NormFamilyParams.from_json(e) for e in elements]
        for e in elements:
            if e.partition.depth != depth:
                raise InputError("family element uses a different depth")
        return order.Universe(inst, elements)
    if kind == "metrics":
        # the first table fixes the carrier; it is parsed once
        elements = [metrics.MetricMatrix.from_json(elements[0]), *elements[1:]]
        inst = instances.metric_packed_instance(elements[0].labels)
    elif kind == "cone":
        inst = instances.cone_instance(
            require_int(doc.get("dim", 2), 'universe "dim"'))
    elif kind == "hyperspace":
        inst = instances.hyperspace_instance(
            require_int(doc.get("dim", 2), 'universe "dim"'))
    else:
        raise InputError(f"unknown universe instance {kind!r}")
    return order.Universe(inst, [inst.element_from_json(e) for e in elements])


# ---------------------------------------------------------------------------
# Handlers: inputs dict -> (report dict, exit code)
# ---------------------------------------------------------------------------


def _run_validate(inputs: dict):
    m = metrics.MetricMatrix.from_json(inputs["matrix"])
    verdict = metrics.validate_metric(m)
    return verdict, 0 if verdict["pass"] else 1


def _run_combine(inputs: dict):
    a = metrics.MetricMatrix.from_json(inputs["a"])
    if inputs["op"] == "add":
        b = metrics.MetricMatrix.from_json(inputs["b"])
        result = metrics.add_metrics(a, b)
    else:
        result = metrics.scale_metric(parse_rational(inputs["alpha"]), a)
    return {"matrix": result.to_json(), "isZero": result.is_zero()}, 0


def _run_compare(inputs: dict):
    d = metrics.MetricMatrix.from_json(inputs["first"])
    rho = metrics.MetricMatrix.from_json(inputs["second"])
    return metrics.classify_pair(d, rho), 0


def _run_transform(inputs: dict):
    m = metrics.MetricMatrix.from_json(inputs["matrix"])
    out = (metrics.transform_bounded if inputs["kind"] == "bounded"
           else metrics.transform_min)(m)
    verdict = metrics.validate_metric(out)
    return {
        "matrix": out.to_json(),
        "validation": verdict,
        "belowInput": metrics.leq_metrics(out, m),
    }, 0 if verdict["pass"] else 1


def _run_builtin(inputs: dict):
    depth = require_int(inputs["depth"], '"depth"')
    params = inputs["params"]
    if not isinstance(params, dict):
        raise InputError(f'"params" must be an object, not {params!r}')
    return {"matrix": metrics.builtin_metric(inputs["name"], params,
                                             depth).to_json()}, 0


def _run_partial_compare(inputs: dict):
    a, b = _lazy_pair(inputs["first"], inputs["second"])
    depths = _int_list(inputs["depths"], '"depths"')
    classification = metrics.classify_lazy_pair(a, b, depths)
    # the second-relative-first direction is the pair's own bound sequence
    bounds = classification["directions"]["secondRelativeFirst"]["upperBounds"]
    values = [parse_rational(v) for v in bounds]
    return {
        "depths": depths,
        "upperBounds": bounds,
        "nonincreasing": all(y <= x for x, y in zip(values, values[1:])),
        "classification": classification,
    }, 0


def _run_cauchy_demo(inputs: dict):
    report = metrics.cauchy_incompleteness_demo(
        _int_list(inputs["indices"], '"indices"'), inputs["pairs"])
    return report, 0 if report["demonstratesIncompleteness"] else 1


def _run_norms_partition(inputs: dict):
    return norms.build_partition(
        require_int(inputs["depth"], '"depth"')).to_json(), 0


def _run_norms_weights(inputs: dict):
    params = norms.NormFamilyParams.from_json(inputs["spec"])
    return {
        "spec": params.to_json(),
        "weights": norms.weight_function(params).to_json(),
    }, 0


def _run_norms_eval(inputs: dict):
    vec = norms.FSVector.from_dict(inputs["vector"])
    if inputs.get("spec") is not None:
        params = norms.NormFamilyParams.from_json(inputs["spec"])
        w = norms.weight_function(params)
    else:
        w = norms.WeightMap.from_json(inputs["weights"])
    return {"value": fmt(norms.eval_weighted_norm(w, vec))}, 0


def _run_norms_witness(inputs: dict):
    p = norms.NormFamilyParams.from_json(inputs["first"])
    q = norms.NormFamilyParams.from_json(inputs["second"])
    report = norms.independence_witness(p, q, parse_rational(inputs["eps"]))
    return report.to_json(), 0


def _run_norms_embed(inputs: dict):
    w = norms.WeightMap.from_json(inputs["weights"])
    if not isinstance(inputs["points"], list):
        raise InputError("embed points must be a list of vectors")
    points = [norms.FSVector.from_dict(doc) for doc in inputs["points"]]
    m = norms.embed_norm_to_metric(w, points)
    verdict = metrics.validate_metric(m)
    return {
        "matrix": m.to_json(),
        "validation": verdict,
    }, 0 if verdict["pass"] else 1


def _run_axioms(inputs: dict):
    ints = {key: require_int(inputs[key], f'"{key}"')
            for key in ("carrier", "depth", "dim", "seed", "sample")}
    inst, sample, scalars = instances.build_instance(inputs["instance"],
                                                     **ints)
    doc = core.check_axioms(inst, sample, scalars, ints["seed"])
    if inputs.get("properties"):
        doc["properties"] = core.check_properties(
            inst, sample, scalars)["properties"]
    return doc, 0 if doc["pass"] else 1


def _run_order(inputs: dict):
    universe = _universe_from_inline(inputs["universe"])
    inst = universe.instance
    action = inputs["action"]
    element = inst.element_from_json
    if action in ("generates", "basis"):
        generators = inputs["generators"]
        if type(generators) is not list:
            raise InputError(
                f'"generators" must be a list, not {generators!r}')
        B = [element(doc) for doc in generators]
    if action in ("indep", "basis"):
        eps = inputs.get("eps")
        eps = None if eps is None else parse_rational(eps)
    if action == "in-l":
        x, y = element(inputs["x"]), element(inputs["y"])
        doc = order.in_l(inst, x, y, universe).to_json(inst)
    elif action == "indep":
        doc = order.orderly_independent_set(inst, universe.elements, eps=eps,
                                            universe=universe)
    elif action == "generates":
        doc = order.generates(inst, B, universe)
    elif action == "basis":
        doc = order.is_basis(inst, B, universe, eps=eps)
    elif action == "feasible":
        doc = order.feasible_in_universe(inst, element(inputs["x"]), universe)
    else:
        raise InputError(f"unknown order action {action!r}")
    passed = doc["status"] in (order.POSITIVE, "pass", "pass-with-eps")
    return doc, 0 if passed else 1


_HANDLERS = {
    "validate": _run_validate,
    "combine": _run_combine,
    "compare": _run_compare,
    "transform": _run_transform,
    "builtin": _run_builtin,
    "partial-compare": _run_partial_compare,
    "cauchy-demo": _run_cauchy_demo,
    "norms-partition": _run_norms_partition,
    "norms-weights": _run_norms_weights,
    "norms-eval": _run_norms_eval,
    "norms-witness": _run_norms_witness,
    "norms-embed": _run_norms_embed,
    "axioms": _run_axioms,
    "order": _run_order,
}


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


_COMMANDS = ("validate", "combine", "compare", "transform", "builtin",
             "partial-compare", "cauchy-demo", "norms", "axioms", "order")
_NORMS_ACTIONS = ("partition", "weights", "eval", "witness", "embed")
_ORDER_ACTIONS = ("in-l", "indep", "generates", "basis", "feasible")


def _subparsers(parser, dest: str, names: tuple, argv):
    """Add the subparsers `names` to parser under `dest`, and return the
    function that adds one of them: when argv[0] names one, it adds that one
    alone and None for the others. Usage and error text are the same either
    way, since the name list in the usage line is then the metavar."""
    only = argv[0] if argv and argv[0] in names else None
    sub = parser.add_subparsers(
        dest=dest, required=True,
        metavar=None if only is None else "{" + ",".join(names) + "}")

    def add(name, **kwargs):
        return sub.add_parser(name, **kwargs) if only in (None, name) else None
    return add


def _build_parser(argv=()) -> argparse.ArgumentParser:
    """The parser of every command or, when argv[0] names one, of that
    command alone; for norms and order, of the action argv[1] names alone.
    Without a command in argv[0], parsing stops at the command, before any
    action."""
    parser = argparse.ArgumentParser(
        prog="evs",
        description="Exact comparability of metrics and norms over ordered "
                    "semigroup structure.",
    )
    add = _subparsers(parser, "command", _COMMANDS, argv)

    if p := add("validate", help="check the metric axioms on a table"):
        p.add_argument("matrix", help="matrix file (JSON or CSV)")

    if p := add("combine", help="add or scale metric tables"):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--add", metavar="B", help="second matrix file")
        group.add_argument("--scale", metavar="ALPHA", help="scalar p/q")
        p.add_argument("matrix", help="first matrix file")
        p.add_argument("--out", help="write the resulting matrix JSON here")

    if p := add("compare", help="classify a pair by comparing values"):
        p.add_argument("first")
        p.add_argument("second")

    if p := add("transform", help="bounded or truncated companion metric"):
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--bounded", action="store_true")
        group.add_argument("--min", action="store_true")
        p.add_argument("matrix")
        p.add_argument("--out")

    if p := add("builtin", help="materialize a named metric"):
        p.add_argument("name", choices=list(metrics.BUILTIN_NAMES))
        p.add_argument("--depth", type=int, required=True)
        p.add_argument("--step", help="grid step p/q (usual-grid, kappa)")
        p.add_argument("--n", help="cauchy-dn index")
        p.add_argument("--points", help="JSON file with plane points (cauchy-dn)")
        p.add_argument("--out")

    if p := add("partial-compare",
                help="depth-indexed comparing bounds for lazy metrics"):
        p.add_argument("--first", required=True, help='e.g. "discrete", '
                       '"usual-grid:step=1", "kappa", "usual"')
        p.add_argument("--second", required=True)
        p.add_argument("--depths", required=True, help="comma separated, increasing")
        p.add_argument("--points", help="plane points file for cauchy-dn specs")

    if p := add("cauchy-demo",
                help="Cauchy family whose pointwise limit is not a metric"):
        p.add_argument("--indices", required=True, help="comma separated n values")
        p.add_argument("--pairs", required=True,
                       help="JSON file: list of [[u,u'],[v,v']] point pairs")

    if p := add("norms", help="norm-family tooling"):
        action = _subparsers(p, "action", _NORMS_ACTIONS, argv[1:])

        if q := action("partition", help="deterministic backbone/fiber split"):
            q.add_argument("--depth", type=int, required=True)

        if q := action("weights", help="family weights on the enumerated prefix"):
            q.add_argument("--spec", required=True, help="family spec JSON file")

        if q := action("eval", help="evaluate a weighted sup norm"):
            q.add_argument("--spec", help="family spec JSON file")
            q.add_argument("--weights", help="explicit weight map JSON file")
            q.add_argument("--vector", required=True, help="vector JSON file")

        if q := action("witness", help="independence decay witnesses"):
            q.add_argument("--spec", action="append", required=True,
                           help="family spec file; give exactly twice")
            q.add_argument("--eps", required=True)

        if q := action("embed", help="norm-induced metric on sample points"):
            q.add_argument("--weights", required=True)
            q.add_argument("--points", required=True,
                           help="JSON list of vector maps")
            q.add_argument("--out")

    if p := add("axioms", help="seeded structure-axiom suite"):
        p.add_argument("--instance", required=True)
        p.add_argument("--seed", type=int, required=True)
        p.add_argument("--sample", type=int, default=50)
        p.add_argument("--carrier", type=int, default=6,
                       help="carrier size for metric instances")
        p.add_argument("--depth", type=int, default=12,
                       help="enumeration depth for the norms instance")
        p.add_argument("--dim", type=int, default=2,
                       help="dimension for cone/hyperspace")
        p.add_argument("--properties", action="store_true",
                       help="also run the named-property suite")

    if p := add("order", help="testing-set tools over a universe"):
        action = _subparsers(p, "action", _ORDER_ACTIONS, argv[1:])
        for name in _ORDER_ACTIONS:
            if not (q := action(name)):
                continue
            q.add_argument("--universe", required=True, help="universe manifest file")
            if name == "in-l":
                q.add_argument("--x", required=True)
                q.add_argument("--y", required=True)
            if name == "feasible":
                q.add_argument("--x", required=True)
            if name in ("generates", "basis"):
                q.add_argument("--generator", action="append", required=True,
                               help="generator element file; repeatable")
            if name in ("indep", "basis"):
                q.add_argument("--eps")

    return parser


def _resolve_inputs(args) -> tuple[str, dict]:
    cmd = args.command
    if cmd == "validate":
        return cmd, {"matrix": _load_matrix(args.matrix)}
    if cmd == "combine":
        inputs = {"a": _load_matrix(args.matrix)}
        if args.add:
            inputs.update(op="add", b=_load_matrix(args.add), alpha=None)
        else:
            inputs.update(op="scale", b=None,
                          alpha=fmt(parse_rational(args.scale)))
        return cmd, inputs
    if cmd == "compare":
        return cmd, {"first": _load_matrix(args.first),
                     "second": _load_matrix(args.second)}
    if cmd == "transform":
        return cmd, {"kind": "bounded" if args.bounded else "min",
                     "matrix": _load_matrix(args.matrix)}
    if cmd == "builtin":
        params = {}
        if args.step is not None:
            params["step"] = args.step
        if args.n is not None:
            params["n"] = args.n
        if args.points is not None:
            params["points"] = _load_json(args.points)
        return cmd, {"name": args.name, "params": params, "depth": args.depth}
    if cmd == "partial-compare":
        points_doc = _load_json(args.points) if args.points else None
        return cmd, {
            "first": _parse_lazy_spec(args.first, points_doc),
            "second": _parse_lazy_spec(args.second, points_doc),
            "depths": _parse_depths(args.depths),
        }
    if cmd == "cauchy-demo":
        return cmd, {"indices": _parse_depths(args.indices),
                     "pairs": _load_json(args.pairs)}
    if cmd == "norms":
        action = args.action
        if action == "partition":
            return "norms-partition", {"depth": args.depth}
        if action == "weights":
            return "norms-weights", {"spec": _load_json(args.spec)}
        if action == "eval":
            if (args.spec is None) == (args.weights is None):
                raise InputError("give exactly one of --spec / --weights")
            return "norms-eval", {
                "spec": _load_json(args.spec) if args.spec else None,
                "weights": _load_json(args.weights) if args.weights else None,
                "vector": _load_json(args.vector),
            }
        if action == "witness":
            if len(args.spec) != 2:
                raise InputError("witness needs exactly two --spec files")
            return "norms-witness", {
                "first": _load_json(args.spec[0]),
                "second": _load_json(args.spec[1]),
                "eps": fmt(parse_rational(args.eps)),
            }
        if action == "embed":
            return "norms-embed", {"weights": _load_json(args.weights),
                                   "points": _load_json(args.points)}
    if cmd == "axioms":
        return cmd, {
            "instance": args.instance,
            "seed": args.seed,
            "sample": args.sample,
            "carrier": args.carrier,
            "depth": args.depth,
            "dim": args.dim,
            "properties": bool(args.properties),
        }
    if cmd == "order":
        inline = _universe_inline(args.universe)
        kind = inline["instance"]
        inputs = {"action": args.action, "universe": inline}
        if args.action == "in-l":
            inputs["x"] = _load_element(kind, args.x)
            inputs["y"] = _load_element(kind, args.y)
        if args.action == "feasible":
            inputs["x"] = _load_element(kind, args.x)
        if args.action in ("generates", "basis"):
            inputs["generators"] = [
                _load_element(kind, path) for path in args.generator
            ]
        if args.action in ("indep", "basis") and args.eps is not None:
            inputs["eps"] = fmt(parse_rational(args.eps))
        return cmd, inputs
    raise InputError(f"unknown command {cmd!r}")


def _dumps(obj, indent: str = "\n") -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, with an
    object that has a to_json method written as its to_json(). `indent` is
    the newline and indentation that precede obj's closing bracket. The
    standard encoder runs in pure Python whenever it indents; this writer
    escapes strings in C and joins a list of strings, such as a matrix
    row, in one step."""
    if type(obj) is str:
        return encode_basestring_ascii(obj)
    inner = indent + "  "
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        return "{" + inner + ("," + inner).join([
            encode_basestring_ascii(k) + ": " + _dumps(v, inner)
            for k, v in sorted(obj.items())]) + indent + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        try:
            items = list(map(encode_basestring_ascii, obj))
        except TypeError:
            items = [_dumps(v, inner) for v in obj]
        return "[" + inner + ("," + inner).join(items) + indent + "]"
    if hasattr(obj, "to_json"):
        return _dumps(obj.to_json(), indent)
    return json.dumps(obj)   # None, bool, int and float, as the encoder does


def _emit(doc: dict, out_path=None) -> None:
    # inputs hold parsed matrices; each is serialized here, once, to the same
    # {"labels", "rows"} document a replayed report holds
    print(_dumps(doc))
    if out_path:
        matrix = doc["report"].get("matrix")
        if matrix is not None:
            Path(out_path).write_text(_dumps(matrix) + "\n", encoding="utf-8")


class _ReportObject(dict):
    """A JSON object of a replayed report: a key a handler reads and the
    report lacks is an input error, not an internal fault."""

    def __missing__(self, key):
        raise InputError(f"report object lacks {key!r}")


def _replay(path: str) -> int:
    doc = _load_json(path, object_hook=_ReportObject)
    if not isinstance(doc, dict) or "command" not in doc or "report" not in doc:
        raise InputError("not a replayable report (missing command/report)")
    handler = (_HANDLERS.get(doc["command"])
               if isinstance(doc["command"], str) else None)
    if handler is None:
        raise InputError(f"unknown command in report: {doc['command']!r}")
    if not isinstance(doc.get("inputs"), dict):
        raise InputError('report "inputs" must be an object')
    fresh, code = handler(doc["inputs"])
    match = fresh == doc["report"]
    print(_dumps({"replay": True, "command": doc["command"], "match": match}))
    return 0 if match else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "--replay":
            if len(argv) != 2:
                raise InputError("--replay takes exactly one report file")
            return _replay(argv[1])
        parser = _build_parser(argv)
        args = parser.parse_args(argv)
        command, inputs = _resolve_inputs(args)
        report, code = _HANDLERS[command](inputs)
        _emit({"command": command, "inputs": inputs, "report": report},
              getattr(args, "out", None))
        return code
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - an internal fault, reported
        import traceback  # only a crash needs it; keeps it off every start-up
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}",
                          "internal": True,
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
