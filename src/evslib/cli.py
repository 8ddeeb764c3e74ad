"""Command-line surface: validation, comparison, transforms, builtin metrics,
norm-family tooling, axiom suites, order tools, and demos. Every command
emits a single JSON report on stdout of the shape

    {"command": ..., "inputs": ..., "report": ...}

with all file inputs resolved inline, so any emitted report can be re-run and
re-checked with --replay. Rationals appear as "p/q" in lowest terms; no
floating point is printed anywhere.

Exit codes: 0 success, 1 domain failure (a failed validation, a refuted or
failed check -- always with a structured counterexample or refutation in the
report), 2 input error (an --out path that cannot be written among them, the
report already printed), 3 internal fault (any other exception; stderr gets
{"error": ..., "internal": true, "traceback": ...} and stdout no report),
141 stdout closed before the whole report was written (128 + SIGPIPE, the
code a shell gives a writer that a closed pipe kills; no --out file is
written).

Each leaf (a command, for norms and order an action) is one record of
_LEAVES: the command its reports carry, its help line, its argument
definitions, its inputs reader and its handler. A well-formed argv (a
leaf, then each option by its whole flag, once unless it is repeatable,
with no separate value that starts with "-", and every required argument)
is read from the table alone, with no argparse parser built or imported.
Every other argv (help, abbreviations, "--", and every error) goes to the
argparse parser tree built from the same table.
"""

from __future__ import annotations

import csv
import json
import os
import sys
from collections import namedtuple
from json.encoder import encode_basestring_ascii
from pathlib import Path
from types import SimpleNamespace

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
    """The JSON document of a file, read as text mode reads it: its bytes
    decoded as strict UTF-8, a BOM kept, and "\\r\\n", then "\\r", read as
    "\\n"."""
    try:
        with open(path, "rb") as fh:
            text = fh.read().decode("utf-8")
        if "\r" in text:
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text, object_hook=object_hook)
    except OSError as exc:
        raise _unreadable(path, exc) from exc
    # bytes that are not UTF-8, a JSONDecodeError, an over-long integer,
    # or nesting past the recursion limit
    except (ValueError, RecursionError) as exc:
        raise InputError(f"malformed JSON in {path}: {exc}") from exc


def _load_matrix(path: str) -> metrics.MetricMatrix:
    """Parse a JSON or CSV table once. The parsed matrix is what `inputs`
    holds: the handler's MetricMatrix.from_json returns it as it is, and
    _emit prints it from its text slot (MetricMatrix.json_text), in the
    bytes of a replayed report."""
    if path.endswith(".csv"):
        try:
            return metrics.MetricMatrix.from_csv_text(
                Path(path).read_text(encoding="utf-8"))
        except OSError as exc:
            raise _unreadable(path, exc) from exc
        # not UTF-8, or a field past the csv module's size limit
        except (UnicodeDecodeError, csv.Error) as exc:
            raise InputError(f"malformed CSV in {path}: {exc}") from exc
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
    return {"matrix": result, "isZero": result.is_zero()}, 0


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
        "matrix": out,
        "validation": verdict,
        "belowInput": metrics.leq_metrics(out, m),
    }, 0 if verdict["pass"] else 1


def _run_builtin(inputs: dict):
    depth = require_int(inputs["depth"], '"depth"')
    params = inputs["params"]
    if not isinstance(params, dict):
        raise InputError(f'"params" must be an object, not {params!r}')
    return {"matrix": metrics.builtin_metric(inputs["name"], params,
                                             depth)}, 0


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
    return norms.PartitionSpec(
        require_int(inputs["depth"], '"depth"')).to_json(), 0


def _run_norms_weights(inputs: dict):
    params = norms.NormFamilyParams.from_json(inputs["spec"])
    tags = list(map(norms.PartitionSpec.tag_of_position,
                    range(params.partition.depth)))
    # every weight passes the bit budget before any is built, so that the
    # first weight past it, in position order, is the error, at once, and
    # no weight is printed past the digit limit before it
    for tag in tags:
        params.weight_exponent(tag)
    return {
        "spec": params.to_json(),
        "weights": {f"h{k}": fmt(params.weight_of_tag(tag))
                    for k, tag in enumerate(tags)},
    }, 0


def _run_norms_eval(inputs: dict):
    vec = norms.FSVector.from_dict(inputs["vector"])
    if inputs.get("spec") is not None:
        w = norms.NormFamilyParams.from_json(inputs["spec"])
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
        "matrix": m,
        "validation": verdict,
    }, 0 if verdict["pass"] else 1


def _run_axioms(inputs: dict):
    ints = {key: require_int(inputs[key], f'"{key}"')
            for key in ("carrier", "depth", "dim", "seed", "sample")}
    inst, sample, scalars = instances.build_instance(inputs["instance"],
                                                     **ints)
    doc = core.check_axioms(inst, sample, scalars, ints["seed"],
                            properties=bool(inputs.get("properties")))
    return doc, 0 if doc["pass"] else 1


def _run_order(inputs: dict):
    universe = instances.universe_from_json(inputs["universe"])
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
        doc = order.in_l(inst, x, y, universe)
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


# ---------------------------------------------------------------------------
# Inputs readers: argv namespace -> inputs dict, the files loaded inline
# ---------------------------------------------------------------------------


def _combine_inputs(args) -> dict:
    inputs = {"a": _load_matrix(args.matrix)}
    if args.add:
        inputs.update(op="add", b=_load_matrix(args.add), alpha=None)
    else:
        inputs.update(op="scale", b=None,
                      alpha=fmt(parse_rational(args.scale)))
    return inputs


def _builtin_inputs(args) -> dict:
    params = {key: getattr(args, key) for key in ("step", "n")
              if getattr(args, key) is not None}
    if args.points is not None:
        params["points"] = _load_json(args.points)
    return {"name": args.name, "params": params, "depth": args.depth}


def _partial_compare_inputs(args) -> dict:
    points_doc = _load_json(args.points) if args.points else None
    return {
        "first": _parse_lazy_spec(args.first, points_doc),
        "second": _parse_lazy_spec(args.second, points_doc),
        "depths": _parse_depths(args.depths),
    }


def _norms_eval_inputs(args) -> dict:
    if (args.spec is None) == (args.weights is None):
        raise InputError("give exactly one of --spec / --weights")
    return {
        "spec": _load_json(args.spec) if args.spec else None,
        "weights": _load_json(args.weights) if args.weights else None,
        "vector": _load_json(args.vector),
    }


def _norms_witness_inputs(args) -> dict:
    if len(args.spec) != 2:
        raise InputError("witness needs exactly two --spec files")
    return {
        "first": _load_json(args.spec[0]),
        "second": _load_json(args.spec[1]),
        "eps": fmt(parse_rational(args.eps)),
    }


def _order_inputs(args) -> dict:
    """The inputs of every order action: the universe manifest with its
    element files inline, and the elements and epsilon that the action
    takes, each file loaded once."""
    doc = _load_json(args.universe)
    if not isinstance(doc, dict) or "instance" not in doc or "elements" not in doc:
        raise InputError('universe manifest needs "instance" and "elements"')
    refs = doc["elements"]
    if not isinstance(refs, list) or not all(isinstance(r, str) for r in refs):
        raise InputError('universe manifest "elements" must list file names')
    loaded = {}   # path -> element, for this invocation only

    def load(path):
        if path not in loaded:
            loaded[path] = _load_element(doc["instance"], path)
        return loaded[path]

    base = Path(args.universe).parent
    inline = {k: v for k, v in doc.items() if k != "elements"}
    inline["elements"] = [load(str(base / ref)) for ref in refs]
    inputs = {"action": args.action, "universe": inline}
    if args.action in ("in-l", "feasible"):
        inputs["x"] = load(args.x)
    if args.action == "in-l":
        inputs["y"] = load(args.y)
    if args.action in ("generates", "basis"):
        inputs["generators"] = [load(path) for path in args.generator]
    if args.action in ("indep", "basis") and args.eps is not None:
        inputs["eps"] = fmt(parse_rational(args.eps))
    return inputs


# ---------------------------------------------------------------------------
# Argument parsing
# ---------------------------------------------------------------------------


#: One leaf `evs *path`: the `command` its reports carry, its help line
#: (None gives an order action no line in `evs order -h`), its add_argument
#: calls, (flag, kwargs) in order, the flags of each of its required
#: mutually exclusive groups, its inputs reader (args -> inputs) and its
#: handler (inputs -> (report, exit code)).
_Leaf = namedtuple("_Leaf", "command help entries groups inputs handler")

# the help lines of the two commands whose leaves are actions
_GROUPS = {"norms": "norm-family tooling",
           "order": "testing-set tools over a universe"}

_REQUIRED = {"required": True}
_UNIVERSE = ("--universe", {"required": True,
                            "help": "universe manifest file"})
_GENERATOR = ("--generator", {"action": "append", "required": True,
                              "help": "generator element file; repeatable"})

# The one definition of every leaf, in the order of `evs -h`: leaf path ->
# _Leaf. _build_parser builds the parser tree from it, _read_args reads an
# argv with it, main runs its inputs reader and _HANDLERS its handler.
_LEAVES = {
    ("validate",): _Leaf(
        "validate", "check the metric axioms on a table",
        [("matrix", {"help": "matrix file (JSON or CSV)"})], (),
        lambda args: {"matrix": _load_matrix(args.matrix)}, _run_validate),
    ("combine",): _Leaf("combine", "add or scale metric tables", [
        ("--add", {"metavar": "B", "help": "second matrix file"}),
        ("--scale", {"metavar": "ALPHA", "help": "scalar p/q"}),
        ("matrix", {"help": "first matrix file"}),
        ("--out", {"help": "write the resulting matrix JSON here"}),
    ], [("--add", "--scale")], _combine_inputs, _run_combine),
    ("compare",): _Leaf(
        "compare", "classify a pair by comparing values",
        [("first", {}), ("second", {})], (),
        lambda args: {"first": _load_matrix(args.first),
                      "second": _load_matrix(args.second)}, _run_compare),
    ("transform",): _Leaf(
        "transform", "bounded or truncated companion metric", [
            ("--bounded", {"action": "store_true"}),
            ("--min", {"action": "store_true"}),
            ("matrix", {}),
            ("--out", {}),
        ], [("--bounded", "--min")],
        lambda args: {"kind": "bounded" if args.bounded else "min",
                      "matrix": _load_matrix(args.matrix)}, _run_transform),
    ("builtin",): _Leaf("builtin", "materialize a named metric", [
        ("name", {"choices": list(metrics.BUILTIN_NAMES)}),
        ("--depth", {"type": int, "required": True}),
        ("--step", {"help": "grid step p/q (usual-grid, kappa)"}),
        ("--n", {"help": "cauchy-dn index"}),
        ("--points", {"help": "JSON file with plane points (cauchy-dn)"}),
        ("--out", {}),
    ], (), _builtin_inputs, _run_builtin),
    ("partial-compare",): _Leaf(
        "partial-compare", "depth-indexed comparing bounds for lazy metrics", [
            ("--first", {"required": True, "help": 'e.g. "discrete", '
                         '"usual-grid:step=1", "kappa", "usual"'}),
            ("--second", _REQUIRED),
            ("--depths", {"required": True,
                          "help": "comma separated, increasing"}),
            ("--points", {"help": "plane points file for cauchy-dn specs"}),
        ], (), _partial_compare_inputs, _run_partial_compare),
    ("cauchy-demo",): _Leaf(
        "cauchy-demo", "Cauchy family whose pointwise limit is not a metric", [
            ("--indices", {"required": True,
                           "help": "comma separated n values"}),
            ("--pairs", {"required": True,
                         "help": "JSON file: list of [[u,u'],[v,v']] point "
                                 "pairs"}),
        ], (),
        lambda args: {"indices": _parse_depths(args.indices),
                      "pairs": _load_json(args.pairs)}, _run_cauchy_demo),
    ("norms", "partition"): _Leaf(
        "norms-partition", "deterministic backbone/fiber split",
        [("--depth", {"type": int, "required": True})], (),
        lambda args: {"depth": args.depth}, _run_norms_partition),
    ("norms", "weights"): _Leaf(
        "norms-weights", "family weights on the enumerated prefix",
        [("--spec", {"required": True, "help": "family spec JSON file"})], (),
        lambda args: {"spec": _load_json(args.spec)}, _run_norms_weights),
    ("norms", "eval"): _Leaf("norms-eval", "evaluate a weighted sup norm", [
        ("--spec", {"help": "family spec JSON file"}),
        ("--weights", {"help": "explicit weight map JSON file"}),
        ("--vector", {"required": True, "help": "vector JSON file"}),
    ], (), _norms_eval_inputs, _run_norms_eval),
    ("norms", "witness"): _Leaf(
        "norms-witness", "independence decay witnesses", [
            ("--spec", {"action": "append", "required": True,
                        "help": "family spec file; give exactly twice"}),
            ("--eps", _REQUIRED),
        ], (), _norms_witness_inputs, _run_norms_witness),
    ("norms", "embed"): _Leaf(
        "norms-embed", "norm-induced metric on sample points", [
            ("--weights", _REQUIRED),
            ("--points", {"required": True,
                          "help": "JSON list of vector maps"}),
            ("--out", {}),
        ], (),
        lambda args: {"weights": _load_json(args.weights),
                      "points": _load_json(args.points)}, _run_norms_embed),
    ("axioms",): _Leaf("axioms", "seeded structure-axiom suite", [
        ("--instance", _REQUIRED),
        ("--seed", {"type": int, "required": True}),
        ("--sample", {"type": int, "default": 50}),
        ("--carrier", {"type": int, "default": 6,
                       "help": "carrier size for metric instances"}),
        ("--depth", {"type": int, "default": 12,
                     "help": "enumeration depth for the norms instance"}),
        ("--dim", {"type": int, "default": 2,
                   "help": "dimension for cone/hyperspace"}),
        ("--properties", {"action": "store_true",
                          "help": "also run the named-property suite"}),
    ], (), lambda args: {key: getattr(args, key) for key in (
        "instance", "seed", "sample", "carrier", "depth", "dim",
        "properties")}, _run_axioms),
    ("order", "in-l"): _Leaf("order", None, [
        _UNIVERSE, ("--x", _REQUIRED), ("--y", _REQUIRED)], (), _order_inputs,
        _run_order),
    ("order", "indep"): _Leaf("order", None, [_UNIVERSE, ("--eps", {})], (),
                              _order_inputs, _run_order),
    ("order", "generates"): _Leaf("order", None, [_UNIVERSE, _GENERATOR], (),
                                  _order_inputs, _run_order),
    ("order", "basis"): _Leaf("order", None, [
        _UNIVERSE, _GENERATOR, ("--eps", {})], (), _order_inputs, _run_order),
    ("order", "feasible"): _Leaf("order", None, [
        _UNIVERSE, ("--x", _REQUIRED)], (), _order_inputs, _run_order),
}

# report command -> handler, for main and for --replay
_HANDLERS = {leaf.command: leaf.handler for leaf in _LEAVES.values()}


def _build_parser():
    """The parser of every command: a subparser per command and, for norms
    and order, one per action, each holding the arguments of its leaf in
    _LEAVES. main builds it only for an argv that the table does not read
    (see _parse_args)."""
    import argparse
    parser = argparse.ArgumentParser(
        prog="evs",
        description="Exact comparability of metrics and norms over ordered "
                    "semigroup structure.",
    )
    # () -> the subparsers of the commands; ("norms",) -> of its actions
    subparsers = {(): parser.add_subparsers(dest="command", required=True)}
    for path, leaf in _LEAVES.items():
        if path[:-1] not in subparsers:
            subparsers[path[:-1]] = subparsers[()].add_parser(
                path[0], help=_GROUPS[path[0]]).add_subparsers(
                    dest="action", required=True)
        named = {} if leaf.help is None else {"help": leaf.help}
        p = subparsers[path[:-1]].add_parser(path[-1], **named)
        owner = {}   # flag -> the required group that holds it
        for group in leaf.groups:
            owner.update(dict.fromkeys(
                group, p.add_mutually_exclusive_group(required=True)))
        for flag, kwargs in leaf.entries:
            owner.get(flag, p).add_argument(flag, **kwargs)
    return parser


def _value(kwargs: dict, text: str):
    """text as the argument of an add_argument(**kwargs) reads it; a
    ValueError where its type or choices refuse it."""
    value = kwargs.get("type", str)(text)
    if value not in kwargs.get("choices", (value,)):
        raise ValueError(text)
    return value


def _read_args(argv: list):
    """The namespace _build_parser().parse_args(argv) gives, read from the
    leaf's entries in _LEAVES, where argv is well formed: it names a leaf,
    then gives each option by its whole flag, as "--flag value" or
    "--flag=value" ("--flag" alone for a switch), at most once unless it
    appends, with no separate value that starts with "-", and gives every
    positional, every required option and one option of each group, and
    nothing else. None for any other argv, which argparse reads, help, "--"
    and abbreviations included."""
    path = tuple(argv[:2] if argv[:1] and argv[0] in _GROUPS else argv[:1])
    if path not in _LEAVES:
        return None
    entries, groups = _LEAVES[path].entries, _LEAVES[path].groups
    options = {flag: kwargs for flag, kwargs in entries if flag[0] == "-"}
    given, free = {}, []
    tokens = iter(argv[len(path):])
    try:
        for token in tokens:
            if token[:1] != "-":
                free.append(token)
                continue
            flag, eq, text = token.partition("=")
            kwargs = options[flag]
            if kwargs.get("action") == "store_true":
                if eq:
                    return None
                value = True
            else:
                if not eq:
                    text = next(tokens)
                    if text[:1] == "-":
                        return None
                value = _value(kwargs, text)
            if kwargs.get("action") == "append":
                given.setdefault(flag, []).append(value)
            elif flag in given:
                return None
            else:
                given[flag] = value
        positionals = [(flag, kwargs) for flag, kwargs in entries
                       if flag[0] != "-"]
        if len(free) != len(positionals):
            return None
        for (flag, kwargs), text in zip(positionals, free):
            given[flag] = _value(kwargs, text)
    except (KeyError, StopIteration, ValueError):
        return None
    if any(sum(flag in given for flag in group) != 1 for group in groups):
        return None
    namespace = dict(zip(("command", "action"), path))
    for flag, kwargs in entries:
        if flag not in given and kwargs.get("required"):
            return None
        default = False if kwargs.get("action") == "store_true" else None
        namespace[flag.lstrip("-")] = given.get(flag,
                                                kwargs.get("default", default))
    return SimpleNamespace(**namespace)


def _parse_args(argv: list):
    """_build_parser().parse_args(argv): read from the argument table
    (_read_args) where argv is well formed, with no parser built and
    argparse not imported, and by the parser tree otherwise, which prints
    help and every error."""
    args = _read_args(argv)
    return _build_parser().parse_args(argv) if args is None else args


#: The deepest nesting of arrays and objects that a report prints, the
#: report itself at depth 1 (an echoed table counts as one level). The
#: writer recurses once per level, and a deeper input is an InputError
#: before any byte prints.
MAX_ECHO_DEPTH = 500
_DEEPEST_INDENT = len("\n" + "  " * (MAX_ECHO_DEPTH - 1))


def _dumps(obj) -> str:
    """json.dumps(obj, indent=2, sort_keys=True), byte for byte, with each
    MetricMatrix, every table an input echoes or a report holds, written
    as its to_json(): the bytes that the behaviour contract and --replay
    compare. The text is one list of pieces (_write), joined once. This
    writer escapes strings in C, writes each repeated array, object or
    table once and copies its pieces by reference, and a MetricMatrix adds
    one piece per row of its text slot (MetricMatrix.json_text)."""
    out = []
    _write(obj, "\n", out, {})
    return "".join(out)


def _write(obj, indent: str, out: list, spans: dict) -> None:
    """Append the text of obj to out, where `indent`, a newline and spaces,
    precedes obj's closing bracket. Each array, object and MetricMatrix
    written is recorded in spans as its slice of out, under (id(obj),
    indent): a later visit to the same object at the same indentation
    extends out by that slice, so its text is neither formatted nor copied
    again. Every object stays alive in the document written, so no id is
    reused within one _dumps."""
    if type(obj) is str:
        out.append(encode_basestring_ascii(obj))
        return
    if not isinstance(obj, (dict, list, tuple, metrics.MetricMatrix)):
        out.append(json.dumps(obj))   # None, bool, int and float
        return
    key = (id(obj), indent)
    span = spans.get(key)
    if span is not None:
        out.extend(out[span[0]:span[1]])
        return
    if len(indent) > _DEEPEST_INDENT:
        raise InputError("an input is nested too deep to echo in the report")
    start = len(out)
    inner = indent + "  "
    comma = "," + inner
    if isinstance(obj, metrics.MetricMatrix):
        out += obj.json_text(indent)
    elif not obj:
        out.append("{}" if isinstance(obj, dict) else "[]")
    elif isinstance(obj, dict):
        sep = "{" + inner
        for k, v in sorted(obj.items()):
            head = sep + encode_basestring_ascii(k) + ": "
            if type(v) is str:
                out.append(head + encode_basestring_ascii(v))
            else:
                out.append(head)
                _write(v, inner, out, spans)
            sep = comma
        out.append(indent + "}")
    else:
        try:   # an array of strings is one piece
            out.append("[" + inner + comma.join(
                map(encode_basestring_ascii, obj)) + indent + "]")
        except TypeError:
            sep = "[" + inner
            for v in obj:
                out.append(sep)
                _write(v, inner, out, spans)
                sep = comma
            out.append(indent + "]")
    spans[key] = start, len(out)


def _emit(doc: dict, out_path=None) -> None:
    """Print the report doc, rendered whole (_dumps) before any of it
    prints, so an input too deep to echo prints nothing. Inputs and
    reports hold tables as MetricMatrix objects; each is written here in
    the bytes of the {"labels", "rows"} document a replayed report holds.
    A table that is also written to out_path is formatted once, into its
    text slot (MetricMatrix.text_rows), for both."""
    matrix = doc["report"].get("matrix") if out_path else None
    if matrix is not None:
        matrix.text_rows()
    # flushed here, so that a closed stdout raises in main, not at exit
    print(_dumps(doc), flush=True)
    if matrix is not None:
        try:
            Path(out_path).write_text(_dumps(matrix) + "\n",
                                      encoding="utf-8")
        except OSError as exc:   # the report has printed by now
            raise InputError(f"cannot write {out_path}: "
                             f"{exc.strerror or exc}") from exc


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
    match = _dumps(fresh) == _dumps(doc["report"])
    print(_dumps({"replay": True, "command": doc["command"], "match": match}),
          flush=True)
    return 0 if match else 1


def main(argv=None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    try:
        if argv and argv[0] == "--replay":
            if len(argv) != 2:
                raise InputError("--replay takes exactly one report file")
            return _replay(argv[1])
        args = _parse_args(argv)
        leaf = _LEAVES[(args.command, args.action) if args.command in _GROUPS
                       else (args.command,)]
        inputs = leaf.inputs(args)
        report, code = _HANDLERS[leaf.command](inputs)
        _emit({"command": leaf.command, "inputs": inputs, "report": report},
              getattr(args, "out", None))
        return code
    except InputError as exc:
        print(json.dumps({"error": str(exc)}), file=sys.stderr)
        return 2
    except BrokenPipeError:
        # the reader closed stdout; what is left to flush at exit goes to
        # devnull, as the signal module docs advise. 141 is 128 + SIGPIPE.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except Exception as exc:  # noqa: BLE001 - an internal fault, reported
        import traceback  # only a crash needs it; keeps it off every start-up
        print(json.dumps({"error": f"{type(exc).__name__}: {exc}",
                          "internal": True,
                          "traceback": traceback.format_exc()}),
              file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
