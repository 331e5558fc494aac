"""Command-line driver: synthetic data generation, decomposition,
mixture learning, baselines, and experiment-table reproduction.

Each command declares only the flags it reads: ``--seed`` where it draws
or seeds something, ``--out`` where it writes a file, and ``--format``
only on ``experiment table2|table3|table4``, whose tables each take their
own grid flags.  Any other flag is an argparse error (exit 2).

Exit codes: 0 success, 1 other pipeline errors (such as a tensor file
with a missing field or a malformed key or value), 2 invalid flags,
unreadable input files (a model file with a missing field among them) or
infeasible rank, 3 missing tensor entry, 4 degenerate spectrum.
Every command is deterministic given its flags and seed.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

import numpy as np

from . import decomposition, experiments, gmm, tensor_store
from .errors import DegenerateSpectrum, MissingEntry, MomentmixError, RankTooLarge
from .experiments import DEFAULT_SEED
from .tensor_store import from_components, omega_keys, perturb


# Exit code of each error a command reports in one ``error:`` line; the
# first entry whose type matches wins, so subclasses come before bases.
_EXIT_CODES = (
    (RankTooLarge, 2),
    (MissingEntry, 3),
    (DegenerateSpectrum, 4),
    (MomentmixError, 1),
    (OSError, 2),  # an unreadable input file
    (ValueError, 2),  # a flag value the pipeline rejects
)


def _write(out: str | None, text: str):
    if out:
        Path(out).write_text(text)
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _print_config(args):
    shown = {k: v for k, v in sorted(vars(args).items()) if k != "func"}
    print(f"config: {shown}")


def _load_samples(path: str, labels_path: str | None = None) -> gmm.SampleSet:
    data = np.loadtxt(path, delimiter=",", ndmin=2)
    labels = None
    if labels_path:
        labels = np.loadtxt(labels_path, delimiter=",", dtype=int)
    return gmm.SampleSet(data=data, labels=labels)


def cmd_maxrank(args):
    if args.d < args.m:
        print(f"error: --d {args.d} is below --m {args.m}; maxrank needs "
              "--d >= --m", file=sys.stderr)
        raise SystemExit(2)
    n = args.d - 1
    r_max, p_star, k_star = decomposition.max_rank_quiet(n, args.m)
    guaranteed = n >= decomposition.rank_threshold(args.m)
    print(f"d={args.d} m={args.m} r_max={r_max} p_star={p_star} "
          f"k_star={k_star} guaranteed={guaranteed}")


def cmd_params(args):
    p = decomposition.choose_params(args.d - 1, args.m, args.r)
    print(f"d={args.d} m={args.m} r={args.r} p={p.p} k={p.k}")


def cmd_gen_tensor(args):
    comps = experiments.random_components(args.d, args.r, args.seed)
    T = from_components(comps, args.m, omega_keys(args.d, args.m))
    _write(args.out, tensor_store.to_json(T))
    if args.components_out:
        dec = decomposition.Decomposition(
            components=comps.astype(complex), diagnostics={}
        )
        Path(args.components_out).write_text(
            decomposition.to_json(dec, args.d, args.m)
        )


def _run_decompose(args, refine: bool):
    T = tensor_store.from_json(Path(args.tensor).read_text())
    n = T.d - 1
    if args.p is not None and args.k is not None:
        params = decomposition.DecompositionParams(
            r=args.r, p=args.p, k=args.k, seed=args.seed
        )
        params.validate(n, T.m)
    else:
        params = decomposition.choose_params(n, T.m, args.r, seed=args.seed)
    truth = None
    if refine and args.epsilon:
        truth = T
        T = perturb(T, args.epsilon, args.seed)
    if refine:
        dec = decomposition.approximate(T, params, truth=truth)
    else:
        dec = decomposition.decompose(T, params)
    if args.out:
        Path(args.out).write_text(decomposition.to_json(dec, T.d, T.m))
    for name in ("decomp_err", "rel_err", "abs_err"):
        if name in dec.diagnostics:
            print(f"{name.replace('_', '-')}: {dec.diagnostics[name]:.6e}")


def cmd_decompose(args):
    _run_decompose(args, refine=False)


def cmd_approximate(args):
    _run_decompose(args, refine=True)


def cmd_gen_gmm(args):
    model = gmm.random_model(args.d, args.r, args.seed)
    _write(args.out, gmm.model_to_json(model))


def cmd_sample(args):
    model = gmm.model_from_json(Path(args.model).read_text())
    samples = gmm.sample_gmm(model, args.n, args.seed)
    rows = "\n".join(",".join(f"{v:.17g}" for v in row) for row in samples.data)
    _write(args.out, rows + "\n")
    if args.labels_out:
        Path(args.labels_out).write_text(
            "\n".join(str(int(v)) for v in samples.labels) + "\n"
        )


def cmd_moments(args):
    samples = _load_samples(args.samples)
    if args.with_pairs:
        keys = gmm.learning_keys(samples.d, args.m)
    else:
        keys = omega_keys(samples.d, args.m)
    ms = gmm.sample_moments(samples, keys)
    records = [
        {"key": list(k), "value": v} for k, v in sorted(ms.values.items())
    ]
    _write(args.out, json.dumps({"m": args.m, "entries": records}, indent=1))


def cmd_learn(args):
    samples = _load_samples(args.samples, args.labels)
    model = gmm.learn(samples, args.r, args.m, seed=args.seed)
    if args.out:
        Path(args.out).write_text(gmm.model_to_json(model))
    print(f"decomp-err: {model.meta['decomp']['decomp_err']:.6e}")
    if samples.labels is not None:
        acc = gmm.accuracy(gmm.classify(model, samples), samples.labels)
        print(f"accuracy: {acc:.4f}")


def cmd_em(args):
    samples = _load_samples(args.samples, args.labels)
    model = gmm.em_baseline(
        samples, args.r, max_iters=args.max_iters,
        reg_value=args.reg_value, seed=args.seed,
    )
    if args.out:
        Path(args.out).write_text(gmm.model_to_json(model))
    if samples.labels is not None:
        acc = gmm.accuracy(gmm.classify(model, samples), samples.labels)
        print(f"accuracy: {acc:.4f}")


def cmd_evaluate(args):
    model = gmm.model_from_json(Path(args.model).read_text())
    samples = _load_samples(args.samples, args.labels)
    acc = gmm.accuracy(gmm.classify(model, samples), samples.labels)
    print(f"accuracy: {acc:.4f}")


def _check_grid_flags(args):
    """Reject grid flags the tables cannot run, before any trial, among
    them an order whose largest feasible rank, the table's rank, is 0."""
    if args.trials < 0:
        raise ValueError(f"--trials {args.trials} must be >= 0")
    top = args.d - 1
    for m in getattr(args, "orders", ()):
        if not 3 <= m <= top:
            raise ValueError(
                f"--orders {m} must be between 3 and d-1 = {top} (--d {args.d})"
            )
    if args.name == "table4":  # at the largest rank only when --r is not given
        ranked = [args.m] if args.r is None else []
    else:
        ranked = args.orders
    for m in ranked:
        if decomposition.max_rank_quiet(top, m)[0] == 0:
            raise ValueError(f"order {m} has no feasible rank at --d {args.d}")


def cmd_experiment(args):
    _check_grid_flags(args)
    if args.name == "table2":
        rows = experiments.run_table2(
            d=args.d, orders=tuple(args.orders), trials=args.trials,
            seed=args.seed,
        )
    elif args.name == "table3":
        rows = experiments.run_table3(
            d=args.d, orders=tuple(args.orders), epsilons=tuple(args.epsilons),
            trials=args.trials, seed=args.seed,
        )
    else:
        rows = experiments.run_table4(
            d=args.d, m=args.m, r=args.r, n_samples=args.n_samples,
            trials=args.trials, seed=args.seed,
        )
    _write(args.out, experiments.format_rows(rows, args.format))


def _int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",") if x]


def _float_list(text: str) -> list[float]:
    return [float(x) for x in text.split(",") if x]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="momentmix",
        description="Incomplete symmetric tensor decomposition and "
        "diagonal Gaussian mixture learning from moments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def seed_and_out(p):
        p.add_argument("--seed", type=int, default=DEFAULT_SEED)
        p.add_argument("--out", type=str, default=None)

    p = sub.add_parser("maxrank", help="largest computable rank for (d, m)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.set_defaults(func=cmd_maxrank)

    p = sub.add_parser("params", help="feasible (p, k) for a rank")
    for flag in ("--d", "--m", "--r"):
        p.add_argument(flag, type=int, required=True)
    p.set_defaults(func=cmd_params)

    p = sub.add_parser("gen-tensor", help="random planted rank-r tensor")
    for flag in ("--d", "--m", "--r"):
        p.add_argument(flag, type=int, required=True)
    p.add_argument("--components-out", type=str, default=None)
    seed_and_out(p)
    p.set_defaults(func=cmd_gen_tensor)

    for name, fn in (("decompose", cmd_decompose), ("approximate", cmd_approximate)):
        p = sub.add_parser(name)
        p.add_argument("--tensor", type=str, required=True)
        p.add_argument("--r", type=int, required=True)
        p.add_argument("--p", type=int, default=None)
        p.add_argument("--k", type=int, default=None)
        if name == "approximate":
            p.add_argument("--epsilon", type=float, default=0.0,
                           help="synthetic noise level added before solving")
        seed_and_out(p)
        p.set_defaults(func=fn)

    p = sub.add_parser("gen-gmm", help="random diagonal mixture model")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    seed_and_out(p)
    p.set_defaults(func=cmd_gen_gmm)

    p = sub.add_parser("sample", help="draw samples from a model file")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--labels-out", type=str, default=None)
    seed_and_out(p)
    p.set_defaults(func=cmd_sample)

    p = sub.add_parser("moments", help="sample moments of a CSV sample set")
    p.add_argument("--samples", type=str, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--with-pairs", action="store_true")
    p.add_argument("--out", type=str, default=None)
    p.set_defaults(func=cmd_moments)

    p = sub.add_parser("learn", help="moment-based mixture learning")
    p.add_argument("--samples", type=str, required=True)
    p.add_argument("--labels", type=str, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    seed_and_out(p)
    p.set_defaults(func=cmd_learn)

    p = sub.add_parser("em", help="EM baseline for diagonal mixtures")
    p.add_argument("--samples", type=str, required=True)
    p.add_argument("--labels", type=str, default=None)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--max-iters", type=int, default=100)
    p.add_argument("--reg-value", type=float, default=1e-3)
    seed_and_out(p)
    p.set_defaults(func=cmd_em)

    p = sub.add_parser("evaluate", help="accuracy of a model on labeled samples")
    p.add_argument("--model", type=str, required=True)
    p.add_argument("--samples", type=str, required=True)
    p.add_argument("--labels", type=str, required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("experiment", help="rerun an experiment grid")
    tables = p.add_subparsers(dest="name", required=True)
    t2 = tables.add_parser("table2", help="exact decomposition at the largest rank")
    t3 = tables.add_parser("table3", help="approximation of noisy tensors")
    t4 = tables.add_parser("table4", help="mixture learning against EM")
    for t in (t2, t3):
        t.add_argument("--orders", type=_int_list, default=[3, 4])
    t3.add_argument("--epsilons", type=_float_list, default=[0.1, 0.01, 0.001])
    t4.add_argument("--m", type=int, default=3)
    t4.add_argument("--r", type=int, default=None)
    t4.add_argument("--n-samples", type=int, default=100_000)
    for t in (t2, t3, t4):
        t.add_argument("--d", type=int, default=15)
        t.add_argument("--trials", type=int, default=5)
        seed_and_out(t)
        t.add_argument("--format", choices=("json", "csv", "md"), default="md")
        t.set_defaults(func=cmd_experiment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    _print_config(args)
    try:
        args.func(args)
    except tuple(kind for kind, _ in _EXIT_CODES) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return next(code for kind, code in _EXIT_CODES if isinstance(exc, kind))
    return 0


if __name__ == "__main__":
    sys.exit(main())
