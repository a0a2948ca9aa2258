"""The CLI's plain-argv reader against argparse, over a corpus of argv.

``cli._read_plain`` must decline every argv that argparse rejects, and for
every argv it takes it must return exactly the attributes that argparse's
``parse_args`` sets.  The corpus holds every argv of
``tests/test_cli.py``'s golden table and of README's sh blocks, the argv
shapes of the benchmark's cli_roundtrip workload, those with odd values,
and seeded variants of them that argparse reads in its own way or
rejects.

The module needs no pytest, so that any CPython can run the check:

    PYTHONPATH=src python tests/cli_parity.py

It prints what it checked and exits 1 on any disagreement;
``tests/test_cli.py`` runs the same check.
"""

import ast
import contextlib
import io
import random
import re
import shlex
import sys
from pathlib import Path

from equitree import cli

TESTS = Path(__file__).resolve().parent
README = TESTS.parent / "README.md"

# The argv shapes of bench/workloads.py's cli_roundtrip: absolute paths,
# ints, 'inf' and full flag names.
BENCH = [
    ["gen", "--family", "knn", "--n", "150"],
    ["gen", "--family", "outerplanar", "--n", "300", "--seed", "1804289383"],
    ["construct", "--graph", "/srv/run/graph.txt", "--t", "9", "--k", "1", "--d", "1"],
    ["construct", "--graph", "/srv/run/graph.txt", "--t", "40", "--k", "inf", "--d", "2"],
    ["construct", "--graph", "/srv/run/graph.txt", "--t", "3", "--k", "inf", "--d", "inf"],
    ["verify", "--graph", "/srv/run/graph.txt", "--cert", "/srv/run/tampered.json"],
    ["feasible", "--variant", "inf2", "--knn", "250", "--q", "17"],
    ["exact-va", "--variant", "11", "--knn", "300"],
]

# Values that argparse reads in its own way, or rejects, put in place of a
# flag's value: '-'-led, signed, underscored, non-ASCII and padded numbers,
# other number forms, more digits than int() reads, and bad choices.
ODD_VALUES = ["-", "--", "-5", "-1", "-0", "-x", "-inf", "+5", "1_000", "٥",
              "²", " 5", "5 ", "05", "0x5", "5.0", "1e3", "nan", "inf", "Inf",
              "", "x", "9" * 640, "9" * 641, "9" * 5000, "wheel", "KNN", "11 ",
              "inf2x", "auto ", "girth5"]
# Words put anywhere in an argv.
STRAYS = ["-h", "--help", "--", "extra", "--bogus", "--json", "--n", "-n", "gen",
          "--graph=x", "--t=3"]


def readme_blocks():
    """README's sh blocks in order, each a list of ``(argv, redirect
    target or None, expected exit code)`` for its ``equitree ...`` lines.
    A line's exit code is 0 unless its comment says ``exit code N``."""
    blocks = []
    for block in re.findall(r"```sh\n(.*?)```", README.read_text(), re.S):
        commands = []
        for line in block.splitlines():
            words = shlex.split(line, comments=True)
            if words[:1] != ["equitree"]:
                continue
            cut = next((i for i, w in enumerate(words) if w in (">", "|")),
                       len(words))
            target = words[cut + 1] if words[cut:cut + 1] == [">"] else None
            expected = re.search(r"#.*exit code (\d+)", line)
            commands.append((words[1:cut], target,
                             int(expected.group(1)) if expected else 0))
        if commands:
            blocks.append(commands)
    return blocks


def golden_argvs():
    """The argv of every row of test_cli's _GOLDEN, read from its source."""
    tree = ast.parse((TESTS / "test_cli.py").read_text(encoding="utf-8"))
    table = next(node.value for node in tree.body if isinstance(node, ast.Assign)
                 and [t.id for t in node.targets] == ["_GOLDEN"])
    return [(row.elts[0] if isinstance(row, ast.Tuple) else row.args[0]).value.split()
            for row in table.elts]


def _mutate(argv, rng):
    """argv changed in one way: an abbreviated flag, a --flag=value, a
    repeated flag, an odd value, a missing flag or value, a stray word, the
    flags shuffled, or another command."""
    argv = list(argv)
    flags = [i for i, word in enumerate(argv) if word.startswith("--")]
    values = [i for i in flags if i + 1 < len(argv) and not argv[i + 1].startswith("-")]
    how = rng.randrange(10)
    if how == 0 and flags:
        i = rng.choice(flags)
        argv[i] = argv[i][:rng.randrange(3, len(argv[i]))] if len(argv[i]) > 3 else "--"
    elif how == 1 and values:
        i = rng.choice(values)
        argv[i:i + 2] = [f"{argv[i]}={argv[i + 1]}"]
    elif how == 2 and flags:
        i = rng.choice(flags)
        span = argv[i:i + 2] if i in values else argv[i:i + 1]
        argv += span
    elif how in (3, 4) and values:
        argv[rng.choice(values) + 1] = rng.choice(ODD_VALUES)
    elif how == 5 and flags:
        i = rng.choice(flags)
        del argv[i:i + rng.choice((1, 2))]
    elif how == 6 and values:
        del argv[rng.choice(values) + 1]
    elif how == 7:
        argv.insert(rng.randrange(len(argv) + 1), rng.choice(STRAYS))
    elif how == 8 and len(argv) > 1:
        pairs, i = [], 1
        while i < len(argv):
            take = 2 if i in values else 1
            pairs.append(argv[i:i + take])
            i += take
        rng.shuffle(pairs)
        argv[1:] = [word for pair in pairs for word in pair]
    else:
        argv[:1] = [rng.choice(["Gen", "exact_va", "", "-h", *cli._COMMANDS])]
    return argv


def corpus(count=2000, seed=0):
    """The fixed argv; README's and the benchmark's argv with each odd
    value in place of each of their values; then count seeded variants of
    the fixed argv, each changed in one to three ways."""
    plain = [argv for block in readme_blocks() for argv, _, _ in block] + BENCH
    fixed = golden_argvs() + plain + [[]]
    odd = [argv[:i] + [value] + argv[i + 1:] for argv in plain
           for i in range(2, len(argv)) if not argv[i].startswith("-")
           for value in ODD_VALUES]
    rng = random.Random(seed)
    variants = []
    for _ in range(count):
        argv = rng.choice(fixed)
        for _ in range(rng.randint(1, 3)):
            argv = _mutate(argv, rng)
        variants.append(argv)
    return fixed + odd + variants


def disagreements(argvs):
    """Each argv on which the reader and argparse disagree, as (argv, what
    the reader read, what argparse read or None where it exits)."""
    parser = cli._build_parser()
    found = []
    for argv in argvs:
        plain = cli._read_plain(argv)
        try:
            with contextlib.redirect_stdout(io.StringIO()), \
                    contextlib.redirect_stderr(io.StringIO()):
                expected = vars(parser.parse_args(argv))
        except SystemExit:
            expected = None
        if plain is not None and vars(plain) != expected:
            found.append((argv, vars(plain), expected))
    return found


def main():
    argvs = corpus()
    taken = sum(cli._read_plain(argv) is not None for argv in argvs)
    found = disagreements(argvs)
    print(f"CPython {sys.version.split()[0]}: {len(argvs)} argv, "
          f"{taken} read without argparse, {len(found)} disagreements")
    for argv, plain, expected in found:
        print(f"  {argv!r}: reader {plain!r}, argparse {expected!r}")
    return 1 if found else 0


if __name__ == "__main__":
    sys.exit(main())
