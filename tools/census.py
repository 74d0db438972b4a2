"""Mutation census of `+`/`-` sites in chosen functions of `tltau`.

Usage:  python3 tools/census.py TREE MODULE.FUNC... -- CMD...

TREE is a checkout of this repository, and each MODULE.FUNC names a top-level
function of `TREE/src/tltau/MODULE.py` (e.g. `chain.pole_brackets`,
`tau.hirota_apply`).  For each `ast.Add`/`ast.Sub` binary operation in the
named functions, in the order of the operators in the source, the script
writes a copy of `TREE/src` with that one operator swapped (`+` for `-` or
`-` for `+`) and runs CMD in TREE with PYTHONPATH set to the copy.  A nonzero
exit status kills the mutant.  It prints one line per site,
"<module>.<func>#<k> killed|survived" with k counted from 0 within each
function, then the totals.  A name without a module, a named function that
is missing or has no site, or a CMD that fails on the unmutated copy, is an
error.

Example:  python3 tools/census.py . chain.pole_brackets tau.hirota_apply -- python3 -m pytest -x -q
"""

import ast
import io
import os
import shutil
import subprocess
import sys
import tempfile
import tokenize

SWAP = {"+": "-", "-": "+"}


def sites(module, source, funcs):
    """{func: [(row, col) of each +/- operator token, in source order]};
    rows count from 1 and columns are character offsets."""
    lines = source.splitlines(keepends=True)

    def chars(row, col):  # ast columns are utf-8 byte offsets
        return len(lines[row - 1].encode()[:col].decode())

    ops = [tok.start for tok in tokenize.generate_tokens(io.StringIO(source).readline)
           if tok.type == tokenize.OP and tok.string in SWAP]
    found = {}
    for node in ast.parse(source).body:
        if isinstance(node, ast.FunctionDef) and node.name in funcs:
            at = []
            for b in ast.walk(node):
                if isinstance(b, ast.BinOp) and isinstance(b.op, (ast.Add, ast.Sub)):
                    lo = (b.left.end_lineno, chars(b.left.end_lineno, b.left.end_col_offset))
                    hi = (b.right.lineno, chars(b.right.lineno, b.right.col_offset))
                    between = [pos for pos in ops if lo <= pos < hi]
                    if len(between) != 1:
                        raise ValueError("no single operator token between %s and %s" % (lo, hi))
                    at.append(between[0])
            found[node.name] = sorted(at)
    for f in funcs:
        if not found.get(f):
            raise SystemExit("census: %s.%s is missing or has no +/- site" % (module, f))
    return found


def swapped(source, row, col):
    lines = source.splitlines(keepends=True)
    line = lines[row - 1]
    lines[row - 1] = line[:col] + SWAP[line[col]] + line[col + 1:]
    return "".join(lines)


def main(argv):
    if "--" not in argv or argv.index("--") < 3 or argv.index("--") == len(argv) - 1:
        sys.stderr.write(__doc__)
        return 2
    cut = argv.index("--")
    tree, names, cmd = os.path.abspath(argv[1]), argv[2:cut], argv[cut + 1:]
    funcs = {}  # module: [func, ...] in the order first named
    for name in names:
        module, _, func = name.rpartition(".")
        if not module:
            raise SystemExit("census: %s is not a MODULE.FUNC name" % name)
        funcs.setdefault(module, []).append(func)
    sources, found = {}, {}
    for module in funcs:
        with open(os.path.join(tree, "src", "tltau", module + ".py"), encoding="utf-8") as fh:
            sources[module] = fh.read()
        found[module] = sites(module, sources[module], funcs[module])
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1")
    killed = total = 0
    with tempfile.TemporaryDirectory() as tmp:
        src = os.path.join(tmp, "src")
        shutil.copytree(os.path.join(tree, "src"), src,
                        ignore=shutil.ignore_patterns("__pycache__", "*.egg-info"))
        env["PYTHONPATH"] = src
        if subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                          stderr=subprocess.DEVNULL).returncode:
            raise SystemExit("census: CMD fails on the unmutated tree")
        for module, source in sources.items():
            target = os.path.join(src, "tltau", module + ".py")
            for f in funcs[module]:
                for k, (row, col) in enumerate(found[module][f]):
                    with open(target, "w", encoding="utf-8") as fh:
                        fh.write(swapped(source, row, col))
                    run = subprocess.run(cmd, cwd=tree, env=env, stdout=subprocess.DEVNULL,
                                         stderr=subprocess.DEVNULL)
                    total += 1
                    killed += run.returncode != 0
                    print("%s.%s#%d %s" % (module, f, k, "killed" if run.returncode else "survived"),
                          flush=True)
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(source)
    print("killed %d of %d sites" % (killed, total))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
