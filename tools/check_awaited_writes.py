#!/usr/bin/env python3
"""Reject a conditional expression inside the argument of an awaited
channel write.

Usage:
    check_awaited_writes.py [DIR ...]      (default: src)

g++ 12 compiles a temporary built by a conditional expression, such as
`Token::data(c ? Value(v) : t.takeValue())`, without a warning when it
is the argument of an awaited write, and corrupts it across the
write's suspension: payloads are lost or duplicated. Operators branch
instead (see STEP_PASS in src/ops/common.hh). This check scans every
.cc and .hh file under the given directories, comments and literals
aside, for the argument lists of STEP_PASS, STEP_EMIT_RAW, ->write(
and ->writeAt(, and fails on any `?` inside one.

Exit status 0 when no argument list holds a `?`, 1 otherwise (with
file:line for each offending call).
"""

import pathlib
import re
import sys

CALL = re.compile(r"\bSTEP_PASS\s*\(|\bSTEP_EMIT_RAW\s*\(|->\s*writeAt\s*\("
                  r"|->\s*write\s*\(")
HEX_DIGIT = re.compile(r"[0-9A-Fa-f]")


def blank_comments_and_literals(text):
    """@p text with comments and string/char literals replaced by
    spaces, newlines kept, so offsets and line numbers still match."""
    out = list(text)
    i, n = 0, len(text)
    while i < n:
        if text.startswith("//", i):
            end = text.find("\n", i)
            end = n if end < 0 else end
        elif text.startswith("/*", i):
            end = text.find("*/", i + 2)
            end = n if end < 0 else end + 2
        elif text[i] == "'" and 0 < i < n - 1 and \
                HEX_DIGIT.match(text[i - 1]) and HEX_DIGIT.match(text[i + 1]):
            i += 1  # a digit separator, as in 1'000'000
            continue
        elif text[i] in "\"'":
            end = i + 1
            while end < n and text[end] != text[i]:
                end += 2 if text[end] == "\\" else 1
            end = min(end + 1, n)
        else:
            i += 1
            continue
        for k in range(i, end):
            if out[k] != "\n":
                out[k] = " "
        i = end
    return "".join(out)


def argument_list(code, open_paren):
    """The text between @p open_paren and its matching ')'."""
    depth = 0
    for k in range(open_paren, len(code)):
        if code[k] == "(":
            depth += 1
        elif code[k] == ")":
            depth -= 1
            if depth == 0:
                return code[open_paren + 1:k]
    return code[open_paren + 1:]


def main(argv):
    roots = [pathlib.Path(a) for a in argv[1:]] or [pathlib.Path("src")]
    sites = 0
    bad = []
    for root in roots:
        for path in sorted(root.rglob("*")):
            if path.suffix not in (".cc", ".hh"):
                continue
            code = blank_comments_and_literals(path.read_text())
            for m in CALL.finditer(code):
                sites += 1
                if "?" in argument_list(code, m.end() - 1):
                    line = code.count("\n", 0, m.start()) + 1
                    bad.append(f"{path}:{line}: conditional expression in "
                               f"the argument of {m.group(0).strip()}")
    for b in bad:
        print(b)
    if bad:
        print(f"check_awaited_writes: {len(bad)} of {sites} awaited-write "
              "sites build their argument with a conditional expression; "
              "branch instead")
        return 1
    print(f"check_awaited_writes: {sites} awaited-write sites, none with a "
          "conditional expression")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
