#!/usr/bin/env python3
"""Repo-invariant linter (CI static-analysis job).

Checks invariants the C++ compiler cannot express:

  R1  No raw std::getenv / getenv outside src/common/env.cpp. Every knob
      must go through the env_* helpers so malformed values warn instead of
      being silently swallowed.
  R2  No naked `throw` inside a pool-region lambda (parallel_region(...) /
      run_on(...) bodies in src/). An exception unwinding a pool worker
      calls std::terminate; work must throw via PLT_CHECK/PLT_ENSURE from
      code the region's firewall wraps, or return Status.
  R3  plt::Status and plt::StatusOr stay [[nodiscard]] in
      src/common/status.hpp (the compiler enforces call sites; this guards
      the annotation itself against regressing).
  R4  Every PLT_* name passed as a literal to env_int/env_int_quiet/
      env_flag/env_str/env_enum under src/ appears in README.md, so no
      knob is read that its users cannot look up.

Exit status: 0 clean, 1 findings (each printed as file:line: message).
"""
import re
import sys
from pathlib import Path

REPO = Path(__file__).resolve().parent.parent
SRC = REPO / "src"

findings = []


def report(path, lineno, msg):
    findings.append(f"{path.relative_to(REPO)}:{lineno}: {msg}")


def strip_comments(text):
    """Blanks out // and /* */ comments and string literals, preserving
    newlines so line numbers survive."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line | block | str | chr
    while i < n:
        ch = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if ch == "/" and nxt == "/":
                state = "line"
                out.append("  ")
                i += 2
                continue
            if ch == "/" and nxt == "*":
                state = "block"
                out.append("  ")
                i += 2
                continue
            if ch == '"':
                state = "str"
                out.append(" ")
                i += 1
                continue
            if ch == "'":
                state = "chr"
                out.append(" ")
                i += 1
                continue
            out.append(ch)
        elif state == "line":
            if ch == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block":
            if ch == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if ch == "\n" else " ")
        elif state in ("str", "chr"):
            close = '"' if state == "str" else "'"
            if ch == "\\":
                out.append("  ")
                i += 2
                continue
            if ch == close:
                state = "code"
            out.append(" " if ch != "\n" else "\n")
        i += 1
    return "".join(out)


GETENV_RE = re.compile(r"\b(?:std::)?getenv\s*\(")
REGION_RE = re.compile(r"\b(?:parallel_region|run_on)\s*\(")
THROW_RE = re.compile(r"\bthrow\b")
ENV_KNOB_RE = re.compile(
    r'\benv_(?:int_quiet|int|flag|str|enum)\s*\(\s*"(PLT_[A-Z0-9_]+)"')
GETENV_ALLOWED = {SRC / "common" / "env.cpp"}


def check_getenv(path, code):
    if path in GETENV_ALLOWED:
        return
    for lineno, line in enumerate(code.splitlines(), 1):
        if GETENV_RE.search(line):
            report(path, lineno,
                   "raw getenv outside src/common/env.cpp — use the "
                   "common::env_* helpers")


def region_body_span(code, open_paren):
    """Returns (start, end) of the balanced argument list opened at
    open_paren (index of '(')."""
    depth = 0
    for i in range(open_paren, len(code)):
        if code[i] == "(":
            depth += 1
        elif code[i] == ")":
            depth -= 1
            if depth == 0:
                return open_paren, i
    return open_paren, len(code)


def check_region_throws(path, code):
    for m in REGION_RE.finditer(code):
        start, end = region_body_span(code, m.end() - 1)
        body = code[start:end]
        for tm in THROW_RE.finditer(body):
            lineno = code.count("\n", 0, start + tm.start()) + 1
            report(path, lineno,
                   "naked `throw` inside a pool-region lambda — an "
                   "exception unwinding a pool worker terminates the "
                   "process; return Status or throw outside the region")


def check_nodiscard():
    status_hpp = SRC / "common" / "status.hpp"
    text = status_hpp.read_text()
    for cls in ("class [[nodiscard]] Status", "class [[nodiscard]] StatusOr"):
        if cls not in text:
            report(status_hpp, 1,
                   f"`{cls}` annotation missing — Status/StatusOr must stay "
                   "[[nodiscard]]")


def check_knobs_documented(path, text, readme):
    # Runs on the raw text: strip_comments blanks the string literals.
    for m in ENV_KNOB_RE.finditer(text):
        name = m.group(1)
        if not re.search(rf"\b{name}\b", readme):
            lineno = text.count("\n", 0, m.start()) + 1
            report(path, lineno,
                   f"knob {name} is read but not documented in README.md")


def main():
    readme = (REPO / "README.md").read_text()
    for path in sorted(SRC.rglob("*.cpp")) + sorted(SRC.rglob("*.hpp")):
        text = path.read_text()
        code = strip_comments(text)
        check_getenv(path, code)
        check_region_throws(path, code)
        check_knobs_documented(path, text, readme)
    check_nodiscard()
    if findings:
        for f in findings:
            print(f)
        print(f"lint.py: {len(findings)} finding(s)")
        return 1
    print("lint.py: clean")
    return 0


if __name__ == "__main__":
    sys.exit(main())
