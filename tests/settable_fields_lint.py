#!/usr/bin/env python3
"""Every setting has a caller.

Fails when a data member of a `*Params`, `*Options`, `*Config` or `*Spec`
struct declared under src/ has no writer outside tests/, i.e. nothing in
src/, bench/, examples/ or perfbench/ ever sets it. Such a field only
multiplies the configurations tests and the spec hash must cover: make it a
named constant beside its one reader instead.

A writer is any of, on a member access `.field` or `->field`:
  * assignment or compound assignment (the value may be on the next line),
    which also covers designated init (`{.field = v}`);
  * a write to a member or element of the field (`x.field.sub = v`,
    `x.field[i] = v`, `x.field.push_back(v)`);
  * taking its address (`&x.field`, as the spec-grammar parsers do to fill a
    field in place, e.g. serving/elastic.cpp);
  * positional brace init of its struct (`Struct{a, b}`, `Struct x{a, b}`),
    which writes the first fields in declaration order.
Matching is by field name, not by type: a name shared with another struct's
written field counts as written. The check is a floor, not a proof.

Usage: settable_fields_lint.py [REPO_ROOT]   (default: this file's parent's
parent). Exit 0 when every field has a writer, 1 otherwise.
"""

import pathlib
import re
import sys

SUFFIXES = ("Params", "Options", "Config", "Spec")
WRITER_DIRS = ("src", "bench", "examples", "perfbench")
SOURCE_GLOBS = ("*.cpp", "*.hpp")

# Fields kept without a writer outside tests/, each with its reason. Keep
# this list short: an entry here is a setting no program can reach.
EXCEPTIONS = {}

ASSIGN_OP = r"(?:[-+*/%|&^]|<<|>>)?=(?!=)"
MUTATORS = (r"(?:push_back|emplace_back|emplace|insert|assign|resize|clear|"
            r"erase|swap|reserve)")


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, keeping line numbers."""
    out = []
    i, n = 0, len(text)
    while i < n:
        c = text[i]
        if text.startswith("//", i):
            j = text.find("\n", i)
            j = n if j < 0 else j
            i = j
        elif text.startswith("/*", i):
            j = text.find("*/", i + 2)
            j = n if j < 0 else j + 2
            out.append("\n" * text.count("\n", i, j))
            i = j
        elif c in "\"'":
            j = i + 1
            while j < n and text[j] != c:
                j += 2 if text[j] == "\\" else 1
            j = min(n, j + 1)
            out.append(c + "\n" * text.count("\n", i, j) + c)
            i = j
        else:
            out.append(c)
            i += 1
    return "".join(out)


def source_files(root, dirs):
    for d in dirs:
        base = root / d
        if not base.is_dir():
            continue
        for pattern in SOURCE_GLOBS:
            yield from sorted(base.rglob(pattern))


def matching_brace(text, open_at):
    depth = 0
    for i in range(open_at, len(text)):
        if text[i] == "{":
            depth += 1
        elif text[i] == "}":
            depth -= 1
            if depth == 0:
                return i
    return len(text) - 1


def split_top_level(text, sep):
    """Splits on `sep` outside (), [], {} and <>."""
    parts, depth, start = [], 0, 0
    for i, c in enumerate(text):
        if c in "([{<":
            depth += 1
        elif c in ")]}>":
            depth -= 1
        elif c == sep and depth == 0:
            parts.append(text[start:i])
            start = i + 1
    parts.append(text[start:])
    return parts


def member_statements(body):
    """Top-level statements of a struct body; function bodies and nested
    type definitions are dropped."""
    statements, depth, start = [], 0, 0
    for i, c in enumerate(body):
        if c == "{":
            depth += 1
        elif c == "}":
            depth -= 1
            if depth == 0:
                head = body[start:i]
                head = head[:head.find("{")]
                # `f() const { ... }`: a function body ends the statement.
                if "(" in head and "=" not in head:
                    start = i + 1
        elif c == ";" and depth == 0:
            statements.append((start, body[start:i]))
            start = i + 1
    return statements


SKIP_LEADS = ("static", "using", "typedef", "friend", "enum", "struct",
              "class", "union", "template", "constexpr")


def field_names(statement):
    text = re.sub(r"\b(public|private|protected)\s*:", " ", statement).strip()
    if not text or text.split()[0] in SKIP_LEADS or "operator" in text:
        return []
    names = []
    for declarator in split_top_level(text, ","):
        # Drop the initializer: `= v` or `{v}` at top level.
        decl = split_top_level(declarator, "=")[0]
        depth, cut = 0, len(decl)
        for i, c in enumerate(decl):
            if c in "(<[":
                depth += 1
            elif c in ")>]":
                depth -= 1
            elif c == "{" and depth == 0:
                cut = i
                break
        decl = decl[:cut]
        # A '(' outside template brackets is a function declaration.
        flat, depth = [], 0
        for c in decl:
            if c == "<":
                depth += 1
            elif c == ">":
                depth -= 1
            elif depth == 0:
                flat.append(c)
        flat = "".join(flat)
        if "(" in flat:
            return []
        flat = re.sub(r"\[[^\]]*\]", "", flat)
        ident = re.findall(r"[A-Za-z_]\w*", flat)
        if ident:
            names.append(ident[-1])
    return names


def structs(root):
    """(struct, field, path, line) for every field of a settings struct."""
    decl = re.compile(r"\bstruct\s+(\w+(?:%s))\b[^;{()]*\{" %
                      "|".join(SUFFIXES))
    for path in source_files(root, ("src",)):
        text = strip_comments_and_strings(path.read_text())
        for m in decl.finditer(text):
            open_at = m.end() - 1
            close_at = matching_brace(text, open_at)
            body = text[open_at + 1:close_at]
            for offset, statement in member_statements(body):
                for name in field_names(statement):
                    at = open_at + 1 + offset + statement.find(name)
                    line = text.count("\n", 0, at) + 1
                    yield m.group(1), name, path, line


def positional_inits(text, struct_name):
    """Field counts written by `Struct{a, b}` / `Struct x{a, b}`."""
    counts = []
    for m in re.finditer(r"(?<!struct )\b%s(?:\s+\w+)?\s*\{" %
                         re.escape(struct_name), text):
        open_at = m.end() - 1
        inner = text[open_at + 1:matching_brace(text, open_at)].strip()
        # Designated init is matched per field; a ';' means a body, not an
        # initializer.
        if not inner or inner.startswith(".") or ";" in inner:
            continue
        counts.append(len(split_top_level(inner, ",")))
    return counts


def has_writer(text, name):
    n = re.escape(name)
    access = r"(?:\.|->)\s*%s\b" % n
    patterns = (
        access + r"((?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*)\s*" + ASSIGN_OP,
        # Address-of, not `a && x.field` or `a & x.field`.
        r"(?:[(,={?:]|\breturn)\s*&(?!&)\s*[\w\]\[().>-]*" + access +
        r"(?!\s*\()",
        access + r"(?:\s*(?:\.|->)\s*\w+|\s*\[[^\]]*\])*\s*(?:\.|->)\s*" +
        MUTATORS + r"\s*\(",
    )
    return any(re.search(p, text) for p in patterns)


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    writer_text = "\n".join(
        strip_comments_and_strings(p.read_text())
        for p in source_files(root, WRITER_DIRS))

    fields = list(structs(root))
    order = {}
    for struct, name, _, _ in fields:
        order.setdefault(struct, []).append(name)
    positional = {}
    for struct, names in order.items():
        counts = positional_inits(writer_text, struct)
        positional[struct] = set(names[:max(counts, default=0)])

    unset, excepted = [], []
    for struct, name, path, line in fields:
        key = "%s::%s" % (struct, name)
        if name in positional[struct] or has_writer(writer_text, name):
            continue
        where = "%s:%d" % (path.relative_to(root), line)
        if key in EXCEPTIONS:
            excepted.append((key, EXCEPTIONS[key]))
        else:
            unset.append((key, where))

    print("settable fields: %d fields of %d structs checked" %
          (len(fields), len(order)))
    for key, reason in excepted:
        print("  exception %s: %s" % (key, reason))
    if unset:
        print("fields with no writer outside tests/ (make each a named "
              "constant beside its reader, or list it in EXCEPTIONS with "
              "its reason):")
        for key, where in unset:
            print("  %s  (%s)" % (key, where))
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
