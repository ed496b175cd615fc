#!/usr/bin/env python3
"""Every setting has a caller.

Fails when a data member of a `*Params`, `*Options`, `*Config` or `*Spec`
struct declared under src/ has no writer outside tests/, i.e. nothing in
src/, bench/, examples/ or perfbench/ ever sets it. Such a field only
multiplies the configurations tests and the spec hash must cover: make it a
named constant beside its one reader instead.

A writer is any of:
  * on a member access `x.field` or `p->field`: assignment or compound
    assignment (the value may be on the next line), a write to a member or
    element of the field (`x.field.sub = v`, `x.field[i] = v`,
    `x.field.push_back(v)`), or taking its address (`&x.field`, as the
    spec-grammar parsers do to fill a field in place, e.g.
    serving/elastic.cpp);
  * designated init (`{.field = v, ...}`);
  * positional brace init of its struct (`Struct{a, b}`, `Struct x{a, b}`),
    which writes the first fields in declaration order.

Writers are attributed to their struct, so a field name shared by two
structs is not written for both by one write:
  * a member access whose chain starts at a variable declared in the same
    file with a struct type from src/ (`FleetOptions& fleet = ...;
    fleet.shards = 2;`, `spec.fleet.shards = 2`) belongs to the struct the
    chain resolves to;
  * a designated init belongs to the struct named before its brace, else to
    every struct whose fields contain all of its designators.
A write the lint cannot resolve (an `auto` variable, a call's result, an
element of a container) counts for every struct with a field of that name.
The check is a floor, not a proof.

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
EXCEPTIONS = {
    "SearchSpec::objective":
        "the library's plug-in point for a custom search or serving score "
        "(README, Objectives); no binary composes one yet",
}

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
QUALIFIERS = {"const", "mutable", "volatile", "inline", "unsigned", "signed",
              "long", "short"}


def field_names(statement):
    """(name, type) per declarator; type is the struct name of a plain
    `T name` / `ns::T name` field, None for anything else (containers,
    pointers to templates, builtins are looked up and simply not found)."""
    text = re.sub(r"\b(public|private|protected)\s*:", " ", statement).strip()
    if not text or text.split()[0] in SKIP_LEADS or "operator" in text:
        return []
    fields, field_type = [], None
    for index, declarator in enumerate(split_top_level(text, ",")):
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
        if not ident:
            continue
        if index == 0 and "<" not in decl:
            words = [w for w in ident[:-1] if w not in QUALIFIERS]
            field_type = words[-1] if words else None
        fields.append((ident[-1], field_type))
    return fields


def structs(root):
    """(struct, field, type, path, line) for every field of every struct or
    class declared under src/."""
    decl = re.compile(r"(?<!enum )\b(?:struct|class)\s+(\w+)\b(?!\s*[>,=])"
                      r"[^;{()]*\{")
    for path in source_files(root, ("src",)):
        text = strip_comments_and_strings(path.read_text())
        for m in decl.finditer(text):
            open_at = m.end() - 1
            close_at = matching_brace(text, open_at)
            body = text[open_at + 1:close_at]
            for offset, statement in member_statements(body):
                for name, field_type in field_names(statement):
                    at = open_at + 1 + offset + statement.find(name)
                    line = text.count("\n", 0, at) + 1
                    yield m.group(1), name, field_type, path, line


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


ACCESS = r"(?:\.|->)"
CHAIN_TAIL = r"(?:\s*%s\s*\w+|\s*\[[^\]]*\])*" % ACCESS
# `.field` (after an identifier, `)` or `]`, so never a designator) that the
# text after it writes: assigns, writes a member/element, or mutates it.
MEMBER_WRITE = re.compile(
    r"(?<=[\w)\]])%s\s*(\w+)(?=%s\s*(?:%s|%s\s*%s\s*\())" %
    (ACCESS, CHAIN_TAIL, ASSIGN_OP, ACCESS, MUTATORS))
# `&chain`, not `a && x.field` or `a & x.field`.
ADDRESS_OF = re.compile(r"(?:[(,={?:]|\breturn)\s*&(?!&)\s*(\w+(?:%s\s*\w+)+)"
                        r"(?!\s*\()" % ACCESS)
DESIGNATED = re.compile(r"\{\s*\.\s*\w+\s*[={]")
NOT_TYPES = {"return", "else", "case", "delete", "new", "throw", "sizeof",
             "co_return", "do", "goto", "typename", "using", "namespace",
             "operator", "and", "or", "not"}


class Resolver:
    """Resolves a member-access chain of one file to the struct it ends in."""

    def __init__(self, text, fields, field_types):
        self.text = text
        self.fields = fields            # struct -> {field}
        self.field_types = field_types  # (struct, field) -> struct or None
        self.decls = {}

    def declared_type(self, name, at):
        """The struct type of the last declaration of `name` before `at`."""
        if name not in self.decls:
            pattern = re.compile(
                r"\b(\w+)\s*(?:<[^;{}()]*?>)?\s*(?:\bconst\b\s*)?[&*]*\s*"
                r"\b%s\b(?=\s*[;,=)({\[:])" % re.escape(name))
            self.decls[name] = [
                (m.start(), m.group(1)) for m in pattern.finditer(self.text)
                if m.group(1) not in NOT_TYPES]
        found = None
        for pos, type_name in self.decls[name]:
            if pos >= at:
                break
            found = type_name
        return found if found in self.fields else None

    def owner(self, chain, at):
        """The struct whose field `chain[-1]` is, or None if unresolved."""
        if len(chain) < 2 or chain[0] == "this":
            return None
        struct = self.declared_type(chain[0], at)
        for step in chain[1:-1]:
            if struct is None or step not in self.fields[struct]:
                return None
            struct = self.field_types.get((struct, step))
        if struct is None or chain[-1] not in self.fields[struct]:
            return None
        return struct


def chain_before(text, at):
    """The `a.b->c` access chain ending right before offset `at`, or None
    when it starts at a call result or an element."""
    m = re.search(r"(\w+(?:%s\w+)*)$" % ACCESS, text[max(0, at - 300):at])
    if not m:
        return None
    start = at - len(m.group(1))
    if start > 0 and text[start - 1] in ".>)]":
        return None
    return re.split(ACCESS, m.group(1))


def designated_owners(text, at, designators, fields):
    """Structs a designated init `{.a = .., .b = ..}` opening at `at`
    writes: the struct named before the brace, else every struct whose
    fields contain all of the designators."""
    m = re.search(r"\b(\w+)\s*(?:\s\w+\s*)?=?\s*$", text[max(0, at - 200):at])
    if m and m.group(1) in fields and designators <= fields[m.group(1)]:
        return [m.group(1)]
    return [s for s, names in fields.items() if designators <= names]


def writes(text, fields, field_types, by_name):
    """(struct, field) pairs one file's text writes."""
    out = set()
    resolver = Resolver(text, fields, field_types)

    def attribute(chain, at):
        owner = resolver.owner(chain, at)
        owners = [owner] if owner else by_name.get(chain[-1], ())
        out.update((s, chain[-1]) for s in owners)

    for m in MEMBER_WRITE.finditer(text):
        base = chain_before(text, m.start()) or []
        attribute(base + [m.group(1)], m.start())
    for m in ADDRESS_OF.finditer(text):
        chain = re.split(r"\s*%s\s*" % ACCESS, m.group(1))
        for end in range(2, len(chain) + 1):
            attribute(chain[:end], m.start(1))
    for m in DESIGNATED.finditer(text):
        open_at = m.start()
        inner = text[open_at + 1:matching_brace(text, open_at)]
        designators = set()
        for part in split_top_level(inner, ","):
            d = re.match(r"\s*\.\s*(\w+)\s*[={]", part)
            if d:
                designators.add(d.group(1))
        out.update((s, name) for s in designated_owners(
            text, open_at, designators, fields) for name in designators)
    return out


def main():
    root = pathlib.Path(sys.argv[1] if len(sys.argv) > 1 else
                        pathlib.Path(__file__).resolve().parent.parent)
    all_fields = list(structs(root))
    fields, field_types, by_name = {}, {}, {}
    for struct, name, field_type, _, _ in all_fields:
        fields.setdefault(struct, set()).add(name)
        field_types[(struct, name)] = field_type
        by_name.setdefault(name, set()).add(struct)

    written = set()
    texts = []
    for path in source_files(root, WRITER_DIRS):
        text = strip_comments_and_strings(path.read_text())
        texts.append(text)
        written |= writes(text, fields, field_types, by_name)
    writer_text = "\n".join(texts)

    settings = [f for f in all_fields if f[0].endswith(SUFFIXES)]
    order = {}
    for struct, name, _, _, _ in settings:
        order.setdefault(struct, []).append(name)
    positional = {}
    for struct, names in order.items():
        counts = positional_inits(writer_text, struct)
        positional[struct] = set(names[:max(counts, default=0)])

    unset, excepted = [], []
    for struct, name, _, path, line in settings:
        key = "%s::%s" % (struct, name)
        if name in positional[struct] or (struct, name) in written:
            continue
        where = "%s:%d" % (path.relative_to(root), line)
        if key in EXCEPTIONS:
            excepted.append((key, EXCEPTIONS[key]))
        else:
            unset.append((key, where))

    print("settable fields: %d fields of %d structs checked" %
          (len(settings), len(order)))
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
