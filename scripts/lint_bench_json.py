#!/usr/bin/env python3
"""Lint the checked-in BENCH_*.json perf-trajectory files.

Every BENCH_*.json at the repo root must:
  * parse as JSON,
  * declare format == "phocus-bench" and a non-empty bench name,
  * carry the meta block bench_support stamps ({isa, threads_env, compiler,
    fixture, command}, all strings, isa one of the known kernel tables,
    fixture not left at "unspecified", command — how to regenerate the
    file — not empty),
  * contain a non-empty "results" or "kernel_results" array whose rows have
    the stable schema fields.

This keeps the trend files diffable across commits: a regenerated file that
silently lost its metadata (e.g. produced by a stale binary) fails here
instead of in a review.

docs/PERFORMANCE.md is checked against the files it describes: a section
whose heading names `BENCH_<x>.json` must name that file's meta.fixture
verbatim, and every space-grouped integer it quotes (`1 456 592`) must equal
a numeric field of one of the file's rows. A regenerated file whose numbers
the prose still quotes from an older fixture fails here.

Usage: lint_bench_json.py --root <repo root>
"""

import argparse
import glob
import json
import os
import re
import sys

KNOWN_ISAS = {"scalar", "avx2"}

RESULT_FIELDS = {"solver", "photos", "subsets", "wall_seconds", "gain_evals",
                 "score"}
KERNEL_RESULT_FIELDS = {"op", "isa", "calls", "work_per_call", "wall_seconds"}

HEADING_RE = re.compile(r"^(#+)\s")
BENCH_NAME_RE = re.compile(r"BENCH_\w+\.json")
GROUPED_INT_RE = re.compile(r"(?<![\d.])\d{1,3}(?: \d{3})+(?![\d.])")


def lint_file(path):
    errors = []
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        return ["%s: does not parse: %s" % (path, exc)]

    def err(msg):
        errors.append("%s: %s" % (path, msg))

    if doc.get("format") != "phocus-bench":
        err("format must be 'phocus-bench', got %r" % doc.get("format"))
    if not doc.get("bench"):
        err("missing bench name")

    meta = doc.get("meta")
    if not isinstance(meta, dict):
        err("missing meta block (regenerate with a current binary)")
    else:
        for key in ("isa", "threads_env", "compiler", "fixture", "command"):
            if not isinstance(meta.get(key), str):
                err("meta.%s missing or not a string" % key)
        if meta.get("command") == "":
            err("meta.command empty — regenerate with a current binary")
        if meta.get("isa") not in KNOWN_ISAS:
            err("meta.isa %r not one of %s" % (meta.get("isa"),
                                               sorted(KNOWN_ISAS)))
        if meta.get("fixture") in (None, "", "unspecified"):
            err("meta.fixture unset — the producing bench must call "
                "SetBenchFixture")

    results = doc.get("results", [])
    kernel_results = doc.get("kernel_results", [])
    if not isinstance(results, list) or not isinstance(kernel_results, list):
        err("results/kernel_results must be arrays")
        return errors
    if not results and not kernel_results:
        err("no results or kernel_results rows")
    for i, row in enumerate(results):
        missing = RESULT_FIELDS - set(row)
        if missing:
            err("results[%d] missing fields: %s" % (i, sorted(missing)))
    for i, row in enumerate(kernel_results):
        missing = KERNEL_RESULT_FIELDS - set(row)
        if missing:
            err("kernel_results[%d] missing fields: %s" % (i, sorted(missing)))
        if row.get("isa") not in KNOWN_ISAS:
            err("kernel_results[%d].isa %r unknown" % (i, row.get("isa")))
    return errors


def doc_sections(doc_path):
    """Maps each BENCH_<x>.json named in a heading of `doc_path` to the text
    of that section (up to the next heading of the same or a higher level;
    `#` lines inside code fences are not headings)."""
    sections = {}
    open_sections = []  # [(level, name, lines)]
    in_fence = False
    with open(doc_path, encoding="utf-8") as fh:
        for line in fh:
            if line.startswith("```"):
                in_fence = not in_fence
            heading = None if in_fence else HEADING_RE.match(line)
            if heading:
                level = len(heading.group(1))
                while open_sections and open_sections[-1][0] >= level:
                    _, name, lines = open_sections.pop()
                    sections[name] = "".join(lines)
                name = BENCH_NAME_RE.search(line)
                if name:
                    open_sections.append((level, name.group(0), []))
                continue
            for _, _, lines in open_sections:
                lines.append(line)
    for _, name, lines in open_sections:
        sections[name] = "".join(lines)
    return sections


def lint_doc(doc_path, root):
    """Checks each BENCH_<x>.json section of `doc_path` against its file."""
    errors = []
    for name, text in sorted(doc_sections(doc_path).items()):
        where = "%s (section %s)" % (doc_path, name)
        try:
            with open(os.path.join(root, name), encoding="utf-8") as fh:
                doc = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            errors.append("%s: cannot read %s: %s" % (where, name, exc))
            continue
        fixture = (doc.get("meta") or {}).get("fixture")
        if fixture and fixture not in text:
            errors.append("%s: does not name the file's fixture %r"
                          % (where, fixture))
        values = set()
        for row in doc.get("results", []) + doc.get("kernel_results", []):
            for value in row.values():
                if isinstance(value, (int, float)) and not isinstance(value,
                                                                      bool):
                    values.add(value)
        for quoted in GROUPED_INT_RE.findall(text):
            if int(quoted.replace(" ", "")) not in values:
                errors.append("%s: quotes %s, which is no row value in %s"
                              % (where, quoted, name))
    return errors


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--root", default=".")
    args = parser.parse_args()

    paths = sorted(glob.glob(os.path.join(args.root, "BENCH_*.json")))
    if not paths:
        print("lint_bench_json: no BENCH_*.json files under %s" % args.root,
              file=sys.stderr)
        return 1
    errors = []
    for path in paths:
        errors.extend(lint_file(path))
    doc_path = os.path.join(args.root, "docs", "PERFORMANCE.md")
    if os.path.exists(doc_path):
        errors.extend(lint_doc(doc_path, args.root))
    for error in errors:
        print(error, file=sys.stderr)
    if not errors:
        print("lint_bench_json: %d file(s) OK: %s"
              % (len(paths), ", ".join(os.path.basename(p) for p in paths)))
    return 1 if errors else 0


if __name__ == "__main__":
    sys.exit(main())
