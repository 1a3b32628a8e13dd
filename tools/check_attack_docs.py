#!/usr/bin/env python3
"""Fail when the docs drift from the sweep-axis and record-column tables.

Single source of truth for what exists:

 - The ``kAttackNames`` array in ``src/campaign/sweep_grid.hh``: the
   name of every ``AttackKind`` the sweep engine accepts (a
   ``static_assert`` there keeps it as long as the enum).
 - The axis table ``axes()`` in ``src/campaign/sweep_grid.cc``, one
   ``axis<...>("key", ...)`` row per sweep axis; it is exactly what
   ``voltboot_cli sweep --list-axes`` prints.
 - The record-column table ``kRecordColumns`` in
   ``src/campaign/campaign_result.hh``, one ``{"name", &Member}`` row per
   column of a sweep's JSON/CSV trial records.

What the docs must provide:

 - docs/ATTACKS.md: one ``<a id="attack-NAME"></a>`` anchor per attack
   name, so every family has a stable deep-linkable section, and at least
   one backticked mention of every sweep-axis key, so the parameter
   tables cannot silently omit an axis;
 - docs/CAMPAIGN.md: a backticked mention of every record column, so the
   result-schema table cannot silently omit one;
 - DESIGN.md: every backticked CamelCase or camelCase identifier in its
   tables (``MemorySystem``, ``ramIndexRead``, each part of
   ``Soc::powerCycle``) occurs as a word somewhere under src/ or tools/,
   so a renamed or deleted class cannot linger in the design inventory.

Exit code 1 with a per-item report when anything is missing.

Usage: tools/check_attack_docs.py [repo_root]
"""

import os
import re
import sys

GRID_HH = "src/campaign/sweep_grid.hh"
GRID_CC = "src/campaign/sweep_grid.cc"
RESULT_HH = "src/campaign/campaign_result.hh"
ATTACKS_DOC = "docs/ATTACKS.md"
CAMPAIGN_DOC = "docs/CAMPAIGN.md"
DESIGN_DOC = "DESIGN.md"
CODE_DIRS = ("src", "tools")

NAMES_RE = re.compile(r"kAttackNames\s*=\s*{([^}]*)}", re.S)
AXIS_RE = re.compile(r'\baxis<[^>]*>\(\s*"([a-z0-9-]+)"')
COLUMNS_RE = re.compile(r"kRecordColumns\[\]\s*=\s*{(.*?)\n};", re.S)
COLUMN_RE = re.compile(r'{"([a-z0-9_]+)",\s*&Trial(?:Spec|Record)::')
# Two or more humps (MemorySystem), or lower-first with a hump
# (ramIndexRead); single words such as `Cache` name modules too.
CAMEL_RE = re.compile(
    r"\b(?:[A-Z][a-z0-9]+(?:[A-Z][a-z0-9]*)+|[a-z][a-z0-9]*(?:[A-Z][a-z0-9]*)+)\b")


def read(root, rel):
    with open(os.path.join(root, rel), encoding="utf-8") as fh:
        return fh.read()


def attack_names(text):
    match = NAMES_RE.search(text)
    return re.findall(r'"([a-z0-9-]+)"', match.group(1)) if match else []


def record_columns(text):
    match = COLUMNS_RE.search(text)
    return COLUMN_RE.findall(match.group(1)) if match else []


def design_identifiers(text):
    """Backticked CamelCase/camelCase identifiers in the doc's tables."""
    names = set()
    for line in text.splitlines():
        if line.lstrip().startswith("|"):
            for span in re.findall(r"`([^`]+)`", line):
                names.update(CAMEL_RE.findall(span))
    return names


def code_words(root):
    """Every identifier-like word in the files under CODE_DIRS."""
    words = set()
    for top in CODE_DIRS:
        for folder, _, files in os.walk(os.path.join(root, top)):
            for name in files:
                with open(os.path.join(folder, name), encoding="utf-8",
                          errors="replace") as fh:
                    words.update(re.findall(r"\w+", fh.read()))
    return words


def main():
    root = os.path.abspath(sys.argv[1] if len(sys.argv) > 1 else ".")
    problems = []

    names = attack_names(read(root, GRID_HH))
    if not names:
        problems.append(f"{GRID_HH}: kAttackNames array not found")
    axes = AXIS_RE.findall(read(root, GRID_CC))
    if not axes:
        problems.append(f"{GRID_CC}: no axis<...>(\"key\", ...) rows")
    columns = record_columns(read(root, RESULT_HH))
    if not columns:
        problems.append(f"{RESULT_HH}: no kRecordColumns rows")

    attacks_doc = read(root, ATTACKS_DOC)
    for name in sorted(names):
        anchor = f'<a id="attack-{name}"></a>'
        if anchor not in attacks_doc:
            problems.append(f"{ATTACKS_DOC}: missing anchor {anchor}")
    for key in axes:
        if not re.search(r"`" + re.escape(key) + r"[=`]", attacks_doc):
            problems.append(
                f"{ATTACKS_DOC}: sweep axis `{key}` is never mentioned "
                "in backticks")
    campaign_doc = read(root, CAMPAIGN_DOC)
    for column in columns:
        if f"`{column}`" not in campaign_doc:
            problems.append(
                f"{CAMPAIGN_DOC}: record column `{column}` is never "
                "mentioned in backticks")

    identifiers = design_identifiers(read(root, DESIGN_DOC))
    words = code_words(root)
    for name in sorted(identifiers - words):
        problems.append(
            f"{DESIGN_DOC}: `{name}` occurs nowhere in "
            f"{' or '.join(d + '/' for d in CODE_DIRS)}")

    for line in problems:
        print(line, file=sys.stderr)
    print(f"checked {len(names)} attacks, {len(axes)} sweep axes, "
          f"{len(columns)} record columns and {len(identifiers)} "
          f"{DESIGN_DOC} identifiers against {ATTACKS_DOC}, "
          f"{CAMPAIGN_DOC} and the code, {len(problems)} problem(s)")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
