"""rcaudit: reasoning audits for extractive question-answering models.

The toolkit evaluates extractive QA models beyond answer accuracy: it
checks whether predictions survive meaning-inverting question edits and
whether saliency attributions concentrate on the tokens a human-expected
reasoning process would use (comparison operators, coreference clusters).

The package imports none of its modules: import each name from the module
that defines it, so a process loads only what it uses. It defines one
function, `read_options`, with which both entry points (`rcaudit.cli` and
the `remote:` server, `rcaudit.gateway.remote`) read their command lines.
"""

from __future__ import annotations

import re

__version__ = "0.1.0"

# A token argparse takes as a negative number, not as an option.
_NEGATIVE_NUMBER = re.compile(r"-\d+|-\d*\.\d+")


def read_options(tokens, options: dict) -> dict | None:
    """`tokens` read as `--name VALUE` and `--name=VALUE` pairs into
    {dest: value}, each name spelled in full as a key of `options` (option
    string -> (dest, type)) and each value converted by that type; a later
    pair wins. A VALUE may start with "-" only as a negative number, which
    is argparse's rule for a VALUE token. Any other tokens, or a value its
    type refuses, give None: an entry point leaves such a line to argparse,
    which prints the help, or the usage and the error, in its own words."""
    values = {}
    i = 0
    while i < len(tokens):
        name, eq, value = tokens[i].partition("=")
        if not eq:
            if i + 1 == len(tokens):
                return None
            i += 1
            value = tokens[i]
        i += 1
        if name not in options or value.startswith("-") and not _NEGATIVE_NUMBER.fullmatch(value):
            return None
        dest, kind = options[name]
        try:
            values[dest] = kind(value)
        except ValueError:
            return None
    return values
