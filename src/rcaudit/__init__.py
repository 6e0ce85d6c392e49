"""rcaudit: reasoning audits for extractive question-answering models.

The toolkit evaluates extractive QA models beyond answer accuracy: it
checks whether predictions survive meaning-inverting question edits and
whether saliency attributions concentrate on the tokens a human-expected
reasoning process would use (comparison operators, coreference clusters).

The package imports none of its modules: import each name from the module
that defines it, so a process loads only what it uses. It defines the
command-line reader of both entry points (`rcaudit.cli` and the `remote:`
server, `rcaudit.gateway.remote`): `read_options` reads a line, raising
`UsageExit` for the help or a refusal, which `usage_exit` prints.
"""

from __future__ import annotations

import re
import sys

__version__ = "0.1.0"

# A token argparse takes as a negative number, not as an option.
_NEGATIVE_NUMBER = re.compile(r"^-\d+$|^-\d*\.\d+$")


class UsageExit(Exception):
    """A command line read no further: -h or --help (no message), or a
    refusal in argparse's words. `command` names the command whose flags
    were being read, if any."""

    command: str | None = None


def _is_option(token: str, options: dict) -> bool:
    """Whether argparse takes `token` as an option, known or not, not a word."""
    name = token.partition("=")[0]
    if name in options or name == "--help" or token.startswith("-h"):
        return True
    return token.startswith("-") and token != "-" and not (
        " " in token or _NEGATIVE_NUMBER.match(token))


def read_options(tokens, options: dict, rest: str | None = None) -> tuple[dict, list]:
    """`tokens` read in order, as argparse reads them: {dest: value}, and the
    tokens left unread. `options` maps each option, spelled in full, to
    (dest, type); `--name VALUE` or `--name=VALUE` sets dest to the typed
    value, a later pair winning. A VALUE token, unlike a value after `=`,
    may start with "-" only as a negative number, a lone "-" or with a space.
    Unknown options, words, and `--` with all after it are left unread, but
    with `rest` the first word and all after it are dest `rest`. -h or --help
    raises UsageExit(); a missing or mistyped value, or a help with a value,
    raises UsageExit with argparse's message."""
    values, unread = {}, []
    tokens = iter(tokens)
    for token in tokens:
        name, eq, value = token.partition("=")
        if token == "--":
            return values, [*unread, token, *tokens]
        if token in ("-h", "--help"):
            raise UsageExit()
        if token.startswith(("-h", "--help=")):
            explicit = value if eq else token[2:]
            raise UsageExit(f"argument -h/--help: ignored explicit argument {explicit!r}")
        if name not in options:
            if rest and not _is_option(token, options):
                return {**values, rest: [token, *tokens]}, unread
            unread.append(token)
            continue
        if not eq:
            value = next(tokens, None)
            if value is None or _is_option(value, options):
                raise UsageExit(f"argument {name}: expected one argument")
        dest, kind = options[name]
        try:
            values[dest] = kind(value)
        except ValueError:
            raise UsageExit(f"argument {name}: invalid {kind.__name__} value: {value!r}") from None
    return values, unread


def usage_exit(exc: UsageExit, prog: str, usage: str, description: str, sections: dict) -> int:
    """Print the help of `prog` (`usage`, the tokens after its `[-h]`; its
    description; each section, title -> {term: help}, with the helps in one
    column) and give exit code 0; or, for a refusal, print the usage and the
    refusal to stderr and give 2."""
    usage = f"usage: {prog} [-h] {usage}"
    if exc.args:
        print(usage, f"{prog}: error: {exc}", sep="\n", file=sys.stderr)
        return 2
    sections = {**sections, "options": {"-h, --help": "show this help message and exit",
                                        **sections["options"]}}
    width = max(len(term) for rows in sections.values() for term in rows) + 2
    lines = [usage, "", description]
    for title, rows in sections.items():
        lines += ["", f"{title}:", *(f"  {term:<{width}}{text}" for term, text in rows.items())]
    print("\n".join(lines))
    return 0
