"""rcaudit: reasoning audits for extractive question-answering models.

The toolkit evaluates extractive QA models beyond answer accuracy: it
checks whether predictions survive meaning-inverting question edits and
whether saliency attributions concentrate on the tokens a human-expected
reasoning process would use (comparison operators, coreference clusters).

The package imports none of its modules: import each name from the module
that defines it, so a process loads only what it uses.
"""

__version__ = "0.1.0"
