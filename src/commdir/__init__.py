"""commdir: mine proxy access logs into community web directories.

Pipeline, with the module behind each step: parse Common Log Format
records (``commdir.clf``), extract page references (``commdir.urls``),
classify them against a thematic taxonomy (``commdir.taxonomy``,
``commdir.classify``), cluster users into communities by usage similarity
(``commdir.community``), and prune the taxonomy into one scored directory
per community (``commdir.community``, reported by ``commdir.metrics``).
``commdir.artificial`` builds a taxonomy from the log's own sites, and
``commdir.cli`` runs the whole pipeline.

The package namespace holds only these modules: import a name from the
module that defines it, e.g. ``from commdir.clf import parse_stream``.
Importing ``commdir`` itself loads none of them.
"""

__version__ = "0.1.0"
