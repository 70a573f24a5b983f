"""commdir: mine proxy access logs into community web directories.

Pipeline: parse Common Log Format records, extract page references,
classify them against a thematic taxonomy, cluster users into communities
by usage similarity, and prune the taxonomy into one scored directory per
community.
"""

from .artificial import SiteProfile, build_artificial_directory, cluster_sites, profile_sites
from .classify import (UNSPECIFIED, UsageVector, build_usage_vectors,
                       classify_page, usage_vectors_tsv, user_key)
from .clf import (DEFAULT_POLICY, FilterPolicy, LogRecord, LogStreamError,
                  ParseError, ParseOutcome, ParseReason, filter_records,
                  format_record, open_log, parse_line, parse_stream)
from .community import (Community, CommunityDirectory, ExplosionGuardError,
                        SimilarityGraph, build_community_directory, build_graph,
                        community_profile, directory_doc, directory_text,
                        find_communities)
from .metrics import build_report, coverage, report_json, report_text, shrinkage
from .taxonomy import (Category, Taxonomy, TaxonomyError, add_or_update_category,
                       ancestors, load_taxonomy, make_taxonomy, serialize_taxonomy)
from .urls import PageRef, extract_page_ref, strip_query, tokenize

__version__ = "0.1.0"
