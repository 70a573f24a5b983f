import io
import math
import random

import pytest
from hypothesis import given, strategies as st

from commdir.community import Community, build_community_directory
from commdir.taxonomy import (
    MAX_DEPTH,
    ROOT,
    Category,
    Taxonomy,
    TaxonomyError,
    _KEYWORD_BREAKS,
    _field as checked_field,
    _validate_path,
    add_or_update_category,
    ancestors,
    depth,
    load_taxonomy,
    make_taxonomy,
    parent,
    serialize_taxonomy,
)

TWO_LEAF_FILE = "Top/Computers/XML\txml,xsl,dtd\t0.9\nTop/Computers/HTML\thtml,css\t0.9\n"


def load_str(text):
    return load_taxonomy(io.StringIO(text))


def test_load_auto_creates_ancestors():
    tax = load_str(TWO_LEAF_FILE)
    assert len(tax) == 4
    assert set(tax) == {"Top", "Top/Computers", "Top/Computers/HTML", "Top/Computers/XML"}
    assert tax["Top/Computers/XML"].keywords == {"xml", "xsl", "dtd"}
    assert tax["Top/Computers/XML"].weight == 0.9


def test_load_root_only():
    tax = load_str("Top\n")
    assert len(tax) == 1
    assert tax[ROOT].weight == 0.0


def test_duplicate_path_rejected():
    with pytest.raises(TaxonomyError, match="line 2: duplicate path 'Top/A'"):
        load_str("Top/A\nTop/A\tx\n")


def test_empty_file_rejected():
    for text in ("", "# just a comment\n", "\n   \n"):
        with pytest.raises(TaxonomyError, match="taxonomy file has no categories"):
            load_str(text)


def test_bad_weight_rejected():
    with pytest.raises(TaxonomyError, match=r"weight for 'Top/A' outside \[0, 1\]: 1\.5"):
        load_str("Top/A\tx\t1.5\n")
    with pytest.raises(TaxonomyError, match=r"weight for 'Top/A' outside \[0, 1\]: -0\.1"):
        load_str("Top/A\tx\t-0.1\n")
    with pytest.raises(TaxonomyError, match="line 1: bad weight 'heavy'"):
        load_str("Top/A\tx\theavy\n")


def test_unrooted_path_rejected():
    with pytest.raises(TaxonomyError, match="category path must be rooted at 'Top'"):
        load_str("Other/A\tx\n")
    with pytest.raises(TaxonomyError, match="category path has empty segment"):
        load_str("Top//A\tx\n")


def test_bad_line_shape_rejected():
    with pytest.raises(TaxonomyError, match="line 2: more than 3 columns"):
        load_str("Top/A\tx\nTop/B\tx\t0.5\textra\n")
    with pytest.raises(TaxonomyError, match="line 1: empty category path"):
        load_str("  \tx\n")


def test_taxonomy_must_be_rooted_and_closed():
    cat = Category(frozenset(), 0.5)
    with pytest.raises(TaxonomyError, match="taxonomy has no root category 'Top'"):
        Taxonomy({"Top/A": cat})
    with pytest.raises(TaxonomyError, match="category 'Top/A/B' has no parent 'Top/A'"):
        Taxonomy({ROOT: cat, "Top/A/B": cat})


def test_paths_deeper_than_max_depth_rejected():
    deep = ROOT + "/c" * MAX_DEPTH
    assert deep in make_taxonomy({deep: ((), None)})
    with pytest.raises(TaxonomyError, match=f"{MAX_DEPTH + 1} levels deep"):
        make_taxonomy({deep + "/c": ((), None)})
    with pytest.raises(TaxonomyError, match="levels deep"):
        add_or_update_category(load_str("Top\n"), deep + "/c", ["k"])


def test_negative_zero_weight_is_zero():
    tax = load_str("Top/A\tx\t-0\n")
    assert math.copysign(1.0, tax["Top/A"].weight) == 1.0
    assert serialize_taxonomy(tax) == "Top\nTop/A\tx\t0.0\n"
    tax = make_taxonomy({"Top/A": ((), -0.0)})
    assert math.copysign(1.0, tax["Top/A"].weight) == 1.0


def test_default_weights_are_depth_proportional():
    tax = load_str("Top/A/B/C\n")
    weights = {p: tax[p].weight for p in tax}
    assert weights == {"Top": 0.0, "Top/A": 1 / 3, "Top/A/B": 2 / 3, "Top/A/B/C": 1.0}


def test_explicit_weight_survives_default_recompute():
    tax = load_str("Top/A\tx\t0.25\nTop/B/C\ty\n")
    assert tax["Top/A"].weight == 0.25
    assert tax["Top/B"].weight == 0.5
    assert tax["Top/B/C"].weight == 1.0


def test_missing_columns_are_empty_and_every_column_is_stripped():
    tax = load_str("Top/A\t Foo , BAR ,,\t 0.5 \nTop/B\nTop/C\t\t\n")
    a, b, c = (tax[p] for p in ("Top/A", "Top/B", "Top/C"))
    assert (a.keywords, a.weight, a.explicit_weight) == ({"foo", "bar"}, 0.5, True)
    assert (b.keywords, b.weight, b.explicit_weight) == (frozenset(), 1.0, False)
    assert (c.keywords, c.weight, c.explicit_weight) == (frozenset(), 1.0, False)
    # str.strip() removes "\x1c", float() does not: the weight is parsed as written.
    with pytest.raises(TaxonomyError, match=r"line 1: bad weight '\\x1c0\.5'"):
        load_str("Top/A\tx\t\x1c0.5\n")


def test_comments_and_blank_lines_ignored():
    tax = load_str("# header\n\nTop/A\tx\n  \n# tail\n")
    assert set(tax) == {"Top", "Top/A"}


def test_add_category(fixture_taxonomy):
    tax = add_or_update_category(fixture_taxonomy, "Top/Search2", ["search", "imghp"])
    assert len(tax) == len(fixture_taxonomy) + 1


def test_update_keeps_count(fixture_taxonomy):
    tax = add_or_update_category(fixture_taxonomy, "Top/Computers/XML", ["xml"])
    assert len(tax) == len(fixture_taxonomy)
    assert tax["Top/Computers/XML"].keywords == {"xml"}


def test_add_deep_path_creates_chain():
    tax = load_str("Top\n")
    tax = add_or_update_category(tax, "Top/A/B/C", ["k"])
    assert len(tax) == 4


def test_add_updates_depth_defaults():
    tax = load_str("Top/A\n")
    assert tax["Top/A"].weight == 1.0
    tax = add_or_update_category(tax, "Top/A/B", [])
    assert tax["Top/A"].weight == 0.5
    assert tax["Top/A/B"].weight == 1.0


def test_add_bad_weight_rejected(fixture_taxonomy):
    with pytest.raises(TaxonomyError, match=r"weight for 'Top/X' outside \[0, 1\]"):
        add_or_update_category(fixture_taxonomy, "Top/X", [], weight=2.0)


def test_ancestors():
    assert ancestors("Top/Computers/XML") == ["Top", "Top/Computers"]
    assert ancestors("Top") == []
    assert ancestors("Top/A/B/C/D") == ["Top", "Top/A", "Top/A/B", "Top/A/B/C"]
    assert parent("Top") is None
    assert parent("Top/A/B") == "Top/A"


def test_depth_is_slash_count():
    tax = load_str(TWO_LEAF_FILE)
    assert depth("Top") == 0
    assert [depth(p) for p in tax] == [0, 1, 2, 2]


def test_serialize_round_trip(fixture_taxonomy):
    text = serialize_taxonomy(fixture_taxonomy)
    again = load_str(text)
    assert tuple(again) == tuple(fixture_taxonomy)
    for path in fixture_taxonomy:
        a, b = fixture_taxonomy[path], again[path]
        assert a.keywords == b.keywords
        assert a.weight == b.weight
    assert serialize_taxonomy(again) == text


def test_serialize_preserves_explicit_weights():
    tax = load_str("Top/A\tx\t0.3\nTop/B\ty\n")
    text = serialize_taxonomy(tax)
    again = load_str(text)
    assert again["Top/A"].explicit_weight
    assert not again["Top/B"].explicit_weight
    assert again["Top/A"].weight == 0.3


def test_walk_is_depth_first_with_sorted_children():
    tax = load_str("Top/B/Y\nTop/B/X\nTop/A\n")
    assert list(tax) == ["Top", "Top/A", "Top/B", "Top/B/X", "Top/B/Y"]
    assert [depth(p) for p in tax] == [0, 1, 1, 2, 2]


def test_walk_puts_a_subtree_before_siblings_that_sort_below_slash():
    tax = load_str("Top/A.b\nTop/A-B\nTop/A B\nTop/A/x\n")
    assert list(tax) == ["Top", "Top/A", "Top/A/x", "Top/A B", "Top/A-B", "Top/A.b"]
    assert [depth(p) for p in tax] == [0, 1, 2, 1, 1, 1]


# Segments with characters that sort below "/", for which preorder and
# string order of the paths differ.
_WALK_SEGMENTS = ("c0", "c1", "c2", "c3", "c0-", "c0 x", "c0.")


def random_taxonomy(rng):
    entries = {"/".join(["Top"] + rng.choices(_WALK_SEGMENTS, k=rng.randint(1, 4))): ((), None)
               for _ in range(rng.randint(0, 20))}
    return make_taxonomy(entries or {ROOT: ((), None)})


def random_within(rng, tax):
    """A random ancestor-closed subset of ``tax``."""
    within = set()
    for path in rng.sample(sorted(tax), rng.randint(0, len(tax))):
        within.update(ancestors(path), [path])
    return within


def children_map(tax):
    """Each path's children, sorted as strings."""
    kids = {p: [] for p in tax}
    for path in tax:
        if parent(path) is not None:
            kids[parent(path)].append(path)
    return {p: sorted(c) for p, c in kids.items()}


def old_walk(tax, within=None):
    """The explicit-stack walk over a children map, kept as an oracle."""
    kids = children_map(tax)
    stack = [(ROOT, 0)] if within is None or ROOT in within else []
    while stack:
        path, d = stack.pop()
        yield path, d
        stack.extend((c, d + 1) for c in reversed(kids[path])
                     if within is None or c in within)


def directory_of(tax, within):
    """The community directory that selects exactly ``within``: its paths
    weigh 1 and the others 0, and each leaf of it gets one hit."""
    weighted = make_taxonomy({p: ((), 1.0 if p in within else 0.0) for p in tax})
    leaves = [p for p in within if not any(parent(q) == p for q in within)]
    community = Community(("u",), dict.fromkeys(leaves, 1), len(leaves))
    return build_community_directory(weighted, community, 1e-9)


def test_walk_within_visits_only_an_ancestor_closed_subset():
    rng = random.Random(18)
    for _ in range(300):
        tax = random_taxonomy(rng)
        within = random_within(rng, tax)
        selected = directory_of(tax, within).selected
        assert list(selected) == [p for p in tax if p in within]
        assert list(directory_of(tax, set()).selected) == []


def test_walk_matches_old_stack_walk():
    rng = random.Random(19)
    for _ in range(400):
        tax = random_taxonomy(rng)
        assert [(p, depth(p)) for p in tax] == list(old_walk(tax))
        within = random_within(rng, tax)
        selected = directory_of(tax, within).selected
        assert [(p, depth(p)) for p in selected] == list(old_walk(tax, within))


def test_load_file_ignores_byte_order_mark(tmp_path):
    path = tmp_path / "bom.tsv"
    path.write_bytes("\ufeffTop/A\tx\nTop/B\ty\n".encode("utf-8"))
    assert load_taxonomy(path) == load_str("Top/A\tx\nTop/B\ty\n")


def test_keyword_index_maps_tokens_to_paths(fixture_taxonomy):
    index = fixture_taxonomy.keyword_index
    assert index["xml"] == ("Top/Computers/XML",)
    assert "nonexistent" not in index


_SEGMENTS = st.lists(st.text(alphabet="abcXYZ0123456789", min_size=1, max_size=5),
                     min_size=0, max_size=4)


@given(st.lists(_SEGMENTS, min_size=1, max_size=6))
def test_ancestor_closure_always_holds(path_segments):
    entries = {"/".join(["Top"] + segs): ((), None) for segs in path_segments}
    tax = make_taxonomy(entries)
    for path in tax:
        for anc in ancestors(path):
            assert anc in tax


# Characters the file format gives a meaning to, blanks str.strip removes,
# and line breaks that only str.splitlines (not file reading) honours. Most
# fields keep those inside, where the format can hold the ones other than
# tab, CR, LF (and comma in a keyword); the rest may hold them anywhere.
_ANY_TEXT = st.text(alphabet="aB/,#\t\r\n \x0b\x85\u2028", max_size=5)


def _field(inner: str):
    held = st.builds("{}{}{}".format, st.sampled_from("aB#"),
                     st.text(alphabet=inner, max_size=3), st.sampled_from("aB"))
    return st.one_of([held] * 6 + [_ANY_TEXT])


_PATHS = st.lists(_field("aB#, \x0b\x85\u2028"), min_size=1, max_size=3).map(
    lambda segs: "/".join(["Top"] + segs))
_KEYWORDS = st.lists(_field("aB# \x0b\x85\u2028"), max_size=2)


def three_branch_serialize_taxonomy(tax):
    """serialize_taxonomy as it was, with one line shape per kind of
    category: the oracle of the one shape with its empty columns stripped."""
    lines = []
    for path, cat in tax.items():
        kws = ",".join(sorted(cat.keywords))
        if cat.explicit_weight:
            lines.append(f"{path}\t{kws}\t{cat.weight!r}")
        elif kws:
            lines.append(f"{path}\t{kws}")
        else:
            lines.append(path)
    return "\n".join(lines) + "\n"


@given(st.dictionaries(_PATHS, st.tuples(_KEYWORDS, st.none() | st.floats(0.0, 1.0)),
                       min_size=1, max_size=3))
def test_every_taxonomy_make_taxonomy_accepts_reads_back(entries):
    try:
        tax = make_taxonomy(entries)
    except TaxonomyError:
        return
    text = serialize_taxonomy(tax)
    assert text == three_branch_serialize_taxonomy(tax)
    # Read as a file is read: UTF-8 with universal newlines.
    again = load_taxonomy(io.TextIOWrapper(io.BytesIO(text.encode("utf-8")), encoding="utf-8"))
    assert again == tax
    assert [c.explicit_weight for c in again.values()] == \
        [c.explicit_weight for c in tax.values()]


def two_pass_make_taxonomy(entries):
    """make_taxonomy as it was when it checked every path first and filled
    in the ancestors in a second pass: the oracle of the one-pass fill."""
    filled = {}
    for path, entry in entries.items():
        _validate_path(path)
        filled[path] = entry
    for path in list(filled):
        for anc in ancestors(path):
            filled.setdefault(anc, ((), None))
    filled.setdefault(ROOT, ((), None))
    max_d = max(depth(p) for p in filled)
    cats = {}
    for path, (keywords, weight) in filled.items():
        checked_field("category path", path)
        kwset = frozenset(checked_field("keyword", str(k), _KEYWORD_BREAKS).lower()
                          for k in keywords)
        if weight is None:
            cats[path] = Category(kwset, depth(path) / max_d if max_d else 0.0)
        else:
            w = float(weight) or 0.0
            if not 0.0 <= w <= 1.0:
                raise TaxonomyError(f"weight for {path!r} outside [0, 1]: {weight!r}")
            cats[path] = Category(kwset, w, explicit_weight=True)
    return Taxonomy(cats)


@given(st.dictionaries(_PATHS | st.sampled_from(["Top", "top/a", "Top//a", "Top/a/"]),
                       st.tuples(_KEYWORDS, st.none() | st.floats(-0.5, 1.5)),
                       min_size=1, max_size=4))
def test_make_taxonomy_matches_two_pass_oracle(entries):
    try:
        expected = two_pass_make_taxonomy(entries)
    except TaxonomyError:
        with pytest.raises(TaxonomyError):
            make_taxonomy(entries)
        return
    tax = make_taxonomy(entries)
    assert list(tax.items()) == list(expected.items())
    assert [c.explicit_weight for c in tax.values()] == \
        [c.explicit_weight for c in expected.values()]


@pytest.mark.parametrize("path,keyword", [
    ("Top/A\nB", "x"), ("Top/A\tB", "x"), ("Top/A\rB", "x"), ("Top/A ", "x"), ("Top/A /B", "x"),
    ("Top/A", "x\ny"), ("Top/A", "x\ty"), ("Top/A", " x"), ("Top/A", ""), ("Top/A", "x,y"),
])
def test_fields_the_file_format_cannot_hold_are_rejected(path, keyword):
    with pytest.raises(TaxonomyError) as exc:
        make_taxonomy({path: ([keyword], None)})
    assert "\n" not in str(exc.value)
