
import dataclasses
import random
import re

import pytest
from hypothesis import example, given, strategies as st

from commdir.urls import (
    PageRef,
    extract_page_ref,
    strip_query,
    tokenize,
)


@pytest.mark.parametrize("resource,expected", [
    ("/www.google.co.in/search?client=opera&rls=en", "/www.google.co.in/search"),
    ("/a/b/c.html", "/a/b/c.html"),
    ("/x?a=1#frag", "/x"),
    ("/x#frag?a=1", "/x"),
])
def test_strip_query(resource, expected):
    assert strip_query(resource) == expected


def old_strip_query(resource):
    """strip_query as it was: cut at the smaller of the two find() positions."""
    q = resource.find("?")
    h = resource.find("#")
    if q < 0:
        cut = h
    elif h < 0:
        cut = q
    else:
        cut = min(q, h)
    return resource if cut < 0 else resource[:cut]


def test_strip_query_equals_find_min_reference():
    rng = random.Random(14)
    for _ in range(20_000):
        resource = "".join(rng.choice("a?#/") for _ in range(rng.randint(0, 8)))
        assert strip_query(resource) == old_strip_query(resource), repr(resource)


def test_extract_site_dir_page():
    ref = extract_page_ref("/www.w3schools.com/xml/note.xml")
    assert ref.site == "www.w3schools.com"
    assert ref.directories == ("xml",)
    assert ref.page == "note.xml"


def test_extract_nested_directories():
    ref = extract_page_ref("/www.microsoft.com/contact/contactus.html")
    assert (ref.site, ref.directories, ref.page) == \
        ("www.microsoft.com", ("contact",), "contactus.html")


def test_underscore_breaks_hostname_grammar():
    ref = extract_page_ref("/apache_pb.gif")
    assert ref.site is None
    assert ref.directories == ()
    assert ref.page == "apache_pb.gif"


def test_trailing_slash_means_empty_page():
    ref = extract_page_ref("/www.microsoft.com/")
    assert (ref.site, ref.directories, ref.page) == ("www.microsoft.com", (), "")


def test_bare_slash_is_empty_local_ref():
    ref = extract_page_ref("/")
    assert (ref.site, ref.directories, ref.page) == (None, (), "")


@pytest.mark.parametrize("resource", ["", "/", "?q", "#f"])
def test_empty_path_is_empty_local_ref(resource):
    assert extract_page_ref(resource) == PageRef(None, (), "")


def test_query_stripped_and_lowercased():
    ref = extract_page_ref("/WWW.Example.COM/Dir/Page.HTML?Q=1")
    assert (ref.site, ref.directories, ref.page) == \
        ("www.example.com", ("dir",), "page.html")


def test_page_ref_equality_ignores_query():
    assert extract_page_ref("/a.com/x.html?1") == extract_page_ref("/a.com/x.html?2")


def test_single_label_is_not_a_site():
    ref = extract_page_ref("/localhost/admin/index.html")
    assert ref.site is None
    assert ref.directories == ("localhost", "admin")


# The hostname test before the grammar became one pattern, kept as its oracle.
_HOST_LABEL = re.compile(r"[a-z0-9-]+\Z")


def _is_hostname(segment: str) -> bool:
    # Purely syntactic: >= 2 dot-separated labels of [a-z0-9-]. No TLD list,
    # no DNS; misdetections land in site=None and are excluded from mining.
    labels = segment.split(".")
    return len(labels) >= 2 and all(_HOST_LABEL.match(l) for l in labels)


def test_hostname_pattern_equals_label_loop():
    # Segments of dots and label characters, 3 in 10 of them with one
    # character outside the labels' alphabet: "_", a blank, a newline, an
    # upper-case letter, non-ASCII letters and digits ("\u212a" lowers to "k").
    rng = random.Random(17)
    odd = "_ \nA\u00e9\u0131\u0661\u212a"
    sites = 0
    for _ in range(100_000):
        segment = "".join(rng.choices("ab-z09.", k=rng.randint(0, 10)))
        if rng.random() < 0.3:
            i = rng.randrange(len(segment) + 1)
            segment = segment[:i] + rng.choice(odd) + segment[i + 1:]
        lowered = segment.lower()
        expected = lowered if _is_hostname(lowered) else None
        assert extract_page_ref(f"/{segment}/p").site == expected, repr(segment)
        sites += expected is not None
    assert 10_000 < sites < 90_000


@pytest.mark.parametrize("ref,expected", [
    (PageRef("www.w3schools.com", ("xml",), "note.xml"), {"w3schools", "xml", "note"}),
    (PageRef(None, (), "apache_pb.gif"), {"apache", "pb"}),
    (PageRef("www.google.co.in", (), ""), {"google", "co"}),
])
def test_tokenize_examples(ref, expected):
    assert set(tokenize(ref)) == expected


def test_tokenize_counts_repeats():
    ref = PageRef("www.xml.example.com", ("xml",), "xml_intro.html")
    assert tokenize(ref)["xml"] == 3


def test_page_ref_is_frozen():
    ref = extract_page_ref("/www.a.com/x/p.html")
    with pytest.raises(dataclasses.FrozenInstanceError):
        ref.site = "www.b.com"
    assert extract_page_ref("/www.a.com/x/p.html").site == "www.a.com"


def test_tokenize_drops_www_and_suffix_only():
    assert set(tokenize(PageRef("news.bbc.co.uk", (), ""))) == {"news", "bbc", "co"}
    assert set(tokenize(PageRef("www.com", (), ""))) == set()


def canonical_path(ref):
    """Rejoin a reference into its canonical query-stripped, lowercased path:
    the round-trip witness of extract_page_ref."""
    parts = [] if ref.site is None else [ref.site]
    parts.extend(ref.directories)
    parts.append(ref.page)
    return "/" + "/".join(parts)


def test_sample_lines_rejoin_and_are_idempotent(sample_records):
    for rec in sample_records:
        ref = extract_page_ref(rec.resource)
        assert canonical_path(ref) == strip_query(rec.resource).lower()
        again = extract_page_ref(canonical_path(ref))
        assert (again.site, again.directories, again.page) == \
            (ref.site, ref.directories, ref.page)


_RESOURCE_ALPHABET = "abcdefghijXYZ0123456789/.-_%?#&=~"


@given(st.text(alphabet=_RESOURCE_ALPHABET, min_size=0, max_size=40))
def test_tokens_are_lowercase_alnum(path_tail):
    ref = extract_page_ref("/" + path_tail)
    for token, count in tokenize(ref).items():
        assert count >= 1
        assert token
        assert all(c in "abcdefghijklmnopqrstuvwxyz0123456789" for c in token)


@given(st.text(alphabet=_RESOURCE_ALPHABET, min_size=0, max_size=40))
@example("/0.0")  # a second leading slash used to make the site a directory
@example("//www.a.com/x/p.html")
def test_extract_is_idempotent(path_tail):
    ref = extract_page_ref("/" + path_tail)
    assert ref.directories == tuple(s for s in ref.directories if s)
    again = extract_page_ref(canonical_path(ref))
    assert (again.site, again.directories, again.page) == \
        (ref.site, ref.directories, ref.page)
