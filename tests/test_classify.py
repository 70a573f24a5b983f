import io
import random
from collections import Counter, defaultdict

from commdir import classify
from commdir.artificial import build_artificial_directory, profile_sites
from commdir.classify import (
    UNSPECIFIED,
    build_usage_vectors,
    classify_page,
    usage_vectors_tsv,
    user_key,
)
from commdir.clf import LogRecord, parse_line
from commdir.taxonomy import depth, load_taxonomy, make_taxonomy
from commdir.urls import PageRef, extract_page_ref, tokenize


def brute_force_classify(ref, tax):
    """Independent oracle: scan every category, no index, explicit ordering."""
    tokens = set(tokenize(ref))
    best = None
    for path in sorted(tax):
        overlap = len(tax[path].keywords & tokens)
        if overlap == 0:
            continue
        key = (depth(path), overlap)
        if best is None or key > best[0]:
            best = (key, path)
    return UNSPECIFIED if best is None else best[1]


def test_classify_xml_page(fixture_taxonomy):
    ref = PageRef("www.w3schools.com", ("xml",), "note.xml")
    assert classify_page(ref, fixture_taxonomy) == "Top/Computers/XML"


def test_classify_no_match_is_unspecified(fixture_taxonomy):
    ref = PageRef(None, (), "apache_pb.gif")
    assert classify_page(ref, fixture_taxonomy) == UNSPECIFIED


def test_deeper_category_wins():
    tax = load_taxonomy(io.StringIO("Top/A\tshared\nTop/A/B\tshared,deep\n"))
    ref = PageRef(None, ("shared",), "")
    assert classify_page(ref, tax) == "Top/A/B"


def test_tie_broken_by_overlap_size():
    tax = load_taxonomy(io.StringIO("Top/One\talpha,beta\nTop/Two\talpha,gamma\n"))
    ref = PageRef(None, ("alpha", "beta"), "")
    assert classify_page(ref, tax) == "Top/One"


def test_tie_broken_lexicographically():
    tax = load_taxonomy(io.StringIO("Top/Bbb\talpha\nTop/Aaa\talpha\n"))
    ref = PageRef(None, ("alpha",), "")
    assert classify_page(ref, tax) == "Top/Aaa"


def test_classify_matches_brute_force_oracle(fixture_taxonomy):
    rng = random.Random(99)
    vocab = ["xml", "html", "css", "asp", "search", "microsoft", "note",
             "cd", "imghp", "accounts", "contact", "downloads", "zzz", "qqq"]
    for _ in range(300):
        segs = rng.sample(vocab, rng.randint(0, 4))
        page = rng.choice(vocab) + rng.choice([".html", ".xml", ""])
        ref = PageRef(None, tuple(segs), page)
        assert classify_page(ref, fixture_taxonomy) == \
            brute_force_classify(ref, fixture_taxonomy)


def old_sorted_scan(ref, tax):
    """classify_page as it was: scan the overlapped paths in sorted order and
    keep the first with the strictly greatest (depth, overlap)."""
    tokens = tokenize(ref)
    if not tokens:
        return UNSPECIFIED
    overlap = {}
    for token in tokens:
        for path in tax.keyword_index.get(token, ()):
            overlap[path] = overlap.get(path, 0) + 1
    if not overlap:
        return UNSPECIFIED
    best_path, best_key = "", (-1, -1)
    for path in sorted(overlap):
        key = (depth(path), overlap[path])
        if key > best_key:
            best_key, best_path = key, path
    return best_path


def test_classify_equals_old_sorted_scan():
    # A small vocabulary over few short names makes ties on depth and on
    # overlap common.
    rng = random.Random(14)
    vocab = ["a", "b", "c", "d", "e", "f"]
    ties = 0
    for _ in range(200):
        entries = {}
        for _ in range(rng.randint(1, 8)):
            path = "Top/" + "/".join(rng.choice("xyz") for _ in range(rng.randint(1, 3)))
            entries[path] = (rng.sample(vocab, rng.randint(1, 3)), None)
        tax = make_taxonomy(entries)
        for _ in range(50):
            ref = PageRef(None, tuple(rng.sample(vocab, rng.randint(0, 4))), "")
            got = classify_page(ref, tax)
            assert got == old_sorted_scan(ref, tax), (entries, ref)
            tokens = set(tokenize(ref))
            keys = [(depth(p), len(c.keywords & tokens)) for p, c in tax.items()
                    if c.keywords & tokens]
            ties += bool(keys) and keys.count(max(keys)) > 1
    assert ties > 500


def test_user_key_prefers_authuser():
    rec = parse_line('127.0.0.1 - frank [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -')
    assert user_key(rec) == "frank@127.0.0.1"
    rec = parse_line('127.0.0.1 - - [10/Oct/2000:13:55:36 -0700] "GET /a HTTP/1.0" 200 -')
    assert user_key(rec) == "127.0.0.1"


def test_sample_usage_vector(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    assert len(vectors) == 1
    vec = vectors[0]
    assert vec.user == "frank@127.0.0.1"
    assert vec.total == 13
    # hand-classified from the 13 sample lines against the demo taxonomy
    assert vec.counts == {
        "Top/Computers/HTML": 2,
        "Top/Computers/XML": 3,
        "Top/Search": 3,
        "Top/Software": 3,
        UNSPECIFIED: 2,
    }


def test_empty_records_empty_vectors(fixture_taxonomy):
    assert build_usage_vectors([], fixture_taxonomy) == []


def test_two_users_partitioned(fixture_taxonomy):
    line = '{h} - - [10/Oct/2000:13:55:36 -0700] "GET /www.w3schools.com/xml/note.xml HTTP/1.0" 200 -'
    records = [parse_line(line.format(h=h)) for h in ("1.1.1.1", "2.2.2.2")] * 3
    vectors = build_usage_vectors(records, fixture_taxonomy)
    assert [v.user for v in vectors] == ["1.1.1.1", "2.2.2.2"]
    assert all(v.total == 3 for v in vectors)
    assert vectors[0].counts == vectors[1].counts == {"Top/Computers/XML": 3}


def test_mass_conservation(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    for vec in vectors:
        assert sum(vec.counts.values()) == vec.total
        assert all(n >= 1 for n in vec.counts.values())


def test_adding_keyword_never_decreases_count(sample_records, fixture_taxonomy):
    from commdir.taxonomy import add_or_update_category

    base = build_usage_vectors(sample_records, fixture_taxonomy)[0]
    cat = fixture_taxonomy["Top/Search"]
    widened = add_or_update_category(
        fixture_taxonomy, "Top/Search", cat.keywords | {"google"})
    after = build_usage_vectors(sample_records, widened)[0]
    assert after.counts["Top/Search"] >= base.counts["Top/Search"]
    # "google" captures the bare /www.google.co.in/ line that was unspecified
    assert after.counts["Top/Search"] == 4
    assert after.counts.get(UNSPECIFIED, 0) == 1


def test_vectors_tsv_shape(sample_records, fixture_taxonomy):
    vectors = build_usage_vectors(sample_records, fixture_taxonomy)
    text = usage_vectors_tsv(vectors)
    rows = [line.split("\t") for line in text.strip().split("\n")]
    assert all(len(r) == 3 for r in rows)
    assert sum(int(r[2]) for r in rows) == 13
    assert usage_vectors_tsv([]) == ""


def test_classification_ignores_record_order(sample_records, fixture_taxonomy):
    shuffled = list(sample_records)
    random.Random(5).shuffle(shuffled)
    assert build_usage_vectors(shuffled, fixture_taxonomy) == \
        build_usage_vectors(sample_records, fixture_taxonomy)


def test_every_key_is_taxonomy_path_or_unspecified(sample_records, fixture_taxonomy):
    for vec in build_usage_vectors(sample_records, fixture_taxonomy):
        for key in vec.counts:
            assert key == UNSPECIFIED or key in fixture_taxonomy


def test_local_only_user_appears_all_unspecified(fixture_taxonomy):
    rec = parse_line('9.9.9.9 - - [10/Oct/2000:13:55:36 -0700] "GET /just_local.bin HTTP/1.0" 200 -')
    vectors = build_usage_vectors([rec], fixture_taxonomy)
    assert vectors[0].counts == {UNSPECIFIED: 1}


def test_sample_refs_classify_as_expected(sample_records, fixture_taxonomy):
    expected = [
        UNSPECIFIED,        # /apache_pb.gif
        "Top/Software",     # /www.microsoft.com/
        "Top/Software",     # downloads/details.aspx
        "Top/Software",     # contact/contactus.html
        "Top/Search",       # google.co.in/search
        UNSPECIFIED,        # /www.google.co.in/ tokens {google, co} match nothing
        "Top/Search",       # imghp
        "Top/Search",       # accounts/ServiceLogin
        "Top/Computers/XML",
        "Top/Computers/XML",
        "Top/Computers/XML",
        "Top/Computers/HTML",
        "Top/Computers/HTML",
    ]
    got = [classify_page(extract_page_ref(r.resource), fixture_taxonomy)
           for r in sample_records]
    assert got == expected


def per_record_usage_vectors(records, tax):
    """Reference: classify every record on its own."""
    per_user = defaultdict(Counter)
    for rec in records:
        per_user[user_key(rec)][classify_page(extract_page_ref(rec.resource), tax)] += 1
    return [(user, dict(sorted(c.items())), sum(c.values())) for user, c in sorted(per_user.items())]


def seeded_records(rng, n, sample_records):
    """Records over few users and few resources, so both repeat heavily."""
    resources = [r.resource for r in sample_records] + [
        "/www.w3schools.com/xml/other.xml?q=1", "/www.google.com/search/x", "/", "/local/xml",
        "/WWW.W3SCHOOLS.COM/HTML/a.html", "/www.microsoft.com/software/html/x"]
    ts = sample_records[0].timestamp
    return [LogRecord(f"10.0.0.{rng.randrange(6)}", None, rng.choice([None, "ann", "bob"]),
                      ts, "GET", rng.choice(resources), "HTTP/1.0", 200, None)
            for _ in range(n)]


def test_usage_vectors_equal_per_record_reference(sample_records, fixture_taxonomy):
    rng = random.Random(5)
    for _ in range(50):
        records = seeded_records(rng, rng.randrange(1, 300), sample_records)
        got = [(v.user, v.counts, v.total)
               for v in build_usage_vectors(records, fixture_taxonomy)]
        assert got == per_record_usage_vectors(records, fixture_taxonomy)


def test_usage_vectors_classify_each_resource_once(sample_records, fixture_taxonomy,
                                                   monkeypatch):
    records = seeded_records(random.Random(9), 500, sample_records)
    calls, classified = Counter(), 0

    def counting_extract(resource):
        calls[resource] += 1
        return extract_page_ref(resource)

    def counting_classify(ref, tax):
        nonlocal classified
        classified += 1
        return classify_page(ref, tax)

    monkeypatch.setattr(classify, "extract_page_ref", counting_extract)
    monkeypatch.setattr(classify, "classify_page", counting_classify)
    build_usage_vectors(records, fixture_taxonomy)
    assert calls == Counter({r.resource for r in records})
    assert classified == len(calls)


def test_page_of_a_site_in_a_two_site_cluster_goes_to_its_own_node():
    # Every page of both sites holds the tokens a1..a5, which sort before the
    # site labels, so both nodes get exactly these five keywords: by keywords
    # alone, a page of www.bbb.org ties with the smaller path, www.aaa.org.
    pages = ["/www.aaa.org/a1/a2/a3/a4/a5.html", "/www.bbb.org/a1/a2/a3/a4/a5.html"]
    profiles = profile_sites(extract_page_ref(p) for p in pages)
    tax = build_artificial_directory([("www.aaa.org", "www.bbb.org")], profiles)
    nodes = ["Top/Cluster-1/www.aaa.org", "Top/Cluster-1/www.bbb.org"]
    assert [tax[n].keywords for n in nodes] == [{"a1", "a2", "a3", "a4", "a5"}] * 2
    assert [classify_page(extract_page_ref(p), tax) for p in pages] == nodes
    records = [LogRecord("10.0.0.1", None, None, "10/Oct/2000:13:55:36 -0700", "GET", p,
                         "HTTP/1.0", 200, None) for p in pages[1:] * 3]
    assert [(v.user, v.counts) for v in build_usage_vectors(records, tax)] == \
        [("10.0.0.1", {nodes[1]: 3})]


def test_listed_site_goes_to_its_category_over_a_deeper_keyword_match():
    tax = load_taxonomy(io.StringIO(
        "Top/News/www.example.com\n"
        "Top/Arts/Music/Jazz\texample,jazz\n"))
    ref = extract_page_ref("/www.example.com/jazz/example.html")
    assert brute_force_classify(ref, tax) == "Top/Arts/Music/Jazz"
    assert classify_page(ref, tax) == "Top/News/www.example.com"


def test_local_pages_and_unlisted_sites_keep_the_keyword_rule():
    tax = load_taxonomy(io.StringIO(
        "Top/News/www.example.com\tsport\n"
        "Top/Sport/Football/Results\tsport\n"
        "Top/Upper/WWW.EXAMPLE.ORG\n"))
    assert classify_page(extract_page_ref("/www.example.com/sport/x.html"), tax) == \
        "Top/News/www.example.com"
    for resource in ["/sport/x.html",                     # local page
                     "/example.com/sport/x.html",         # a part of a listed name
                     "/www.example.com.au/sport/x.html",  # a listed name and more
                     "/www.example.org/sport/x.html",     # listed in another case
                     "/www.other.com/sport/x.html"]:
        ref = extract_page_ref(resource)
        assert classify_page(ref, tax) == brute_force_classify(ref, tax) == \
            "Top/Sport/Football/Results", resource
    assert classify_page(extract_page_ref("/www.other.com/"), tax) == UNSPECIFIED


def test_site_listed_twice_goes_to_the_deepest_then_the_smallest_path():
    tax = load_taxonomy(io.StringIO(
        "Top/A/www.x.com\n"
        "Top/B/D/www.x.com\n"
        "Top/B/C/www.x.com\n"
        "Top/www.x.com\n"))
    assert classify_page(extract_page_ref("/www.x.com/a.html"), tax) == "Top/B/C/www.x.com"
    assert tax.site_index["www.x.com"] == "Top/B/C/www.x.com"
