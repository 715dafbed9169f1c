package extract

import (
	"sort"
	"testing"

	"ltqp/internal/rdf"
	"ltqp/internal/turtle"
)

func doc(t *testing.T, iri, body string) Document {
	t.Helper()
	triples, err := turtle.Parse(body, turtle.Options{Base: iri})
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	g := rdf.NewGraph()
	g.AddAll(triples)
	return Document{IRI: iri, Graph: g}
}

func urls(links []Link) []string {
	out := make([]string, len(links))
	for i, l := range links {
		out[i] = l.URL
	}
	sort.Strings(out)
	return out
}

func TestLDPContainer(t *testing.T) {
	d := doc(t, "https://pod.example/", `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> a ldp:Container, ldp:BasicContainer, ldp:Resource;
  ldp:contains <file.ttl>, <posts/>, <profile/>.
`)
	links := LDPContainer{}.Extract(d)
	got := urls(links)
	want := []string{
		"https://pod.example/file.ttl",
		"https://pod.example/posts/",
		"https://pod.example/profile/",
	}
	if len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Errorf("links = %v", got)
	}
	for _, l := range links {
		if l.Reason != "ldp-container" {
			t.Errorf("reason = %s", l.Reason)
		}
	}
}

func TestSolidProfile(t *testing.T) {
	d := doc(t, "https://pod.example/profile/card", `
PREFIX pim: <http://www.w3.org/ns/pim/space#>
PREFIX foaf: <http://xmlns.com/foaf/0.1/>
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<#me> foaf:name "Zulma";
  pim:storage </>;
  solid:oidcIssuer <https://solidcommunity.net/>;
  solid:publicTypeIndex </publicTypeIndex.ttl>.
`)
	links := SolidProfile{}.Extract(d)
	got := urls(links)
	if len(got) != 2 {
		t.Fatalf("links = %v", got)
	}
	if got[0] != "https://pod.example/" || got[1] != "https://pod.example/publicTypeIndex.ttl" {
		t.Errorf("links = %v", got)
	}
	// The OIDC issuer must NOT be followed (it is infrastructure).
	for _, u := range got {
		if u == "https://solidcommunity.net/" {
			t.Error("oidcIssuer should not be traversed")
		}
	}
}

const typeIndexDoc = `
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<> a solid:TypeIndex ; a solid:ListedDocument.
<#r1> a solid:TypeRegistration;
  solid:forClass <http://example.org/Post>;
  solid:instance </posts.ttl>.
<#r2> a solid:TypeRegistration;
  solid:forClass <http://example.org/Comment>;
  solid:instanceContainer </comments/>.
`

func TestTypeIndexUnfiltered(t *testing.T) {
	d := doc(t, "https://pod.example/publicTypeIndex.ttl", typeIndexDoc)
	links := TypeIndex{}.Extract(d)
	if got := urls(links); len(got) != 2 {
		t.Errorf("links = %v", got)
	}
}

func TestTypeIndexClassFiltered(t *testing.T) {
	d := doc(t, "https://pod.example/publicTypeIndex.ttl", typeIndexDoc)
	shape := &QueryShape{Classes: map[string]bool{"http://example.org/Post": true}}
	links := TypeIndex{Shape: shape}.Extract(d)
	got := urls(links)
	if len(got) != 1 || got[0] != "https://pod.example/posts.ttl" {
		t.Errorf("filtered links = %v (the Comment registration must be pruned)", got)
	}
	// Reasons distinguish instances from containers.
	d2 := doc(t, "https://pod.example/publicTypeIndex.ttl", typeIndexDoc)
	links2 := TypeIndex{Shape: &QueryShape{Classes: map[string]bool{"http://example.org/Comment": true}}}.Extract(d2)
	if len(links2) != 1 || links2[0].Reason != "type-index-container" {
		t.Errorf("container registration = %v", links2)
	}
}

func TestCMatchFollowsOnlyRelevant(t *testing.T) {
	d := doc(t, "https://pod.example/data", `
PREFIX ex: <http://example.org/>
<https://pods.example/a#m> ex:hasCreator <https://pods.example/u1/profile/card#me>.
<https://pods.example/b#x> ex:unrelated <https://pods.example/u2/profile/card#me>.
<https://pods.example/c#y> a ex:Post.
`)
	shape := &QueryShape{
		Predicates: map[string]bool{"http://example.org/hasCreator": true},
		Classes:    map[string]bool{"http://example.org/Post": true},
	}
	got := urls(CMatch{Shape: shape}.Extract(d))
	want := map[string]bool{
		"https://pods.example/a":               true,
		"https://pods.example/u1/profile/card": true,
		"https://pods.example/c":               true,
		"http://example.org/Post":              true,
	}
	for _, u := range got {
		if !want[u] {
			t.Errorf("unexpected link %s", u)
		}
	}
	for u := range want {
		found := false
		for _, g := range got {
			if g == u {
				found = true
			}
		}
		if !found {
			t.Errorf("missing link %s", u)
		}
	}
	// u2 must not be followed: its triple's predicate is irrelevant.
	for _, u := range got {
		if u == "https://pods.example/u2/profile/card" {
			t.Error("cMatch followed an irrelevant triple")
		}
	}
}

func TestCMatchNilShape(t *testing.T) {
	d := doc(t, "https://pod.example/data", `<http://a> <http://p> <http://b>.`)
	if got := (CMatch{}).Extract(d); got != nil {
		t.Errorf("nil shape should extract nothing, got %v", got)
	}
}

func TestCAllFollowsEverything(t *testing.T) {
	d := doc(t, "https://pod.example/data", `
PREFIX ex: <http://example.org/>
<http://s1> ex:p <http://o1>.
<http://s2> ex:q "literal".
`)
	got := urls(CAll{}.Extract(d))
	// s1, o1, s2, and the two predicates ex:p, ex:q.
	if len(got) != 5 {
		t.Errorf("links = %v", got)
	}
}

func TestSeeAlso(t *testing.T) {
	d := doc(t, "https://pod.example/data", `
PREFIX rdfs: <http://www.w3.org/2000/01/rdf-schema#>
PREFIX owl: <http://www.w3.org/2002/07/owl#>
<http://a> rdfs:seeAlso <http://more/data>.
<http://a> owl:sameAs <http://same/entity>.
`)
	got := urls(SeeAlso{}.Extract(d))
	if len(got) != 2 {
		t.Errorf("links = %v", got)
	}
}

func TestFragmentsAreStripped(t *testing.T) {
	d := doc(t, "https://pod.example/ti", `
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<#r> a solid:TypeRegistration;
  solid:forClass <http://example.org/Post>;
  solid:instance <https://pod.example/posts#section>.
`)
	links := TypeIndex{}.Extract(d)
	if len(links) != 1 || links[0].URL != "https://pod.example/posts" {
		t.Errorf("links = %v (fragment must be stripped)", links)
	}
}

func TestDefaultSolidSetAndNames(t *testing.T) {
	set := DefaultSolidSet(&QueryShape{})
	names := Names(set)
	want := []string{"ldp-container", "match", "see-also", "solid-profile", "type-index"}
	if len(names) != len(want) {
		t.Fatalf("names = %v", names)
	}
	for i := range want {
		if names[i] != want[i] {
			t.Errorf("names = %v, want %v", names, want)
		}
	}
}

func TestNonHTTPIRIsIgnored(t *testing.T) {
	d := doc(t, "https://pod.example/data", `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> ldp:contains <mailto:user@example.org>, <urn:uuid:123>, <https://ok.example/x>.
`)
	got := urls(LDPContainer{}.Extract(d))
	if len(got) != 1 || got[0] != "https://ok.example/x" {
		t.Errorf("links = %v", got)
	}
}

func TestTypeIndexScopedFollowsOnlyRegisteredContainers(t *testing.T) {
	e := &TypeIndexScoped{Shape: &QueryShape{Classes: map[string]bool{"http://example.org/Post": true}}}

	// Step 1: the type index registers posts/ for Post; comments/ is for
	// a class the query does not ask about.
	ti := doc(t, "https://pod.example/settings/ti", `
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<#r1> a solid:TypeRegistration;
  solid:forClass <http://example.org/Post>;
  solid:instanceContainer </posts/>.
<#r2> a solid:TypeRegistration;
  solid:forClass <http://example.org/Comment>;
  solid:instanceContainer </comments/>.
`)
	links := e.Extract(ti)
	if len(links) != 1 || links[0].URL != "https://pod.example/posts/" {
		t.Fatalf("registrations = %v", links)
	}

	// Step 2: the registered container's members are followed...
	posts := doc(t, "https://pod.example/posts/", `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> ldp:contains </posts/2010-01-01>, </posts/sub/>.
`)
	links = e.Extract(posts)
	if len(links) != 2 {
		t.Fatalf("container members = %v", links)
	}

	// ...including nested sub-containers, transitively.
	sub := doc(t, "https://pod.example/posts/sub/", `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> ldp:contains </posts/sub/doc>.
`)
	links = e.Extract(sub)
	if len(links) != 1 || links[0].URL != "https://pod.example/posts/sub/doc" {
		t.Fatalf("nested members = %v", links)
	}

	// Step 3: an unregistered container's members are NOT followed.
	noise := doc(t, "https://pod.example/noise/", `
PREFIX ldp: <http://www.w3.org/ns/ldp#>
<> ldp:contains </noise/n1>.
`)
	if links = e.Extract(noise); len(links) != 0 {
		t.Errorf("unregistered container followed: %v", links)
	}
}

func TestTypeIndexScopedName(t *testing.T) {
	if (&TypeIndexScoped{}).Name() != "type-index" {
		t.Error("name")
	}
}

func TestTypeIndexScopedInstanceLinks(t *testing.T) {
	e := &TypeIndexScoped{}
	ti := doc(t, "https://pod.example/ti", `
PREFIX solid: <http://www.w3.org/ns/solid/terms#>
<#r> a solid:TypeRegistration;
  solid:forClass <http://example.org/Post>;
  solid:instance </posts.ttl>.
`)
	links := e.Extract(ti)
	if len(links) != 1 || links[0].Reason != "type-index" {
		t.Errorf("instance links = %v", links)
	}
}

func TestNeedsGraphAndAppendLinksFallback(t *testing.T) {
	shape := &QueryShape{Predicates: map[string]bool{"http://ex/p": true}}
	if NeedsGraph(DefaultSolidSet(shape)) {
		t.Error("the default set is table-driven and must not need a graph")
	}
	for _, ex := range []Extractor{CAll{}, &TypeIndexScoped{Shape: shape}} {
		if !NeedsGraph(append(DefaultSolidSet(shape), ex)) {
			t.Errorf("%T reads Document.Graph", ex)
		}
	}
	// With a table and a graph, built-ins read the table and everything
	// else still goes through Extract, in extractor order.
	d := doc(t, "http://pod/doc", `<http://pod/a> <http://ex/p> <http://pod/b> .`)
	d.Links = Scan(d.Graph.Triples())
	got := AppendLinks(nil, []Extractor{CMatch{Shape: shape}, CAll{}}, d)
	var want []Link
	want = append(want, CMatch{Shape: shape}.Extract(d)...)
	want = append(want, CAll{}.Extract(d)...)
	if len(got) != len(want) || len(got) != 5 {
		t.Fatalf("AppendLinks = %+v, want %+v", got, want)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Errorf("link %d = %+v, want %+v", i, got[i], want[i])
		}
	}
}
