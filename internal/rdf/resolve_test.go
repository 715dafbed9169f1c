package rdf

import (
	"math/rand"
	"net/url"
	"strings"
	"testing"
)

// refResolveIRI is ResolveIRI as it was before Base: both IRIs through
// net/url on every call. The reference for Base's string fast paths.
func refResolveIRI(base, ref string) string {
	if ref == "" {
		return base
	}
	if base == "" || isAbsoluteIRI(ref) {
		return ref
	}
	b, err := url.Parse(base)
	if err != nil {
		return ref
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return b.ResolveReference(r).String()
}

// TestBaseResolveEqualsReference is the property behind Base's string fast
// paths: over generated (base, ref) pairs — plain and hostile bases,
// fragments, dot segments, queries, network-path and absolute references,
// characters net/url escapes or rejects — Base.Resolve, through one Base
// reused for every ref of a base, and the one-shot ResolveIRI answer exactly
// what resolving both through net/url answers.
func TestBaseResolveEqualsReference(t *testing.T) {
	bases := []string{
		"", "https://pod.example/", "https://pod.example", "https://pod.example/profile/card",
		"https://pod.example/profile/card#me", "https://pod.example/a/b?q=1", "https://pod.example/a/b?q=/x/y",
		"https://pod.example/a/b?", "https://pod.example/a/b#", "http://127.0.0.1:8080/pods/0001/posts/2010-10-12",
		"http://user:pw@pod.example/a/", "HTTP://Pod.Example/A/b", "https://pod.example/a/./b/../c",
		"https://pod.example/.well-known/x", "https://pod.example//a//b", "https://pod.example/a%20b/c",
		"https://pod.example/a b/c", "https://pod.example/é/c", "https://pod.example/%zz/c", "http://[::1]:80/a/b",
		"mailto:someone@example.org", "urn:uuid:1234", "file:///tmp/x/y", "/no/scheme", "relative/base", "http://", "http://%",
		"://bad", "http://fuzz.example/doc",
	}
	pieces := []string{
		"", "#", "#me", "#a/b", "#a#b", "#é", "#a b", "#%41", "card", "card#me", "posts/", "posts/2010-10-12", "a//b",
		".", "..", "./", "../", "./posts.ttl", "../other", "a/./b", "a/../b", "a/..", "a/.", ".hidden", "a/.hidden", "...",
		"/", "/root.ttl", "/a/../b", "//cdn.example/y", "//", "?q", "?q=1#f", "a?q", "a?", "?",
		"http://other.example/x", "https:", "mailto:x@y", "a:b", "a/b:c", ":x", "1a:b", "é", "a b", "a%20b", "a%zz", "a%",
		"a~b_c-d.e", "a\\b", "a\"b", "a{b}", "a|b", "a^b", "a`b", "a<b", "\x00", "a\tb", "x;y=1", "x,y", "x@y", "x+y", "x=y", "x&y", "x$y", "x!y", "x*y", "x'y", "(x)", "[x]",
	}
	r := rand.New(rand.NewSource(7))
	alphabet := "ab./#?:%~-_ é\\{"
	for i := 0; i < 4000; i++ {
		var sb strings.Builder
		for n := r.Intn(8); n > 0; n-- {
			sb.WriteByte(alphabet[r.Intn(len(alphabet))])
		}
		pieces = append(pieces, sb.String())
	}
	// The caller-supplied concatenation sees every fast-path answer; ResolveIRI
	// passes none and concatenates on the heap.
	fast := 0
	cat := func(a, b string) string {
		fast++
		return a + b
	}
	for _, base := range bases {
		b := NewBase(base)
		for _, ref := range pieces {
			want := refResolveIRI(base, ref)
			if got, oneShot := b.Resolve(ref, cat), ResolveIRI(base, ref); got != want || oneShot != want {
				t.Errorf("Base(%q).Resolve(%q) = %q, ResolveIRI = %q, net/url gives %q", base, ref, got, oneShot, want)
			}
		}
	}
	if fast < 1000 {
		t.Errorf("only %d pairs took a fast path: the generator no longer exercises them", fast)
	}
}
