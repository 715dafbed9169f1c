package rdf

import (
	"net/url"
	"strings"
)

// ResolveIRI resolves a possibly-relative IRI reference against a base IRI,
// per RFC 3986. It is used by the SPARQL parser and the pod builder; a
// caller resolving many references against one base keeps a Base instead.
// If resolution fails or base is empty, ref is returned unchanged.
func ResolveIRI(base, ref string) string {
	b := NewBase(base)
	return b.Resolve(ref, nil)
}

// Base resolves references against one base IRI: the base is parsed once,
// on the first relative reference, and the shapes documents are made of —
// "#fragment" and dot-free relative paths — are answered by concatenation,
// with net/url for the rest. The zero value is the empty base.
type Base struct {
	iri    string
	parsed bool
	u      *url.URL // nil if the base does not parse
	// doc and dir are set when the fast paths apply (see parse): the base
	// without its fragment, and up to the last '/' of its path.
	doc, dir string
}

// NewBase returns the resolver for base.
func NewBase(base string) Base { return Base{iri: base} }

// Resolve resolves ref. An absolute ref, and any ref against an empty base,
// is returned as is, without copying. The fast paths answer with cat(prefix,
// ref), so a caller decides where that string lives; nil concatenates on the
// heap.
func (b *Base) Resolve(ref string, cat func(a, b string) string) string {
	if ref == "" {
		return b.iri
	}
	if b.iri == "" || isAbsoluteIRI(ref) {
		return ref
	}
	if !b.parsed {
		b.parse()
	}
	if path, frag, hasFrag := strings.Cut(ref, "#"); b.doc != "" && (!hasFrag || frag != "" && plainRef(frag)) {
		prefix := ""
		switch {
		case path == "":
			prefix = b.doc
		case path[0] != '/' && path[0] != '.' && plainRef(path) && !strings.Contains(path, "/."):
			prefix = b.dir
		}
		if prefix != "" {
			if cat == nil {
				return prefix + ref
			}
			return cat(prefix, ref)
		}
	}
	if b.u == nil {
		return ref
	}
	r, err := url.Parse(ref)
	if err != nil {
		return ref
	}
	return b.u.ResolveReference(r).String()
}

// parse parses the base and decides whether the fast paths apply: they do
// when net/url would print the base's own scheme, authority, path and query
// back byte for byte — a hierarchical base that round-trips through
// url.Parse and whose path has no dot segment for resolution to remove.
func (b *Base) parse() {
	b.parsed = true
	u, err := url.Parse(b.iri)
	if err != nil {
		return
	}
	b.u = u
	path := u.EscapedPath()
	if u.Opaque != "" || u.Host == "" || u.ForceQuery || !strings.HasPrefix(path, "/") ||
		strings.Contains(path, "/.") || u.String() != b.iri {
		return
	}
	b.doc, _, _ = strings.Cut(b.iri, "#")
	end := strings.IndexByte(b.doc, '?')
	if end < 0 {
		end = len(b.doc)
	}
	b.dir = b.doc[:strings.LastIndexByte(b.doc[:end], '/')+1]
}

// plainRef reports whether s consists of characters net/url neither escapes
// nor gives meaning to in a path or fragment: unreserved characters and '/'.
func plainRef(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		if !(c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c >= '0' && c <= '9' ||
			c == '-' || c == '_' || c == '.' || c == '~' || c == '/') {
			return false
		}
	}
	return true
}

// isAbsoluteIRI reports whether s has a scheme component.
func isAbsoluteIRI(s string) bool {
	for i := 0; i < len(s); i++ {
		c := s[i]
		switch {
		case c == ':':
			return i > 0
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z':
			// scheme chars
		case i > 0 && (c >= '0' && c <= '9' || c == '+' || c == '-' || c == '.'):
			// scheme chars after first
		default:
			return false
		}
	}
	return false
}

// DocumentIRI returns the document URL for a term: the IRI with fragment and
// query stripped for IRIs, and "" for every other kind. Traversal operates
// on documents; this maps data-level IRIs (e.g. ...profile/card#me) to the
// dereferenceable documents that describe them.
func DocumentIRI(t Term) string {
	if t.Kind != TermIRI {
		return ""
	}
	iri := t.Value
	if i := strings.IndexByte(iri, '#'); i >= 0 {
		iri = iri[:i]
	}
	return iri
}

// SameDocument reports whether two IRIs refer to the same document
// (equal after stripping fragments).
func SameDocument(a, b string) bool {
	strip := func(s string) string {
		if i := strings.IndexByte(s, '#'); i >= 0 {
			return s[:i]
		}
		return s
	}
	return strip(a) == strip(b)
}

// IsHTTPIRI reports whether the IRI uses the http or https scheme, i.e. is
// dereferenceable by the engine.
func IsHTTPIRI(iri string) bool {
	return strings.HasPrefix(iri, "http://") || strings.HasPrefix(iri, "https://")
}
