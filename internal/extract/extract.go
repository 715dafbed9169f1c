// Package extract implements link extraction strategies: given a freshly
// dereferenced document, each extractor proposes further documents to
// traverse. The engine combines Solid-aware extractors (LDP containers,
// WebID profiles with pim:storage, Solid Type Indexes filtered by the
// query's classes — the structural assumptions of the paper's approach
// [14]) with Solid-agnostic reachability criteria (cMatch and cAll,
// Hartig & Freytag [19]).
package extract

import (
	"sort"

	"ltqp/internal/rdf"
)

// Document is a dereferenced document handed to extractors.
type Document struct {
	// IRI is the document's (final) URL.
	IRI string
	// Graph holds the parsed triples. The engine populates it only when an
	// extractor outside the built-in table-driven set is configured (see
	// NeedsGraph); it may be nil when Links is set.
	Graph *rdf.Graph
	// Links, when non-nil, is the document's precomputed link table. The
	// built-in extractors filter it; handed a bare Document{IRI, Graph}
	// they scan the graph into a table on the fly.
	Links *LinkTable
}

// table returns the document's link table, scanning the graph for the
// wanted section only when none was precomputed.
func (d Document) table(want section) *LinkTable {
	if d.Links != nil {
		return d.Links
	}
	return scan(d.Graph.Triples(), 1<<want)
}

// Link is a proposed traversal step.
type Link struct {
	// URL of the document to dereference (fragments stripped).
	URL string
	// Reason names the link's discovery label (stable identifiers used for
	// queue prioritization and the metrics waterfall). One extractor may
	// emit several labels — SolidProfile emits "solid-profile" and
	// "storage" links.
	Reason string
	// Extractor is the Name() of the extractor that produced the link,
	// used to label discovery edges in the traversal topology.
	Extractor string
	// Key, when set, is linkqueue.Normalize(URL), carried over from the
	// document's link table so the queue need not parse the URL again.
	Key string
}

// Extractor proposes links from a document.
type Extractor interface {
	// Name returns the extractor's stable identifier.
	Name() string
	// Extract returns proposed links; duplicates across extractors are
	// fine — the link queue deduplicates.
	Extract(doc Document) []Link
}

// QueryShape is what extractors know about the running query: the constant
// predicates, classes, and IRIs mentioned in its patterns. Query-driven
// extractors use it to prune traversal.
type QueryShape struct {
	// Predicates are the constant predicate IRIs of the query patterns.
	Predicates map[string]bool
	// Classes are the constant objects of rdf:type patterns.
	Classes map[string]bool
	// IRIs are all constant subject/object IRIs.
	IRIs map[string]bool
}

// link builds a Link from an IRI term, stripping the fragment; it returns
// false for terms target rejects.
func link(t rdf.Term, extractor, reason string) (Link, bool) {
	u, key, ok := target(t)
	if !ok {
		return Link{}, false
	}
	return Link{URL: u, Key: key, Reason: reason, Extractor: extractor}, true
}

// dedup removes duplicate URLs preserving order.
func dedup(links []Link) []Link {
	seen := map[string]bool{}
	out := links[:0]
	for _, l := range links {
		if !seen[l.URL] {
			seen[l.URL] = true
			out = append(out, l)
		}
	}
	return out
}

// The five extractors below are filters over a document's LinkTable: what
// each could follow is listed there once per document version, and Extract
// only selects what the query does follow.

// LDPContainer follows ldp:contains membership links, walking the document
// hierarchy of a pod (paper Listing 1).
type LDPContainer struct{}

// Name implements Extractor.
func (LDPContainer) Name() string { return "ldp-container" }

// Extract implements Extractor.
func (e LDPContainer) Extract(doc Document) []Link {
	return e.appendLinks(nil, doc.table(secLDP))
}

func (LDPContainer) appendLinks(dst []Link, t *LinkTable) []Link {
	return t.appendSection(dst, t.secs[secLDP], nil)
}

// SolidProfile follows the pod discovery links of a WebID profile document
// (paper Listing 2): pim:storage to the pod root and
// solid:publicTypeIndex to the type index.
type SolidProfile struct{}

// Name implements Extractor.
func (SolidProfile) Name() string { return "solid-profile" }

// Extract implements Extractor.
func (e SolidProfile) Extract(doc Document) []Link {
	return e.appendLinks(nil, doc.table(secProfile))
}

func (SolidProfile) appendLinks(dst []Link, t *LinkTable) []Link {
	return t.appendSection(dst, t.secs[secProfile], nil)
}

// TypeIndex follows solid:instance and solid:instanceContainer links from
// Solid Type Index registrations (paper Listing 3). When the query mentions
// constant classes, only registrations for those classes are followed —
// this is the class-pruning optimization of [14]; without class knowledge
// every registration is followed.
type TypeIndex struct {
	// Shape carries the query's classes; nil follows all registrations.
	Shape *QueryShape
}

// Name implements Extractor.
func (TypeIndex) Name() string { return "type-index" }

// Extract implements Extractor.
func (e TypeIndex) Extract(doc Document) []Link {
	return e.appendLinks(nil, doc.table(secTypeIndex))
}

func (e TypeIndex) appendLinks(dst []Link, t *LinkTable) []Link {
	return t.appendSection(dst, t.secs[secTypeIndex], e.Shape)
}

// SeeAlso follows rdfs:seeAlso and owl:sameAs data links.
type SeeAlso struct{}

// Name implements Extractor.
func (SeeAlso) Name() string { return "see-also" }

// Extract implements Extractor.
func (e SeeAlso) Extract(doc Document) []Link {
	return e.appendLinks(nil, doc.table(secSeeAlso))
}

func (SeeAlso) appendLinks(dst []Link, t *LinkTable) []Link {
	return t.appendSection(dst, t.secs[secSeeAlso], nil)
}

// CMatch is Hartig's cMatch reachability criterion: follow IRIs occurring
// in triples that could contribute to the query — i.e. triples whose
// predicate (or class, for rdf:type) is mentioned in the query.
type CMatch struct {
	Shape *QueryShape
}

// Name implements Extractor.
func (CMatch) Name() string { return "match" }

// Extract implements Extractor.
func (e CMatch) Extract(doc Document) []Link {
	if e.Shape == nil {
		return nil
	}
	return e.appendLinks(nil, doc.table(secMatch))
}

func (e CMatch) appendLinks(dst []Link, t *LinkTable) []Link {
	if e.Shape == nil {
		return dst
	}
	return t.appendSection(dst, t.secs[secMatch], e.Shape)
}

// AppendLinks appends to dst what every extractor proposes for doc, in
// extractor order, and returns the extended slice. It is Extract over the
// whole set without a slice per extractor: the built-in extractors append
// straight from doc.Links, so with a caller-owned dst a document costs no
// allocation. Any other extractor goes through its Extract method.
func AppendLinks(dst []Link, extractors []Extractor, doc Document) []Link {
	for _, ex := range extractors {
		dst = appendFrom(dst, ex, doc)
	}
	return dst
}

func appendFrom(dst []Link, ex Extractor, doc Document) []Link {
	if t := doc.Links; t != nil {
		// Concrete types, not an interface method: dst must not escape, or
		// the caller's buffer moves to the heap.
		switch e := ex.(type) {
		case SolidProfile:
			return e.appendLinks(dst, t)
		case TypeIndex:
			return e.appendLinks(dst, t)
		case LDPContainer:
			return e.appendLinks(dst, t)
		case CMatch:
			return e.appendLinks(dst, t)
		case SeeAlso:
			return e.appendLinks(dst, t)
		}
	}
	return append(dst, ex.Extract(doc)...)
}

// NeedsGraph reports whether any of the extractors reads Document.Graph:
// everything but the table-driven built-ins does.
func NeedsGraph(extractors []Extractor) bool {
	for _, ex := range extractors {
		if _, tableDriven := ex.(interface {
			appendLinks([]Link, *LinkTable) []Link
		}); !tableDriven {
			return true
		}
	}
	return false
}

// CAll is the cAll reachability criterion: follow every IRI in every
// position. It is the exhaustive baseline traversal; on an unbounded Web
// it does not terminate, so it is only usable against closed simulated
// environments (the extractor ablation benchmarks).
type CAll struct{}

// Name implements Extractor.
func (CAll) Name() string { return "all" }

// Extract implements Extractor.
func (CAll) Extract(doc Document) []Link {
	var out []Link
	for _, t := range doc.Graph.Triples() {
		for _, term := range [3]rdf.Term{t.S, t.P, t.O} {
			if l, ok := link(term, "all", "all"); ok {
				out = append(out, l)
			}
		}
	}
	return dedup(out)
}

// DefaultSolidSet is the paper's configuration: Solid-aware structural
// extractors, the cMatch criterion, and rdfs:seeAlso/owl:sameAs data links
// (Comunica's default link extraction actors).
func DefaultSolidSet(shape *QueryShape) []Extractor {
	return []Extractor{
		SolidProfile{},
		TypeIndex{Shape: shape},
		LDPContainer{},
		CMatch{Shape: shape},
		SeeAlso{},
	}
}

// Names lists extractor names, for configuration display.
func Names(es []Extractor) []string {
	out := make([]string, len(es))
	for i, e := range es {
		out[i] = e.Name()
	}
	sort.Strings(out)
	return out
}
