package extract

import (
	"sync"

	"ltqp/internal/linkqueue"
	"ltqp/internal/rdf"
)

// LinkTable is the query-independent half of link extraction for one
// document: every IRI a built-in extractor could follow, validated and
// normalized once, in the order the extractor would emit it. The links of a
// document are a property of the document; only which of them a query
// follows depends on the query. The dereferencer therefore builds the table
// once per document version (Scan) and the built-in extractors merely
// filter it against the QueryShape — no rdf.Graph, no URL parsing and no
// per-call dedup set on the per-query path.
//
// A table is immutable after Scan and safe for concurrent readers. It
// refers to the triple slice it was scanned from, which must not change.
type LinkTable struct {
	triples []rdf.Triple
	// One section per built-in extractor, each in that extractor's emission
	// order, all five views of one backing array. The profile, LDP and
	// see-also sections do not depend on the query and are stored already
	// deduplicated; the type-index and match sections keep every candidate
	// and are deduplicated while filtering (see appendSection).
	secs [numSections][]tableLink
}

// tableLink is one followable IRI occurrence.
type tableLink struct {
	// url is the target document: fragment stripped, http(s), parses with a
	// host. key is linkqueue.Normalize(url), the queue's dedup key.
	url, key string
	// tri indexes the triple that decides whether a query follows the link:
	// for match links the triple the IRI occurs in, for type-index links
	// the registration's first solid:forClass triple (-1: none with an IRI
	// class, always followed). Unused in the other sections.
	tri int32
	// prev is the previous entry of the section with the same url, -1 if
	// none: the chain first-occurrence dedup walks.
	prev  int32
	label label
	// mk numbers a match entry's matchKey, from 1, in the document; 0 for
	// other entries and past memoKeys-1 keys. See decide.
	mk uint8
}

// matchKey is what cMatch reads of a triple: the predicate, and the class
// of an rdf:type triple with an IRI object. Entries with one key are
// followed alike, so appendSection asks the shape once per key, for the
// first memoKeys-1 keys of a document.
type matchKey struct{ p, class string }

const memoKeys = 64

// label names the (Reason, Extractor) pair a link is reported under.
type label uint8

const (
	labelProfile label = iota
	labelStorage
	labelTypeIndex
	labelTypeIndexContainer
	labelLDP
	labelMatch
	labelSeeAlso
)

var labels = [...]struct{ reason, extractor string }{
	labelProfile:            {"solid-profile", "solid-profile"},
	labelStorage:            {"storage", "solid-profile"},
	labelTypeIndex:          {"type-index", "type-index"},
	labelTypeIndexContainer: {"type-index-container", "type-index"},
	labelLDP:                {"ldp-container", "ldp-container"},
	labelMatch:              {"match", "match"},
	labelSeeAlso:            {"see-also", "see-also"},
}

func (e *tableLink) link() Link {
	l := labels[e.label]
	return Link{URL: e.url, Key: e.key, Reason: l.reason, Extractor: l.extractor}
}

// section indexes the sections of a table, one per built-in extractor.
type section uint8

const (
	secProfile section = iota
	secTypeIndex
	secLDP
	secMatch
	secSeeAlso
	numSections
)

const owlSameAs = "http://www.w3.org/2002/07/owl#sameAs"

var (
	rdfTypeTerm          = rdf.NewIRI(rdf.RDFType)
	typeRegistrationTerm = rdf.NewIRI(rdf.SolidTypeRegistration)
	forClassTerm         = rdf.NewIRI(rdf.SolidForClass)
	instanceTerm         = rdf.NewIRI(rdf.SolidInstance)
	instanceContainer    = rdf.NewIRI(rdf.SolidInstanceContainer)
)

// Scan builds the link table of a document from its triples. The slice is
// retained, not copied.
func Scan(triples []rdf.Triple) *LinkTable { return scan(triples, 1<<numSections-1) }

// builder is the scratch a scan fills the sections in before copying them
// into the table. Scans take it from a pool, so building a table allocates
// the table and the one array behind its sections, and nothing per link.
type builder struct {
	want uint8 // bit s set: fill section s
	secs [numSections][]tableLink
	// latest finds a URL's row in lasts: per section, the index of the URL's
	// latest entry there, -1 if none — what chains equal URLs.
	latest map[string]int32
	lasts  [][numSections]int32
	regs   []rdf.Term // type registrations, in first-occurrence order
	keys   map[matchKey]uint8
}

var builders = sync.Pool{New: func() any { return &builder{latest: map[string]int32{}, keys: map[matchKey]uint8{}} }}

// add appends t's document to section sec as a link if t is a
// dereferenceable IRI. With keepDuplicates false an URL already in the
// section is dropped, which is first-occurrence dedup for sections no query
// filters.
func (b *builder) add(sec section, t rdf.Term, lb label, tri int, keepDuplicates bool) {
	if b.want&(1<<sec) == 0 {
		return
	}
	u, key, ok := target(t)
	if !ok {
		return
	}
	row, known := b.latest[u]
	if !known {
		row = int32(len(b.lasts))
		b.latest[u] = row
		b.lasts = append(b.lasts, [numSections]int32{-1, -1, -1, -1, -1})
	}
	last := &b.lasts[row][sec]
	if *last >= 0 && !keepDuplicates {
		return
	}
	links := b.secs[sec]
	b.secs[sec] = append(links, tableLink{url: u, key: key, tri: int32(tri), prev: *last, label: lb})
	*last = int32(len(links))
}

// table copies the sections into one exactly-sized array behind a new
// table, and returns the builder to the pool emptied.
func (b *builder) table(triples []rdf.Triple) *LinkTable {
	n := 0
	for _, links := range b.secs {
		n += len(links)
	}
	all := make([]tableLink, n)
	t := &LinkTable{triples: triples}
	n = 0
	for i, links := range b.secs {
		t.secs[i] = all[n : n+len(links) : n+len(links)]
		copy(t.secs[i], links)
		n += len(links)
		clear(links) // drop the strings, so the pool pins no document
		b.secs[i] = links[:0]
	}
	clear(b.latest)
	clear(b.keys)
	clear(b.regs)
	b.lasts, b.regs = b.lasts[:0], b.regs[:0]
	builders.Put(b)
	return t
}

// target maps a term to the document a link to it would fetch: ok is false
// for anything but http(s) IRIs, and for IRIs that do not parse or have no
// host ("http://", "http://%"), which can never dereference — hostile
// documents use such IRIs to clog the queue with guaranteed-dead fetches.
func target(t rdf.Term) (u, key string, ok bool) {
	if t.Kind != rdf.TermIRI || !rdf.IsHTTPIRI(t.Value) {
		return "", "", false
	}
	u = rdf.DocumentIRI(t)
	key, ok = linkqueue.Key(u)
	return u, key, ok
}

// scan builds a table with the sections whose bits are set in want.
func scan(triples []rdf.Triple, want uint8) *LinkTable {
	b := builders.Get().(*builder)
	b.want = want
	for i := range triples {
		t := &triples[i]
		if t.P.Kind != rdf.TermIRI {
			continue
		}
		switch t.P.Value {
		case rdf.SolidPublicTypeIndex:
			b.add(secProfile, t.O, labelProfile, i, false)
		case rdf.PIMStorage:
			b.add(secProfile, t.O, labelStorage, i, false)
		case rdf.LDPContains:
			b.add(secLDP, t.O, labelLDP, i, false)
		case rdf.RDFSSeeAlso, owlSameAs:
			b.add(secSeeAlso, t.O, labelSeeAlso, i, false)
		case rdf.RDFType:
			if want&(1<<secTypeIndex) != 0 && t.P == rdfTypeTerm && t.O == typeRegistrationTerm && !containsTerm(b.regs, t.S) {
				b.regs = append(b.regs, t.S)
			}
		}
		n := len(b.secs[secMatch])
		b.add(secMatch, t.S, labelMatch, i, true)
		b.add(secMatch, t.O, labelMatch, i, true)
		if added := b.secs[secMatch][n:]; len(added) > 0 {
			mk := b.matchKey(t)
			for j := range added {
				added[j].mk = mk
			}
		}
	}
	b.scanTypeIndex(triples)
	return b.table(triples)
}

// matchKey returns the number of t's match key (see tableLink.mk), giving
// the next one to a key not seen before in this document.
func (b *builder) matchKey(t *rdf.Triple) uint8 {
	k := matchKey{p: t.P.Value}
	if t.P.Value == rdf.RDFType && t.O.Kind == rdf.TermIRI {
		k.class = t.O.Value
	}
	mk, ok := b.keys[k]
	if !ok && len(b.keys) < memoKeys-1 {
		mk = uint8(len(b.keys) + 1)
		b.keys[k] = mk
	}
	return mk
}

// scanTypeIndex lists, registration by registration, the instance links and
// then the instance-container links of a Solid type index (paper Listing
// 3), each tied to the registration's solid:forClass triple.
func (b *builder) scanTypeIndex(triples []rdf.Triple) {
	for _, reg := range b.regs {
		forClass := -1
		for i := range triples {
			if t := &triples[i]; t.S == reg && t.P == forClassTerm {
				if t.O.Kind == rdf.TermIRI {
					forClass = i
				}
				break // only the first solid:forClass counts
			}
		}
		for i := range triples {
			if t := &triples[i]; t.S == reg && t.P == instanceTerm {
				b.add(secTypeIndex, t.O, labelTypeIndex, forClass, true)
			}
		}
		for i := range triples {
			if t := &triples[i]; t.S == reg && t.P == instanceContainer {
				b.add(secTypeIndex, t.O, labelTypeIndexContainer, forClass, true)
			}
		}
	}
}

func containsTerm(ts []rdf.Term, t rdf.Term) bool {
	for _, x := range ts {
		if x == t {
			return true
		}
	}
	return false
}

// follows reports whether a query of the given shape follows e.
func (t *LinkTable) follows(e *tableLink, shape *QueryShape) bool {
	switch e.label {
	case labelMatch:
		// cMatch: the triple could contribute to the query.
		if askHook != nil {
			askHook(e)
		}
		tr := &t.triples[e.tri]
		return shape.Predicates[tr.P.Value] ||
			tr.P.Value == rdf.RDFType && tr.O.Kind == rdf.TermIRI && shape.Classes[tr.O.Value]
	case labelTypeIndex, labelTypeIndexContainer:
		// Class pruning [14]: with constant classes in the query, only
		// registrations for those classes; without, every registration.
		return shape == nil || len(shape.Classes) == 0 || e.tri < 0 ||
			shape.Classes[t.triples[e.tri].O.Value]
	}
	return true
}

// askHook, when set, runs on every cMatch decision that reads the shape.
var askHook func(*tableLink)

// decide is follows, asked of the shape once per match key: the first entry
// with a key records the answer in memo (1 followed, -1 not).
func (t *LinkTable) decide(e *tableLink, shape *QueryShape, memo *[memoKeys]int8) bool {
	if e.mk == 0 {
		return t.follows(e, shape)
	}
	if memo[e.mk] == 0 {
		memo[e.mk] = -1
		if t.follows(e, shape) {
			memo[e.mk] = 1
		}
	}
	return memo[e.mk] > 0
}

// appendSection appends the links of sec the shape follows, first
// occurrence of each URL only. Whether an earlier entry with the same URL
// was emitted depends on the query too, so dedup walks the entry's prev
// chain re-asking decide: the walk stops at the first predecessor the
// query follows (that one, or one before it, was emitted), and otherwise
// passes only entries it rejects — no set, no allocation, and linear in the
// section overall.
func (t *LinkTable) appendSection(dst []Link, sec []tableLink, shape *QueryShape) []Link {
	var memo [memoKeys]int8
next:
	for i := range sec {
		e := &sec[i]
		if !t.decide(e, shape, &memo) {
			continue
		}
		for j := e.prev; j >= 0; j = sec[j].prev {
			if t.decide(&sec[j], shape, &memo) {
				continue next
			}
		}
		dst = append(dst, e.link())
	}
	return dst
}
