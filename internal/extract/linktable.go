package extract

import (
	"slices"
	"sync"
	"unsafe"

	"ltqp/internal/linkqueue"
	"ltqp/internal/rdf"
)

// LinkTable is the query-independent half of link extraction for one
// document: every IRI a built-in extractor could follow, validated and
// normalized once, in the order the extractor would emit it. The links of a
// document are a property of the document; only which of them a query
// follows depends on the query. The dereferencer therefore builds the table
// once per document version, from its ID triples (ScanIDs), and the
// built-in extractors merely filter it against the QueryShape — no
// rdf.Graph, no URL parsing and no per-call dedup set on the per-query path.
//
// A table is immutable after a scan and safe for concurrent readers. It
// holds no triples: what the filter reads of them, the follow keys, is
// stored with the links.
type LinkTable struct {
	// One section per built-in extractor, each in that extractor's emission
	// order, all five views of one backing array. The profile, LDP and
	// see-also sections do not depend on the query and are stored already
	// deduplicated; the type-index and match sections keep every candidate
	// and are deduplicated while filtering (see appendSection).
	secs [numSections][]tableLink
	// all is that array. It opens with the document's distinct follow keys
	// (see tableLink.k), in which url holds a predicate and key a class.
	all []tableLink
}

// tableLink is one followable IRI occurrence.
type tableLink struct {
	// url is the target document: fragment stripped, http(s), parses with a
	// host. key is linkqueue.Normalize(url), the queue's dedup key.
	url, key string
	// k indexes the key that decides if a query follows the link, -1 if
	// none: the predicate (and rdf:type IRI class) of a match link's triple,
	// the IRI class of a type-index link's registration. appendSection asks
	// the shape once per key, for the first memoKeys keys.
	k int32
	// prev is the previous entry of the section with the same url, -1 if
	// none: the chain first-occurrence dedup walks.
	prev  int32
	label label
}

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
	typeRegistrationTerm = rdf.NewIRI(rdf.SolidTypeRegistration)
	forClassTerm         = rdf.NewIRI(rdf.SolidForClass)
	instanceTerm         = rdf.NewIRI(rdf.SolidInstance)
	instanceContainer    = rdf.NewIRI(rdf.SolidInstanceContainer)
)

// ScanIDs builds the link table of a document from its triples as IDs of
// dict, reading terms through dict without copying them and resolving each
// distinct IRI to its document and queue key once.
func ScanIDs(dict *rdf.Dict, triples []rdf.IDTriple) *LinkTable {
	return builders.Get().(*builder).scan(dict, triples, 1<<numSections-1)
}

// Scan builds the link table of a document from its triples.
func Scan(triples []rdf.Triple) *LinkTable { return scanTriples(triples, 1<<numSections-1) }

// scanTriples numbers the terms of triples, then scans the IDs for the
// sections whose bits are set in want.
func scanTriples(triples []rdf.Triple, want uint8) *LinkTable {
	b := builders.Get().(*builder)
	id := func(t rdf.Term) rdf.TermID {
		n, ok := b.localIDs[t]
		if !ok {
			b.local = append(b.local, t)
			n = rdf.TermID(len(b.local))
			b.localIDs[t] = n
		}
		return n
	}
	for _, t := range triples {
		b.ids = append(b.ids, rdf.IDTriple{S: id(t.S), P: id(t.P), O: id(t.O)})
	}
	return b.scan(nil, b.ids, want)
}

// builder is the scratch a scan fills the sections in before copying them
// into the table. Scans take it from a pool, so building a table allocates
// the table and the one array behind its sections, and nothing per link.
type builder struct {
	want uint8     // bit s set: fill section s
	dict *rdf.Dict // decodes the IDs; nil: local does, from 1
	// scanTriples numbers a triple slice into local, localIDs and ids.
	local    []rdf.Term
	localIDs map[rdf.Term]rdf.TermID
	ids      []rdf.IDTriple
	secs     [numSections][]tableLink
	// byID is the row of the document a term links to (-1: none), byURL
	// that of a URL.
	byID  map[rdf.TermID]int32
	byURL map[string]int32
	rows  []row
	regs  []rdf.TermID // type registrations, in first-occurrence order
	// keyIDs numbers keys by the IDs of their predicate and class (NoTerm
	// predicate: a type-index class).
	keyIDs map[[2]rdf.TermID]int32
	keys   []tableLink
}

// row is a document links point to: its URL, queue key and, per section,
// the index of its latest entry there (-1: none), which chains equal URLs.
type row struct {
	url, key string
	last     [numSections]int32
}

var builders = sync.Pool{New: func() any {
	return &builder{localIDs: map[rdf.Term]rdf.TermID{}, byID: map[rdf.TermID]int32{},
		byURL: map[string]int32{}, keyIDs: map[[2]rdf.TermID]int32{}}
}}

func (b *builder) term(id rdf.TermID) rdf.Term {
	if b.dict != nil {
		return b.dict.Decode(id)
	}
	return b.local[id-1]
}

// row returns the row of the document a link to term id would fetch, -1
// for terms target rejects.
func (b *builder) row(id rdf.TermID) int32 {
	r, seen := b.byID[id]
	if !seen {
		r = -1
		if u, key, ok := target(b.term(id)); ok {
			var known bool
			if r, known = b.byURL[u]; !known {
				r = int32(len(b.rows))
				b.byURL[u] = r
				b.rows = append(b.rows, row{url: u, key: key, last: [numSections]int32{-1, -1, -1, -1, -1}})
			}
		}
		b.byID[id] = r
	}
	return r
}

// add appends the document of row r, if any, to section sec if that is
// wanted. With keepDuplicates false an URL already in the section is
// dropped, which is first-occurrence dedup for sections no query filters.
func (b *builder) add(sec section, r int32, lb label, k int32, keepDuplicates bool) {
	if r < 0 || b.want&(1<<sec) == 0 {
		return
	}
	doc := &b.rows[r]
	last := &doc.last[sec]
	if *last >= 0 && !keepDuplicates {
		return
	}
	links := b.secs[sec]
	b.secs[sec] = append(links, tableLink{url: doc.url, key: doc.key, k: k, prev: *last, label: lb})
	*last = int32(len(links))
}

// table copies the sections and the keys into one exactly-sized array
// behind a new table, and returns the builder to the pool emptied.
func (b *builder) table() *LinkTable {
	n := len(b.keys)
	for _, links := range b.secs {
		n += len(links)
	}
	t := &LinkTable{all: make([]tableLink, n)}
	n = copy(t.all, b.keys)
	for i, links := range b.secs {
		t.secs[i] = t.all[n : n+len(links) : n+len(links)]
		copy(t.secs[i], links)
		n += len(links)
		clear(links) // drop the strings, so the pool pins no document
		b.secs[i] = links[:0]
	}
	clear(b.localIDs)
	clear(b.byID)
	clear(b.byURL)
	clear(b.keyIDs)
	clear(b.local)
	clear(b.rows)
	clear(b.keys)
	b.local, b.ids, b.rows, b.regs, b.keys, b.dict = b.local[:0], b.ids[:0], b.rows[:0], b.regs[:0], b.keys[:0], nil
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

// scan fills the sections whose bits are set in want from triples, IDs of
// dict (nil: of b.local), and builds the table.
func (b *builder) scan(dict *rdf.Dict, triples []rdf.IDTriple, want uint8) *LinkTable {
	b.dict, b.want = dict, want
	for i := range triples {
		t := &triples[i]
		p := b.term(t.P)
		if p.Kind != rdf.TermIRI {
			continue
		}
		switch p.Value {
		case rdf.SolidPublicTypeIndex:
			b.add(secProfile, b.row(t.O), labelProfile, -1, false)
		case rdf.PIMStorage:
			b.add(secProfile, b.row(t.O), labelStorage, -1, false)
		case rdf.LDPContains:
			b.add(secLDP, b.row(t.O), labelLDP, -1, false)
		case rdf.RDFSSeeAlso, owlSameAs:
			b.add(secSeeAlso, b.row(t.O), labelSeeAlso, -1, false)
		case rdf.RDFType:
			if want&(1<<secTypeIndex) != 0 && !slices.Contains(b.regs, t.S) && b.term(t.O) == typeRegistrationTerm {
				b.regs = append(b.regs, t.S)
			}
		}
		if want&(1<<secMatch) == 0 {
			continue
		}
		if s, o := b.row(t.S), b.row(t.O); s >= 0 || o >= 0 {
			ids, class := [2]rdf.TermID{t.P}, ""
			if c := b.term(t.O); p.Value == rdf.RDFType && c.Kind == rdf.TermIRI {
				ids[1], class = t.O, c.Value
			}
			k := b.key(ids, p.Value, class)
			b.add(secMatch, s, labelMatch, k, true)
			b.add(secMatch, o, labelMatch, k, true)
		}
	}
	b.scanTypeIndex(triples)
	return b.table()
}

// key returns the number of the follow key (p, class), whose terms have the
// IDs ids, giving the next one to a key not seen before in this document.
func (b *builder) key(ids [2]rdf.TermID, p, class string) int32 {
	n, ok := b.keyIDs[ids]
	if !ok {
		n = int32(len(b.keys))
		b.keyIDs[ids] = n
		b.keys = append(b.keys, tableLink{url: p, key: class})
	}
	return n
}

// scanTypeIndex lists, registration by registration, the instance links and
// then the instance-container links of a Solid type index (paper Listing
// 3), each keyed by the class of the registration's solid:forClass triple.
func (b *builder) scanTypeIndex(triples []rdf.IDTriple) {
	for _, reg := range b.regs {
		k := int32(-1)
		for i := range triples {
			if t := &triples[i]; t.S == reg && b.term(t.P) == forClassTerm {
				if class := b.term(t.O); class.Kind == rdf.TermIRI {
					k = b.key([2]rdf.TermID{rdf.NoTerm, t.O}, "", class.Value)
				}
				break // only the first solid:forClass counts
			}
		}
		for i := range triples {
			if t := &triples[i]; t.S == reg && b.term(t.P) == instanceTerm {
				b.add(secTypeIndex, b.row(t.O), labelTypeIndex, k, true)
			}
		}
		for i := range triples {
			if t := &triples[i]; t.S == reg && b.term(t.P) == instanceContainer {
				b.add(secTypeIndex, b.row(t.O), labelTypeIndexContainer, k, true)
			}
		}
	}
}

// Bytes is what the table retains of its own, its entries and keys; their
// strings are shared with the scanned terms.
func (t *LinkTable) Bytes() int64 {
	return int64(unsafe.Sizeof(*t)) + int64(len(t.all))*int64(unsafe.Sizeof(tableLink{}))
}

// follows reports whether a query of the given shape follows e.
func (t *LinkTable) follows(e *tableLink, shape *QueryShape) bool {
	switch e.label {
	case labelMatch:
		// cMatch: the triple could contribute to the query.
		if askHook != nil {
			askHook(t, e)
		}
		k := &t.all[e.k]
		return shape.Predicates[k.url] || k.url == rdf.RDFType && k.key != "" && shape.Classes[k.key]
	case labelTypeIndex, labelTypeIndexContainer:
		// Class pruning [14]: with constant classes in the query, only
		// registrations for those classes; without, every registration.
		return shape == nil || len(shape.Classes) == 0 || e.k < 0 ||
			shape.Classes[t.all[e.k].key]
	}
	return true
}

// askHook, when set, runs on every cMatch decision that reads the shape.
var askHook func(*LinkTable, *tableLink)

// decide is follows, asked of the shape once per follow key: the first
// entry with a key records the answer in memo (1 followed, -1 not).
func (t *LinkTable) decide(e *tableLink, shape *QueryShape, memo *[memoKeys]int8) bool {
	if e.k < 0 || e.k >= memoKeys {
		return t.follows(e, shape)
	}
	if memo[e.k] == 0 {
		memo[e.k] = -1
		if t.follows(e, shape) {
			memo[e.k] = 1
		}
	}
	return memo[e.k] > 0
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
