// Package turtle implements a parser and serializers for the RDF Turtle
// family of formats (Turtle, N-Triples, N-Quads), which Solid pods use as
// their primary representation. The parser supports the full Turtle grammar
// used in practice by Solid servers: prefix and base directives, prefixed
// names with escapes, literals (quoted, long-quoted, numeric and boolean
// shorthands, language tags, datatypes), anonymous and labelled blank nodes,
// blank node property lists, collections, and comment handling.
package turtle

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"unsafe"

	"ltqp/internal/rdf"
)

// Options configures a parse.
type Options struct {
	// Base is the base IRI against which relative IRIs resolve; for
	// dereferenced documents this is the document URL.
	Base string
	// BlankPrefix is prepended to every blank node label so that labels
	// from different documents do not collide when merged into one store.
	BlankPrefix string
	// Dict, when non-nil, interns every emitted term: Parse returns the
	// dictionary's canonical copies (terms across documents parsed with the
	// same Dict share backing strings) and ParseIDs the IDs themselves.
	Dict *rdf.Dict
}

// Parse parses a Turtle document and returns its triples in document order.
// Without a Dict the terms alias input wherever the document spells them out
// in full, and keep it alive; with one they are the dictionary's own copies.
func Parse(input string, opts Options) ([]rdf.Triple, error) {
	p := &parser{prefixes: map[string]string{}, names: map[string]string{}}
	p.start(input, opts)
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	if p.dict != nil {
		return p.dict.DecodeTriples(p.ids), nil
	}
	return p.triples, nil
}

// ParseIDs parses a Turtle document straight into triples encoded against
// opts.Dict, which must be set. Terms the dictionary holds are found by
// substrings of body, new ones are copied: the caller may reuse body after.
// Safe for concurrent use; each call takes a parser from a pool.
func ParseIDs(body []byte, opts Options) ([]rdf.IDTriple, error) {
	p := parserPool.Get().(*parser)
	defer p.release()
	p.start(unsafe.String(unsafe.SliceData(body), len(body)), opts)
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	return p.ids, nil
}

// parserPool holds the parsers ParseIDs runs: what a document costs them is
// the output slice, and the memo maps and scratch arena only while they grow.
var parserPool = sync.Pool{New: func() any {
	return &parser{prefixes: map[string]string{}, names: map[string]string{}, scratch: make([]byte, 0, 4<<10)}
}}

// parser is a recursive-descent Turtle parser over an input string: one
// scanner, which cuts terms out of the input as substrings (a builder only
// runs once an escape is met), and two sinks behind emit.
type parser struct {
	in       string
	pos      int
	line     int
	base     rdf.Base
	bnPrefix string
	prefixes map[string]string
	// names memoizes what a prefixed name (keyed by its lexeme, "ex:local")
	// or a blank label (keyed bare, so without a colon) expands to: ns+local
	// and bnPrefix+label are built once per distinct name of the document.
	names  map[string]string
	bnodeN int
	// scratch, set in pooled parsers only, holds the expansions cat builds
	// (see there).
	scratch []byte
	// dict selects the sink: nil collects triples, otherwise ids.
	dict    *rdf.Dict
	triples []rdf.Triple
	ids     []rdf.IDTriple
	// The subject and predicate emit interned last.
	lastS, lastP     rdf.Term
	lastSID, lastPID rdf.TermID
}

// start readies p, whose fields but the maps and scratch are zero, for input.
func (p *parser) start(input string, opts Options) {
	p.in, p.line = input, 1
	p.base, p.bnPrefix, p.dict = rdf.NewBase(opts.Base), opts.BlankPrefix, opts.Dict
	// Pod documents run at 60-90 bytes a triple: one allocation, rarely two.
	if n := len(input)/64 + 1; p.dict != nil {
		p.ids = make([]rdf.IDTriple, 0, n)
	} else {
		p.triples = make([]rdf.Triple, 0, n)
	}
}

// release returns a pooled parser to the pool with nothing of its document
// left: the maps are emptied (keeping their buckets), the scratch arena is
// rewound (keeping its last chunk), every other field is zeroed. It runs
// after the document's last InternBorrowed, and the dictionary copied what
// it kept, so nothing handed out views what the next document overwrites.
func (p *parser) release() {
	clear(p.prefixes)
	clear(p.names)
	*p = parser{prefixes: p.prefixes, names: p.names, scratch: p.scratch[:0]}
	parserPool.Put(p)
}

// cat returns a+b: prefixed-name, blank-label and relative-IRI expansions.
// A pooled parser appends it to its scratch arena, which only grows while a
// document is parsed, so every expansion handed out (memo entries, lastS,
// lastP) stays valid until release. Parse's parser has no arena and
// concatenates on the heap: its terms outlive the parse.
func (p *parser) cat(a, b string) string {
	n := len(a) + len(b)
	if p.scratch == nil || n == 0 {
		return a + b
	}
	if len(p.scratch)+n > cap(p.scratch) {
		// The full chunk lives on through the strings viewing it; the pool
		// keeps the new, larger one.
		p.scratch = make([]byte, 0, max(2*cap(p.scratch), n))
	}
	start := len(p.scratch)
	p.scratch = append(append(p.scratch, a...), b...)
	return unsafe.String(&p.scratch[start], n)
}

// emit hands one parsed triple to the sink.
func (p *parser) emit(s, pred, o rdf.Term) {
	if p.dict == nil {
		p.triples = append(p.triples, rdf.Triple{S: s, P: pred, O: o})
		return
	}
	// Subjects and predicates come in runs: look each up once per run.
	if s != p.lastS {
		p.lastS, p.lastSID = s, p.dict.InternBorrowed(s)
	}
	if pred != p.lastP {
		p.lastP, p.lastPID = pred, p.dict.InternBorrowed(pred)
	}
	p.ids = append(p.ids, rdf.IDTriple{S: p.lastSID, P: p.lastPID, O: p.dict.InternBorrowed(o)})
}

// errf formats a parse error with the current line number.
func (p *parser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("turtle: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// eof reports whether the input is exhausted.
func (p *parser) eof() bool { return p.pos >= len(p.in) }

// peek returns the current byte without consuming it (0 at EOF).
func (p *parser) peek() byte { return p.peekAt(0) }

// peekAt returns the byte at offset from the current position.
func (p *parser) peekAt(off int) byte {
	if p.pos+off >= len(p.in) {
		return 0
	}
	return p.in[p.pos+off]
}

// next consumes and returns the current byte.
func (p *parser) next() byte {
	c := p.in[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

// skipWS consumes whitespace and comments.
func (p *parser) skipWS() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.next()
		case c == '#':
			for !p.eof() && p.peek() != '\n' {
				p.pos++
			}
		default:
			return
		}
	}
}

// expect consumes the given byte or errors.
func (p *parser) expect(c byte) error {
	p.skipWS()
	if p.eof() || p.peek() != c {
		return p.errf("expected %q, got %q", string(c), p.rest(10))
	}
	p.next()
	return nil
}

// rest returns up to n characters of remaining input, for error messages.
func (p *parser) rest(n int) string {
	end := p.pos + n
	if end > len(p.in) {
		end = len(p.in)
	}
	return p.in[p.pos:end]
}

// hasKeyword reports whether the case-insensitive keyword occurs at the
// current position followed by a non-name character.
func (p *parser) hasKeyword(kw string) bool {
	if p.pos+len(kw) > len(p.in) {
		return false
	}
	if !strings.EqualFold(p.in[p.pos:p.pos+len(kw)], kw) {
		return false
	}
	c := p.peekAt(len(kw))
	return c == 0 || c == ' ' || c == '\t' || c == '\r' || c == '\n' || c == '<' || c == '#'
}

// parseDocument parses the whole document: directives and triple statements.
func (p *parser) parseDocument() error {
	for {
		p.skipWS()
		if p.eof() {
			return nil
		}
		switch {
		case p.peek() == '@':
			if err := p.parseAtDirective(); err != nil {
				return err
			}
		case p.hasKeyword("PREFIX"):
			p.pos += len("PREFIX")
			if err := p.parsePrefixBody(false); err != nil {
				return err
			}
		case p.hasKeyword("BASE"):
			p.pos += len("BASE")
			if err := p.parseBaseBody(false); err != nil {
				return err
			}
		default:
			if err := p.parseTriples(); err != nil {
				return err
			}
		}
	}
}

// parseAtDirective parses @prefix and @base directives.
func (p *parser) parseAtDirective() error {
	p.next() // '@'
	switch {
	case strings.HasPrefix(p.in[p.pos:], "prefix"):
		p.pos += len("prefix")
		return p.parsePrefixBody(true)
	case strings.HasPrefix(p.in[p.pos:], "base"):
		p.pos += len("base")
		return p.parseBaseBody(true)
	default:
		return p.errf("unknown directive @%s", p.rest(8))
	}
}

// parsePrefixBody parses `pfx: <iri>` with an optional trailing dot.
func (p *parser) parsePrefixBody(dotted bool) error {
	p.skipWS()
	start := p.pos
	for !p.eof() && p.peek() != ':' {
		if c := p.peek(); c == ' ' || c == '\t' || c == '\n' || c == '<' {
			return p.errf("malformed prefix name")
		}
		p.next()
	}
	if p.eof() {
		return p.errf("unterminated prefix declaration")
	}
	name := p.in[start:p.pos]
	p.next() // ':'
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	if old, redefined := p.prefixes[name]; redefined && old != iri {
		clear(p.names) // expansions under the old namespace are stale
	}
	p.prefixes[name] = iri
	if dotted {
		return p.expect('.')
	}
	return nil
}

// parseBaseBody parses `<iri>` with an optional trailing dot.
func (p *parser) parseBaseBody(dotted bool) error {
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.base = rdf.NewBase(iri)
	if dotted {
		return p.expect('.')
	}
	return nil
}

// parseTriples parses one triples statement: subject predicateObjectList '.'
func (p *parser) parseTriples() error {
	p.skipWS()
	var subject rdf.Term
	var err error
	switch p.peek() {
	case '[':
		subject, err = p.parseBlankNodePropertyList()
		if err != nil {
			return err
		}
		p.skipWS()
		// A bare blank node property list may stand alone as a statement.
		if p.peek() == '.' {
			p.next()
			return nil
		}
	case '(':
		subject, err = p.parseCollection()
		if err != nil {
			return err
		}
	default:
		subject, err = p.parseSubject()
		if err != nil {
			return err
		}
	}
	if err := p.parsePredicateObjectList(subject); err != nil {
		return err
	}
	return p.expect('.')
}

// parseSubject parses an IRI or blank node label.
func (p *parser) parseSubject() (rdf.Term, error) {
	p.skipWS()
	switch {
	case p.peek() == '<':
		return p.parseIRI()
	case p.peek() == '_' && p.peekAt(1) == ':':
		return p.parseBlankLabel()
	default:
		return p.parsePrefixedName()
	}
}

// parsePredicateObjectList parses `verb objectList (';' (verb objectList)?)*`.
func (p *parser) parsePredicateObjectList(subject rdf.Term) error {
	for {
		p.skipWS()
		pred, err := p.parseVerb()
		if err != nil {
			return err
		}
		if err := p.parseObjectList(subject, pred); err != nil {
			return err
		}
		p.skipWS()
		if p.peek() != ';' {
			return nil
		}
		for p.peek() == ';' {
			p.next()
			p.skipWS()
		}
		// Trailing semicolon before '.' or ']' is permitted.
		if c := p.peek(); c == '.' || c == ']' || c == 0 {
			return nil
		}
	}
}

// parseVerb parses a predicate: IRI, prefixed name, or the keyword 'a'.
func (p *parser) parseVerb() (rdf.Term, error) {
	p.skipWS()
	if p.peek() == 'a' {
		c := p.peekAt(1)
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '<' || c == '[' || c == '_' || c == '(' || c == '"' || c == '\'' || c == '?' {
			p.next()
			return rdf.NewIRI(rdf.RDFType), nil
		}
	}
	if p.peek() == '<' {
		return p.parseIRI()
	}
	return p.parsePrefixedName()
}

// parseObjectList parses `object (',' object)*`, emitting triples.
func (p *parser) parseObjectList(subject, pred rdf.Term) error {
	for {
		obj, err := p.parseObject()
		if err != nil {
			return err
		}
		p.emit(subject, pred, obj)
		p.skipWS()
		if p.peek() != ',' {
			return nil
		}
		p.next()
	}
}

// parseObject parses any object term.
func (p *parser) parseObject() (rdf.Term, error) {
	p.skipWS()
	if p.eof() {
		return rdf.Term{}, p.errf("unexpected end of input in object position")
	}
	switch c := p.peek(); {
	case c == '<':
		return p.parseIRI()
	case c == '_' && p.peekAt(1) == ':':
		return p.parseBlankLabel()
	case c == '[':
		return p.parseBlankNodePropertyList()
	case c == '(':
		return p.parseCollection()
	case c == '"' || c == '\'':
		return p.parseLiteral()
	case c == '+' || c == '-' || (c >= '0' && c <= '9') || (c == '.' && p.peekAt(1) >= '0' && p.peekAt(1) <= '9'):
		return p.parseNumber()
	case p.hasBareKeyword("true"):
		p.pos += 4
		return rdf.Boolean(true), nil
	case p.hasBareKeyword("false"):
		p.pos += 5
		return rdf.Boolean(false), nil
	default:
		return p.parsePrefixedName()
	}
}

// hasBareKeyword reports a case-sensitive keyword followed by a delimiter.
func (p *parser) hasBareKeyword(kw string) bool {
	if !strings.HasPrefix(p.in[p.pos:], kw) {
		return false
	}
	c := p.peekAt(len(kw))
	switch c {
	case 0, ' ', '\t', '\r', '\n', '.', ';', ',', ')', ']', '#':
		return true
	}
	return false
}

// parseIRI parses `<...>` as an IRI term.
func (p *parser) parseIRI() (rdf.Term, error) {
	iri, err := p.parseIRIRef()
	if err != nil {
		return rdf.Term{}, err
	}
	return rdf.NewIRI(iri), nil
}

// parseIRIRef parses `<...>` applying \u escapes and base resolution. An
// absolute IRI without escapes comes back as a substring of the input.
func (p *parser) parseIRIRef() (string, error) {
	if p.peek() != '<' {
		return "", p.errf("expected IRI, got %q", p.rest(10))
	}
	p.pos++
	var b strings.Builder // holds the IRI so far once an escape was met
	run := p.pos          // start of the escape-free run not yet in b
	for !p.eof() {
		switch c := p.in[p.pos]; {
		case c == '>':
			ref := p.in[run:p.pos]
			if b.Len() > 0 {
				b.WriteString(ref)
				ref = b.String()
			}
			p.pos++
			return p.base.Resolve(ref, p.cat), nil
		case c == '\\':
			b.WriteString(p.in[run:p.pos])
			if p.pos += 2; p.pos > len(p.in) {
				return "", p.errf("unterminated escape in IRI")
			}
			e := p.in[p.pos-1]
			if e != 'u' && e != 'U' {
				return "", p.errf("invalid escape \\%c in IRI", e)
			}
			r, err := p.readHex(e)
			if err != nil {
				return "", err
			}
			b.WriteRune(r)
			run = p.pos
		case c <= ' ' || c == '<' || c == '"' || c == '{' || c == '}' || c == '|' || c == '^' || c == '`':
			// IRIREF ::= '<' ([^#x00-#x20<>"{}|^`\] | UCHAR)* '>'
			return "", p.errf("character %q not allowed in IRI", c)
		default:
			p.pos++
		}
	}
	return "", p.errf("unterminated IRI")
}

// readHex reads the code point of a \u (four hex digits) or \U (eight)
// escape, positioned after the letter e.
func (p *parser) readHex(e byte) (rune, error) {
	n := 4
	if e == 'U' {
		n = 8
	}
	if p.pos+n > len(p.in) {
		return 0, p.errf("truncated \\u escape")
	}
	v, err := strconv.ParseUint(p.in[p.pos:p.pos+n], 16, 32)
	if err != nil {
		return 0, p.errf("invalid \\u escape: %v", err)
	}
	p.pos += n
	return rune(v), nil
}

// isPNChar reports whether c may appear inside a prefixed-name local part.
func isPNChar(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '%' || c == '\\' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c >= 0x80
}

// parsePrefixedName parses `prefix:local` and expands it, once per distinct
// name of the document.
func (p *parser) parsePrefixedName() (rdf.Term, error) {
	start := p.pos
	// Prefix part (may be empty).
	for !p.eof() {
		if c := p.peek(); c == ':' || !isPNChar(c) || c == '.' {
			break
		}
		p.pos++
	}
	if p.eof() || p.peek() != ':' {
		return rdf.Term{}, p.errf("expected prefixed name, got %q", p.rest(10))
	}
	prefix := p.in[start:p.pos]
	p.pos++ // ':'
	ns, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errf("undeclared prefix %q", prefix)
	}
	// Local part; a backslash escapes the next byte, trailing dots terminate
	// the name.
	localStart, escaped := p.pos, false
	for !p.eof() {
		c := p.peek()
		if c == '\\' {
			if p.pos+1 >= len(p.in) {
				p.pos++
				return rdf.Term{}, p.errf("unterminated local escape")
			}
			escaped = true
			p.next()
			p.next()
			continue
		}
		if !isPNChar(c) {
			break
		}
		if c == '.' {
			// A dot is part of the name only if followed by another name char.
			if !isPNChar(p.peekAt(1)) || p.peekAt(1) == '.' && !isPNChar(p.peekAt(2)) {
				break
			}
		}
		p.pos++
	}
	name := p.in[start:p.pos]
	iri, ok := p.names[name]
	if !ok {
		local := p.in[localStart:p.pos]
		if escaped {
			local = unescapeLocal(local)
		}
		iri = p.cat(ns, local)
		p.names[name] = iri
	}
	return rdf.NewIRI(iri), nil
}

// unescapeLocal drops the backslash of every `\c` pair of a local name.
func unescapeLocal(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' {
			i++
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseBlankLabel parses `_:label`, applying the configured prefix.
func (p *parser) parseBlankLabel() (rdf.Term, error) {
	p.pos += 2 // "_:"
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == '-' || c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.pos++
			continue
		}
		if c == '.' && p.pos+1 < len(p.in) && isPNChar(p.in[p.pos+1]) && p.in[p.pos+1] != '.' {
			p.pos++
			continue
		}
		break
	}
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	label := p.in[start:p.pos]
	if p.bnPrefix == "" {
		return rdf.NewBlank(label), nil
	}
	scoped, ok := p.names[label]
	if !ok {
		scoped = p.cat(p.bnPrefix, label)
		p.names[label] = scoped
	}
	return rdf.NewBlank(scoped), nil
}

// freshBlank mints a new anonymous blank node.
func (p *parser) freshBlank() rdf.Term {
	p.bnodeN++
	var genid [32]byte
	return rdf.NewBlank(p.cat(p.bnPrefix, string(strconv.AppendInt(append(genid[:0], "genid"...), int64(p.bnodeN), 10))))
}

// parseBlankNodePropertyList parses `[ predicateObjectList? ]`.
func (p *parser) parseBlankNodePropertyList() (rdf.Term, error) {
	p.next() // '['
	node := p.freshBlank()
	p.skipWS()
	if p.peek() == ']' {
		p.next()
		return node, nil
	}
	if err := p.parsePredicateObjectList(node); err != nil {
		return rdf.Term{}, err
	}
	if err := p.expect(']'); err != nil {
		return rdf.Term{}, err
	}
	return node, nil
}

// parseCollection parses `( object* )` into an rdf:List.
func (p *parser) parseCollection() (rdf.Term, error) {
	p.next() // '('
	var items []rdf.Term
	for {
		p.skipWS()
		if p.eof() {
			return rdf.Term{}, p.errf("unterminated collection")
		}
		if p.peek() == ')' {
			p.next()
			break
		}
		obj, err := p.parseObject()
		if err != nil {
			return rdf.Term{}, err
		}
		items = append(items, obj)
	}
	if len(items) == 0 {
		return rdf.NewIRI(rdf.RDFNil), nil
	}
	head := p.freshBlank()
	cur := head
	for i, item := range items {
		p.emit(cur, rdf.NewIRI(rdf.RDFFirst), item)
		if i == len(items)-1 {
			p.emit(cur, rdf.NewIRI(rdf.RDFRest), rdf.NewIRI(rdf.RDFNil))
		} else {
			next := p.freshBlank()
			p.emit(cur, rdf.NewIRI(rdf.RDFRest), next)
			cur = next
		}
	}
	return head, nil
}

// parseLiteral parses quoted strings with optional language tag or datatype.
func (p *parser) parseLiteral() (rdf.Term, error) {
	lex, err := p.parseQuoted()
	if err != nil {
		return rdf.Term{}, err
	}
	switch p.peek() {
	case '@':
		p.next()
		start := p.pos
		for !p.eof() {
			c := p.peek()
			if (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c == '-' {
				p.pos++
				continue
			}
			break
		}
		if p.pos == start {
			return rdf.Term{}, p.errf("empty language tag")
		}
		return rdf.NewLangLiteral(lex, p.in[start:p.pos]), nil
	case '^':
		if p.peekAt(1) != '^' {
			return rdf.Term{}, p.errf("expected ^^ after literal")
		}
		p.pos += 2
		var dt rdf.Term
		if p.peek() == '<' {
			dt, err = p.parseIRI()
		} else {
			dt, err = p.parsePrefixedName()
		}
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

// parseQuoted parses single/double and long quoted strings with escapes. A
// string without escapes comes back as a substring of the input.
func (p *parser) parseQuoted() (string, error) {
	quote := p.next() // '"' or '\''
	long := false
	if p.peek() == quote && p.peekAt(1) == quote {
		p.pos += 2
		long = true
	} else if p.peek() == quote {
		// Empty short string.
		p.pos++
		return "", nil
	}
	var b strings.Builder // holds the string so far once an escape was met
	run := p.pos          // start of the escape-free run not yet in b
	for !p.eof() {
		c := p.next()
		switch {
		case c == quote:
			end := p.pos - 1
			if long {
				if p.peek() != quote || p.peekAt(1) != quote {
					continue // a lone quote inside a long string
				}
				p.pos += 2
			}
			s := p.in[run:end]
			if b.Len() > 0 {
				b.WriteString(s)
				s = b.String()
			}
			return s, nil
		case c == '\\':
			b.WriteString(p.in[run : p.pos-1])
			if p.eof() {
				return "", p.errf("unterminated escape")
			}
			switch e := p.next(); e {
			case 't':
				b.WriteByte('\t')
			case 'n':
				b.WriteByte('\n')
			case 'r':
				b.WriteByte('\r')
			case 'b':
				b.WriteByte('\b')
			case 'f':
				b.WriteByte('\f')
			case '"', '\'', '\\':
				b.WriteByte(e)
			case 'u', 'U':
				r, err := p.readHex(e)
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			default:
				return "", p.errf("invalid string escape \\%c", e)
			}
			run = p.pos
		case !long && (c == '\n' || c == '\r'):
			return "", p.errf("newline in short string")
		}
	}
	return "", p.errf("unterminated string")
}

// parseNumber parses integer, decimal, and double shorthands.
func (p *parser) parseNumber() (rdf.Term, error) {
	start := p.pos
	if c := p.peek(); c == '+' || c == '-' {
		p.next()
	}
	digits := 0
	for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
		p.next()
		digits++
	}
	isDecimal, isDouble := false, false
	if p.peek() == '.' && p.peekAt(1) >= '0' && p.peekAt(1) <= '9' {
		isDecimal = true
		p.next()
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.next()
			digits++
		}
	}
	if c := p.peek(); c == 'e' || c == 'E' {
		isDouble = true
		p.next()
		if c := p.peek(); c == '+' || c == '-' {
			p.next()
		}
		for !p.eof() && p.peek() >= '0' && p.peek() <= '9' {
			p.next()
		}
	}
	if digits == 0 {
		return rdf.Term{}, p.errf("malformed number at %q", p.rest(10))
	}
	lex := p.in[start:p.pos]
	switch {
	case isDouble:
		return rdf.NewTypedLiteral(lex, rdf.XSDDouble), nil
	case isDecimal:
		return rdf.NewTypedLiteral(lex, rdf.XSDDecimal), nil
	default:
		return rdf.NewTypedLiteral(lex, rdf.XSDInteger), nil
	}
}
