package turtle

import (
	"fmt"
	"strconv"
	"strings"
	"testing"

	"ltqp/internal/rdf"
)

// This file is the byte-wise parser that was turtle.Parse until PR 17, kept
// as the reference the one-pass scanner is compared against: every term
// built in a strings.Builder, every IRI resolved through rdf.ResolveIRI,
// every emitted term canonicalized through Dict.Canonical. Obviously
// correct, slow, test-only. RefParse is exported to the package's external
// tests in export_test.go.

// refParse parses a Turtle document and returns its triples in document
// order.
func refParse(input string, opts Options) ([]rdf.Triple, error) {
	p := &refParser{
		in:       input,
		base:     opts.Base,
		bnPrefix: opts.BlankPrefix,
		dict:     opts.Dict,
		prefixes: map[string]string{},
		line:     1,
	}
	if err := p.parseDocument(); err != nil {
		return nil, err
	}
	return p.triples, nil
}

// refParser is a recursive-descent Turtle parser over an input string.
type refParser struct {
	in       string
	pos      int
	line     int
	base     string
	bnPrefix string
	dict     *rdf.Dict
	prefixes map[string]string
	triples  []rdf.Triple
	bnodeN   int
}

// emit appends one parsed triple, canonicalizing its terms through the
// configured dictionary (if any) so every emitted term is the dictionary's
// shared copy.
func (p *refParser) emit(s, pred, o rdf.Term) {
	if p.dict != nil {
		s = p.dict.Canonical(s)
		pred = p.dict.Canonical(pred)
		o = p.dict.Canonical(o)
	}
	p.triples = append(p.triples, rdf.NewTriple(s, pred, o))
}

// errf formats a parse error with the current line number.
func (p *refParser) errf(format string, args ...interface{}) error {
	return fmt.Errorf("turtle: line %d: %s", p.line, fmt.Sprintf(format, args...))
}

// eof reports whether the input is exhausted.
func (p *refParser) eof() bool { return p.pos >= len(p.in) }

// peek returns the current byte without consuming it (0 at EOF).
func (p *refParser) peek() byte {
	if p.eof() {
		return 0
	}
	return p.in[p.pos]
}

// peekAt returns the byte at offset from the current position.
func (p *refParser) peekAt(off int) byte {
	if p.pos+off >= len(p.in) {
		return 0
	}
	return p.in[p.pos+off]
}

// next consumes and returns the current byte.
func (p *refParser) next() byte {
	c := p.in[p.pos]
	p.pos++
	if c == '\n' {
		p.line++
	}
	return c
}

// skipWS consumes whitespace and comments.
func (p *refParser) skipWS() {
	for !p.eof() {
		c := p.peek()
		switch {
		case c == ' ' || c == '\t' || c == '\r' || c == '\n':
			p.next()
		case c == '#':
			for !p.eof() && p.peek() != '\n' {
				p.next()
			}
		default:
			return
		}
	}
}

// expect consumes the given byte or errors.
func (p *refParser) expect(c byte) error {
	p.skipWS()
	if p.eof() || p.peek() != c {
		return p.errf("expected %q, got %q", string(c), p.rest(10))
	}
	p.next()
	return nil
}

// rest returns up to n characters of remaining input, for error messages.
func (p *refParser) rest(n int) string {
	end := p.pos + n
	if end > len(p.in) {
		end = len(p.in)
	}
	return p.in[p.pos:end]
}

// hasKeyword reports whether the case-insensitive keyword occurs at the
// current position followed by a non-name character.
func (p *refParser) hasKeyword(kw string) bool {
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
func (p *refParser) parseDocument() error {
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
func (p *refParser) parseAtDirective() error {
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
func (p *refParser) parsePrefixBody(dotted bool) error {
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
	p.prefixes[name] = iri
	if dotted {
		return p.expect('.')
	}
	return nil
}

// parseBaseBody parses `<iri>` with an optional trailing dot.
func (p *refParser) parseBaseBody(dotted bool) error {
	p.skipWS()
	iri, err := p.parseIRIRef()
	if err != nil {
		return err
	}
	p.base = iri
	if dotted {
		return p.expect('.')
	}
	return nil
}

// parseTriples parses one triples statement: subject predicateObjectList '.'
func (p *refParser) parseTriples() error {
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
func (p *refParser) parseSubject() (rdf.Term, error) {
	p.skipWS()
	switch {
	case p.peek() == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	case p.peek() == '_' && p.peekAt(1) == ':':
		return p.parseBlankLabel()
	default:
		return p.parsePrefixedName()
	}
}

// parsePredicateObjectList parses `verb objectList (';' (verb objectList)?)*`.
func (p *refParser) parsePredicateObjectList(subject rdf.Term) error {
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
func (p *refParser) parseVerb() (rdf.Term, error) {
	p.skipWS()
	if p.peek() == 'a' {
		c := p.peekAt(1)
		if c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '<' || c == '[' || c == '_' || c == '(' || c == '"' || c == '\'' || c == '?' {
			p.next()
			return rdf.NewIRI(rdf.RDFType), nil
		}
	}
	if p.peek() == '<' {
		iri, err := p.parseIRIRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
	}
	return p.parsePrefixedName()
}

// parseObjectList parses `object (',' object)*`, emitting triples.
func (p *refParser) parseObjectList(subject, pred rdf.Term) error {
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
func (p *refParser) parseObject() (rdf.Term, error) {
	p.skipWS()
	if p.eof() {
		return rdf.Term{}, p.errf("unexpected end of input in object position")
	}
	switch c := p.peek(); {
	case c == '<':
		iri, err := p.parseIRIRef()
		if err != nil {
			return rdf.Term{}, err
		}
		return rdf.NewIRI(iri), nil
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
func (p *refParser) hasBareKeyword(kw string) bool {
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

// parseIRIRef parses `<...>` applying \u escapes and base resolution.
func (p *refParser) parseIRIRef() (string, error) {
	if p.peek() != '<' {
		return "", p.errf("expected IRI, got %q", p.rest(10))
	}
	p.next()
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated IRI")
		}
		c := p.next()
		switch c {
		case '>':
			return rdf.ResolveIRI(p.base, b.String()), nil
		case '\\':
			if p.eof() {
				return "", p.errf("unterminated escape in IRI")
			}
			e := p.next()
			switch e {
			case 'u':
				r, err := p.readHex(4)
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			case 'U':
				r, err := p.readHex(8)
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			default:
				return "", p.errf("invalid escape \\%c in IRI", e)
			}
		case '<', '"', '{', '}', '|', '^', '`':
			// Not in the pre-PR-17 parser: the IRIREF grammar fix is applied
			// to the reference too, so the two agree on what is an error.
			return "", p.errf("character %q not allowed in IRI", c)
		default:
			if c <= ' ' {
				return "", p.errf("whitespace or control character in IRI")
			}
			b.WriteByte(c)
		}
	}
}

// readHex reads n hex digits and returns the code point.
func (p *refParser) readHex(n int) (rune, error) {
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
func refIsPNChar(c byte) bool {
	return c == '_' || c == '-' || c == '.' || c == ':' || c == '%' || c == '\\' ||
		(c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') || c >= 0x80
}

// parsePrefixedName parses `prefix:local` and expands it.
func (p *refParser) parsePrefixedName() (rdf.Term, error) {
	start := p.pos
	// Prefix part (may be empty).
	for !p.eof() {
		c := p.peek()
		if c == ':' {
			break
		}
		if !refIsPNChar(c) || c == '.' {
			break
		}
		p.next()
	}
	if p.eof() || p.peek() != ':' {
		return rdf.Term{}, p.errf("expected prefixed name, got %q", p.rest(10))
	}
	prefix := p.in[start:p.pos]
	p.next() // ':'
	ns, ok := p.prefixes[prefix]
	if !ok {
		return rdf.Term{}, p.errf("undeclared prefix %q", prefix)
	}
	// Local part with escape handling; trailing dots terminate the name.
	var local strings.Builder
	for !p.eof() {
		c := p.peek()
		if c == '\\' {
			p.next()
			if p.eof() {
				return rdf.Term{}, p.errf("unterminated local escape")
			}
			local.WriteByte(p.next())
			continue
		}
		if !refIsPNChar(c) || c == '\\' {
			break
		}
		if c == '.' {
			// A dot is part of the name only if followed by another name char.
			if !refIsPNChar(p.peekAt(1)) || p.peekAt(1) == '.' && !refIsPNChar(p.peekAt(2)) {
				break
			}
		}
		local.WriteByte(p.next())
	}
	return rdf.NewIRI(ns + local.String()), nil
}

// parseBlankLabel parses `_:label`, applying the configured prefix.
func (p *refParser) parseBlankLabel() (rdf.Term, error) {
	p.next() // '_'
	p.next() // ':'
	start := p.pos
	for !p.eof() {
		c := p.peek()
		if c == '-' || c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || (c >= '0' && c <= '9') {
			p.next()
			continue
		}
		if c == '.' && p.pos+1 < len(p.in) && refIsPNChar(p.in[p.pos+1]) && p.in[p.pos+1] != '.' {
			p.next()
			continue
		}
		break
	}
	if p.pos == start {
		return rdf.Term{}, p.errf("empty blank node label")
	}
	return rdf.NewBlank(p.bnPrefix + p.in[start:p.pos]), nil
}

// freshBlank mints a new anonymous blank node.
func (p *refParser) freshBlank() rdf.Term {
	p.bnodeN++
	return rdf.NewBlank(fmt.Sprintf("%sgenid%d", p.bnPrefix, p.bnodeN))
}

// parseBlankNodePropertyList parses `[ predicateObjectList? ]`.
func (p *refParser) parseBlankNodePropertyList() (rdf.Term, error) {
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
func (p *refParser) parseCollection() (rdf.Term, error) {
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
func (p *refParser) parseLiteral() (rdf.Term, error) {
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
				p.next()
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
		p.next()
		p.next()
		var dt rdf.Term
		if p.peek() == '<' {
			iri, err := p.parseIRIRef()
			if err != nil {
				return rdf.Term{}, err
			}
			dt = rdf.NewIRI(iri)
		} else {
			dt, err = p.parsePrefixedName()
			if err != nil {
				return rdf.Term{}, err
			}
		}
		return rdf.NewTypedLiteral(lex, dt.Value), nil
	}
	return rdf.NewLiteral(lex), nil
}

// parseQuoted parses single/double and long quoted strings with escapes.
func (p *refParser) parseQuoted() (string, error) {
	quote := p.next() // '"' or '\''
	long := false
	if p.peek() == quote && p.peekAt(1) == quote {
		p.next()
		p.next()
		long = true
	} else if p.peek() == quote {
		// Empty short string.
		p.next()
		return "", nil
	}
	var b strings.Builder
	for {
		if p.eof() {
			return "", p.errf("unterminated string")
		}
		c := p.next()
		if c == quote {
			if !long {
				return b.String(), nil
			}
			if p.peek() == quote && p.peekAt(1) == quote {
				p.next()
				p.next()
				return b.String(), nil
			}
			b.WriteByte(c)
			continue
		}
		if c == '\\' {
			if p.eof() {
				return "", p.errf("unterminated escape")
			}
			e := p.next()
			switch e {
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
			case 'u':
				r, err := p.readHex(4)
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			case 'U':
				r, err := p.readHex(8)
				if err != nil {
					return "", err
				}
				b.WriteRune(r)
			default:
				return "", p.errf("invalid string escape \\%c", e)
			}
			continue
		}
		if !long && (c == '\n' || c == '\r') {
			return "", p.errf("newline in short string")
		}
		b.WriteByte(c)
	}
}

// parseNumber parses integer, decimal, and double shorthands.
func (p *refParser) parseNumber() (rdf.Term, error) {
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

// agreeWithReference parses input with the reference and with both sinks of
// the scanner — triples, and dictionary IDs (through Parse and through
// ParseIDs over a byte slice) — and fails t unless all agree on error versus
// no error and, triple for triple in document order, on every term. It
// returns the scanner's own answer.
func agreeWithReference(t testing.TB, input string, opts Options) ([]rdf.Triple, error) {
	t.Helper()
	opts.Dict = nil
	want, wantErr := refParse(input, opts)
	check := func(sink string, got []rdf.Triple, err error) {
		t.Helper()
		if (err == nil) != (wantErr == nil) {
			t.Fatalf("%s sink: error %v, reference error %v\ninput: %q", sink, err, wantErr, input)
		}
		if len(got) != len(want) {
			t.Fatalf("%s sink: %d triples, reference %d\ninput: %q", sink, len(got), len(want), input)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("%s sink: triple %d = %v, reference %v\ninput: %q", sink, i, got[i], want[i], input)
			}
		}
	}
	got, err := Parse(input, opts)
	check("triple", got, err)

	opts.Dict = rdf.NewDict()
	viaDict, dictErr := Parse(input, opts)
	check("dictionary", viaDict, dictErr)
	ids, idsErr := ParseIDs([]byte(input), opts)
	check("ID", opts.Dict.DecodeTriples(ids), idsErr)
	return got, err
}
