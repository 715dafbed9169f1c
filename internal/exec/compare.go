package exec

import (
	"cmp"
	"strings"
	"time"

	"ltqp/internal/rdf"
)

// SPARQL's literal comparison rules over values parsed once. The batch
// ORDER BY parses its keys once per row; the term wrappers parse per call.

// valueClass is the comparison family of a term: two literals compare by
// value only within one family.
type valueClass uint8

const (
	classNone     valueClass = iota // not a literal: unbound, blank node, IRI
	classNumeric                    // an XSD numeric datatype
	classString                     // simple, xsd:string or language-tagged
	classDateTime                   // xsd:dateTime or xsd:date
	classBoolean                    // xsd:boolean
	classOther                      // any other datatype
)

// value is a term with its comparison family and, for the numeric,
// dateTime and boolean families, its parsed value.
type value struct {
	term  rdf.Term
	class valueClass
	bad   bool    // the lexical form does not parse in its family
	nsec  int32   // dateTime: nanoseconds within the second
	num   float64 // numeric value; a boolean as 0 or 1; dateTime: Unix seconds
}

// parseValue classifies t and parses its value once.
func parseValue(t rdf.Term) value {
	v := value{term: t}
	if t.Kind != rdf.TermLiteral {
		return v
	}
	var err error
	switch {
	case t.IsNumeric():
		v.class = classNumeric
		v.num, err = t.Float()
	case t.Datatype == "" || t.Datatype == rdf.XSDString || t.Language != "":
		v.class = classString
	case t.Datatype == rdf.XSDDateTime || t.Datatype == rdf.XSDDate:
		v.class = classDateTime
		var tm time.Time
		tm, err = t.Time()
		v.num, v.nsec = float64(tm.Unix()), int32(tm.Nanosecond())
	case t.Datatype == rdf.XSDBoolean:
		v.class = classBoolean
		var b bool
		if b, err = t.Bool(); b {
			v.num = 1
		}
	default:
		v.class = classOther
	}
	v.bad = err != nil
	return v
}

var classNames = [...]string{classNumeric: "numeric", classDateTime: "dateTime", classBoolean: "boolean"}

// compareParsed implements the SPARQL ordering operators (<, >, <=, >=):
// literals of one family compare by value (strings by lexical form); any
// other pair, or an invalid lexical form, is a type error.
func compareParsed(l, r *value) (int, error) {
	switch {
	case l.class == classNone || r.class == classNone:
		return 0, typeErrf("cannot order %s and %s", l.term, r.term)
	case l.class != r.class || l.class == classOther:
		return 0, typeErrf("incomparable literals %s and %s", l.term, r.term)
	case l.class == classString:
		return strings.Compare(l.term.Value, r.term.Value), nil
	case l.bad || r.bad:
		return 0, typeErrf("invalid %s literal", classNames[l.class])
	case l.num < r.num:
		return -1, nil
	case l.num > r.num:
		return 1, nil
	}
	return cmp.Compare(l.nsec, r.nsec), nil // equal seconds, equal numbers (nsec 0) or NaN
}

// equalParsed implements the SPARQL "=" operator: value equality within a
// family, term equality otherwise; distinct literals of one unknown
// datatype, or an invalid lexical form, raise a type error.
func equalParsed(l, r *value) (bool, error) {
	switch {
	case l.term == r.term:
		return true, nil
	case l.class == classOther && l.term.Datatype == r.term.Datatype:
		return false, typeErrf("cannot compare literals of datatype %s by value", l.term.Datatype)
	case l.class == classNone || l.class != r.class || l.class == classString || l.class == classOther:
		return false, nil
	case l.bad || r.bad:
		return false, typeErrf("invalid %s literal", classNames[l.class])
	}
	return l.num == r.num && l.nsec == r.nsec, nil
}

// orderParsed is the total order used by ORDER BY (SPARQL §15.1 extended
// to a total order): unbound < blank nodes < IRIs < literals; literals
// compare by value when comparable, falling back to syntactic order.
func orderParsed(a, b *value) int {
	if a.class != classNone && b.class != classNone {
		if c, err := compareParsed(a, b); err == nil && c != 0 {
			return c
		}
		if eq, err := equalParsed(a, b); err == nil && eq {
			return 0
		}
	}
	return a.term.Compare(b.term)
}

// termsEqual is equalParsed over terms.
func termsEqual(l, r rdf.Term) (bool, error) {
	if l == r || l.Kind != rdf.TermLiteral || r.Kind != rdf.TermLiteral {
		return l == r, nil
	}
	a, b := parseValue(l), parseValue(r)
	return equalParsed(&a, &b)
}

// compareValues is compareParsed over terms.
func compareValues(l, r rdf.Term) (int, error) {
	a, b := parseValue(l), parseValue(r)
	return compareParsed(&a, &b)
}

// orderCompare is orderParsed over terms.
func orderCompare(a, b rdf.Term) int {
	if a.Kind != rdf.TermLiteral || b.Kind != rdf.TermLiteral {
		return a.Compare(b)
	}
	x, y := parseValue(a), parseValue(b)
	return orderParsed(&x, &y)
}
