package exec

import (
	"strings"
	"testing"

	"ltqp/internal/rdf"
	"ltqp/internal/sparql"
	"ltqp/internal/store"
)

// evalStr parses and evaluates a single SPARQL expression against a
// binding, using a tiny SELECT wrapper to reuse the query parser.
func evalStr(t *testing.T, expr string, b rdf.Binding) (rdf.Term, error) {
	t.Helper()
	q, err := sparql.ParseQuery("SELECT ?x WHERE { ?x ?p ?o FILTER(" + expr + ") }")
	if err != nil {
		t.Fatalf("parse %q: %v", expr, err)
	}
	var filter sparql.Expression
	for _, e := range q.Where.Elements {
		if f, ok := e.(sparql.FilterPattern); ok {
			filter = f.Expr
		}
	}
	env := NewEnv(store.New())
	return evalExpr(env, filter, b)
}

// wantTerm asserts an expression evaluates to the term.
func wantTerm(t *testing.T, expr string, b rdf.Binding, want rdf.Term) {
	t.Helper()
	got, err := evalStr(t, expr, b)
	if err != nil {
		t.Errorf("%s: error %v", expr, err)
		return
	}
	if got != want {
		t.Errorf("%s = %v, want %v", expr, got, want)
	}
}

// wantBool asserts an expression evaluates to a boolean.
func wantBool(t *testing.T, expr string, b rdf.Binding, want bool) {
	t.Helper()
	wantTerm(t, expr, b, rdf.Boolean(want))
}

// wantErr asserts an expression raises a type error.
func wantErr(t *testing.T, expr string, b rdf.Binding) {
	t.Helper()
	if got, err := evalStr(t, expr, b); err == nil {
		t.Errorf("%s = %v, want error", expr, got)
	}
}

func TestArithmetic(t *testing.T) {
	wantTerm(t, "1 + 2", nil, rdf.Integer(3))
	wantTerm(t, "7 - 10", nil, rdf.Integer(-3))
	wantTerm(t, "6 * 7", nil, rdf.Integer(42))
	wantTerm(t, "7 / 2", nil, rdf.NewTypedLiteral("3.5", rdf.XSDDecimal))
	wantTerm(t, "1 + 2 * 3", nil, rdf.Integer(7))
	wantTerm(t, "-(5)", nil, rdf.Integer(-5))
	wantTerm(t, "2.5 + 1", nil, rdf.NewTypedLiteral("3.5", rdf.XSDDecimal))
	wantErr(t, `"a" + 1`, nil)
	wantErr(t, "1 / 0", nil)
}

func TestComparisons(t *testing.T) {
	wantBool(t, "3 < 4", nil, true)
	wantBool(t, "3 >= 4", nil, false)
	wantBool(t, "3.0 = 3", nil, true)
	wantBool(t, `"abc" < "abd"`, nil, true)
	wantBool(t, `"a" != "b"`, nil, true)
	wantBool(t, "true > false", nil, true)
	wantBool(t, `"2010-01-02"^^<`+rdf.XSDDate+`> > "2010-01-01"^^<`+rdf.XSDDate+`>`, nil, true)
	wantErr(t, `"a" < 3`, nil)
	// IRI equality is term equality.
	wantBool(t, "<http://a> = <http://a>", nil, true)
	wantBool(t, "<http://a> = <http://b>", nil, false)
	wantErr(t, "<http://a> < <http://b>", nil)
}

func TestLogicalThreeValued(t *testing.T) {
	wantBool(t, "true || false", nil, true)
	wantBool(t, "false && true", nil, false)
	// Errors behave as unknown: true || error = true, false && error = false.
	wantBool(t, "true || ?missing", nil, true)
	wantBool(t, "false && ?missing", nil, false)
	wantErr(t, "false || ?missing", nil)
	wantErr(t, "true && ?missing", nil)
	wantBool(t, "!false", nil, true)
}

func TestStringBuiltins(t *testing.T) {
	b := rdf.Binding{"s": rdf.NewLiteral("Hello World"), "l": rdf.NewLangLiteral("bonjour", "fr")}
	wantTerm(t, "STRLEN(?s)", b, rdf.Integer(11))
	wantTerm(t, "UCASE(?s)", b, rdf.NewLiteral("HELLO WORLD"))
	wantTerm(t, "LCASE(?s)", b, rdf.NewLiteral("hello world"))
	wantBool(t, `CONTAINS(?s, "World")`, b, true)
	wantBool(t, `STRSTARTS(?s, "Hello")`, b, true)
	wantBool(t, `STRENDS(?s, "ld")`, b, true)
	wantTerm(t, `STRBEFORE(?s, " ")`, b, rdf.NewLiteral("Hello"))
	wantTerm(t, `STRAFTER(?s, " ")`, b, rdf.NewLiteral("World"))
	wantTerm(t, `STRAFTER(?s, "@")`, b, rdf.NewLiteral(""))
	wantTerm(t, `CONCAT(?s, "!")`, b, rdf.NewLiteral("Hello World!"))
	wantTerm(t, `SUBSTR(?s, 7)`, b, rdf.NewLiteral("World"))
	wantTerm(t, `SUBSTR(?s, 1, 5)`, b, rdf.NewLiteral("Hello"))
	// Language tags propagate through string functions.
	wantTerm(t, "UCASE(?l)", b, rdf.NewLangLiteral("BONJOUR", "fr"))
	wantTerm(t, `CONCAT(?l, ?l)`, b, rdf.NewLangLiteral("bonjourbonjour", "fr"))
	wantTerm(t, `ENCODE_FOR_URI("a b/c")`, nil, rdf.NewLiteral("a%20b%2Fc"))
}

func TestRegexAndReplace(t *testing.T) {
	b := rdf.Binding{"s": rdf.NewLiteral("SPARQL engine")}
	wantBool(t, `REGEX(?s, "^SPAR")`, b, true)
	wantBool(t, `REGEX(?s, "^spar")`, b, false)
	wantBool(t, `REGEX(?s, "^spar", "i")`, b, true)
	wantTerm(t, `REPLACE(?s, "engine", "planner")`, b, rdf.NewLiteral("SPARQL planner"))
	wantTerm(t, `REPLACE("abc123", "([a-z]+)(\\d+)", "$2-$1")`, nil, rdf.NewLiteral("123-abc"))
	wantErr(t, `REGEX(?s, "([")`, b)
}

func TestTermBuiltins(t *testing.T) {
	b := rdf.Binding{
		"iri":  rdf.NewIRI("http://example.org/x"),
		"lit":  rdf.NewLiteral("v"),
		"lang": rdf.NewLangLiteral("v", "en-GB"),
		"num":  rdf.Integer(5),
		"bn":   rdf.NewBlank("b1"),
	}
	wantTerm(t, "STR(?iri)", b, rdf.NewLiteral("http://example.org/x"))
	wantTerm(t, "STR(?num)", b, rdf.NewLiteral("5"))
	wantTerm(t, "LANG(?lang)", b, rdf.NewLiteral("en-gb"))
	wantTerm(t, "LANG(?lit)", b, rdf.NewLiteral(""))
	wantTerm(t, "DATATYPE(?num)", b, rdf.NewIRI(rdf.XSDInteger))
	wantTerm(t, "DATATYPE(?lit)", b, rdf.NewIRI(rdf.XSDString))
	wantTerm(t, "DATATYPE(?lang)", b, rdf.NewIRI(rdf.RDFLangString))
	wantBool(t, "ISIRI(?iri)", b, true)
	wantBool(t, "ISIRI(?lit)", b, false)
	wantBool(t, "ISLITERAL(?lit)", b, true)
	wantBool(t, "ISBLANK(?bn)", b, true)
	wantBool(t, "ISNUMERIC(?num)", b, true)
	wantBool(t, "ISNUMERIC(?lit)", b, false)
	wantBool(t, "SAMETERM(?lit, ?lit)", b, true)
	wantBool(t, "SAMETERM(?lit, ?lang)", b, false)
	wantBool(t, "BOUND(?lit)", b, true)
	wantBool(t, "BOUND(?nope)", b, false)
	wantTerm(t, `IRI("http://x")`, b, rdf.NewIRI("http://x"))
	wantTerm(t, `STRLANG("hi", "en")`, b, rdf.NewLangLiteral("hi", "en"))
	wantTerm(t, `STRDT("5", <`+rdf.XSDInteger+`>)`, b, rdf.Integer(5))
	wantBool(t, `LANGMATCHES(LANG(?lang), "en")`, b, true)
	wantBool(t, `LANGMATCHES(LANG(?lang), "*")`, b, true)
	wantBool(t, `LANGMATCHES(LANG(?lit), "*")`, b, false)
}

func TestNumericBuiltins(t *testing.T) {
	wantTerm(t, "ABS(-2)", nil, rdf.Integer(2))
	wantTerm(t, "ABS(-2.5)", nil, rdf.NewTypedLiteral("2.5", rdf.XSDDecimal))
	wantTerm(t, "CEIL(2.2)", nil, rdf.NewTypedLiteral("3", rdf.XSDDecimal))
	wantTerm(t, "FLOOR(2.8)", nil, rdf.NewTypedLiteral("2", rdf.XSDDecimal))
	wantTerm(t, "ROUND(2.5)", nil, rdf.NewTypedLiteral("3", rdf.XSDDecimal))
	wantTerm(t, "CEIL(7)", nil, rdf.Integer(7))
	wantErr(t, `ABS("x")`, nil)
}

func TestDateTimeBuiltins(t *testing.T) {
	b := rdf.Binding{"d": rdf.NewTypedLiteral("2011-05-17T14:30:45Z", rdf.XSDDateTime)}
	wantTerm(t, "YEAR(?d)", b, rdf.Integer(2011))
	wantTerm(t, "MONTH(?d)", b, rdf.Integer(5))
	wantTerm(t, "DAY(?d)", b, rdf.Integer(17))
	wantTerm(t, "HOURS(?d)", b, rdf.Integer(14))
	wantTerm(t, "MINUTES(?d)", b, rdf.Integer(30))
	wantTerm(t, "SECONDS(?d)", b, rdf.Integer(45))
	wantTerm(t, "TZ(?d)", b, rdf.NewLiteral("Z"))
	wantErr(t, `YEAR("nope")`, nil)
	// NOW() is fixed per environment.
	v, err := evalStr(t, "YEAR(NOW())", nil)
	if err != nil || v != rdf.Integer(2024) {
		t.Errorf("YEAR(NOW()) = %v, %v", v, err)
	}
}

func TestConditionals(t *testing.T) {
	b := rdf.Binding{"x": rdf.Integer(5)}
	wantTerm(t, `IF(?x > 3, "big", "small")`, b, rdf.NewLiteral("big"))
	wantTerm(t, `IF(?x < 3, "big", "small")`, b, rdf.NewLiteral("small"))
	wantTerm(t, `COALESCE(?missing, ?x, "fallback")`, b, rdf.Integer(5))
	wantTerm(t, `COALESCE(?missing, "fallback")`, b, rdf.NewLiteral("fallback"))
	wantErr(t, `COALESCE(?m1, ?m2)`, b)
	wantErr(t, `IF(?missing, 1, 2)`, b)
}

func TestCasts(t *testing.T) {
	// The wrapper query declares no prefixes — use full IRIs for casts.
	wantTerm(t, `<`+rdf.XSDInteger+`>("42")`, nil, rdf.Integer(42))
	wantTerm(t, `<`+rdf.XSDInteger+`>(3.9)`, nil, rdf.Integer(3))
	wantTerm(t, `<`+rdf.XSDDouble+`>("2.5")`, nil, rdf.NewTypedLiteral("2.5", rdf.XSDDouble))
	wantTerm(t, `<`+rdf.XSDBoolean+`>(1)`, nil, rdf.Boolean(true))
	wantTerm(t, `<`+rdf.XSDBoolean+`>("true")`, nil, rdf.Boolean(true))
	wantTerm(t, `<`+rdf.XSDString+`>(42)`, nil, rdf.NewLiteral("42"))
	wantTerm(t, `<`+rdf.XSDInteger+`>(true)`, nil, rdf.Integer(1))
	wantErr(t, `<`+rdf.XSDInteger+`>("abc")`, nil)
	wantErr(t, `<`+rdf.XSDDateTime+`>("abc")`, nil)
}

func TestHashFunctions(t *testing.T) {
	v, err := evalStr(t, `MD5("abc")`, nil)
	if err != nil || v.Value != "900150983cd24fb0d6963f7d28e17f72" {
		t.Errorf("MD5 = %v, %v", v, err)
	}
	v, err = evalStr(t, `SHA1("abc")`, nil)
	if err != nil || v.Value != "a9993e364706816aba3e25717850c26c9cd0d89d" {
		t.Errorf("SHA1 = %v, %v", v, err)
	}
	v, err = evalStr(t, `SHA256("abc")`, nil)
	if err != nil || !strings.HasPrefix(v.Value, "ba7816bf8f01cfea") {
		t.Errorf("SHA256 = %v, %v", v, err)
	}
}

func TestGenerativeBuiltins(t *testing.T) {
	env := NewEnv(store.New())
	q, _ := sparql.ParseQuery(`SELECT ?x WHERE { ?x ?p ?o FILTER(BNODE() != BNODE()) }`)
	var filter sparql.Expression
	for _, e := range q.Where.Elements {
		if f, ok := e.(sparql.FilterPattern); ok {
			filter = f.Expr
		}
	}
	v, err := evalExpr(env, filter, nil)
	if err != nil || v != rdf.Boolean(true) {
		t.Errorf("distinct BNODEs = %v, %v", v, err)
	}
	// RAND in [0, 1).
	r, err := evalStr(t, "RAND() >= 0 && RAND() < 1", nil)
	if err != nil || r != rdf.Boolean(true) {
		t.Errorf("RAND bounds = %v, %v", r, err)
	}
	// UUID shape.
	u, err := evalStr(t, "STRUUID()", nil)
	if err != nil || len(u.Value) != 36 {
		t.Errorf("STRUUID = %v, %v", u, err)
	}
	iri, err := evalStr(t, "UUID()", nil)
	if err != nil || !strings.HasPrefix(iri.Value, "urn:uuid:") {
		t.Errorf("UUID = %v, %v", iri, err)
	}
}

// TestOrderCompare pins ORDER BY's order over terms parsed per comparison
// (orderCompare, what the reference orderRows compares) and over sort keys
// parsed once (what the batch ORDER BY compares) to one table, both ways.
func TestOrderCompare(t *testing.T) {
	lit := rdf.NewTypedLiteral
	xsdString := rdf.Term{Kind: rdf.TermLiteral, Value: "a", Datatype: rdf.XSDString}
	cases := []struct {
		a, b rdf.Term
		want int // sign
	}{
		{rdf.Term{}, rdf.NewBlank("b"), -1},
		{rdf.Term{}, rdf.Term{}, 0},
		{rdf.NewBlank("b"), rdf.NewIRI("http://a"), -1},
		{rdf.NewBlank("b1"), rdf.NewBlank("b2"), -1},
		{rdf.NewIRI("http://a"), rdf.NewLiteral("z"), -1},
		{rdf.NewIRI("http://a"), rdf.NewIRI("http://b"), -1},
		{rdf.Integer(2), rdf.Integer(10), -1},
		{rdf.Integer(2), rdf.NewTypedLiteral("2.0", rdf.XSDDouble), 0},
		{lit("1", rdf.XSDInteger), lit("1.0", rdf.XSDDecimal), 0},
		{lit("-0", rdf.XSDDouble), lit("0", rdf.XSDInt), 0},
		{lit("NaN", rdf.XSDDouble), rdf.Integer(1), 1},       // NaN orders syntactically
		{lit("abc", rdf.XSDInteger), rdf.Integer(1), 1},      // so does an invalid form
		{lit("10", rdf.XSDInteger), rdf.NewLiteral("9"), -1}, // a number against a string
		{rdf.NewLiteral("a"), rdf.NewLiteral("b"), -1},
		{rdf.NewLiteral("a"), xsdString, -1},
		{rdf.NewLiteral("a"), rdf.NewLangLiteral("a", "en"), -1},
		{rdf.NewLangLiteral("a", "en"), rdf.NewLangLiteral("a", "fr"), -1},
		{lit("x", "http://ex/dt"), lit("y", "http://ex/dt"), -1},
		{rdf.NewTypedLiteral("2010-01-02", rdf.XSDDate), rdf.NewTypedLiteral("2010-01-01", rdf.XSDDate), 1},
		{lit("2024-01-01T00:00:00Z", rdf.XSDDateTime), lit("2024-01-01T01:00:00+01:00", rdf.XSDDateTime), 0},
		{lit("2024-01-01T00:00:00", rdf.XSDDateTime), lit("2024-01-01T00:00:00Z", rdf.XSDDateTime), 0}, // no zone: UTC
		{lit("2023-12-31T23:59:59.5Z", rdf.XSDDateTime), lit("2024-01-01T00:00:00Z", rdf.XSDDateTime), -1},
		{lit("2024-01-01", rdf.XSDDate), lit("2023-12-31T23:59:59.5Z", rdf.XSDDateTime), 1},
		{lit("bad", rdf.XSDDateTime), lit("2024-01-01T00:00:00Z", rdf.XSDDateTime), 1},
		{lit("false", rdf.XSDBoolean), lit("true", rdf.XSDBoolean), -1},
		{lit("1", rdf.XSDBoolean), lit("true", rdf.XSDBoolean), 0},
	}
	sign := func(n int) int { return min(max(n, -1), 1) }
	for _, c := range cases {
		for _, d := range []struct {
			a, b rdf.Term
			want int
		}{{c.a, c.b, c.want}, {c.b, c.a, -c.want}} {
			if got := sign(orderCompare(d.a, d.b)); got != d.want {
				t.Errorf("orderCompare(%v, %v) = %d, want sign %d", d.a, d.b, got, d.want)
			}
			ka, kb := parseValue(d.a), parseValue(d.b)
			if got := sign(orderParsed(&ka, &kb)); got != d.want {
				t.Errorf("keys %v, %v: orderParsed = %d, want sign %d", d.a, d.b, got, d.want)
			}
		}
	}
}

func TestTermsEqualValueSemantics(t *testing.T) {
	// "02"^^xsd:integer equals "2"^^xsd:integer by value.
	eq, err := termsEqual(rdf.NewTypedLiteral("02", rdf.XSDInteger), rdf.Integer(2))
	if err != nil || !eq {
		t.Errorf("02 = 2: %v, %v", eq, err)
	}
	// Unknown datatypes with different lexical forms: type error.
	_, err = termsEqual(rdf.NewTypedLiteral("a", "http://dt"), rdf.NewTypedLiteral("b", "http://dt"))
	if err == nil {
		t.Error("unknown datatype comparison should error")
	}
	// Same term: equal without error.
	eq, err = termsEqual(rdf.NewTypedLiteral("a", "http://dt"), rdf.NewTypedLiteral("a", "http://dt"))
	if err != nil || !eq {
		t.Errorf("identical unknown-dt terms: %v, %v", eq, err)
	}
	// dateTime value equality across lexical forms.
	eq, err = termsEqual(
		rdf.NewTypedLiteral("2010-01-01T00:00:00Z", rdf.XSDDateTime),
		rdf.NewTypedLiteral("2010-01-01T00:00:00.000Z", rdf.XSDDateTime))
	if err != nil || !eq {
		t.Errorf("dateTime equality: %v, %v", eq, err)
	}
}
