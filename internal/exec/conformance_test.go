package exec

import (
	"sort"
	"strings"
	"testing"
)

// conformanceCase is one table-driven evaluation check in the spirit of the
// W3C SPARQL test suite: Turtle data, a query, and the expected solutions
// rendered canonically ("?v=<term>" pairs sorted within a row, rows
// sorted).
type conformanceCase struct {
	name  string
	data  string
	query string
	want  []string // canonical rows; nil means no solutions
}

// canonicalRows renders bindings canonically for comparison.
func canonicalRows(t *testing.T, data, query string) []string {
	t.Helper()
	got := runQuery(t, data, query)
	rows := make([]string, 0, len(got))
	for _, b := range got {
		parts := make([]string, 0, b.Len())
		for _, v := range b.Vars() {
			parts = append(parts, "?"+v+"="+b[v].String())
		}
		sort.Strings(parts)
		rows = append(rows, strings.Join(parts, " "))
	}
	sort.Strings(rows)
	return rows
}

const confData = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s1 ex:p ex:o1 ; ex:q "1"^^xsd:integer .
ex:s2 ex:p ex:o2 ; ex:q "2"^^xsd:integer ; ex:label "two"@en .
ex:s3 ex:p ex:o1 .
`

func TestConformanceSuite(t *testing.T) {
	ex := func(l string) string { return "<http://example.org/" + l + ">" }
	intLit := func(s string) string {
		return `"` + s + `"^^<http://www.w3.org/2001/XMLSchema#integer>`
	}
	cases := []conformanceCase{
		{
			name: "basic match",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ex:o1 }`,
			want: []string{"?s=" + ex("s1"), "?s=" + ex("s3")},
		},
		{
			name: "join two patterns",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s ?n WHERE { ?s ex:p ex:o1 . ?s ex:q ?n }`,
			want: []string{"?n=" + intLit("1") + " ?s=" + ex("s1")},
		},
		{
			name: "optional keeps bare row",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s ?n WHERE { ?s ex:p ex:o1 OPTIONAL { ?s ex:q ?n } }`,
			want: []string{"?n=" + intLit("1") + " ?s=" + ex("s1"), "?s=" + ex("s3")},
		},
		{
			name: "filter bound",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ex:o1 OPTIONAL { ?s ex:q ?n } FILTER(!BOUND(?n)) }`,
			want: []string{"?s=" + ex("s3")},
		},
		{
			name: "union",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { { ?s ex:p ex:o2 } UNION { ?s ex:p ex:o1 . ?s ex:q ?n } }`,
			want: []string{"?s=" + ex("s1"), "?s=" + ex("s2")},
		},
		{
			name: "lang tag preserved",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?l WHERE { ?s ex:label ?l FILTER(LANG(?l) = "en") }`,
			want: []string{`?l="two"@en`},
		},
		{
			name: "numeric filter on typed literal",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:q ?n FILTER(?n > 1) }`,
			want: []string{"?s=" + ex("s2")},
		},
		{
			name: "bind arithmetic",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?m WHERE { ex:s1 ex:q ?n BIND(?n + 10 AS ?m) }`,
			want: []string{"?m=" + intLit("11")},
		},
		{
			name: "values restricts",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { VALUES ?s { ex:s2 ex:s3 } ?s ex:p ?o }`,
			want: []string{"?s=" + ex("s2"), "?s=" + ex("s3")},
		},
		{
			name: "minus removes compatible",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ?o MINUS { ?s ex:q ?n } }`,
			want: []string{"?s=" + ex("s3")},
		},
		{
			name: "distinct collapses",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?o WHERE { ?s ex:p ?o }`,
			want: []string{"?o=" + ex("o1"), "?o=" + ex("o2")},
		},
		{
			name: "order and limit",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?n WHERE { ?s ex:q ?n } ORDER BY DESC(?n) LIMIT 1`,
			want: []string{"?n=" + intLit("2")},
		},
		{
			name: "count group",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?o (COUNT(?s) AS ?c) WHERE { ?s ex:p ?o } GROUP BY ?o`,
			want: []string{
				"?c=" + intLit("1") + " ?o=" + ex("o2"),
				"?c=" + intLit("2") + " ?o=" + ex("o1"),
			},
		},
		{
			name: "if and coalesce in projection",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT (IF(BOUND(?n), "has", "none") AS ?flag) WHERE {
  ?s ex:p ex:o1 OPTIONAL { ?s ex:q ?n }
}`,
			want: []string{`?flag="has"`, `?flag="none"`},
		},
		{
			name: "nested subquery max",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE {
  ?s ex:q ?n .
  { SELECT (MAX(?m) AS ?n) WHERE { ?x ex:q ?m } }
}`,
			want: []string{"?s=" + ex("s2")},
		},
		{
			name: "str comparison of iri",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ?o FILTER(STRENDS(STR(?o), "o2")) }`,
			want: []string{"?s=" + ex("s2")},
		},
		{
			name: "sameterm vs equals for lang",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:label ?l FILTER(SAMETERM(?l, "two"@en)) }`,
			want: []string{"?s=" + ex("s2")},
		},
		{
			name: "in with iris",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ?o FILTER(?o IN (ex:o2)) }`,
			want: []string{"?s=" + ex("s2")},
		},
		{
			name: "empty result",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:p ex:nothing }`,
			want: nil,
		},
		{
			name: "offset skips",
			data: confData,
			query: `PREFIX ex: <http://example.org/>
SELECT ?n WHERE { ?s ex:q ?n } ORDER BY ?n OFFSET 1`,
			want: []string{"?n=" + intLit("2")},
		},
	}
	// EXISTS over MINUS, GROUP BY, ORDER BY + LIMIT, REDUCED and a
	// filtered OPTIONAL: every operator runs with the outer row substituted
	// into it, in the pipeline and in the reference.
	all := []string{"?s=" + ex("s1"), "?s=" + ex("s2"), "?s=" + ex("s3")}
	for _, c := range []struct {
		name, inner string
		want        []string
	}{
		{"exists over minus", `?s ex:p ?x MINUS { ?s2 ex:p ?x . ?s2 ex:label ?l }`, []string{"?s=" + ex("s1"), "?s=" + ex("s3")}},
		{"exists over group", `SELECT ?s (COUNT(?x) AS ?n) WHERE { ?s ex:p ?x } GROUP BY ?s`, all},
		{"exists over order and limit", `SELECT ?s WHERE { ?s ex:p ?x } ORDER BY ?x LIMIT 1`, all},
		{"exists over reduced", `SELECT REDUCED ?s WHERE { ?s ex:p ?x }`, all},
		{"exists over optional filter", `?s ex:p ?y OPTIONAL { ?s ex:q ?x FILTER(?x > 5) } FILTER(!BOUND(?x))`, all},
		// SELECT * names no variable of its own: the outer row must still
		// reach the sub-select's pattern.
		{"exists over select star", `SELECT * WHERE { ?s ex:q ?w }`, []string{"?s=" + ex("s1"), "?s=" + ex("s2")}},
	} {
		cases = append(cases, conformanceCase{name: c.name, data: confData, want: c.want,
			query: "PREFIX ex: <http://example.org/>\nSELECT ?s WHERE { ?s ex:p ?o FILTER EXISTS { " + c.inner + " } }"})
	}
	// EXISTS outside a FILTER (an OPTIONAL's filter, a projected
	// expression) also sees the whole row.
	cases = append(cases, conformanceCase{
		name: "exists in optional filter over select star",
		data: confData,
		query: `PREFIX ex: <http://example.org/>
SELECT ?s ?n WHERE { ?s ex:p ?o OPTIONAL { ?s ex:q ?n FILTER EXISTS { SELECT * WHERE { ?s ex:label ?l } } } }`,
		want: []string{"?n=" + intLit("2") + " ?s=" + ex("s2"), "?s=" + ex("s1"), "?s=" + ex("s3")},
	}, conformanceCase{
		name: "exists projected over select star",
		data: confData,
		query: `PREFIX ex: <http://example.org/>
SELECT ?s (EXISTS { SELECT * WHERE { ?s ex:label ?l } } AS ?b) WHERE { ?s ex:p ?o }`,
		want: []string{
			`?b="false"^^<http://www.w3.org/2001/XMLSchema#boolean> ?s=` + ex("s1"),
			`?b="false"^^<http://www.w3.org/2001/XMLSchema#boolean> ?s=` + ex("s3"),
			`?b="true"^^<http://www.w3.org/2001/XMLSchema#boolean> ?s=` + ex("s2"),
		},
	})
	// SPARQL 1.1 §8.3.3: the outer row is substituted into the EXISTS
	// pattern, inner FILTER included, while MINUS evaluates its right side
	// on its own, where ?n is unbound.
	const spec833 = `
@prefix : <http://example/> .
:a :p 1 . :a :q 1 , 2 .
:b :p 3.0 . :b :q 4.0 , 5.0 .
`
	dec := func(s string) string { return `"` + s + `"^^<http://www.w3.org/2001/XMLSchema#decimal>` }
	a := "?n=" + intLit("1") + " ?x=<http://example/a>"
	b := "?n=" + dec("3.0") + " ?x=<http://example/b>"
	cases = append(cases, conformanceCase{
		name: "not exists substitutes into an inner filter",
		data: spec833,
		query: `PREFIX : <http://example/>
SELECT * WHERE { ?x :p ?n FILTER NOT EXISTS { ?x :q ?m . FILTER(?n = ?m) } }`,
		want: []string{b},
	}, conformanceCase{
		name: "minus does not see the left row in an inner filter",
		data: spec833,
		query: `PREFIX : <http://example/>
SELECT * WHERE { ?x :p ?n MINUS { ?x :q ?m . FILTER(?n = ?m) } }`,
		want: []string{a, b},
	}, conformanceCase{
		// §18.6: substitution reaches a nested EXISTS too, so its
		// pattern sees ?n of the outermost row.
		name: "nested not exists sees the outer row",
		data: `@prefix : <http://example/> .
:a :p 1 ; :q 1 .
:b :p 2 ; :q 1 .
`,
		query: `PREFIX : <http://example/>
SELECT ?x WHERE { ?x :p ?n FILTER EXISTS { ?x :q ?m FILTER NOT EXISTS { ?x :q ?n } } }`,
		want: []string{"?x=<http://example/b>"},
	}, conformanceCase{
		// §18.2.4.4: select expressions extend the solutions in order,
		// before ORDER BY, so a later one and the sort see an earlier one.
		name: "select expressions bind before order by",
		data: confData,
		query: `PREFIX ex: <http://example.org/>
SELECT ?s (-?q AS ?neg) (?neg + 10 AS ?r) WHERE { ?s ex:q ?q } ORDER BY ?neg LIMIT 1`,
		want: []string{"?neg=" + intLit("-2") + " ?r=" + intLit("8") + " ?s=" + ex("s2")},
	}, conformanceCase{
		name: "variable projected twice",
		data: confData,
		query: `PREFIX ex: <http://example.org/>
SELECT ?s ?n ?s WHERE { ?s ex:p ex:o1 OPTIONAL { ?s ex:q ?n } }`,
		want: []string{"?n=" + intLit("1") + " ?s=" + ex("s1"), "?s=" + ex("s3")},
	}, conformanceCase{
		name: "distinct variable projected twice",
		data: confData,
		query: `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?o ?o WHERE { ?s ex:p ?o }`,
		want: []string{"?o=" + ex("o1"), "?o=" + ex("o2")},
	})

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := canonicalRows(t, c.data, c.query)
			if len(got) != len(c.want) {
				t.Fatalf("rows = %d, want %d\ngot:  %v\nwant: %v", len(got), len(c.want), got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("row %d:\ngot:  %s\nwant: %s", i, got[i], c.want[i])
				}
			}
		})
	}
}

// TestConformanceTermIdentityVsValueEquality pins the distinction SPARQL
// draws between *term* equality (joins, DISTINCT, pattern matching — the
// boundary the dictionary encodes as ID equality) and *value* equality
// (FILTER =, comparisons). "1"^^xsd:integer and "01"^^xsd:integer denote
// the same value but are different RDF terms; "x"@EN and "x"@en are the
// same term (language tags compare case-insensitively); a plain literal and
// its xsd:string-typed spelling are the same term in RDF 1.1.
func TestConformanceTermIdentityVsValueEquality(t *testing.T) {
	ex := func(l string) string { return "<http://example.org/" + l + ">" }
	intLit := func(s string) string {
		return `"` + s + `"^^<http://www.w3.org/2001/XMLSchema#integer>`
	}
	const data = `
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:a ex:q "1"^^xsd:integer .
ex:b ex:q "01"^^xsd:integer .
ex:c ex:q "1"^^xsd:integer .
ex:d ex:label "two"@EN .
ex:e ex:label "two"@en .
ex:f ex:name "x" .
ex:g ex:name "x"^^xsd:string .
ex:h ex:name "x"@en .
`
	cases := []conformanceCase{
		{
			// Joins use term equality: "1" and "01" do NOT join even though
			// they are numerically equal values.
			name: "join is term-equality not value-equality",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s ?t WHERE { ?s ex:q ?n . ?t ex:q ?n . FILTER(STR(?s) < STR(?t)) }`,
			want: []string{"?s=" + ex("a") + " ?t=" + ex("c")},
		},
		{
			// FILTER = uses value equality: "1" = "01" is true for
			// xsd:integer operands.
			name: "filter equals is value-equality",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s ?t WHERE { ?s ex:q ?m . ?t ex:q ?n .
  FILTER(?m = ?n && STR(?s) < STR(?t)) }`,
			want: []string{
				"?s=" + ex("a") + " ?t=" + ex("b"),
				"?s=" + ex("a") + " ?t=" + ex("c"),
				"?s=" + ex("b") + " ?t=" + ex("c"),
			},
		},
		{
			// DISTINCT dedupes on terms: "1" and "01" stay distinct rows.
			name: "distinct keeps lexically distinct numerals",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?n WHERE { ?s ex:q ?n }`,
			want: []string{"?n=" + intLit("01"), "?n=" + intLit("1")},
		},
		{
			// Language tags are case-insensitive: "two"@EN in the data and
			// "two"@en in the query are the same term, so ex:d and ex:e both
			// match a query written with the lowercase tag.
			name: "language tag case-insensitive match",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:label "two"@en }`,
			want: []string{"?s=" + ex("d"), "?s=" + ex("e")},
		},
		{
			name: "language tag case-insensitive join and distinct",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?l WHERE { ?s ex:label ?l }`,
			want: []string{`?l="two"@en`},
		},
		{
			// RDF 1.1: a plain literal IS an xsd:string literal. A pattern
			// spelled with the explicit datatype matches data spelled plain,
			// and vice versa; the @en-tagged literal stays distinct.
			name: "plain and xsd:string are one term",
			data: data,
			query: `PREFIX ex: <http://example.org/>
PREFIX xsd: <http://www.w3.org/2001/XMLSchema#>
SELECT ?s WHERE { ?s ex:name "x"^^xsd:string }`,
			want: []string{"?s=" + ex("f"), "?s=" + ex("g")},
		},
		{
			name: "plain vs xsd:string distinct collapses",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT DISTINCT ?n WHERE { ?s ex:name ?n }`,
			want: []string{`?n="x"`, `?n="x"@en`},
		},
		{
			// Mixed-numeral ORDER BY is by value; the tie between "1" and
			// "01" keeps both rows.
			name: "order by value across lexical forms",
			data: data,
			query: `PREFIX ex: <http://example.org/>
SELECT ?s WHERE { ?s ex:q ?n } ORDER BY ?n STR(?s) LIMIT 2`,
			want: []string{"?s=" + ex("a"), "?s=" + ex("b")},
		},
	}

	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got := canonicalRows(t, c.data, c.query)
			if len(got) != len(c.want) {
				t.Fatalf("rows = %d, want %d\ngot:  %v\nwant: %v", len(got), len(c.want), got, c.want)
			}
			for i := range got {
				if got[i] != c.want[i] {
					t.Errorf("row %d:\ngot:  %s\nwant: %s", i, got[i], c.want[i])
				}
			}
		})
	}
}
