package baseline

import (
	"fmt"
	"math/rand"
	"strings"

	"ltqp/internal/solidbench"
)

// diffGen deterministically generates SELECT queries over a SolidBench
// dataset for differential testing: every generated query must produce the
// exact same solution multiset on the live traversal engine (seeded with
// every document) and on the centralized oracle store.
//
// Generated queries are restricted to a sublanguage where the two systems
// are observationally equivalent:
//
//   - Every projected variable can only bind IRIs or literals. The dataset's
//     only blank nodes are its "likes" reification nodes, and blank node
//     labels legitimately differ between the two systems (each scopes them
//     per document in its own way), so a query may join through a like
//     node but must never project one.
//   - Results compare as multisets (ORDER BY is allowed — it cannot change
//     the multiset, only the order, which the comparison discards anyway).
//     A query with LIMIT/OFFSET comes with its unlimited text: its answer
//     must be a sub-multiset of the unlimited oracle answer, with exactly
//     the oracle's count; an ordered one must also carry, row by row, the
//     sort keys of the oracle's ordered rows [offset, offset+limit).
//   - Aggregates are restricted to the order-insensitive folds over exact
//     values: COUNT, MIN/MAX, and SUM over the dataset's integer ids.
//     SAMPLE and GROUP_CONCAT depend on encounter order and would diff
//     spuriously between the two systems.
//   - SELECT DISTINCT may project part of a join chain, with an
//     alternative path inside it.
//   - Groups use BGPs, OPTIONAL, FILTER, UNION, MINUS (sharing the anchored
//     subject variable, sharing no variable, or sharing one that an
//     OPTIONAL on its right side leaves unbound in some rows), GROUP BY with
//     and without HAVING and on an expression key, ORDER BY, property paths
//     (anchored snvoc:knows+ closures and replyOf/hasCreator sequences),
//     VALUES, GRAPH ?g, FILTER (NOT) EXISTS (with an inner FILTER on an
//     outer variable too), BIND, projection expressions and LIMIT/OFFSET —
//     every operator the executor implements, streaming or blocking.
type diffGen struct {
	r  *rand.Rand
	ds *solidbench.Dataset
	ns string
}

func newDiffGen(seed int64, ds *solidbench.Dataset) *diffGen {
	v := solidbench.Vocab{Host: ds.Config.Host}
	return &diffGen{r: rand.New(rand.NewSource(seed)), ds: ds, ns: v.NS()}
}

func (g *diffGen) prefix() string {
	return fmt.Sprintf("PREFIX snvoc: <%s>\nPREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>\n", g.ns)
}

func (g *diffGen) person() string {
	return "<" + g.ds.WebID(g.r.Intn(g.ds.Config.Persons)) + ">"
}

// pick returns a random size-n subset (order preserved) of options.
func (g *diffGen) pick(options []string, n int) []string {
	idx := g.r.Perm(len(options))[:n]
	chosen := make(map[int]bool, n)
	for _, i := range idx {
		chosen[i] = true
	}
	out := make([]string, 0, n)
	for i, o := range options {
		if chosen[i] {
			out = append(out, o)
		}
	}
	return out
}

// messageAttrs are predicates of post/comment resources paired with the
// variable each binds.
var messageAttrs = []string{"content", "creationDate", "browserUsed", "locationIP", "id"}

// personAttrs are predicates of person profiles.
var personAttrs = []string{"firstName", "lastName", "gender", "browserUsed", "locationIP"}

// messageStar generates an anchored star BGP about ?m and returns the
// pattern text plus the attribute variables it binds.
func (g *diffGen) messageStar(mv string) (string, []string) {
	n := 1 + g.r.Intn(3)
	attrs := g.pick(messageAttrs, n)
	var b strings.Builder
	fmt.Fprintf(&b, "  ?%s snvoc:hasCreator %s .\n", mv, g.person())
	if g.r.Intn(2) == 0 {
		kind := "Post"
		if g.r.Intn(2) == 0 {
			kind = "Comment"
		}
		fmt.Fprintf(&b, "  ?%s rdf:type snvoc:%s .\n", mv, kind)
	}
	vars := make([]string, 0, n)
	for _, a := range attrs {
		v := mv + "_" + a
		fmt.Fprintf(&b, "  ?%s snvoc:%s ?%s .\n", mv, a, v)
		vars = append(vars, v)
	}
	return b.String(), vars
}

// personStar generates an anchored star BGP about ?p.
func (g *diffGen) personStar(pv string) (string, []string) {
	n := 1 + g.r.Intn(3)
	attrs := g.pick(personAttrs, n)
	var b strings.Builder
	fmt.Fprintf(&b, "  ?%s rdf:type snvoc:Person .\n", pv)
	vars := make([]string, 0, n)
	for _, a := range attrs {
		v := pv + "_" + a
		fmt.Fprintf(&b, "  ?%s snvoc:%s ?%s .\n", pv, a, v)
		vars = append(vars, v)
	}
	return b.String(), vars
}

// Next returns the next generated query and, when it ends in LIMIT/OFFSET,
// the same query without them ("" otherwise).
func (g *diffGen) Next() (query, unlimited string) {
	distinct := ""
	if g.r.Intn(3) == 0 {
		distinct = "DISTINCT "
	}
	switch g.r.Intn(22) {
	case 18: // MINUS over disjoint domains: it removes nothing.
		return fmt.Sprintf(`%sSELECT %s?m ?d WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  MINUS { ?x snvoc:imageFile ?img }
}`, g.prefix(), distinct, g.person()), ""
	case 19: // MINUS sharing ?d, which the right side's OPTIONAL binds only
		// for messages with an image: a row leaving it unbound removes nothing.
		return fmt.Sprintf(`%sSELECT %s?m ?d WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  MINUS { ?o snvoc:hasCreator %s . OPTIONAL { ?o snvoc:imageFile ?img . ?o snvoc:creationDate ?d } }
}`, g.prefix(), distinct, g.person(), g.person()), ""
	case 20: // GROUP BY an expression key, HAVING over an aggregate expression.
		return fmt.Sprintf(`%sSELECT ?k (COUNT(?m) AS ?n) WHERE {
  ?m snvoc:hasCreator ?c .
  ?m snvoc:browserUsed ?b .
} GROUP BY (UCASE(?b) AS ?k) HAVING (COUNT(?m) * 2 > %d)`, g.prefix(), g.r.Intn(40)), ""
	case 21: // NOT EXISTS whose inner FILTER reads the outer row: a
		// person's earliest messages.
		p := g.person()
		return fmt.Sprintf(`%sSELECT %s?m ?d WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  FILTER NOT EXISTS { ?o snvoc:hasCreator %s . ?o snvoc:creationDate ?e . FILTER(?e < ?d) }
}`, g.prefix(), distinct, p, p), ""
	case 17: // DISTINCT over part of a chain: the creators of a person's
		// liked messages, through one predicate or an alternative of two,
		// and an attribute of every message of theirs.
		path := [...]string{"snvoc:hasPost", "snvoc:hasComment", "(snvoc:hasPost|snvoc:hasComment)"}[g.r.Intn(3)]
		return fmt.Sprintf(`%sSELECT DISTINCT ?c ?v WHERE {
  %s snvoc:likes ?l .
  ?l %s ?msg .
  ?msg snvoc:hasCreator ?c .
  ?other snvoc:hasCreator ?c .
  ?other snvoc:%s ?v .
}`, g.prefix(), g.person(), path, messageAttrs[g.r.Intn(len(messageAttrs))]), ""
	case 11: // VALUES: two creators' messages.
		return fmt.Sprintf(`%sSELECT %s?c ?m ?id WHERE {
  VALUES ?c { %s %s }
  ?m snvoc:hasCreator ?c .
  ?m snvoc:id ?id .
}`, g.prefix(), distinct, g.person(), g.person()), ""
	case 12: // GRAPH ?g: the document each message's date came from.
		return fmt.Sprintf(`%sSELECT %s?m ?g WHERE {
  ?m snvoc:hasCreator %s .
  GRAPH ?g { ?m snvoc:creationDate ?d }
}`, g.prefix(), distinct, g.person()), ""
	case 13: // FILTER (NOT) EXISTS on a sibling attribute.
		not := [...]string{"", "NOT "}[g.r.Intn(2)]
		attr := [...]string{"imageFile", "content", "replyOf"}[g.r.Intn(3)]
		return fmt.Sprintf(`%sSELECT %s?m ?d WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  FILTER %sEXISTS { ?m snvoc:%s ?x }
}`, g.prefix(), distinct, g.person(), not, attr), ""
	case 14: // BIND and projection expressions.
		return fmt.Sprintf(`%sSELECT %s?m ?len (CONCAT(UCASE(?b), "@", STR(?m)) AS ?tag) WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:browserUsed ?b .
  BIND(STRLEN(?b) AS ?len)
}`, g.prefix(), distinct, g.person()), ""
	case 15: // GROUP BY with HAVING.
		return fmt.Sprintf(`%sSELECT ?c (COUNT(?m) AS ?n) WHERE {
  ?m snvoc:hasCreator ?c .
  ?m snvoc:creationDate ?d .
} GROUP BY ?c HAVING (COUNT(?m) > %d)`, g.prefix(), g.r.Intn(16)), ""
	case 16: // LIMIT/OFFSET over a message star, ordered or not.
		body, vars := g.messageStar("m")
		unlimited = fmt.Sprintf("%sSELECT %s?%s WHERE {\n%s}", g.prefix(), distinct, strings.Join(vars, " ?"), body)
		query = unlimited
		if g.r.Intn(2) == 0 {
			query += fmt.Sprintf(" ORDER BY ?%s", vars[g.r.Intn(len(vars))])
		}
		query += fmt.Sprintf(" LIMIT %d", 1+g.r.Intn(5))
		if g.r.Intn(2) == 0 {
			query += fmt.Sprintf(" OFFSET %d", g.r.Intn(4))
		}
		return query, unlimited
	case 0: // Message star, possibly projecting the message IRI too.
		body, vars := g.messageStar("m")
		proj := "?" + strings.Join(vars, " ?")
		if g.r.Intn(2) == 0 {
			proj = "?m " + proj
		}
		return fmt.Sprintf("%sSELECT %s%s WHERE {\n%s}", g.prefix(), distinct, proj, body), ""
	case 1: // Person profile star over all pods.
		body, vars := g.personStar("p")
		return fmt.Sprintf("%sSELECT %s?%s WHERE {\n%s}",
			g.prefix(), distinct, strings.Join(vars, " ?"), body), ""
	case 2: // Friend join: fixed person -> knows -> friend attribute.
		attr := personAttrs[g.r.Intn(len(personAttrs))]
		return fmt.Sprintf(`%sSELECT %s?f ?v WHERE {
  %s snvoc:knows ?f .
  ?f snvoc:%s ?v .
}`, g.prefix(), distinct, g.person(), attr), ""
	case 3: // OPTIONAL: posts with content, optionally an image sibling.
		return fmt.Sprintf(`%sSELECT %s?m ?d ?img WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  OPTIONAL { ?m snvoc:imageFile ?img . }
}`, g.prefix(), distinct, g.person()), ""
	case 4: // FILTER on a string attribute.
		body, vars := g.messageStar("m")
		v := vars[g.r.Intn(len(vars))]
		needle := []string{"a", "e", "1", "0", "co"}[g.r.Intn(5)]
		return fmt.Sprintf("%sSELECT %s?%s WHERE {\n%s  FILTER(CONTAINS(STR(?%s), %q))\n}",
			g.prefix(), distinct, strings.Join(vars, " ?"), body, v, needle), ""
	case 5: // UNION of two creators' messages.
		attr := messageAttrs[g.r.Intn(len(messageAttrs))]
		return fmt.Sprintf(`%sSELECT %s?v WHERE {
  { ?m snvoc:hasCreator %s . ?m snvoc:%s ?v . }
  UNION
  { ?m snvoc:hasCreator %s . ?m snvoc:%s ?v . }
}`, g.prefix(), distinct, g.person(), attr, g.person(), attr), ""
	case 6: // ORDER BY over a message star (multiset unchanged by order).
		body, vars := g.messageStar("m")
		ov := vars[g.r.Intn(len(vars))]
		desc := ""
		if g.r.Intn(2) == 0 {
			desc = "DESC"
		}
		return fmt.Sprintf("%sSELECT %s?%s WHERE {\n%s} ORDER BY %s(?%s)",
			g.prefix(), distinct, strings.Join(vars, " ?"), body, desc, ov), ""
	case 7: // GROUP BY creator with order-insensitive aggregates.
		agg := [...]string{
			"(COUNT(?m) AS ?n)",
			"(COUNT(DISTINCT ?m) AS ?n)",
			"(SUM(?id) AS ?total)",
			"(MIN(?d) AS ?lo) (MAX(?d) AS ?hi)",
			"(COUNT(*) AS ?n)",
		}[g.r.Intn(5)]
		return fmt.Sprintf(`%sSELECT ?c %s WHERE {
  ?m snvoc:hasCreator ?c .
  ?m snvoc:id ?id .
  ?m snvoc:creationDate ?d .
} GROUP BY ?c`, g.prefix(), agg), ""
	case 8: // MINUS, sharing the anchored subject variable ?m.
		excl := [...]string{
			"?m rdf:type snvoc:Comment .",
			"?m snvoc:imageFile ?img .",
			fmt.Sprintf("?m snvoc:browserUsed ?b . FILTER(CONTAINS(STR(?b), %q))", "e"),
		}[g.r.Intn(3)]
		return fmt.Sprintf(`%sSELECT %s?m ?d WHERE {
  ?m snvoc:hasCreator %s .
  ?m snvoc:creationDate ?d .
  MINUS { %s }
}`, g.prefix(), distinct, g.person(), excl), ""
	case 9: // Join through a blank node: a person's likes, the node unprojected.
		target := [...]string{"hasPost", "hasComment"}[g.r.Intn(2)]
		who := "?p"
		if g.r.Intn(2) == 0 {
			who = g.person()
		}
		return fmt.Sprintf(`%sSELECT %s?msg ?d WHERE {
  %s snvoc:likes ?l .
  ?l snvoc:%s ?msg .
  ?l snvoc:creationDate ?d .
}`, g.prefix(), distinct, who, target), ""
	default: // Property paths: anchored knows closure or a sequence path.
		if g.r.Intn(2) == 0 {
			attr := personAttrs[g.r.Intn(len(personAttrs))]
			return fmt.Sprintf(`%sSELECT %s?f ?v WHERE {
  %s snvoc:knows+ ?f .
  ?f snvoc:%s ?v .
}`, g.prefix(), distinct, g.person(), attr), ""
		}
		attr := personAttrs[g.r.Intn(len(personAttrs))]
		return fmt.Sprintf(`%sSELECT %s?v WHERE {
  ?cm snvoc:replyOf/snvoc:hasCreator ?p .
  ?p snvoc:%s ?v .
}`, g.prefix(), distinct, attr), ""
	}
}
