package solidbench

import "fmt"

// ComplexQueries returns the harder workload class of the benchmark —
// queries combining multi-pod joins with OPTIONAL, aggregation, and
// ordering, in the spirit of SolidBench's complex class (derived from the
// LDBC SNB interactive complex reads). The paper notes that "for more
// complex queries in terms of the number of triple patterns ... more
// fundamental optimization work is needed"; these queries are the
// regression workload for that frontier.
func (d *Dataset) ComplexQueries() []Query {
	v := NewVocab(d.Config.Host)
	prefix := fmt.Sprintf("PREFIX snvoc: <%s>\nPREFIX foaf: <http://xmlns.com/foaf/0.1/>\n", v.NS())
	p1 := d.variantPerson(1)
	p2 := d.variantPerson(3)
	return []Query{
		{
			Name:     "Complex 1: recent messages of friends",
			Person:   p1,
			MultiPod: true,
			// SNB IC2: recent messages by friends, newest first.
			Text: prefix + fmt.Sprintf(`SELECT ?friend ?messageId ?date WHERE {
  <%s> foaf:knows ?friend.
  ?message snvoc:hasCreator ?friend;
    snvoc:id ?messageId;
    snvoc:creationDate ?date.
} ORDER BY DESC(?date) ?messageId LIMIT 20`, d.WebID(p1)),
		},
		{
			Name:     "Complex 2: top commenters on my posts",
			Person:   p1,
			MultiPod: true,
			// SNB IC-style: who replies to my posts most?
			Text: prefix + fmt.Sprintf(`SELECT ?commenter (COUNT(?comment) AS ?replies) WHERE {
  ?post snvoc:hasCreator <%s>.
  ?comment snvoc:replyOf ?post;
    snvoc:hasCreator ?commenter.
  FILTER(?commenter != <%s>)
} GROUP BY ?commenter ORDER BY DESC(?replies) ?commenter LIMIT 10`, d.WebID(p1), d.WebID(p1)),
		},
		{
			Name:     "Complex 3: friends and their optional latest activity",
			Person:   p2,
			MultiPod: true,
			// Left join with aggregation underneath: friends with a count
			// of their messages (0 rows for silent friends).
			Text: prefix + fmt.Sprintf(`SELECT ?friend ?name ?messages WHERE {
  <%s> foaf:knows ?friend.
  OPTIONAL { ?friend foaf:name ?name }
  OPTIONAL {
    { SELECT ?friend (COUNT(?m) AS ?messages) WHERE {
        ?m snvoc:hasCreator ?friend.
      } GROUP BY ?friend }
  }
} ORDER BY ?friend`, d.WebID(p2)),
		},
	}
}
