package core

import (
	"testing"

	"ltqp/internal/sparql"
)

func TestShapeOf(t *testing.T) {
	q, err := sparql.ParseQuery(`
PREFIX snvoc: <https://x.invalid/vocab/>
PREFIX rdf: <http://www.w3.org/1999/02/22-rdf-syntax-ns#>
SELECT ?m WHERE {
  ?m rdf:type snvoc:Post.
  ?m snvoc:hasCreator <https://pod.invalid/profile/card#me>.
  ?m (snvoc:hasPost|snvoc:hasComment) ?x.
  OPTIONAL { ?m snvoc:content ?c }
}`)
	if err != nil {
		t.Fatal(err)
	}
	shape := ShapeOf(q)
	for _, p := range []string{"hasCreator", "hasPost", "hasComment", "content"} {
		if !shape.Predicates["https://x.invalid/vocab/"+p] {
			t.Errorf("missing predicate %s", p)
		}
	}
	if !shape.Classes["https://x.invalid/vocab/Post"] {
		t.Error("missing class Post")
	}
	if !shape.IRIs["https://pod.invalid/profile/card#me"] {
		t.Error("missing IRI")
	}
}
