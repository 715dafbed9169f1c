package ltqp

import (
	"context"
	"testing"
	"time"

	"ltqp/internal/rdf"
	"ltqp/internal/solidbench"
)

func TestDescribeConstantResource(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	webID := env.Dataset.WebID(0)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	triples, err := e.Describe(ctx, "DESCRIBE <"+webID+">")
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) == 0 {
		t.Fatal("empty description")
	}
	me := rdf.NewIRI(webID)
	hasName := false
	for _, tr := range triples {
		if tr.S != me && !tr.S.IsBlank() {
			t.Errorf("CBD must only contain the resource's triples, got subject %v", tr.S)
		}
		if tr.P.Value == rdf.FOAFName {
			hasName = true
		}
	}
	if !hasName {
		t.Error("description lacks foaf:name")
	}
}

func TestDescribeWithWhere(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	v := solidbench.NewVocab(env.Dataset.Config.Host)
	webID := env.Dataset.WebID(1)
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	triples, err := e.Describe(ctx, `
PREFIX snvoc: <`+v.NS()+`>
DESCRIBE ?m WHERE { ?m snvoc:hasCreator <`+webID+`> }`)
	if err != nil {
		t.Fatal(err)
	}
	if len(triples) == 0 {
		t.Fatal("no description for the person's messages")
	}
	// Every subject must be a message with the right creator.
	creators := map[rdf.Term]bool{}
	for _, tr := range triples {
		if tr.P == v.P("hasCreator") {
			creators[tr.O] = true
		}
	}
	if len(creators) != 1 || !creators[rdf.NewIRI(webID)] {
		t.Errorf("creators = %v", creators)
	}
}

func TestDescribeRequiresDescribeForm(t *testing.T) {
	env := newTestEnv(t)
	e := newTestEngine(env)
	_, err := e.Describe(context.Background(), "SELECT ?x WHERE { ?x ?p <"+env.Dataset.WebID(0)+"> }")
	if err == nil {
		t.Error("SELECT passed to Describe should error")
	}
}
