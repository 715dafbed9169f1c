package extract

import (
	"net/url"

	"ltqp/internal/rdf"
)

// The five built-in extractors as they were before link tables: each scans
// the document's rdf.Graph on every call. They are the reference the
// table-filtering implementations are compared against (same links, same
// order, same labels) and are not shipped.

func refLink(t rdf.Term, extractor, reason string) (Link, bool) {
	if t.Kind != rdf.TermIRI || !rdf.IsHTTPIRI(t.Value) {
		return Link{}, false
	}
	u := rdf.DocumentIRI(t)
	if parsed, err := url.Parse(u); err != nil || parsed.Host == "" {
		return Link{}, false
	}
	return Link{URL: u, Reason: reason, Extractor: extractor}, true
}

func refDedup(links []Link) []Link {
	seen := map[string]bool{}
	out := links[:0]
	for _, l := range links {
		if !seen[l.URL] {
			seen[l.URL] = true
			out = append(out, l)
		}
	}
	return out
}

func refLDPContainer(doc Document) []Link {
	var out []Link
	for _, t := range doc.Graph.Triples() {
		if t.P.Kind == rdf.TermIRI && t.P.Value == rdf.LDPContains {
			if l, ok := refLink(t.O, "ldp-container", "ldp-container"); ok {
				out = append(out, l)
			}
		}
	}
	return refDedup(out)
}

func refSolidProfile(doc Document) []Link {
	var out []Link
	for _, t := range doc.Graph.Triples() {
		if t.P.Kind != rdf.TermIRI {
			continue
		}
		switch t.P.Value {
		case rdf.SolidPublicTypeIndex:
			if l, ok := refLink(t.O, "solid-profile", "solid-profile"); ok {
				out = append(out, l)
			}
		case rdf.PIMStorage:
			if l, ok := refLink(t.O, "solid-profile", "storage"); ok {
				out = append(out, l)
			}
		}
	}
	return refDedup(out)
}

func refTypeIndex(shape *QueryShape, doc Document) []Link {
	g := doc.Graph
	var out []Link
	for _, reg := range g.Subjects(rdf.NewIRI(rdf.RDFType), rdf.NewIRI(rdf.SolidTypeRegistration)) {
		if shape != nil && len(shape.Classes) > 0 {
			forClass := g.FirstObject(reg, rdf.NewIRI(rdf.SolidForClass))
			if forClass.Kind == rdf.TermIRI && !shape.Classes[forClass.Value] {
				continue
			}
		}
		for _, inst := range g.Objects(reg, rdf.NewIRI(rdf.SolidInstance)) {
			if l, ok := refLink(inst, "type-index", "type-index"); ok {
				out = append(out, l)
			}
		}
		for _, c := range g.Objects(reg, rdf.NewIRI(rdf.SolidInstanceContainer)) {
			if l, ok := refLink(c, "type-index", "type-index-container"); ok {
				out = append(out, l)
			}
		}
	}
	return refDedup(out)
}

func refSeeAlso(doc Document) []Link {
	var out []Link
	for _, t := range doc.Graph.Triples() {
		if t.P.Kind != rdf.TermIRI {
			continue
		}
		if t.P.Value == rdf.RDFSSeeAlso || t.P.Value == owlSameAs {
			if l, ok := refLink(t.O, "see-also", "see-also"); ok {
				out = append(out, l)
			}
		}
	}
	return refDedup(out)
}

func refCMatch(shape *QueryShape, doc Document) []Link {
	if shape == nil {
		return nil
	}
	var out []Link
	for _, t := range doc.Graph.Triples() {
		if t.P.Kind != rdf.TermIRI {
			continue
		}
		relevant := shape.Predicates[t.P.Value]
		if !relevant && t.P.Value == rdf.RDFType && t.O.Kind == rdf.TermIRI && shape.Classes[t.O.Value] {
			relevant = true
		}
		if !relevant {
			continue
		}
		if l, ok := refLink(t.S, "match", "match"); ok {
			out = append(out, l)
		}
		if l, ok := refLink(t.O, "match", "match"); ok {
			out = append(out, l)
		}
	}
	return refDedup(out)
}

// RefDefaultSolidSet is DefaultSolidSet's output for doc from the reference
// implementations, in extractor order.
func RefDefaultSolidSet(shape *QueryShape, doc Document) []Link {
	var out []Link
	out = append(out, refSolidProfile(doc)...)
	out = append(out, refTypeIndex(shape, doc)...)
	out = append(out, refLDPContainer(doc)...)
	out = append(out, refCMatch(shape, doc)...)
	out = append(out, refSeeAlso(doc)...)
	return out
}
