package store

import (
	"context"
	"fmt"
	"runtime"
	"testing"

	"ltqp/internal/rdf"
)

func benchTriples(n int) []rdf.Triple {
	out := make([]rdf.Triple, n)
	for i := range out {
		out[i] = rdf.NewTriple(
			rdf.NewIRI(fmt.Sprintf("http://example.org/s%d", i%1000)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/p%d", i%10)),
			rdf.NewIRI(fmt.Sprintf("http://example.org/o%d", i)),
		)
	}
	return out
}

func BenchmarkAddThroughput(b *testing.B) {
	triples := benchTriples(10000)
	doc := rdf.NewIRI("http://example.org/doc")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		for _, t := range triples {
			s.Add(t, doc)
		}
	}
	b.ReportMetric(float64(len(triples)), "triples/op")
}

func BenchmarkMatchNowByPredicate(b *testing.B) {
	s := New()
	doc := rdf.NewIRI("http://example.org/doc")
	for _, t := range benchTriples(10000) {
		s.Add(t, doc)
	}
	s.Close()
	pattern := rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://example.org/p3"), rdf.NewVar("o"))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if got := s.MatchNow(pattern); len(got) != 1000 {
			b.Fatalf("matches = %d", len(got))
		}
	}
}

// BenchmarkLiveBGPDrain reads one predicate's matches out of a closed store
// through a lone-pattern BGP, rows of TermIDs, nothing decoded.
func BenchmarkLiveBGPDrain(b *testing.B) {
	s := New()
	doc := rdf.NewIRI("http://example.org/doc")
	for _, t := range benchTriples(10000) {
		s.Add(t, doc)
	}
	s.Close()
	pattern := rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://example.org/p3"), rdf.NewVar("o"))
	ctx := context.Background()
	n := 0
	rows := &Rows{Cols: make([][]rdf.TermID, 2), Cap: 1024}
	rows.Flush = func() bool {
		n += rows.N
		rows.N, rows.Cols[0], rows.Cols[1] = 0, rows.Cols[0][:0], rows.Cols[1][:0]
		return true
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bgp := loneBGP(s, pattern)
		n = 0
		for bgp.Next(ctx, rows) {
			rows.Flush()
		}
		bgp.Release()
		if n != 1000 {
			b.Fatalf("drained = %d", n)
		}
	}
}

func BenchmarkConcurrentAddAndMatch(b *testing.B) {
	// The LTQP workload: one writer (traversal) and a live reader (a join).
	triples := benchTriples(5000)
	doc := rdf.NewIRI("http://example.org/doc")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		pattern := rdf.NewTriple(rdf.NewVar("s"), rdf.NewIRI("http://example.org/p3"), rdf.NewVar("o"))
		done := make(chan int)
		go func() {
			bgp := loneBGP(s, pattern)
			defer bgp.Release()
			n := 0
			for next(context.Background(), bgp, func(_, _ []rdf.TermID) bool { n++; return true }) {
			}
			done <- n
		}()
		for _, t := range triples {
			s.Add(t, doc)
		}
		s.Close()
		if n := <-done; n != 500 {
			b.Fatalf("reader saw %d", n)
		}
	}
}

// BenchmarkAddEncoded attaches 20-triple segments to one store, the ingest of
// a warm query: no index but the predicate's exists, because nothing probes
// while the benchmark runs. B/triple is what the store allocated per triple
// it kept, growth slack included.
func BenchmarkAddEncoded(b *testing.B) {
	const perDoc = 20
	ids := make([]rdf.IDTriple, perDoc)
	var m0, m1 runtime.MemStats
	b.ReportAllocs()
	runtime.ReadMemStats(&m0)
	s := New()
	for d := 0; d < b.N; d++ {
		for i := range ids {
			ids[i] = rdf.IDTriple{S: rdf.TermID(1000 + d*4 + i/5), P: rdf.TermID(1 + i%7), O: rdf.TermID(1<<20 + d*perDoc + i)}
		}
		s.AddEncoded(rdf.TermID(1+d), ids)
	}
	runtime.ReadMemStats(&m1)
	b.ReportMetric(float64(m1.TotalAlloc-m0.TotalAlloc)/float64(b.N*perDoc), "B/triple")
}

// BenchmarkAttachWarmSegments is the store side of a warm query: a fresh
// store takes 127 cached 19-triple segments, then one (?s, p, o) probe
// builds the PO index over them. Most of its keys hold one position.
func BenchmarkAttachWarmSegments(b *testing.B) {
	const docs, perDoc = 127, 19
	segs := make([][]rdf.IDTriple, docs)
	for d := range segs {
		segs[d] = make([]rdf.IDTriple, perDoc)
		for i := range segs[d] {
			segs[d][i] = rdf.IDTriple{S: rdf.TermID(1000 + d*3 + i/7), P: rdf.TermID(1 + i%9), O: rdf.TermID(1<<20 + d*perDoc + i)}
		}
	}
	probe := constPattern(segs[docs/2][4], false, true, true)
	b.ReportAllocs()
	b.ResetTimer()
	for n := 0; n < b.N; n++ {
		s := New()
		for d, seg := range segs {
			s.AddEncoded(rdf.TermID(1+d), seg)
		}
		s.mu.Lock()
		if list, _ := s.candidates(&probe, true); len(list) != 1 {
			b.Fatal("the probed key must hold one position")
		}
		s.mu.Unlock()
	}
}
