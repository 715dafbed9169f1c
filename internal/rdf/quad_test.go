package rdf

import (
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
)

func tr(s, p, o string) Triple {
	return NewTriple(NewIRI(s), NewIRI(p), NewIRI(o))
}

func TestTripleGroundAndVars(t *testing.T) {
	data := tr("http://a", "http://p", "http://b")
	if !data.IsGround() {
		t.Error("data triple should be ground")
	}
	pat := NewTriple(NewVar("s"), NewIRI("http://p"), NewVar("o"))
	if pat.IsGround() {
		t.Error("pattern with vars should not be ground")
	}
	if got := pat.Vars(); len(got) != 2 || got[0] != "s" || got[1] != "o" {
		t.Errorf("Vars() = %v", got)
	}
	dup := NewTriple(NewVar("x"), NewVar("x"), NewVar("y"))
	if got := dup.Vars(); len(got) != 2 {
		t.Errorf("Vars() with repeats = %v", got)
	}
	if got := data.Vars(); got != nil {
		t.Errorf("Vars() of a ground triple = %#v, want nil", got)
	}
}

// TestTripleVarsAllocatesOnce pins Vars at one allocation for a pattern with
// variables and none for a ground triple: the planner calls it for every
// pattern it orders.
func TestTripleVarsAllocatesOnce(t *testing.T) {
	for _, c := range []struct {
		pat  Triple
		want float64
	}{
		{tr("http://a", "http://p", "http://b"), 0},
		{NewTriple(NewVar("s"), NewIRI("http://p"), NewIRI("http://b")), 1},
		{NewTriple(NewVar("s"), NewVar("p"), NewVar("o")), 1},
		{NewTriple(NewVar("x"), NewIRI("http://p"), NewVar("x")), 1},
	} {
		if got := testing.AllocsPerRun(100, func() { sinkVars = c.pat.Vars() }); got != c.want {
			t.Errorf("Vars() of %s: %.0f allocations, want %.0f", c.pat, got, c.want)
		}
	}
}

var sinkVars []string

func TestTripleMatches(t *testing.T) {
	data := tr("http://a", "http://p", "http://b")
	cases := []struct {
		pat  Triple
		want bool
	}{
		{NewTriple(NewVar("s"), NewVar("p"), NewVar("o")), true},
		{NewTriple(NewIRI("http://a"), NewVar("p"), NewVar("o")), true},
		{NewTriple(NewIRI("http://z"), NewVar("p"), NewVar("o")), false},
		{data, true},
		{NewTriple(NewVar("x"), NewVar("p"), NewVar("x")), false}, // a != b
	}
	for _, c := range cases {
		if got := c.pat.Matches(data); got != c.want {
			t.Errorf("%v Matches %v = %v, want %v", c.pat, data, got, c.want)
		}
	}
	// Repeated variable matching identical terms.
	self := tr("http://a", "http://p", "http://a")
	pat := NewTriple(NewVar("x"), NewVar("p"), NewVar("x"))
	if !pat.Matches(self) {
		t.Error("repeated var should match identical terms")
	}
}

func TestTripleBind(t *testing.T) {
	pat := NewTriple(NewVar("s"), NewIRI("http://p"), NewVar("o"))
	b := Binding{"s": NewIRI("http://a")}
	got := pat.Bind(b)
	if got.S != NewIRI("http://a") {
		t.Errorf("Bind S = %v", got.S)
	}
	if !got.O.IsVar() {
		t.Errorf("unbound var should remain: %v", got.O)
	}
}

func TestQuadString(t *testing.T) {
	q := NewQuad(NewIRI("http://a"), NewIRI("http://p"), NewLiteral("x"), NewIRI("http://g"))
	want := `<http://a> <http://p> "x" <http://g>`
	if got := q.String(); got != want {
		t.Errorf("String() = %q, want %q", got, want)
	}
	q.G = Term{}
	if got := q.String(); got != `<http://a> <http://p> "x"` {
		t.Errorf("default graph String() = %q", got)
	}
}

func TestGraphBasics(t *testing.T) {
	g := NewGraph()
	t1 := tr("http://a", "http://p", "http://b")
	t2 := tr("http://a", "http://p", "http://c")
	if !g.Add(t1) {
		t.Error("first Add should report new")
	}
	if g.Add(t1) {
		t.Error("duplicate Add should report existing")
	}
	g.AddAll([]Triple{t2})
	if g.Len() != 2 {
		t.Errorf("Len = %d, want 2", g.Len())
	}
	if !g.Has(t1) || g.Has(tr("http://x", "http://p", "http://b")) {
		t.Error("Has misbehaves")
	}
	if got := g.Match(NewTriple(NewIRI("http://a"), NewVar("p"), NewVar("o"))); len(got) != 2 {
		t.Errorf("Match = %v", got)
	}
	if got := g.Objects(NewIRI("http://a"), NewIRI("http://p")); len(got) != 2 {
		t.Errorf("Objects = %v", got)
	}
	if got := g.FirstObject(NewIRI("http://a"), NewIRI("http://p")); got != NewIRI("http://b") {
		t.Errorf("FirstObject = %v (insertion order should win)", got)
	}
	if got := g.FirstObject(NewIRI("http://z"), NewIRI("http://p")); !got.IsZero() {
		t.Errorf("FirstObject missing = %v, want zero", got)
	}
	if got := g.Subjects(NewIRI("http://p"), NewIRI("http://b")); len(got) != 1 || got[0] != NewIRI("http://a") {
		t.Errorf("Subjects = %v", got)
	}
}

func TestGraphIsA(t *testing.T) {
	g := NewGraph()
	g.Add(NewTriple(NewIRI("http://a"), NewIRI(RDFType), NewIRI(LDPContainer)))
	if !g.IsA(NewIRI("http://a"), LDPContainer) {
		t.Error("IsA should find the type")
	}
	if g.IsA(NewIRI("http://a"), LDPResource) {
		t.Error("IsA should not find an absent type")
	}
}

func TestGraphSetSemantics(t *testing.T) {
	// Property: adding the same random triples twice yields the same Len.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		g := NewGraph()
		var ts []Triple
		for i := 0; i < 50; i++ {
			ts = append(ts, randomTriple(r))
		}
		g.AddAll(ts)
		n := g.Len()
		g.AddAll(ts)
		return g.Len() == n && n <= 50
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestBindingExtendMerge(t *testing.T) {
	b := NewBinding()
	b1, ok := b.Extend("x", NewIRI("http://a"))
	if !ok || b1.Len() != 1 {
		t.Fatal("Extend failed")
	}
	if b.Len() != 0 {
		t.Error("Extend must not mutate the receiver")
	}
	if _, ok := b1.Extend("x", NewIRI("http://b")); ok {
		t.Error("conflicting Extend should fail")
	}
	if same, ok := b1.Extend("x", NewIRI("http://a")); !ok || !same.Equal(b1) {
		t.Error("idempotent Extend should succeed")
	}

	c := Binding{"x": NewIRI("http://a"), "y": NewLiteral("v")}
	d := Binding{"y": NewLiteral("v"), "z": Integer(1)}
	m, ok := c.Merge(d)
	if !ok || m.Len() != 3 {
		t.Fatalf("Merge = %v, %v", m, ok)
	}
	e := Binding{"y": NewLiteral("other")}
	if _, ok := c.Merge(e); ok {
		t.Error("incompatible Merge should fail")
	}
	if c.Compatible(e) {
		t.Error("Compatible should be false on conflict")
	}
	if !c.Compatible(d) {
		t.Error("Compatible should be true when shared vars agree")
	}
}

func TestBindingMergeProperties(t *testing.T) {
	// Merge is commutative when it succeeds.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		mk := func() Binding {
			b := Binding{}
			for i := 0; i < r.Intn(5); i++ {
				b[string(rune('a'+r.Intn(4)))] = randomGroundTerm(r)
			}
			return b
		}
		x, y := mk(), mk()
		m1, ok1 := x.Merge(y)
		m2, ok2 := y.Merge(x)
		if ok1 != ok2 {
			return false
		}
		return !ok1 || m1.Equal(m2)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

func TestBindingMatchPattern(t *testing.T) {
	pat := NewTriple(NewVar("s"), NewIRI("http://p"), NewVar("o"))
	data := tr("http://a", "http://p", "http://b")
	b, ok := NewBinding().MatchPattern(pat, data)
	if !ok || b["s"] != NewIRI("http://a") || b["o"] != NewIRI("http://b") {
		t.Fatalf("MatchPattern = %v, %v", b, ok)
	}
	// With a conflicting prior binding.
	prior := Binding{"s": NewIRI("http://z")}
	if _, ok := prior.MatchPattern(pat, data); ok {
		t.Error("conflicting prior binding should fail")
	}
	// Constant mismatch.
	pat2 := NewTriple(NewVar("s"), NewIRI("http://other"), NewVar("o"))
	if _, ok := NewBinding().MatchPattern(pat2, data); ok {
		t.Error("constant mismatch should fail")
	}
}

func TestBindingKeyProjectVars(t *testing.T) {
	b := Binding{"x": NewIRI("http://a"), "y": NewLiteral("v")}
	if b.Key([]string{"x", "y"}) == b.Key([]string{"y", "x"}) {
		t.Error("Key must be order-sensitive to its vars argument")
	}
	other := Binding{"x": NewIRI("http://a"), "y": NewLiteral("v"), "z": Integer(9)}
	if b.Key([]string{"x", "y"}) != other.Key([]string{"x", "y"}) {
		t.Error("Key over same projection should match")
	}
	p := other.Project([]string{"x", "z"})
	if p.Len() != 2 || p.Has("y") {
		t.Errorf("Project = %v", p)
	}
	if got := b.Vars(); len(got) != 2 || got[0] != "x" || got[1] != "y" {
		t.Errorf("Vars = %v", got)
	}
	if s := b.String(); s != `{?x -> <http://a>, ?y -> "v"}` {
		t.Errorf("String = %s", s)
	}
}

func TestBindingKeyUnbound(t *testing.T) {
	a := Binding{"x": NewIRI("http://a")}
	b := Binding{}
	if a.Key([]string{"x"}) == b.Key([]string{"x"}) {
		t.Error("bound vs unbound should produce different keys")
	}
}

func TestMatchesConsistentWithMatchPattern(t *testing.T) {
	// Property: pattern.Matches(data) agrees with MatchPattern success from
	// an empty binding.
	f := func(seed int64) bool {
		r := rand.New(rand.NewSource(seed))
		data := randomTriple(r)
		pat := data
		// Randomly replace positions with variables.
		if r.Intn(2) == 0 {
			pat.S = NewVar("s")
		}
		if r.Intn(2) == 0 {
			pat.P = NewVar("p")
		}
		if r.Intn(2) == 0 {
			pat.O = NewVar("o")
		}
		_, ok := NewBinding().MatchPattern(pat, data)
		return ok == pat.Matches(data)
	}
	cfg := &quick.Config{MaxCount: 300, Values: func(v []reflect.Value, r *rand.Rand) {
		v[0] = reflect.ValueOf(r.Int63())
	}}
	if err := quick.Check(f, cfg); err != nil {
		t.Error(err)
	}
}
