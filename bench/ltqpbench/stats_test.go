package main

import "testing"

func ascending(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	return xs
}

func TestPercentileNearestRank(t *testing.T) {
	xs := ascending(200)
	for _, c := range []struct{ p, want float64 }{{50, 100}, {75, 150}, {95, 190}, {99.5, 199}} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%g of 1..200 = %g, want %g", c.p, got, c.want)
		}
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("percentile of nothing = %g, want 0", got)
	}
}

func TestTailPercentileRefusesThinTails(t *testing.T) {
	// p95 of 200 samples has exactly ten beyond it; of 199, nine.
	if v, err := tailPercentile(ascending(200), 95); err != nil || v != 190 {
		t.Errorf("p95 of 200 = %g, %v; want 190", v, err)
	}
	if _, err := tailPercentile(ascending(199), 95); err == nil {
		t.Error("p95 of 199 samples accepted with nine samples beyond it")
	}
	if _, err := tailPercentile(ascending(39), 75); err == nil {
		t.Error("p75 of 39 samples accepted with nine samples beyond it")
	}
	if v, err := tailPercentile(ascending(40), 75); err != nil || v != 30 {
		t.Errorf("p75 of 40 = %g, %v; want 30", v, err)
	}
}

func TestTailTakesWhatTheSampleSupports(t *testing.T) {
	for _, c := range []struct {
		n     int
		wantP float64
	}{{1000, 95}, {150, 90}, {60, 75}} {
		v, p := tail(ascending(c.n), 95, 90, 75)
		if p != c.wantP {
			t.Errorf("n=%d: took p%g, want p%g", c.n, p, c.wantP)
		}
		if want := percentile(ascending(c.n), c.wantP); v != want {
			t.Errorf("n=%d: value %g, want %g", c.n, v, want)
		}
	}
	if _, p := tail(ascending(24), 95, 90, 75); p != 0 {
		t.Errorf("24 samples: took p%g, want none", p)
	}
}
