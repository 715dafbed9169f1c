package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

// refParseServerTiming is ParseServerTiming as first written, splitting every
// value into entries and every entry into parameters: the reference the
// allocation-free walk is held to.
func refParseServerTiming(vals []string) time.Duration {
	var totalMS float64
	for _, v := range vals {
		for _, entry := range strings.Split(v, ",") {
			params := strings.Split(entry, ";")
			for _, p := range params[1:] {
				p = strings.TrimSpace(p)
				if rest, ok := strings.CutPrefix(p, "dur="); ok {
					if f, err := strconv.ParseFloat(strings.TrimSpace(rest), 64); err == nil && f > 0 {
						totalMS += f
					}
				}
			}
		}
	}
	if totalMS <= 0 {
		return 0
	}
	return time.Duration(totalMS * float64(time.Millisecond))
}

func TestParseServerTimingEqualsReference(t *testing.T) {
	for _, c := range []struct {
		vals []string
		want time.Duration
	}{
		{nil, 0},
		{[]string{""}, 0},
		{[]string{"app;dur=12.5"}, 12500 * time.Microsecond},
		{[]string{"app;dur=1", "db;dur=2, cache;desc=\"x\";dur=3"}, 6 * time.Millisecond},
		{[]string{"app;dur=1;dur=2"}, 3 * time.Millisecond},
		{[]string{" app ; dur=1.5 ,db;dur= 2\t"}, 3500 * time.Microsecond},
		{[]string{"app; dur = 4"}, 0},
		{[]string{"dur=5", "app", "app;", ";;;", ",,,", ";dur=1"}, time.Millisecond},
		{[]string{"app;dur=", "app;dur=abc", "app;dur=1ms", "app;DUR=3"}, 0},
		{[]string{"app;dur=-4", "db;dur=2"}, 2 * time.Millisecond},
		{[]string{"app;dur=-4"}, 0},
		{[]string{"app;dur=NaN", "db;dur=nan;dur=1"}, time.Millisecond},
		{[]string{"app;dur=1e3"}, time.Second},
		{[]string{FormatServerTiming("app", 1234567*time.Microsecond)}, 1234567 * time.Microsecond},
	} {
		got, ref := ParseServerTiming(c.vals), refParseServerTiming(c.vals)
		if got != c.want || got != ref {
			t.Errorf("ParseServerTiming(%q) = %v, want %v, reference %v", c.vals, got, c.want, ref)
		}
	}
}

func TestParseServerTimingDoesNotAllocate(t *testing.T) {
	vals := []string{"app;dur=1.25, total;desc=\"all\";dur=3", "db;dur=0.5"}
	if n := testing.AllocsPerRun(100, func() { ParseServerTiming(vals) }); n != 0 {
		t.Errorf("ParseServerTiming allocates %v times per call, want 0", n)
	}
}

func FuzzParseServerTiming(f *testing.F) {
	f.Add("app;dur=12.5", "db;dur=2, cache;dur=3")
	f.Add(" app ; dur=1.5 ,", ";;dur=,")
	f.Add("app;dur=-4;dur=NaN", "x;dur=+Inf")
	f.Add("", ",,,;")
	f.Fuzz(func(t *testing.T, a, b string) {
		vals := []string{a, b}
		if got, want := ParseServerTiming(vals), refParseServerTiming(vals); got != want {
			t.Fatalf("ParseServerTiming(%q) = %v, reference %v", vals, got, want)
		}
	})
}
