package main

import (
	"context"
	"testing"
	"time"
)

// TestSmoke runs every workload for one round of each pass on the unit-test
// dataset: answers checked against the oracle, the replay held to the live
// run's document count, every declared metric present.
func TestSmoke(t *testing.T) {
	for _, w := range workloads {
		w := w
		t.Run(w.Name, func(t *testing.T) {
			t.Parallel()
			rep, spans, err := runWorkload(context.Background(), w,
				options{seed: 1, window: time.Millisecond, endToEnd: true, layers: true, small: true})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Failed != 0 || rep.Attempted == 0 {
				t.Errorf("%d of %d failed", rep.Failed, rep.Attempted)
			}
			for _, d := range endToEnd {
				if v, ok := rep.EndToEnd[d.Name]; !ok || v.Value <= 0 || v.Unit != d.Unit {
					t.Errorf("end-to-end %s = %+v", d.Name, v)
				}
			}
			for _, d := range perLayer {
				if v, ok := rep.PerLayer[d.Name]; !ok || v.Unit != d.Unit {
					t.Errorf("per-layer %s = %+v", d.Name, v)
				}
			}
			if len(spans) == 0 {
				t.Error("the replay recorded no spans")
			}
			// A workload that bypasses a layer reports it idle.
			parse := rep.PerLayer["turtle.parse_us_per_doc"].Value
			if traverses := w.Mode == modeFresh; traverses != (parse > 0) {
				t.Errorf("turtle.parse_us_per_doc = %g on %s", parse, w.Name)
			}
			hit := rep.PerLayer["serve.cache_hit_us"].Value
			if warm := w.Mode == modeWarm; warm != (hit > 0) {
				t.Errorf("serve.cache_hit_us = %g on %s", hit, w.Name)
			}
		})
	}
}
