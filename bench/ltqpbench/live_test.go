package main

import (
	"testing"
	"time"
)

func TestQuietKeepsTheFasterHalfOfTheRounds(t *testing.T) {
	at := func(msec int) time.Duration { return time.Duration(msec) * time.Millisecond }
	ok := outcome{ok: true}
	win := window{
		// Four rounds of 100, 300, 110 and 120 ms; CPU runs at twice wall.
		marks: []mark{{0, 0}, {at(100), at(200)}, {at(400), at(800)}, {at(510), at(1020)}, {at(630), at(1260)}},
		samples: []sample{
			{shape: 0, done: at(50), outcome: ok}, {shape: 1, done: at(100), outcome: ok},
			{shape: 0, done: at(250), outcome: ok}, {shape: 1, done: at(400), outcome: ok},
			{shape: 0, done: at(450), outcome: ok}, {shape: 1, done: at(510), outcome: ok},
			// A wrong answer is not timed; its round then holds one query
			// in 120 ms and ranks behind the 110 ms round of two.
			{shape: 0, done: at(600), outcome: outcome{}}, {shape: 1, done: at(630), outcome: ok},
			// Another client's query outliving the first client's last round.
			{shape: 0, done: at(700), outcome: ok},
		},
	}
	q := win.quiet()
	if q.rounds != 2 || len(q.roundMS) != 4 {
		t.Fatalf("kept %d of %d rounds, want 2 of 4", q.rounds, len(q.roundMS))
	}
	if q.wall != at(210) || q.cpu != at(420) {
		t.Errorf("kept wall %v cpu %v, want the 100 and 110 ms rounds: 210ms, 420ms", q.wall, q.cpu)
	}
	if len(q.samples) != 4 {
		t.Errorf("kept %d samples, want the 4 of the two fastest rounds", len(q.samples))
	}
	for _, s := range q.samples {
		if s.done > at(100) && (s.done <= at(400) || s.done > at(510)) {
			t.Errorf("kept a sample completed at %v", s.done)
		}
	}
	if want := []float64{50, 55, 120, 150}; !equalFloats(q.roundMS, want) {
		t.Errorf("round ms per query = %v, want %v", q.roundMS, want)
	}
}

func equalFloats(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
