package linkqueue

import "fmt"

// Policy names a link-queue discipline. The zero value selects FIFO — the
// paper's breadth-first baseline and the oracle the guided queue is
// differentially tested against.
type Policy string

const (
	// PolicyFIFO is breadth-first traversal (the Comunica default).
	PolicyFIFO Policy = "fifo"
	// PolicyGuided scores links by query relevance (constant-IRI mentions,
	// discovery reason, source-document productivity) with per-origin
	// round-robin fairness.
	PolicyGuided Policy = "guided"
)

// ParsePolicy validates a policy name; "" means PolicyFIFO.
func ParsePolicy(s string) (Policy, error) {
	switch Policy(s) {
	case "", PolicyFIFO:
		return PolicyFIFO, nil
	case PolicyGuided:
		return PolicyGuided, nil
	default:
		return "", fmt.Errorf("linkqueue: unknown queue policy %q (want fifo or guided)", s)
	}
}

// New builds an empty queue under the policy. The relevance is used only by
// PolicyGuided (nil disables its mention boost).
func (p Policy) New(rel *Relevance) Queue {
	if p == PolicyGuided {
		return NewGuided(rel)
	}
	return NewFIFO()
}
