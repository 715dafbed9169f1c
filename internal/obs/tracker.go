package obs

import (
	"sync"
	"time"

	"ltqp/internal/resource"
)

// QueryTracker remembers in-flight and recently finished queries for the
// /debug/queries endpoint: what is running right now, what just ran, how
// long it took, how many solutions it produced, and (when tracing is on)
// the full span tree. All methods are nil-safe.
type QueryTracker struct {
	capacity int

	mu       sync.Mutex
	inflight map[int64]*QueryRecord
	recent   []*QueryRecord // newest first, bounded by capacity
}

// QueryRecord is one tracked query execution.
type QueryRecord struct {
	ID    int64
	Query string
	Seeds []string
	Start time.Time
	Trace *Trace

	mu      sync.Mutex
	end     time.Time
	results int
	errMsg  string
	topo    *Topology
	contrib []DocMatches
	tenant  string
	ledger  *resource.Ledger
}

// DocMatches is one document's contribution to a query's results: how many
// pattern matches used a triple sourced from it.
type DocMatches struct {
	Document string `json:"document"`
	Matches  int    `json:"matches"`
}

// NewQueryTracker returns a tracker remembering the given number of
// finished queries (minimum 1).
func NewQueryTracker(capacity int) *QueryTracker {
	if capacity < 1 {
		capacity = 1
	}
	return &QueryTracker{capacity: capacity, inflight: map[int64]*QueryRecord{}}
}

// Start registers a query execution under the given correlation id (from
// NextQueryID; id <= 0 allocates a fresh one) and returns its record. The
// same id appears on the query's events, logs and journal lines. Nil-safe:
// a nil tracker returns a nil record whose methods no-op.
func (t *QueryTracker) Start(id int64, query string, seeds []string, trace *Trace) *QueryRecord {
	if t == nil {
		return nil
	}
	if id <= 0 {
		id = NextQueryID()
	}
	rec := &QueryRecord{
		ID:    id,
		Query: query,
		Seeds: append([]string(nil), seeds...),
		Start: time.Now(),
		Trace: trace,
	}
	t.mu.Lock()
	t.inflight[rec.ID] = rec
	t.mu.Unlock()
	return rec
}

// SetTenant records which tenant (API key / client address) the query is
// charged to, shown as the tenant column of /debug/queries.
func (r *QueryRecord) SetTenant(tenant string) {
	if r == nil || tenant == "" {
		return
	}
	r.mu.Lock()
	r.tenant = tenant
	r.mu.Unlock()
}

// Tenant returns the tenant the query was charged to ("" when untracked).
func (r *QueryRecord) Tenant() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.tenant
}

// AttachLedger associates the query's resource ledger with the record,
// making live and peak memory visible on /debug/queries and
// /debug/resources.
func (r *QueryRecord) AttachLedger(l *resource.Ledger) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ledger = l
	r.mu.Unlock()
}

// Ledger returns the attached resource ledger (nil when the query ran
// without accounting; a nil ledger reads as zero usage).
func (r *QueryRecord) Ledger() *resource.Ledger {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.ledger
}

// AddResult notes one delivered solution.
func (r *QueryRecord) AddResult() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.results++
	r.mu.Unlock()
}

// Results returns the number of solutions delivered so far.
func (r *QueryRecord) Results() int {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.results
}

// AttachTopology associates the traversal topology recorded during this
// query with the record, making it visible on /debug/topology.
func (r *QueryRecord) AttachTopology(t *Topology) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.topo = t
	r.mu.Unlock()
}

// Topology returns the attached traversal topology (nil when the query ran
// without explain recording).
func (r *QueryRecord) Topology() *Topology {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.topo
}

// SetContributions records the per-document provenance tallies (how many
// pattern matches each document's triples fed).
func (r *QueryRecord) SetContributions(c []DocMatches) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.contrib = c
	r.mu.Unlock()
}

// Contributions returns the per-document provenance tallies (nil when the
// query ran without provenance).
func (r *QueryRecord) Contributions() []DocMatches {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.contrib
}

// Err returns the recorded failure message ("" when none).
func (r *QueryRecord) Err() string {
	if r == nil {
		return ""
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.errMsg
}

// Duration returns the query's wall time (elapsed-so-far while running).
func (r *QueryRecord) Duration() time.Duration {
	if r == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.end.IsZero() {
		return time.Since(r.Start)
	}
	return r.end.Sub(r.Start)
}

// Done reports whether the query has finished.
func (r *QueryRecord) Done() bool {
	if r == nil {
		return false
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return !r.end.IsZero()
}

// Finish moves the record from in-flight to recent, noting the outcome:
// errMsg is the query's failure ("" for none).
func (t *QueryTracker) Finish(rec *QueryRecord, errMsg string) {
	if t == nil || rec == nil {
		return
	}
	rec.mu.Lock()
	if rec.end.IsZero() {
		rec.end = time.Now()
	}
	if errMsg != "" {
		rec.errMsg = errMsg
	}
	rec.mu.Unlock()
	t.mu.Lock()
	delete(t.inflight, rec.ID)
	t.recent = append([]*QueryRecord{rec}, t.recent...)
	if len(t.recent) > t.capacity {
		t.recent = t.recent[:t.capacity]
	}
	t.mu.Unlock()
}

// InFlight returns the currently executing queries, oldest first.
func (t *QueryTracker) InFlight() []*QueryRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*QueryRecord, 0, len(t.inflight))
	for _, r := range t.inflight {
		out = append(out, r)
	}
	sortRecords(out)
	return out
}

// Recent returns finished queries, newest first.
func (t *QueryTracker) Recent() []*QueryRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]*QueryRecord, len(t.recent))
	copy(out, t.recent)
	return out
}

func sortRecords(rs []*QueryRecord) {
	for i := 1; i < len(rs); i++ {
		for j := i; j > 0 && rs[j].ID < rs[j-1].ID; j-- {
			rs[j], rs[j-1] = rs[j-1], rs[j]
		}
	}
}
