// Package resource implements the per-query resource ledger: an
// atomically-updated accountant that every allocation-heavy layer of the
// engine charges as it retains memory on behalf of one query — dereference
// (bytes fetched and parsed-document bytes retained), store (ID-triples and
// index postings added by this query's traversal), exec (live batch slabs,
// join/group arena bytes, buffered result rows) and serve (shared-cache
// bytes pinned by this query).
//
// The ledger follows the nil-receiver discipline of internal/obs: a nil
// *Ledger is a valid no-op accountant, so the hot path costs nothing when
// no ledger is attached (BenchmarkLedgerOff: 0 allocs/op, a few ns). When a
// budget is set, the first charge that pushes the total over it latches the
// exceeded state exactly once and invokes the OnExceeded callback with a
// typed *BudgetExceededError carrying the full per-layer breakdown — the
// engine uses that to cancel the one offending query gracefully instead of
// letting the process OOM.
//
// The package deliberately depends only on the standard library so that
// internal/obs, internal/deref, internal/store, internal/exec and
// internal/serve can all import it without cycles.
package resource

import (
	"fmt"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Category identifies which engine layer a charge is attributed to.
type Category uint8

const (
	// Deref: network bytes fetched and parsed-document bytes retained by
	// this query's traversal.
	Deref Category = iota
	// Store: ID-triples and index postings the traversal added to the
	// query-local store.
	Store
	// Exec: live batch slabs checked out of the pool, join/group arena
	// bytes, and buffered result rows.
	Exec
	// Serve: shared-cache bytes pinned on behalf of this query (documents
	// served from the process-wide cache rather than fetched).
	Serve
	// NumCategories bounds the per-category arrays.
	NumCategories
)

// categoryNames indexes Category → stable wire name (used in snapshots,
// metrics and the /debug/resources ranking).
var categoryNames = [NumCategories]string{"deref", "store", "exec", "serve"}

// String returns the stable lowercase layer name.
func (c Category) String() string {
	if c < NumCategories {
		return categoryNames[c]
	}
	return fmt.Sprintf("category(%d)", uint8(c))
}

// Ledger tracks one query's memory spend: current (live) bytes, high-water
// peaks, and cumulative charged bytes, per category and in total. All
// methods are safe for concurrent use and safe on a nil receiver (no-ops).
type Ledger struct {
	queryID int64
	tenant  string
	budget  int64 // bytes; 0 = unlimited

	// onExceed fires exactly once, from whichever goroutine's Charge first
	// crosses the budget. Set before the ledger is shared.
	onExceed func(*BudgetExceededError)

	cur     [NumCategories]atomic.Int64
	peak    [NumCategories]atomic.Int64
	charged [NumCategories]atomic.Int64

	total     atomic.Int64
	peakTotal atomic.Int64
	exceeded  atomic.Bool
}

// New builds a ledger for one query. budget is in bytes; 0 disables
// enforcement (the ledger still accounts).
func New(queryID int64, tenant string, budget int64) *Ledger {
	return &Ledger{queryID: queryID, tenant: tenant, budget: budget}
}

// OnExceeded installs the budget-crossing callback. It must be set before
// the ledger is handed to concurrent chargers; the callback runs on the
// charging goroutine, exactly once per ledger.
func (l *Ledger) OnExceeded(fn func(*BudgetExceededError)) {
	if l != nil {
		l.onExceed = fn
	}
}

// raise CAS-lifts *p to at least v (the lock-free high-water update).
func raise(p *atomic.Int64, v int64) {
	for {
		old := p.Load()
		if v <= old || p.CompareAndSwap(old, v) {
			return
		}
	}
}

// Charge records n bytes newly retained by cat. Crossing a configured
// budget latches the exceeded state and fires OnExceeded with the full
// breakdown; accounting continues afterwards so the final snapshot reflects
// everything the query touched before cancellation took effect.
func (l *Ledger) Charge(cat Category, n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.charged[cat].Add(n)
	c := l.cur[cat].Add(n)
	raise(&l.peak[cat], c)
	t := l.total.Add(n)
	raise(&l.peakTotal, t)
	if l.budget > 0 && t > l.budget && l.exceeded.CompareAndSwap(false, true) {
		if fn := l.onExceed; fn != nil {
			fn(&BudgetExceededError{Budget: l.budget, Attempted: t, Breakdown: l.Snapshot()})
		}
	}
}

// Release returns n bytes previously charged to cat (the memory is no
// longer live for this query). Peaks and cumulative charges are unaffected.
func (l *Ledger) Release(cat Category, n int64) {
	if l == nil || n <= 0 {
		return
	}
	l.cur[cat].Add(-n)
	l.total.Add(-n)
}

// QueryID returns the owning query's id (0 on nil).
func (l *Ledger) QueryID() int64 {
	if l == nil {
		return 0
	}
	return l.queryID
}

// Tenant returns the owning tenant ("" on nil).
func (l *Ledger) Tenant() string {
	if l == nil {
		return ""
	}
	return l.tenant
}

// Budget returns the byte budget (0 = unlimited, or nil).
func (l *Ledger) Budget() int64 {
	if l == nil {
		return 0
	}
	return l.budget
}

// Current returns the live bytes across all categories.
func (l *Ledger) Current() int64 {
	if l == nil {
		return 0
	}
	return l.total.Load()
}

// Peak returns the total high-water mark.
func (l *Ledger) Peak() int64 {
	if l == nil {
		return 0
	}
	return l.peakTotal.Load()
}

// Charged returns the cumulative bytes ever charged (never decremented).
func (l *Ledger) Charged() int64 {
	if l == nil {
		return 0
	}
	var sum int64
	for i := range l.charged {
		sum += l.charged[i].Load()
	}
	return sum
}

// CurrentBy returns the live bytes charged to one category.
func (l *Ledger) CurrentBy(cat Category) int64 {
	if l == nil || cat >= NumCategories {
		return 0
	}
	return l.cur[cat].Load()
}

// PeakBy returns one category's high-water mark.
func (l *Ledger) PeakBy(cat Category) int64 {
	if l == nil || cat >= NumCategories {
		return 0
	}
	return l.peak[cat].Load()
}

// ChargedBy returns one category's cumulative charged bytes.
func (l *Ledger) ChargedBy(cat Category) int64 {
	if l == nil || cat >= NumCategories {
		return 0
	}
	return l.charged[cat].Load()
}

// Exceeded reports whether the budget has been crossed.
func (l *Ledger) Exceeded() bool {
	return l != nil && l.exceeded.Load()
}

// LayerUsage is one category's slice of a Snapshot.
type LayerUsage struct {
	Layer   string `json:"layer"`
	Current int64  `json:"current_bytes"`
	Peak    int64  `json:"peak_bytes"`
	Charged int64  `json:"charged_bytes"`
}

// Snapshot is a point-in-time copy of a ledger, JSON-ready for the
// resource_snapshot event, /debug/resources, and Explain().
type Snapshot struct {
	QueryID  int64  `json:"query_id"`
	Tenant   string `json:"tenant,omitempty"`
	Budget   int64  `json:"budget_bytes,omitempty"`
	Current  int64  `json:"current_bytes"`
	Peak     int64  `json:"peak_bytes"`
	Charged  int64  `json:"charged_bytes"`
	Exceeded bool   `json:"exceeded,omitempty"`
	// TopLayer is the category with the largest peak — the query's
	// dominant cost driver.
	TopLayer string       `json:"top_layer,omitempty"`
	Layers   []LayerUsage `json:"layers,omitempty"`
}

// Snapshot copies the ledger's counters. Individual category loads are
// atomic; the snapshot as a whole is a consistent-enough view for
// observability (charges may land between loads). Returns nil on nil.
func (l *Ledger) Snapshot() *Snapshot {
	if l == nil {
		return nil
	}
	s := &Snapshot{
		QueryID:  l.queryID,
		Tenant:   l.tenant,
		Budget:   l.budget,
		Current:  l.total.Load(),
		Peak:     l.peakTotal.Load(),
		Exceeded: l.exceeded.Load(),
	}
	var topPeak int64
	for c := Category(0); c < NumCategories; c++ {
		u := LayerUsage{
			Layer:   c.String(),
			Current: l.cur[c].Load(),
			Peak:    l.peak[c].Load(),
			Charged: l.charged[c].Load(),
		}
		s.Charged += u.Charged
		if u.Charged == 0 && u.Peak == 0 {
			continue
		}
		s.Layers = append(s.Layers, u)
		if u.Peak > topPeak {
			topPeak = u.Peak
			s.TopLayer = u.Layer
		}
	}
	return s
}

// BreakdownString renders the per-layer peaks compactly, e.g.
// "store 1.5MiB, deref 640.0KiB, exec 128.0KiB" (largest first).
func (s *Snapshot) BreakdownString() string {
	if s == nil || len(s.Layers) == 0 {
		return ""
	}
	layers := make([]LayerUsage, len(s.Layers))
	copy(layers, s.Layers)
	sort.SliceStable(layers, func(i, j int) bool { return layers[i].Peak > layers[j].Peak })
	var b strings.Builder
	for i, u := range layers {
		if i > 0 {
			b.WriteString(", ")
		}
		fmt.Fprintf(&b, "%s %s", u.Layer, FormatBytes(u.Peak))
	}
	return b.String()
}

// BudgetExceededError reports a query cancelled for crossing its memory
// budget. Breakdown carries the ledger state at the moment of crossing —
// the degradation report explaining where the memory went.
type BudgetExceededError struct {
	// Budget is the configured per-query limit in bytes.
	Budget int64
	// Attempted is the total that crossed the limit.
	Attempted int64
	// Breakdown is the full ledger snapshot at the crossing point.
	Breakdown *Snapshot
}

// Error renders the budget, the attempted total, and the per-layer
// breakdown so a failed query's error message alone explains the spend.
func (e *BudgetExceededError) Error() string {
	msg := fmt.Sprintf("query memory budget exceeded: %s needed, budget %s",
		FormatBytes(e.Attempted), FormatBytes(e.Budget))
	if bd := e.Breakdown.BreakdownString(); bd != "" {
		msg += " (" + bd + ")"
	}
	return msg
}

// FormatBytes renders a byte count in binary units ("1.5MiB").
func FormatBytes(n int64) string {
	const unit = 1024
	if n < unit {
		return fmt.Sprintf("%dB", n)
	}
	div, exp := int64(unit), 0
	for m := n / unit; m >= unit; m /= unit {
		div *= unit
		exp++
	}
	return fmt.Sprintf("%.1f%ciB", float64(n)/float64(div), "KMGTPE"[exp])
}

// ---------------------------------------------------------------------------
// Per-tenant rollups

// TenantUsage is one tenant's accumulated spend across finished queries.
type TenantUsage struct {
	Tenant string `json:"tenant"`
	// Queries is how many ledgers were rolled up for this tenant.
	Queries int64 `json:"queries"`
	// Charged is the cumulative bytes charged across those queries.
	Charged int64 `json:"charged_bytes"`
	// MaxPeak is the largest single-query high-water mark seen.
	MaxPeak int64 `json:"max_peak_bytes"`
	// Exceeded counts queries cancelled for crossing their budget.
	Exceeded int64 `json:"budget_exceeded"`
}

// TenantLedger aggregates finished queries' ledgers per tenant — the
// process-lifetime rollup behind ltqp_tenant_mem_charged_bytes_total and
// the tenants section of /debug/resources. Nil-safe like Ledger.
type TenantLedger struct {
	mu      sync.Mutex
	tenants map[string]*TenantUsage
}

// NewTenantLedger builds an empty rollup.
func NewTenantLedger() *TenantLedger {
	return &TenantLedger{tenants: map[string]*TenantUsage{}}
}

// Record folds one finished query's ledger totals — its tenant, the bytes
// it charged, its peak and whether it crossed its budget — into the
// tenant's totals. An empty tenant rolls up under "default".
func (t *TenantLedger) Record(tenant string, charged, peak int64, exceeded bool) {
	if t == nil {
		return
	}
	if tenant == "" {
		tenant = "default"
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	u := t.tenants[tenant]
	if u == nil {
		u = &TenantUsage{Tenant: tenant}
		t.tenants[tenant] = u
	}
	u.Queries++
	u.Charged += charged
	if peak > u.MaxPeak {
		u.MaxPeak = peak
	}
	if exceeded {
		u.Exceeded++
	}
}

// Snapshot returns every tenant's usage, largest cumulative spend first.
func (t *TenantLedger) Snapshot() []TenantUsage {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := make([]TenantUsage, 0, len(t.tenants))
	for _, u := range t.tenants {
		out = append(out, *u)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].Charged != out[j].Charged {
			return out[i].Charged > out[j].Charged
		}
		return out[i].Tenant < out[j].Tenant
	})
	return out
}

// MaxPeak returns the largest single-query high-water mark across all
// tenants (loadgen's peak_mem column).
func (t *TenantLedger) MaxPeak() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	var max int64
	for _, u := range t.tenants {
		if u.MaxPeak > max {
			max = u.MaxPeak
		}
	}
	return max
}
