package baseline

import (
	"fmt"
	"runtime"
	"testing"
	"time"

	"ltqp"
	"ltqp/internal/simenv"
)

// matrixCell is one combination of the facade options the differential
// harness varies, plus how the consumer reads the results. Every option
// claims never to change the result multiset; the matrix checks that claim
// for each option in every combination. A consumer that closes early must
// get a sub-multiset of the answer and leave nothing running behind it.
type matrixCell struct {
	QueuePolicy   string
	MaxConcurrent int
	Explain       bool
	CloseEarly    bool // read closeAfter rows, then Close without draining
	SharedCache   bool // the one cache all shared-cache cells use; else none
	Observed      bool // an Observer of the cell's own; else nil
}

// closeAfter is the number of rows a close-early cell reads before Close.
const closeAfter = 2

// The axes of the matrix, in walk order: the first varies fastest.
var (
	matrixQueuePolicies = []string{"fifo", "guided"}
	matrixConcurrency   = []int{6, 1}
	matrixSharedCache   = []bool{true, false}
	matrixFlags         = []bool{false, true}
)

// configMatrix enumerates every cell by a mixed-radix walk: cell c reads
// one digit per axis off c, the first axis least significant, so
// consecutive queries differ in the queue policy and every combination
// comes round once per len(cells) queries.
func configMatrix() []matrixCell {
	n := len(matrixQueuePolicies) * len(matrixConcurrency) * len(matrixFlags) *
		len(matrixFlags) * len(matrixSharedCache) * len(matrixFlags)
	cells := make([]matrixCell, n)
	for c := range cells {
		rest := c
		digit := func(radix int) int {
			d := rest % radix
			rest /= radix
			return d
		}
		cells[c] = matrixCell{
			QueuePolicy:   matrixQueuePolicies[digit(len(matrixQueuePolicies))],
			MaxConcurrent: matrixConcurrency[digit(len(matrixConcurrency))],
			Explain:       matrixFlags[digit(len(matrixFlags))],
			CloseEarly:    matrixFlags[digit(len(matrixFlags))],
			SharedCache:   matrixSharedCache[digit(len(matrixSharedCache))],
			Observed:      matrixFlags[digit(len(matrixFlags))],
		}
	}
	return cells
}

func (c matrixCell) String() string {
	consumer, cache, obs := "drain", "shared", "nil"
	if c.CloseEarly {
		consumer = fmt.Sprintf("close-after-%d", closeAfter)
	}
	if !c.SharedCache {
		cache = "none"
	}
	if c.Observed {
		obs = "observer"
	}
	return fmt.Sprintf("queue=%s concurrent=%d explain=%t consumer=%s cache=%s obs=%s",
		c.QueuePolicy, c.MaxConcurrent, c.Explain, consumer, cache, obs)
}

// config builds the cell's engine configuration over the environment.
func (c matrixCell) config(env *simenv.Env, cache *ltqp.SharedDocumentCache) ltqp.Config {
	cfg := ltqp.Config{
		Client:        env.Client(),
		Lenient:       true, // vocabulary/tag IRIs in the environment 404
		QueuePolicy:   c.QueuePolicy,
		MaxConcurrent: c.MaxConcurrent,
		Explain:       c.Explain,
	}
	if c.SharedCache {
		cfg.SharedCache = cache
	}
	if c.Observed {
		cfg.Obs = ltqp.NewObserver()
	}
	return cfg
}

func TestConfigMatrixCoversEveryCombination(t *testing.T) {
	cells := configMatrix()
	if len(cells) != 64 {
		t.Fatalf("%d cells, want 64", len(cells))
	}
	seen := map[matrixCell]bool{}
	for _, c := range cells {
		if seen[c] {
			t.Errorf("cell %s occurs twice", c)
		}
		seen[c] = true
	}
}

// quiesce closes the client's idle connections and waits for the goroutine
// count to stop moving; it returns the settled count.
func quiesce(t *testing.T, env *simenv.Env) int {
	t.Helper()
	env.Client().CloseIdleConnections()
	before := -1
	settle(t, "goroutine count does not settle before the query", func() bool {
		n := runtime.NumGoroutine()
		stable := n == before
		before = n
		return stable
	})
	return before
}

// checkHygiene asserts that a finished query left nothing behind: once the
// idle connections are closed no goroutine outlives it, and in an observed
// cell the link-queue depth gauge is back to 0 and every ledger category
// but the store is back to 0 bytes. The query-local store stays charged: the
// execution keeps it (Result.Resources, Explain) and it is never released.
func checkHygiene(t *testing.T, env *simenv.Env, engine *ltqp.Engine, res *ltqp.Result, before int, config string) {
	t.Helper()
	// A dial that a cancelled request started can finish, and park its
	// connection in the idle pool, after any one close: close on every poll.
	settle(t, "goroutines outlive the query ("+config+")", func() bool {
		env.Client().CloseIdleConnections()
		return runtime.NumGoroutine() <= before
	})
	observer := engine.Observer()
	if observer == nil {
		return
	}
	settle(t, "link queue depth gauge does not return to 0 ("+config+")", func() bool {
		return observer.Metrics.LinkQueueDepth.Value() == 0
	})
	snap := res.Resources()
	if snap == nil {
		t.Fatalf("observed query (%s) has no resource ledger", config)
	}
	for _, l := range snap.Layers {
		if l.Layer == "store" {
			if l.Current != l.Charged {
				t.Errorf("store ledger (%s): %d bytes live of %d charged", config, l.Current, l.Charged)
			}
		} else if l.Current != 0 {
			t.Errorf("%s ledger (%s): %d bytes still live after Results closed", l.Layer, config, l.Current)
		}
	}
}

// settle polls until done reports true, failing the test with every
// goroutine's stack when it does not within ten seconds.
func settle(t *testing.T, what string, done func() bool) {
	t.Helper()
	for deadline := time.Now().Add(10 * time.Second); !done(); time.Sleep(5 * time.Millisecond) {
		if time.Now().After(deadline) {
			buf := make([]byte, 1<<16)
			t.Fatalf("%s\n%s", what, buf[:runtime.Stack(buf, true)])
		}
	}
}
