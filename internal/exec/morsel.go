package exec

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// Morsel-driven parallelism: phases that process an index range of rows
// (join probes, grouping partitions) split the range into fixed-size morsels
// that a small worker pool claims off a shared atomic cursor. Workers that
// finish their morsel steal the next one, so skewed per-row cost (a probe
// that hits a huge bucket) does not serialize the phase behind one worker.

// workerCount returns the number of morsel workers for this execution:
// Env.Workers when set, otherwise GOMAXPROCS.
func (e *Env) workerCount() int {
	if e.Workers > 0 {
		return e.Workers
	}
	return runtime.GOMAXPROCS(0)
}

// runMorsels processes the index range [0, total) by fn, morsel-parallel
// when both the range and the worker budget warrant it. fn is called with a
// worker id in [0, workers) and a half-open row range; calls with the same
// worker id never overlap, so fn may keep per-worker state indexed by id.
// It returns the number of workers used (1 when the phase ran sequentially).
func runMorsels(env *Env, total int, fn func(worker, lo, hi int)) int {
	workers := env.workerCount()
	if total < morselMinRows || workers <= 1 {
		if total > 0 {
			fn(0, 0, total)
		}
		return 1
	}
	if max := (total + morselSize - 1) / morselSize; workers > max {
		workers = max
	}
	var cursor atomic.Int64
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(worker int) {
			defer wg.Done()
			for {
				lo := int(cursor.Add(morselSize)) - morselSize
				if lo >= total {
					return
				}
				hi := lo + morselSize
				if hi > total {
					hi = total
				}
				fn(worker, lo, hi)
			}
		}(w)
	}
	wg.Wait()
	return workers
}
