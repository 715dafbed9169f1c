package serve

import (
	"context"
	"errors"

	"ltqp/internal/deref"
	"ltqp/internal/obs"
)

// flight is one in-progress upstream fetch that concurrent callers of the
// same key share. The leader runs fn and closes done; followers block on
// done (or their own context) and read the outcome.
type flight struct {
	done chan struct{}
	res  *deref.Result
	err  error
	// live asserts the singleflight invariant: at most one flight per key
	// executes its fetch at any moment (see SharedCache.duplicateInflight).
	live bool
}

// do runs fn under singleflight for key. The second return reports whether
// this caller shared another flight's outcome (joined as a follower) —
// those count as dedups and, on success or when the flight found the
// document not to exist, as hits for the caller's accounting, since no
// network request of their own was issued.
//
// A follower never inherits its leader's context: if the follower's own ctx
// dies while waiting, it returns that error; if the leader died of context
// cancellation while the follower is still alive, the caller (Dereference)
// retries the key so the follower becomes the new leader.
func (c *SharedCache) do(ctx context.Context, key string, fn func() (*deref.Result, error)) (*deref.Result, bool, error) {
	c.mu.Lock()
	if f, ok := c.flights[key]; ok {
		if f.live {
			// invariant holds: we join rather than fetch
			c.mu.Unlock()
			c.dedups.Add(1)
			obs.On(c.obs).SingleflightDedups.Inc()
			select {
			case <-f.done:
				return f.res, true, f.err
			case <-ctx.Done():
				return nil, true, ctx.Err()
			}
		}
		// A completed flight still in the map is a bookkeeping bug; count
		// it rather than fetch twice silently.
		c.duplicateInflight.Add(1)
	}
	f := &flight{done: make(chan struct{}), live: true}
	c.flights[key] = f
	c.mu.Unlock()

	f.res, f.err = fn()

	c.mu.Lock()
	f.live = false
	delete(c.flights, key)
	c.mu.Unlock()
	close(f.done)

	return f.res, false, f.err
}

// isContextErr reports whether err is context cancellation or deadline
// expiry — the one class of leader failure a still-alive follower should
// not inherit.
func isContextErr(err error) bool {
	return errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)
}
