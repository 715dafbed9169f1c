package deref

// Resilient dereferencing. Live Solid pods on the open Web fail, stall and
// rate-limit routinely — the paper's CLI ships a --lenient flag for exactly
// this reason — so the dereferencer distinguishes transient failures
// (transport errors, 429/5xx, per-attempt timeouts) from terminal ones
// (other 4xx, unparseable documents) and retries the former with capped
// exponential backoff. Jitter is derived deterministically from a seed, the
// URL and the attempt number, so that chaos runs are reproducible.

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"net/http"
	"strconv"
	"time"
)

// RetryPolicy configures resilient dereferencing. The zero value of each
// field selects the documented default; a nil *RetryPolicy disables
// retrying entirely (single attempt, no per-attempt timeout).
type RetryPolicy struct {
	// MaxAttempts is the total number of attempts including the first
	// (default 4, i.e. up to 3 retries). 1 disables retrying.
	MaxAttempts int
	// BaseDelay is the backoff before the first retry (default 100ms).
	BaseDelay time.Duration
	// MaxDelay caps the exponential backoff (default 5s).
	MaxDelay time.Duration
	// Multiplier is the exponential growth factor (default 2).
	Multiplier float64
	// JitterFrac adds up to this fraction of the delay as deterministic
	// jitter (default 0.2; negative disables jitter).
	JitterFrac float64
	// Seed drives the deterministic jitter. Two policies with the same
	// seed produce identical backoff schedules for the same URLs.
	Seed int64
	// AttemptTimeout bounds each individual fetch attempt (default 30s;
	// negative disables). Distinct from any deadline on the caller's
	// context, which always terminates the whole dereference.
	AttemptTimeout time.Duration
	// MaxRetryAfter caps how long a server-sent Retry-After header is
	// honored on 429/503 (default 30s). A server demanding more than the
	// cap is treated as terminally unavailable.
	MaxRetryAfter time.Duration

	// sleep is a test hook; nil means a context-aware real sleep.
	sleep func(ctx context.Context, d time.Duration) error
}

const (
	defaultMaxAttempts    = 4
	defaultBaseDelay      = 100 * time.Millisecond
	defaultMaxDelay       = 5 * time.Second
	defaultMultiplier     = 2.0
	defaultJitterFrac     = 0.2
	defaultAttemptTimeout = 30 * time.Second
	defaultMaxRetryAfter  = 30 * time.Second
)

func (p *RetryPolicy) maxAttempts() int {
	if p == nil || p.MaxAttempts <= 0 {
		if p == nil {
			return 1
		}
		return defaultMaxAttempts
	}
	return p.MaxAttempts
}

func (p *RetryPolicy) attemptTimeout() time.Duration {
	if p == nil || p.AttemptTimeout < 0 {
		return 0
	}
	if p.AttemptTimeout == 0 {
		return defaultAttemptTimeout
	}
	return p.AttemptTimeout
}

func (p *RetryPolicy) maxRetryAfter() time.Duration {
	if p == nil || p.MaxRetryAfter <= 0 {
		return defaultMaxRetryAfter
	}
	return p.MaxRetryAfter
}

// Backoff returns the delay before retry number attempt (1 = the first
// retry) of the given URL. The schedule is exponential with a cap, plus
// deterministic jitter: the same (seed, url, attempt) triple always yields
// the same delay, so concurrent chaos runs reproduce exactly.
func (p *RetryPolicy) Backoff(url string, attempt int) time.Duration {
	base := defaultBaseDelay
	maxd := defaultMaxDelay
	mult := defaultMultiplier
	jfrac := defaultJitterFrac
	if p != nil {
		if p.BaseDelay > 0 {
			base = p.BaseDelay
		}
		if p.MaxDelay > 0 {
			maxd = p.MaxDelay
		}
		if p.Multiplier > 1 {
			mult = p.Multiplier
		}
		if p.JitterFrac != 0 {
			jfrac = p.JitterFrac
		}
	}
	if attempt < 1 {
		attempt = 1
	}
	delay := float64(base)
	for i := 1; i < attempt; i++ {
		delay *= mult
		if delay >= float64(maxd) {
			delay = float64(maxd)
			break
		}
	}
	if delay > float64(maxd) {
		delay = float64(maxd)
	}
	if jfrac > 0 {
		var seed int64
		if p != nil {
			seed = p.Seed
		}
		delay += delay * jfrac * unitHash(seed, url, attempt)
	}
	return time.Duration(delay)
}

// unitHash maps (seed, url, n) to a uniform float in [0, 1) via FNV-1a.
func unitHash(seed int64, url string, n int) float64 {
	h := fnv.New64a()
	var buf [8]byte
	for i := 0; i < 8; i++ {
		buf[i] = byte(seed >> (8 * i))
	}
	h.Write(buf[:])
	h.Write([]byte(url))
	for i := 0; i < 8; i++ {
		buf[i] = byte(n >> (8 * i))
	}
	h.Write(buf[:])
	return float64(h.Sum64()>>11) / float64(1<<53)
}

func (p *RetryPolicy) doSleep(ctx context.Context, d time.Duration) error {
	if p != nil && p.sleep != nil {
		return p.sleep(ctx, d)
	}
	if d <= 0 {
		return ctx.Err()
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// Error is a classified dereference failure: Retryable marks transient
// conditions (transport errors, 429/5xx, attempt timeouts) worth another
// attempt, as opposed to terminal ones (other 4xx, unparseable or oversized
// documents). RetryAfter carries a server-sent Retry-After hint.
type Error struct {
	URL        string
	Status     int // 0 on transport errors
	Retryable  bool
	RetryAfter time.Duration // 0 when the server sent no hint
	Err        error
}

// Error implements error.
func (e *Error) Error() string {
	if e.Err != nil {
		return fmt.Sprintf("deref %s: %v", e.URL, e.Err)
	}
	return fmt.Sprintf("deref %s: status %d", e.URL, e.Status)
}

// Unwrap exposes the underlying cause.
func (e *Error) Unwrap() error { return e.Err }

// IsRetryable reports whether err is a dereference failure classified as
// transient. Errors from other sources are conservatively terminal.
func IsRetryable(err error) bool {
	var de *Error
	if errors.As(err, &de) {
		return de.Retryable
	}
	return false
}

// RetryableStatus classifies an HTTP status code: 429 (rate limit), 408
// (request timeout) and 5xx except 501 (not implemented) are transient;
// everything else — including the remaining 4xx — is terminal.
func RetryableStatus(code int) bool {
	switch {
	case code == http.StatusTooManyRequests, code == http.StatusRequestTimeout:
		return true
	case code >= 500 && code != http.StatusNotImplemented:
		return true
	}
	return false
}

// classifyTransport classifies a transport-level error from the HTTP
// client. Cancellation of the caller's context is terminal; everything
// else (connection resets, refused connections, attempt timeouts, truncated
// reads) is transient.
func classifyTransport(ctx context.Context, err error) bool {
	if ctx.Err() != nil {
		// The caller gave up; retrying would be disobedient.
		return false
	}
	if errors.Is(err, context.Canceled) {
		return false
	}
	// context.DeadlineExceeded here means the per-attempt timeout fired
	// (the parent context is still live): a stalled server, retryable.
	return true
}

// ParseRetryAfter parses a Retry-After header value: either delay-seconds
// or an HTTP-date. ok is false for absent or malformed values.
func ParseRetryAfter(v string, now time.Time) (time.Duration, bool) {
	if v == "" {
		return 0, false
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs < 0 {
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	if t, err := http.ParseTime(v); err == nil {
		d := t.Sub(now)
		if d < 0 {
			d = 0
		}
		return d, true
	}
	return 0, false
}
