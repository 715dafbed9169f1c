package obs

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// DefaultKeepAlive is how often an idle SSE stream emits a `: keepalive`
// comment so intermediaries do not reap the connection.
const DefaultKeepAlive = 15 * time.Second

// sseBuffer is the per-client subscription depth of /debug/events. A
// client slower than the engine loses events (counted, reported in the
// stream's final comment) rather than stalling the engine.
const sseBuffer = 4096

// EventStream serves the engine event bus as a live Server-Sent-Events
// feed (`/debug/events`). Each event is framed as `event: <kind>` with the
// JSON event as data; `?id=N` filters to one query's correlation id.
// Keepalive comments flow while the engine is idle, a disconnecting client
// detaches its subscription promptly, and Shutdown ends every open stream
// so http.Server.Shutdown is never held hostage by a long-lived feed.
type EventStream struct {
	bus *Bus
	// KeepAlive overrides DefaultKeepAlive when positive.
	KeepAlive time.Duration

	mu     sync.Mutex
	done   chan struct{}
	closed bool
}

// NewEventStream returns an SSE handler over the bus.
func NewEventStream(bus *Bus) *EventStream {
	return &EventStream{bus: bus, done: make(chan struct{})}
}

// Shutdown ends all open event streams (idempotent). Wire it via
// srv.RegisterOnShutdown so graceful drain closes feeds instead of waiting
// out their clients.
func (s *EventStream) Shutdown() {
	if s == nil {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.closed {
		s.closed = true
		close(s.done)
	}
}

func (s *EventStream) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	flusher, ok := w.(http.Flusher)
	if !ok {
		http.Error(w, "streaming unsupported", http.StatusInternalServerError)
		return
	}
	var queryID int64
	if idParam := req.URL.Query().Get("id"); idParam != "" {
		id, err := strconv.ParseInt(idParam, 10, 64)
		if err != nil || id <= 0 {
			http.Error(w, "invalid query id", http.StatusBadRequest)
			return
		}
		queryID = id
	}

	sub := s.bus.SubscribeNamed("sse", queryID, sseBuffer)
	if sub == nil {
		http.Error(w, "event stream disabled", http.StatusNotFound)
		return
	}
	defer sub.Close()

	w.Header().Set("Content-Type", "text/event-stream")
	w.Header().Set("Cache-Control", "no-cache")
	w.Header().Set("X-Accel-Buffering", "no")
	w.WriteHeader(http.StatusOK)
	// The handshake names the subscriber and its drop accounting so a
	// client knows lossiness is visible (ltqp_events_dropped_total and the
	// stream's closing comment) rather than silent.
	fmt.Fprintf(w, ": ltqp event stream, schema %d, subscriber %q (drops counted in ltqp_events_dropped_total{subscriber=%q}; %d dropped across attached sse feeds so far)\n\n",
		EventSchemaVersion, sub.Name(), sub.Name(), s.bus.DropCount("sse"))
	flusher.Flush()

	keepAlive := s.KeepAlive
	if keepAlive <= 0 {
		keepAlive = DefaultKeepAlive
	}
	ticker := time.NewTicker(keepAlive)
	defer ticker.Stop()

	enc := json.NewEncoder(w)
	send := func(ev Event) bool {
		fmt.Fprintf(w, "event: %s\ndata: ", ev.Kind)
		if err := enc.Encode(ev); err != nil {
			return false
		}
		fmt.Fprint(w, "\n")
		flusher.Flush()
		return true
	}
	for {
		select {
		case ev := <-sub.C:
			if !send(ev) {
				return
			}
		case <-ticker.C:
			fmt.Fprint(w, ": keepalive\n\n")
			flusher.Flush()
		case <-req.Context().Done():
			return
		case <-s.done:
			// select takes any ready arm: events published before the
			// shutdown can still be buffered. They go out before the close
			// (this handler is the subscription's only reader).
			for len(sub.C) > 0 {
				if !send(<-sub.C) {
					return
				}
			}
			if n := sub.Dropped(); n > 0 {
				fmt.Fprintf(w, ": closing, %d events dropped\n\n", n)
			} else {
				fmt.Fprint(w, ": closing\n\n")
			}
			flusher.Flush()
			return
		}
	}
}
