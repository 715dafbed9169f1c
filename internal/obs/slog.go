package obs

import (
	"context"
	"fmt"
	"io"
	"log/slog"
	"strings"
	"time"
)

// NewLogger builds a slog.Logger writing to w with the given handler format
// ("text" or "json") and minimum level ("debug", "info", "warn", "error").
// The handler is wrapped so records carry a query_id attribute whenever the
// logging context holds one (ContextWithQueryID) — the same correlation id
// stamped on events, journal lines and /debug/queries.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lvl = slog.LevelInfo
	case "debug":
		lvl = slog.LevelDebug
	case "warn", "warning":
		lvl = slog.LevelWarn
	case "error":
		lvl = slog.LevelError
	default:
		return nil, fmt.Errorf("unknown log level %q (want debug, info, warn or error)", level)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	var h slog.Handler
	switch strings.ToLower(format) {
	case "", "text":
		h = slog.NewTextHandler(w, opts)
	case "json":
		h = slog.NewJSONHandler(w, opts)
	default:
		return nil, fmt.Errorf("unknown log format %q (want text or json)", format)
	}
	return slog.New(&queryIDHandler{Handler: h}), nil
}

// queryIDHandler decorates records with the context's query correlation id.
type queryIDHandler struct{ slog.Handler }

func (h *queryIDHandler) Handle(ctx context.Context, r slog.Record) error {
	if id := QueryIDFromContext(ctx); id != 0 {
		r.AddAttrs(slog.Int64("query_id", id))
	}
	return h.Handler.Handle(ctx, r)
}

func (h *queryIDHandler) WithAttrs(attrs []slog.Attr) slog.Handler {
	return &queryIDHandler{Handler: h.Handler.WithAttrs(attrs)}
}

func (h *queryIDHandler) WithGroup(name string) slog.Handler {
	return &queryIDHandler{Handler: h.Handler.WithGroup(name)}
}

// EventLogger is the structured-logging consumer of the event bus: it
// subscribes and renders every engine event as one slog record, each tagged
// with its query correlation id. Lifecycle events log at Info, degradations
// (retries, failed dereferences) at Warn, and the high-volume traversal
// detail (links, stages, per-result events) at Debug — so `--log-level
// info` gives an operational narrative while `debug` replays everything.
type EventLogger struct {
	sub  *Subscription
	done chan struct{}
}

// eventLoggerBuffer absorbs traversal bursts so logging a slow sink does
// not force event drops in the common case.
const eventLoggerBuffer = 4096

// LogEvents attaches a logging consumer to the bus. Close it to detach.
func LogEvents(logger *slog.Logger, bus *Bus) *EventLogger {
	l := &EventLogger{sub: bus.SubscribeNamed("slog", 0, eventLoggerBuffer), done: make(chan struct{})}
	go func() {
		defer close(l.done)
		for ev := range l.sub.C {
			logEvent(logger, ev)
		}
	}()
	return l
}

// Close detaches from the bus and logs the buffered tail before returning.
func (l *EventLogger) Close() {
	if l == nil {
		return
	}
	l.sub.Close()
	close(l.sub.ch) // ends the range in the consumer goroutine
	<-l.done
}

// logEvent renders one engine event as a slog record.
func logEvent(logger *slog.Logger, ev Event) {
	ctx := ContextWithQueryID(context.Background(), ev.Query)
	dur := func() slog.Attr {
		return slog.Duration("duration", time.Duration(ev.DurationUS)*time.Microsecond)
	}
	switch ev.Kind {
	case EventQueryStarted:
		logger.LogAttrs(ctx, slog.LevelInfo, "query started",
			slog.String("query", ev.Detail), slog.Any("seeds", ev.Seeds))
	case EventQueryFinished:
		lvl := slog.LevelInfo
		attrs := []slog.Attr{slog.Int("results", ev.Rows), dur()}
		if ev.Err != "" {
			lvl = slog.LevelError
			attrs = append(attrs, slog.String("error", ev.Err))
		}
		logger.LogAttrs(ctx, lvl, "query finished", attrs...)
	case EventDocumentDereferenced:
		attrs := []slog.Attr{slog.String("url", ev.URL), slog.Int("attempt", ev.Attempt), slog.Bool("cached", ev.Cached)}
		if ev.Err != "" {
			logger.LogAttrs(ctx, slog.LevelWarn, "dereference failed",
				append(attrs, slog.String("error", ev.Err), dur())...)
			return
		}
		logger.LogAttrs(ctx, slog.LevelDebug, "document dereferenced", append(attrs,
			slog.Int("status", ev.Status), slog.Int("triples", ev.Triples), slog.Int64("bytes", ev.Bytes), dur())...)
	case EventRetryScheduled:
		logger.LogAttrs(ctx, slog.LevelWarn, "retry scheduled",
			slog.String("url", ev.URL), slog.Int("attempt", ev.Attempt),
			slog.Duration("delay", time.Duration(ev.DelayUS)*time.Microsecond),
			slog.String("error", ev.Err))
	case EventLinkDiscovered:
		logger.LogAttrs(ctx, slog.LevelDebug, "link discovered",
			slog.String("url", ev.URL), slog.String("via", ev.Via),
			slog.String("extractor", ev.Extractor))
	case EventLinkQueued:
		logger.LogAttrs(ctx, slog.LevelDebug, "link queued",
			slog.String("url", ev.URL), slog.Int("depth", ev.Depth))
	case EventLinkPruned:
		logger.LogAttrs(ctx, slog.LevelDebug, "link pruned",
			slog.String("url", ev.URL), slog.String("reason", ev.Detail))
	case EventStageStarted:
		logger.LogAttrs(ctx, slog.LevelDebug, "stage started",
			slog.String("stage", ev.Stage))
	case EventStageFinished:
		logger.LogAttrs(ctx, slog.LevelDebug, "stage finished",
			slog.String("stage", ev.Stage), slog.Int("rows", ev.Rows), dur())
	case EventResultEmitted:
		logger.LogAttrs(ctx, slog.LevelDebug, "result emitted",
			slog.Int("row", ev.Row))
	case EventResourceSnapshot:
		lvl := slog.LevelDebug
		attrs := []slog.Attr{
			slog.Int64("mem_bytes", ev.MemBytes),
			slog.Int64("mem_peak", ev.MemPeak),
			slog.String("breakdown", ev.Detail),
		}
		if ev.Err != "" { // budget exceeded
			lvl = slog.LevelWarn
			attrs = append(attrs, slog.String("error", ev.Err))
		}
		logger.LogAttrs(ctx, lvl, "resource snapshot", attrs...)
	default:
		logger.LogAttrs(ctx, slog.LevelDebug, string(ev.Kind),
			slog.String("url", ev.URL), slog.String("stage", ev.Stage))
	}
}
