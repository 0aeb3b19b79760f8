package observe

import (
	"context"
	"fmt"
	"io"
	"log/slog"
)

// LogOptions configures NewLogger.
type LogOptions struct {
	// Component is attached to every record as component=<value>; the
	// shared key lets one aggregation pipeline split daemon, trainer and
	// generator logs.
	Component string
	// JSON selects slog.JSONHandler output; false emits logfmt-style text.
	JSON bool
	// Level is the minimum level (default Info).
	Level slog.Leveler
}

// NewLogger builds the stack-wide structured logger: a slog text or JSON
// handler wrapped so that records logged with the ctx-aware methods
// (InfoContext & co.) automatically carry request_id when the context
// passed through ContextWithRequestID and trace_id when it carries an
// active span — the same context the resilience middleware populates —
// so every log line of a request correlates with its X-Request-Id
// response header and its entry in /debug/traces.
func NewLogger(w io.Writer, opts LogOptions) *slog.Logger {
	ho := &slog.HandlerOptions{Level: opts.Level}
	var h slog.Handler
	if opts.JSON {
		h = slog.NewJSONHandler(w, ho)
	} else {
		h = slog.NewTextHandler(w, ho)
	}
	l := slog.New(correlate{h})
	if opts.Component != "" {
		l = l.With("component", opts.Component)
	}
	return l
}

// Logf adapts logger to the printf-shaped sinks lower layers take
// (breakers, the registry puller and store, distbuild, panic recovery):
// each call logs the formatted message at level. A nil logger yields a
// nil func, which those sinks treat as "discard".
func Logf(logger *slog.Logger, level slog.Level) func(format string, args ...any) {
	if logger == nil {
		return nil
	}
	return func(format string, args ...any) {
		logger.Log(context.Background(), level, fmt.Sprintf(format, args...))
	}
}

// correlate injects request_id and trace_id from the record's context.
type correlate struct{ slog.Handler }

func (c correlate) Handle(ctx context.Context, r slog.Record) error {
	if id := RequestIDFrom(ctx); id != "" {
		r.AddAttrs(slog.String("request_id", id))
	}
	if tid := TraceIDFrom(ctx); tid != "" {
		r.AddAttrs(slog.String("trace_id", tid))
	}
	return c.Handler.Handle(ctx, r)
}

func (c correlate) WithAttrs(attrs []slog.Attr) slog.Handler {
	return correlate{c.Handler.WithAttrs(attrs)}
}

func (c correlate) WithGroup(name string) slog.Handler {
	return correlate{c.Handler.WithGroup(name)}
}
