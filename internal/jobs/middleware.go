// Structured request logging for the job API: one slog record per request
// with method, path, status, duration, and — when the path names a job —
// the job ID and its parallelism, so a daemon log line can be joined
// against the job's journal records and metrics.

package jobs

import (
	"log/slog"
	"net/http"
	"strings"
	"time"
)

// statusWriter captures the response status for the request log. It
// forwards Flush so server-sent event streams keep working through the
// middleware.
type statusWriter struct {
	http.ResponseWriter
	status int
}

func (sw *statusWriter) WriteHeader(code int) {
	if sw.status == 0 {
		sw.status = code
	}
	sw.ResponseWriter.WriteHeader(code)
}

func (sw *statusWriter) Write(b []byte) (int, error) {
	if sw.status == 0 {
		sw.status = http.StatusOK
	}
	return sw.ResponseWriter.Write(b)
}

func (sw *statusWriter) Flush() {
	if f, ok := sw.ResponseWriter.(http.Flusher); ok {
		f.Flush()
	}
}

// jobIDFromPath extracts the job ID from a /jobs/{id}[/...] path, or "".
func jobIDFromPath(path string) string {
	rest, ok := strings.CutPrefix(path, "/jobs/")
	if !ok || rest == "" {
		return ""
	}
	if i := strings.IndexByte(rest, '/'); i >= 0 {
		rest = rest[:i]
	}
	return rest
}

// LogRequests wraps h with structured request logging on log. A nil logger
// returns h unwrapped, so the middleware is free when logging is off.
func (m *Manager) LogRequests(log *slog.Logger, h http.Handler) http.Handler {
	if log == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		sw := &statusWriter{ResponseWriter: w}
		start := time.Now()
		h.ServeHTTP(sw, r)
		status := sw.status
		if status == 0 {
			status = http.StatusOK
		}
		attrs := []any{
			slog.String("method", r.Method),
			slog.String("path", r.URL.Path),
			slog.Int("status", status),
			slog.Int64("duration_ms", time.Since(start).Milliseconds()),
		}
		if id := jobIDFromPath(r.URL.Path); id != "" {
			attrs = append(attrs, slog.String("job", id))
			if st, err := m.Status(id); err == nil {
				attrs = append(attrs, slog.Int("workers", max(st.Params.Workers, st.Params.Shards)))
			}
		}
		log.Info("request", attrs...)
	})
}
