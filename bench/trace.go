package main

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"runtime/trace"
	"strconv"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the tracer started; spans of one request share Req,
// and Parent names the span that caused this one (0 for a root).
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Req    int64  `json:"req"`
	Layer  string `json:"layer"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`

	task   *trace.Task
	region *trace.Region
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps the spans of a traced run in memory and mirrors each one
// into the runtime/trace stream as a task (root spans) or a region, so
// `go tool trace` shows the same phases. A nil *tracer records nothing,
// which is how every untraced run calls it.
type tracer struct {
	t0   time.Time
	next atomic.Int64

	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// spanKey keys the innermost open span in a context.
type spanKey struct{}

type spanRef struct{ id, req int64 }

// open starts a span, the child of the span ctx carries (if any), and
// returns a context carrying the new one. A root span takes req as its
// request id and opens a runtime/trace task; a child inherits the id and
// opens a region, so it must be closed on the goroutine that opened it.
func (t *tracer) open(ctx context.Context, layer, name string, req int64) (context.Context, span) {
	if t == nil {
		return ctx, span{}
	}
	s := span{ID: t.next.Add(1), Req: req, Layer: layer, Name: name}
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		s.Parent, s.Req = p.id, p.req
		s.region = trace.StartRegion(ctx, layer+"."+name)
	} else {
		ctx, s.task = trace.NewTask(ctx, layer+"."+name)
	}
	ctx = context.WithValue(ctx, spanKey{}, spanRef{s.ID, s.Req})
	s.Start = int64(time.Since(t.t0))
	return ctx, s
}

// close ends s and keeps it.
func (t *tracer) close(s span) span {
	if t == nil {
		return s
	}
	s.End = int64(time.Since(t.t0))
	if s.region != nil {
		s.region.End()
	}
	if s.task != nil {
		s.task.End()
	}
	s.task, s.region = nil, nil
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// snapshot returns the spans recorded so far.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children groups spans by parent id.
func children(spans []span) map[int64][]span {
	out := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 {
			out[s.Parent] = append(out[s.Parent], s)
		}
	}
	return out
}

// writeSpans writes every span to dir/spans.json.
func (t *tracer) writeSpans(dir string) error {
	b, err := json.Marshal(t.snapshot())
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "spans.json"), b, 0o644)
}

// Headers carrying a request's span across HTTP to the server side.
const (
	hdrReq  = "X-Bench-Req"
	hdrSpan = "X-Bench-Span"
)

// tagRequest marks an outgoing request with the span ctx carries, so the
// server side can record its span as that span's child.
func tagRequest(ctx context.Context, r *http.Request) {
	if p, ok := ctx.Value(spanKey{}).(spanRef); ok {
		r.Header.Set(hdrReq, strconv.FormatInt(p.req, 10))
		r.Header.Set(hdrSpan, strconv.FormatInt(p.id, 10))
	}
}

// serveHTTP runs h for one request, inside a "serve" span that is the
// child of the client span the request was tagged with (untagged
// requests, and every request when t is nil, record nothing).
func (t *tracer) serveHTTP(h http.Handler, w http.ResponseWriter, r *http.Request) {
	parent, err := strconv.ParseInt(r.Header.Get(hdrSpan), 10, 64)
	if t == nil || err != nil {
		h.ServeHTTP(w, r)
		return
	}
	req, _ := strconv.ParseInt(r.Header.Get(hdrReq), 10, 64) // a bad id only mislabels the span
	ctx := context.WithValue(r.Context(), spanKey{}, spanRef{parent, req})
	ctx, s := t.open(ctx, "serve", "handler", 0)
	h.ServeHTTP(w, r.WithContext(ctx))
	t.close(s)
}
