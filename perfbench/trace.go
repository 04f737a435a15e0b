package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"trustvo"
)

// Tracing for the traced run. Spans are recorded only here, around the
// calls the benchmark makes into each layer: the HTTP round trip (client
// side, through a RoundTripper installed as Transport.HTTP), the served
// request (server side, through a Handler wrapped around the registered
// mux), the requester endpoint's Handle, and the initiator's Grant hook.
// All spans of one join share its id; a server span's parent is the
// client message span, passed in the spanHeader request header.

const spanHeader = "X-Perfbench-Span"

// maxSpans bounds the in-memory span log; spans past it are counted but
// not kept, so a long traced run cannot grow memory without limit.
const maxSpans = 400_000

// captureJoins is how many joins of a traced window keep their wire
// bodies and messages for the post-window replays.
const captureJoins = 256

type span struct {
	Join   int64  `json:"join"`
	ID     int64  `json:"id"`
	Parent int64  `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// joinCtx is one traced join: its id, root span and, for captured joins,
// the request/response bodies and messages it exchanged.
type joinCtx struct {
	id      int64
	root    int64
	start   time.Time
	capture bool
	mu      sync.Mutex
	bodies  []wireBody
	msgs    []capturedMsg
}

func (jc *joinCtx) addBody(b wireBody) {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	jc.bodies = append(jc.bodies, b)
}

func (jc *joinCtx) addMsg(m capturedMsg) {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	jc.msgs = append(jc.msgs, m)
}

// captures returns copies of the captured bodies and messages.
func (jc *joinCtx) captures() ([]wireBody, []capturedMsg) {
	jc.mu.Lock()
	defer jc.mu.Unlock()
	return append([]wireBody(nil), jc.bodies...), append([]capturedMsg(nil), jc.msgs...)
}

// wireBody is one captured request or response body.
type wireBody struct {
	req  bool
	data []byte
}

// capturedMsg is one protocol message a join exchanged, with the trust
// store of the party that received it (for the verify replay).
type capturedMsg struct {
	msg      *trustvo.Message
	verifier *trustvo.TrustStore
}

type joinKey struct{}

// tracer records spans and per-message counters. A nil *tracer is the
// untraced run: every method is a no-op.
type tracer struct {
	t0       time.Time
	nextID   atomic.Int64
	mu       sync.Mutex
	spans    []span
	dropped  int64
	captured []*joinCtx

	msgs      atomic.Int64
	reqBytes  atomic.Int64
	respBytes atomic.Int64

	// reqVerifier / respVerifier are the trust stores that verify
	// credentials arriving in request and response bodies.
	reqVerifier, respVerifier *trustvo.TrustStore

	// inflightServer is the server span currently running, for parenting
	// the Grant hook's span (read only on fig9_join, which has one client).
	inflightServer atomic.Pointer[span]
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) ns(at time.Time) int64 { return at.Sub(t.t0).Nanoseconds() }

func (t *tracer) record(s span) {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.spans) >= maxSpans {
		t.dropped++
		return
	}
	t.spans = append(t.spans, s)
}

// beginJoin opens a join span and returns a context carrying it.
func (t *tracer) beginJoin(ctx context.Context) (context.Context, *joinCtx) {
	if t == nil {
		return ctx, nil
	}
	jc := &joinCtx{id: t.nextID.Add(1), start: time.Now()}
	jc.root = jc.id
	jc.capture = t.keep(jc)
	return context.WithValue(ctx, joinKey{}, jc), jc
}

// keep adds jc to the captured joins unless captureJoins are kept already.
func (t *tracer) keep(jc *joinCtx) bool {
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.captured) >= captureJoins {
		return false
	}
	t.captured = append(t.captured, jc)
	return true
}

// endJoin closes the join span.
func (t *tracer) endJoin(jc *joinCtx) {
	if t == nil || jc == nil {
		return
	}
	t.record(span{Join: jc.id, ID: jc.root, Name: "join", Start: t.ns(jc.start), End: t.ns(time.Now())})
}

// timed runs fn inside a child span of the join.
func (t *tracer) timed(jc *joinCtx, name string, fn func()) {
	if t == nil || jc == nil {
		fn()
		return
	}
	start := time.Now()
	fn()
	t.record(span{Join: jc.id, ID: t.nextID.Add(1), Parent: jc.root, Name: name, Start: t.ns(start), End: t.ns(time.Now())})
}

// captureMsg keeps a message for the replays (captured joins only).
func (t *tracer) captureMsg(jc *joinCtx, m *trustvo.Message, verifier *trustvo.TrustStore) {
	if t == nil || jc == nil || !jc.capture || m == nil {
		return
	}
	jc.addMsg(capturedMsg{msg: m, verifier: verifier})
}

// roundTripper wraps base so every request made under a traced join
// records a client span, carries the span header and is counted.
func (t *tracer) roundTripper(base http.RoundTripper) http.RoundTripper {
	if t == nil {
		return base
	}
	return &traceRT{base: base, tr: t}
}

type traceRT struct {
	base http.RoundTripper
	tr   *tracer
}

func (rt *traceRT) RoundTrip(req *http.Request) (*http.Response, error) {
	jc, _ := req.Context().Value(joinKey{}).(*joinCtx)
	if jc == nil {
		return rt.base.RoundTrip(req)
	}
	t := rt.tr
	id := t.nextID.Add(1)
	out := req.Clone(req.Context())
	out.Header.Set(spanHeader, strconv.FormatInt(jc.id, 10)+"/"+strconv.FormatInt(id, 10))
	if jc.capture && req.GetBody != nil && req.ContentLength > 0 {
		if body, err := req.GetBody(); err == nil {
			b, _ := io.ReadAll(body) // a failed copy only shortens the capture
			body.Close()
			jc.addBody(wireBody{req: true, data: b})
		}
	}
	t.msgs.Add(1)
	if req.ContentLength > 0 {
		t.reqBytes.Add(req.ContentLength)
	}
	start := time.Now()
	resp, err := rt.base.RoundTrip(out)
	if err != nil {
		t.record(span{Join: jc.id, ID: id, Parent: jc.root, Name: "wsrpc.client", Start: t.ns(start), End: t.ns(time.Now())})
		return nil, err
	}
	resp.Body = &tracedBody{rc: resp.Body, tr: t, jc: jc, id: id, start: start}
	return resp, nil
}

// tracedBody counts (and for captured joins keeps) the response bytes
// and ends the client span when the caller closes the body.
type tracedBody struct {
	rc    io.ReadCloser
	tr    *tracer
	jc    *joinCtx
	id    int64
	start time.Time
	n     int64
	buf   []byte
	once  sync.Once
}

func (b *tracedBody) Read(p []byte) (int, error) {
	n, err := b.rc.Read(p)
	b.n += int64(n)
	if b.jc.capture {
		b.buf = append(b.buf, p[:n]...)
	}
	return n, err
}

func (b *tracedBody) Close() error {
	err := b.rc.Close()
	b.once.Do(func() {
		t := b.tr
		t.respBytes.Add(b.n)
		t.record(span{Join: b.jc.id, ID: b.id, Parent: b.jc.root, Name: "wsrpc.client", Start: t.ns(b.start), End: t.ns(time.Now())})
		if b.jc.capture && len(b.buf) > 0 {
			b.jc.addBody(wireBody{data: b.buf})
		}
	})
	return err
}

// handler wraps the service mux: requests carrying the span header
// record a server span parented to the client message span.
func (t *tracer) handler(h http.Handler) http.Handler {
	if t == nil {
		return h
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		join, parent, ok := parseSpanHeader(r.Header.Get(spanHeader))
		if !ok {
			h.ServeHTTP(w, r)
			return
		}
		s := &span{Join: join, ID: t.nextID.Add(1), Parent: parent, Name: "wsrpc.server", Start: t.ns(time.Now())}
		t.inflightServer.Store(s)
		h.ServeHTTP(w, r)
		t.inflightServer.CompareAndSwap(s, nil)
		s.End = t.ns(time.Now())
		t.record(*s)
	})
}

func parseSpanHeader(v string) (join, parent int64, ok bool) {
	a, b, found := strings.Cut(v, "/")
	if !found {
		return 0, 0, false
	}
	join, err1 := strconv.ParseInt(a, 10, 64)
	parent, err2 := strconv.ParseInt(b, 10, 64)
	return join, parent, err1 == nil && err2 == nil
}

// wrapGrant times a Grant hook as a child of the server span in flight.
func (t *tracer) wrapGrant(name string, g func(resource, peer string) ([]byte, error)) func(resource, peer string) ([]byte, error) {
	if t == nil || g == nil {
		return g
	}
	return func(resource, peer string) ([]byte, error) {
		start := time.Now()
		out, err := g(resource, peer)
		s := span{ID: t.nextID.Add(1), Name: name, Start: t.ns(start), End: t.ns(time.Now())}
		if srv := t.inflightServer.Load(); srv != nil {
			s.Join, s.Parent = srv.Join, srv.ID
		}
		t.record(s)
		return out, err
	}
}

// snapshot returns the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// durationsOf returns the sorted durations of the spans named name.
func durationsOf(spans []span, name string) []time.Duration {
	var out []time.Duration
	for _, s := range spans {
		if s.Name == name {
			out = append(out, s.dur())
		}
	}
	return sortedDurations(out)
}

// wireTimes pairs each client message span with its server span and
// returns the sorted differences (round trip minus server time).
func wireTimes(spans []span) []time.Duration {
	server := make(map[int64]time.Duration)
	for _, s := range spans {
		if s.Name == "wsrpc.server" {
			server[s.Parent] = s.dur()
		}
	}
	var out []time.Duration
	for _, s := range spans {
		if s.Name == "wsrpc.client" {
			if sd, ok := server[s.ID]; ok {
				out = append(out, s.dur()-sd)
			}
		}
	}
	return sortedDurations(out)
}

// selfTimes returns, per span name, the median self time: a span's
// duration minus the part of it its children cover.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[int64][]span)
	for _, s := range spans {
		if s.Parent != 0 && s.Parent != s.ID {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string][]time.Duration)
	for _, s := range spans {
		kids := children[s.ID]
		sort.Slice(kids, func(i, j int) bool { return kids[i].Start < kids[j].Start })
		var covered, reach int64
		reach = s.Start
		for _, k := range kids {
			lo, hi := k.Start, k.End
			if lo < reach {
				lo = reach
			}
			if hi > s.End {
				hi = s.End
			}
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		byName[s.Name] = append(byName[s.Name], time.Duration(s.End-s.Start-covered))
	}
	out := make(map[string]time.Duration, len(byName))
	for name, ds := range byName {
		out[name] = quantile(sortedDurations(ds), 0.5)
	}
	return out
}

// writeSpans writes the span log as JSON lines, headed by a summary line
// of per-name self times, to path.
func writeSpans(path string, spans []span, dropped int64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	self := make(map[string]float64)
	for name, d := range selfTimes(spans) {
		self[name] = us(d)
	}
	if err := enc.Encode(map[string]any{"spans": len(spans), "dropped": dropped, "self_us_p50": self}); err != nil {
		f.Close()
		return err
	}
	for _, s := range spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// spanSummary formats per-name self times for the log.
func spanSummary(spans []span) string {
	self := selfTimes(spans)
	names := make([]string, 0, len(self))
	for n := range self {
		names = append(names, n)
	}
	sort.Strings(names)
	var b strings.Builder
	for _, n := range names {
		fmt.Fprintf(&b, " %s=%.1fus", n, us(self[n]))
	}
	return b.String()
}
