// Command perfbench is the repository benchmark: it drives the trustvo
// system from outside, through the trustvo facade and the HTTP routes,
// over four workloads (see NOTES.md), checks every verdict, and prints
// one JSON result line.
//
//	perfbench --workload fig9_join --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the whole window is untraced and the result carries the
// end-to-end metrics. With --trace 1 the window is split: an untraced
// half, then a traced half whose spans give the per-layer metrics (the
// span log is written under the work directory when the run ends).
// Run it through run.py, which builds it from the checkout's sources.
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"trustvo"
)

// setupRepeats is how many times a run builds its fixture; setup_s is
// the median, and the last fixture is the one measured.
const setupRepeats = 3

// fixture is one workload's prepared system.
type fixture interface {
	// run drives the workload for one window.
	run(ctx context.Context, o windowOpts) (*window, error)
	close()
}

// windowOpts describes one window. A zero d asks for the warm-up.
type windowOpts struct {
	d  time.Duration
	tr *tracer // non-nil: record spans
	// probe also runs the workload's capacity probe (the open loop's rate
	// ladder); it is set on the untraced half of a traced run.
	probe bool
}

// window is what one timed window measured.
type window struct {
	lat       []time.Duration // one per timed join
	done      []time.Time     // completion time of each timed join
	start     time.Time
	attempted int
	failed    int
	completed int // joins finished with the expected verdict
	elapsed   time.Duration
	// chunk is the joins per chunk of the tail statistic (default
	// tailChunk); the median uses medianChunk.
	chunk int
	// chunkRate makes joins_per_s the median over chunks of rateChunk
	// joins of each chunk's completion rate; otherwise it is completed
	// joins over the whole window.
	chunkRate bool
	// perSec, when set, is joins_per_s as the workload defines it.
	perSec float64
	// extra holds per-layer and workload-specific figures by metric name.
	extra map[string]float64
	// eng accumulates negotiation rounds and tree nodes over the joins.
	eng counts
	// check, when set, checks verdicts after the memory accounting ends,
	// so that the check's own work stays out of the figures.
	check func()
	// errs describes the first few failures, for the log.
	errs []string
}

func (w *window) fail(format string, args ...any) {
	w.failed++
	if len(w.errs) < 5 {
		w.errs = append(w.errs, fmt.Sprintf(format, args...))
	}
}

func newWindow() *window {
	return &window{start: time.Now(), extra: map[string]float64{}}
}

// add records one timed join that completed at done.
func (w *window) add(lat time.Duration, done time.Time) {
	w.lat = append(w.lat, lat)
	w.done = append(w.done, done)
}

// tailChunk is the default chunk size of the tail statistic: enough
// joins that a chunk's p99 has at least ten samples beyond it.
// medianChunk is the chunk size of the median.
const (
	tailChunk   = 1000
	medianChunk = 200
)

// rateChunk is the chunk size of the closed loops' median completion
// rate: small, so that the median chunk is one the host did not stall.
const rateChunk = 64

// latencies returns the median over chunks of the chunks' p50 (chunks of
// medianChunk joins) and of their tail quantile (chunks of w.chunk joins),
// taking the joins in the order recorded; the last chunk absorbs the
// remainder. Medians over chunks keep a few seconds of interference from a
// neighbour on the host from moving a whole run's figures.
func (w *window) latencies() (p50, p99 time.Duration) {
	tail := w.chunk
	if tail <= 0 {
		tail = tailChunk
	}
	med := medianChunk
	if tail < med {
		med = tail
	}
	p50s := chunked(w.lat, med, func(s []time.Duration) time.Duration { return quantile(s, 0.5) })
	p99s := chunked(w.lat, tail, func(s []time.Duration) time.Duration { _, q := tailQuantile(s); return q })
	return time.Duration(medianFloat(p50s)), time.Duration(medianFloat(p99s))
}

// chunked applies stat to each sorted chunk of size joins of lat.
func chunked(lat []time.Duration, size int, stat func(sorted []time.Duration) time.Duration) []float64 {
	k := len(lat) / size
	if k < 1 {
		k = 1
	}
	var out []float64
	for c := 0; c < k; c++ {
		lo, hi := c*size, (c+1)*size
		if c == k-1 {
			hi = len(lat)
		}
		if lo < hi {
			out = append(out, float64(stat(sortedDurations(lat[lo:hi]))))
		}
	}
	return out
}

// joinsPerSec is the window's completion rate (see chunkRate, perSec).
func (w *window) joinsPerSec() float64 {
	if w.perSec > 0 {
		return w.perSec
	}
	if !w.chunkRate || len(w.done) < rateChunk {
		if w.elapsed <= 0 {
			return 0
		}
		return float64(w.completed) / w.elapsed.Seconds()
	}
	var rates []float64
	prev := w.start
	for hi := rateChunk; hi <= len(w.done); hi += rateChunk {
		if span := w.done[hi-1].Sub(prev); span > 0 {
			rates = append(rates, rateChunk/span.Seconds())
		}
		prev = w.done[hi-1]
	}
	return medianFloat(rates)
}

type workloadSpec struct {
	name  string
	setup func(seed int64) (fixture, error)
}

var workloads = []workloadSpec{
	{"fig9_join", setupFig9},
	{"open_many_parties", setupOpenLoop},
	{"engine_worlds", setupEngine},
	{"drain_restart", setupDrain},
}

// metricSpec names one reported metric and its unit.
type metricSpec struct{ name, unit string }

// endToEnd are reported with --trace 0, by every workload.
var endToEnd = []metricSpec{
	{"setup_s", "s"},
	{"join_p50_ms", "ms"},
	{"allocs_per_join", "count"},
}

// perLayer are reported with --trace 1, by every workload; a layer a
// workload does not exercise reads 0. runtime.heap_peak_mb and the last
// group are end-to-end figures that cannot be gated: joins_per_s,
// join_p99_ms and the heap peak (done sessions are retained for 30 s, so
// a closed loop's heap follows its actual rate) move with the host's
// interference more than any bound allows, and the rest are defined on
// one workload only or are 0 in a passing run. They come from the
// untraced half of the traced run.
var perLayer = []metricSpec{
	{"wsrpc.client_rtt_us_p50", "us"},
	{"wsrpc.server_us_p50", "us"},
	{"wsrpc.wire_us_p50", "us"},
	{"wsrpc.msgs_per_join", "count"},
	{"wsrpc.req_bytes_per_join", "bytes"},
	{"wsrpc.resp_bytes_per_join", "bytes"},
	{"wsrpc.queue_wait_us_p99", "us"},
	{"pki.verify_hits_per_join", "count"},
	{"pki.verify_misses_per_join", "count"},
	{"pki.cache_invalidations", "count"},
	{"pki.x509_mint_us_p50", "us"},
	{"negotiation.handle_us_p50", "us"},
	{"negotiation.rounds_per_join", "count"},
	{"negotiation.tree_nodes_per_join", "count"},
	{"xmldom.parse_us_per_join_replay", "us"},
	{"negotiation.codec_us_per_join_replay", "us"},
	{"xtnl.signed_bytes_us_per_join_replay", "us"},
	{"pki.verify_us_per_join_replay", "us"},
	{"store.suspend_ms", "ms"},
	{"store.reopen_ms", "ms"},
	{"store.resume_ms", "ms"},
	{"store.fsyncs_per_cycle", "count"},
	{"store.wal_bytes_per_session", "bytes"},
	{"store.party_reloads", "count"},
	{"runtime.gc_cycles_per_1k_joins", "count"},
	{"runtime.gc_pause_ms_total", "ms"},
	{"runtime.heap_peak_mb", "MB"},
	{"trace.overhead_share", "ratio"},
	{"bench.gen_lag_ms_p99", "ms"},
	{"bench.join_samples", "count"},
	{"joins_per_s", "1/s"},
	{"join_p99_ms", "ms"},
	{"restart_p50_ms", "ms"},
	{"slo_rate_per_s", "1/s"},
	{"slo_miss_share", "ratio"},
	{"failed_share", "ratio"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "perfbench: "+format+"\n", args...)
}

func main() {
	var (
		name    = flag.String("workload", "", "workload name: "+workloadNames())
		seed    = flag.Int64("seed", 1, "workload seed; the same seed gives the same inputs")
		seconds = flag.Int("seconds", 20, "length of the measured window")
		trace   = flag.Int("trace", 0, "1 = split the window into an untraced and a traced half and report per-layer metrics")
	)
	flag.Parse()
	var spec *workloadSpec
	for i := range workloads {
		if workloads[i].name == *name {
			spec = &workloads[i]
		}
	}
	if spec == nil || *seconds < 1 || (*trace != 0 && *trace != 1) {
		logf("usage: --workload %s --seed N --seconds S --trace 0|1", workloadNames())
		os.Exit(2)
	}
	res, err := run(*spec, *seed, time.Duration(*seconds)*time.Second, *trace == 1)
	if err != nil {
		logf("%s: %v", spec.name, err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		logf("encode result: %v", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
	if !res.Correct {
		os.Exit(1)
	}
}

func workloadNames() string {
	var names []string
	for _, w := range workloads {
		names = append(names, w.name)
	}
	return strings.Join(names, "|")
}

// workDir is where the benchmark keeps its stores and span logs: the
// build directory run.py names, inside the checkout.
func workDir() string {
	if d := os.Getenv("PERFBENCH_WORKDIR"); d != "" {
		return d
	}
	return ".bench_build"
}

// run builds the fixture setupRepeats times, measures the window and
// assembles the result.
func run(spec workloadSpec, seed int64, d time.Duration, traced bool) (*result, error) {
	var (
		fx     fixture
		setups []float64
	)
	for i := 0; i < setupRepeats; i++ {
		if fx != nil {
			fx.close()
			fx = nil
			runtime.GC()
		}
		start := time.Now()
		f, err := spec.setup(seed)
		if err != nil {
			return nil, fmt.Errorf("setup: %w", err)
		}
		setups = append(setups, time.Since(start).Seconds())
		fx = f
	}
	defer fx.close()
	setupS := medianFloat(setups)
	logf("%s seed=%d setup_s=%.3f (median of %d: %v)", spec.name, seed, setupS, len(setups), setups)

	ctx := context.Background()
	if !traced {
		w, mem, err := measure(ctx, fx, windowOpts{d: d})
		if err != nil {
			return nil, err
		}
		res := &result{Correct: w.failed == 0, Attempted: w.attempted, Failed: w.failed, Metrics: map[string]metricValue{}}
		e2e := endToEndValues(w, mem, setupS)
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{Value: e2e[m.name], Unit: m.unit}
		}
		logWindow("untraced", w, e2e)
		return res, checkNonZero(res, w)
	}

	base, baseMem, err := measure(ctx, fx, windowOpts{d: d / 2, probe: true})
	if err != nil {
		return nil, err
	}
	logWindow("untraced half", base, endToEndValues(base, baseMem, setupS))
	tr := newTracer()
	tw, tmem, err := measure(ctx, fx, windowOpts{d: d / 2, tr: tr})
	if err != nil {
		return nil, err
	}
	logWindow("traced half", tw, endToEndValues(tw, tmem, setupS))
	layers, err := perLayerValues(base, baseMem, tw, tr)
	if err != nil {
		return nil, err
	}
	spans := tr.snapshot()
	path := filepath.Join(workDir(), "traces", fmt.Sprintf("%s-seed%d.jsonl", spec.name, seed))
	if err := writeSpans(path, spans, tr.dropped); err != nil {
		return nil, fmt.Errorf("write spans: %w", err)
	}
	logf("traced half: %d spans written to %s; self time p50:%s", len(spans), path, spanSummary(spans))
	failed := base.failed + tw.failed
	res := &result{
		Correct:   failed == 0,
		Attempted: base.attempted + tw.attempted,
		Failed:    failed,
		Metrics:   map[string]metricValue{},
	}
	for _, m := range perLayer {
		res.Metrics[m.name] = metricValue{Value: layers[m.name], Unit: m.unit}
	}
	return res, nil
}

// measure runs one window with memory accounting around it.
func measure(ctx context.Context, fx fixture, o windowOpts) (*window, memResult, error) {
	mw := startMemWindow()
	w, err := fx.run(ctx, o)
	mem := mw.finish()
	if err != nil {
		return nil, mem, err
	}
	if w.check != nil {
		w.check()
	}
	w.eng.report(w)
	return w, mem, nil
}

func endToEndValues(w *window, mem memResult, setupS float64) map[string]float64 {
	p50, p99 := w.latencies()
	out := map[string]float64{
		"setup_s":      setupS,
		"join_p50_ms":  ms(p50),
		"join_p99_ms":  ms(p99),
		"joins_per_s":  w.joinsPerSec(),
		"heap_peak_mb": heapMB(mem),
	}
	if w.completed > 0 {
		out["allocs_per_join"] = float64(mem.mallocs) / float64(w.completed)
	}
	return out
}

func logWindow(label string, w *window, e2e map[string]float64) {
	sorted := sortedDurations(w.lat)
	q, _ := tailQuantile(sorted)
	keys := make([]string, 0, len(e2e))
	for k := range e2e {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var b strings.Builder
	for _, k := range keys {
		fmt.Fprintf(&b, " %s=%.4g", k, e2e[k])
	}
	logf("%s: %d attempted, %d failed, %d timed joins (tail quantile p%.4g over %d samples);%s",
		label, w.attempted, w.failed, len(w.lat), q*100, len(w.lat), b.String())
	extra := make([]string, 0, len(w.extra))
	for k, v := range w.extra {
		extra = append(extra, fmt.Sprintf("%s=%.4g", k, v))
	}
	sort.Strings(extra)
	if len(extra) > 0 {
		logf("%s: %s", label, strings.Join(extra, " "))
	}
	for _, e := range w.errs {
		logf("%s: failure: %s", label, e)
	}
}

// checkNonZero refuses a result whose end-to-end metrics include a zero:
// that means the window measured nothing.
func checkNonZero(res *result, w *window) error {
	if res.Attempted == 0 || len(w.lat) == 0 {
		return errors.New("window completed no joins")
	}
	for name, v := range res.Metrics {
		if v.Value <= 0 && res.Correct {
			return fmt.Errorf("metric %s measured %v", name, v.Value)
		}
	}
	return nil
}

// perLayerValues assembles the per-layer metrics: span-derived figures
// and wire counters from the traced half, program counters and
// workload-specific figures from the untraced half, and the replays.
func perLayerValues(base *window, baseMem memResult, tw *window, tr *tracer) (map[string]float64, error) {
	out := map[string]float64{}
	for k, v := range base.extra {
		out[k] = v
	}
	spans := tr.snapshot()
	p50 := func(name string) float64 { return us(quantile(durationsOf(spans, name), 0.5)) }
	out["wsrpc.client_rtt_us_p50"] = p50("wsrpc.client")
	out["wsrpc.server_us_p50"] = p50("wsrpc.server")
	out["wsrpc.wire_us_p50"] = us(quantile(wireTimes(spans), 0.5))
	out["pki.x509_mint_us_p50"] = p50("pki.x509_mint")
	out["negotiation.handle_us_p50"] = p50("negotiation.handle")
	if tw.attempted > 0 {
		n := float64(tw.attempted)
		out["wsrpc.msgs_per_join"] = float64(tr.msgs.Load()) / n
		out["wsrpc.req_bytes_per_join"] = float64(tr.reqBytes.Load()) / n
		out["wsrpc.resp_bytes_per_join"] = float64(tr.respBytes.Load()) / n
	}
	if base.completed > 0 {
		out["runtime.gc_cycles_per_1k_joins"] = float64(baseMem.gcCycles) * 1000 / float64(base.completed)
	}
	out["runtime.gc_pause_ms_total"] = ms(baseMem.gcPause)
	out["runtime.heap_peak_mb"] = heapMB(baseMem)
	bp50, p99 := base.latencies()
	tp50, _ := tw.latencies()
	if bp50 > 0 {
		out["trace.overhead_share"] = float64(tp50-bp50) / float64(bp50)
	}
	out["bench.join_samples"] = float64(len(base.lat))
	out["joins_per_s"] = base.joinsPerSec()
	out["join_p99_ms"] = ms(p99)
	if base.attempted > 0 {
		out["failed_share"] = float64(base.failed) / float64(base.attempted)
	}
	replays, err := runReplays(tr)
	if err != nil {
		return nil, fmt.Errorf("replays: %w", err)
	}
	for k, v := range replays {
		out[k] = v
	}
	return out, nil
}

// ---- shared fixture helpers ----

// verifyCounters snapshots the verify-cache counters of a set of trust
// stores, for per-join deltas over a window.
type verifyCounters struct{ hits, misses, invalidations int64 }

func readVerify(stores ...*trustvo.TrustStore) verifyCounters {
	var c verifyCounters
	for _, ts := range stores {
		s := ts.CacheStats()
		c.hits += s.Hits
		c.misses += s.Misses
		c.invalidations += s.Invalidations
	}
	return c
}

// addVerifyDelta records the per-join verify-cache figures of a window.
func addVerifyDelta(w *window, before, after verifyCounters) {
	if w.attempted == 0 {
		return
	}
	n := float64(w.attempted)
	w.extra["pki.verify_hits_per_join"] = float64(after.hits-before.hits) / n
	w.extra["pki.verify_misses_per_join"] = float64(after.misses-before.misses) / n
	w.extra["pki.cache_invalidations"] = float64(after.invalidations - before.invalidations)
}

// newRand derives an independent generator for one use of the seed.
func newRand(seed int64, stream int64) *rand.Rand {
	return rand.New(rand.NewSource(seed*1_000_003 + stream))
}
