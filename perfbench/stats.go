package main

import (
	"math"
	"runtime"
	"runtime/metrics"
	"sort"
	"sync"
	"time"
)

// sortedDurations returns a sorted copy of ds.
func sortedDurations(ds []time.Duration) []time.Duration {
	out := append([]time.Duration(nil), ds...)
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// quantile returns the q-quantile of sorted (nearest rank), 0 when empty.
func quantile(sorted []time.Duration, q float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	if i < 0 {
		i = 0
	}
	if i >= len(sorted) {
		i = len(sorted) - 1
	}
	return sorted[i]
}

// tailQuantile is the highest percentile, at most p99, that still has at
// least 10 samples beyond it. It returns the quantile used and its value.
func tailQuantile(sorted []time.Duration) (float64, time.Duration) {
	q := 0.99
	if n := len(sorted); n > 0 && float64(n)*(1-q) < 10 {
		q = 1 - 10/float64(n)
		if q < 0.5 {
			q = 0.5
		}
	}
	return q, quantile(sorted, q)
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

func medianFloat(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// memWindow measures allocation, GC and peak-heap figures over a timed
// window: MemStats at both ends, plus a sampler goroutine that polls the
// live heap through runtime/metrics (no stop-the-world).
type memWindow struct {
	before runtime.MemStats
	stop   chan struct{}
	done   sync.WaitGroup
	mu     sync.Mutex
	peak   uint64
}

const heapSampleEvery = 5 * time.Millisecond

func startMemWindow() *memWindow {
	w := &memWindow{stop: make(chan struct{})}
	runtime.GC()
	runtime.ReadMemStats(&w.before)
	sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
	read := func() {
		metrics.Read(sample)
		if sample[0].Value.Kind() != metrics.KindUint64 {
			return
		}
		w.observe(sample[0].Value.Uint64())
	}
	read()
	w.done.Add(1)
	go func() {
		defer w.done.Done()
		t := time.NewTicker(heapSampleEvery)
		defer t.Stop()
		for {
			select {
			case <-w.stop:
				read()
				return
			case <-t.C:
				read()
			}
		}
	}()
	return w
}

// observe raises the recorded peak to v.
func (w *memWindow) observe(v uint64) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if v > w.peak {
		w.peak = v
	}
}

// memResult is what a memWindow measured.
type memResult struct {
	mallocs   uint64
	gcCycles  uint32
	gcPause   time.Duration
	heapPeakB uint64
}

func heapMB(m memResult) float64 { return float64(m.heapPeakB) / (1 << 20) }

func (w *memWindow) finish() memResult {
	close(w.stop)
	w.done.Wait()
	var after runtime.MemStats
	runtime.ReadMemStats(&after)
	w.mu.Lock()
	defer w.mu.Unlock()
	return memResult{
		mallocs:   after.Mallocs - w.before.Mallocs,
		gcCycles:  after.NumGC - w.before.NumGC,
		gcPause:   time.Duration(after.PauseTotalNs - w.before.PauseTotalNs),
		heapPeakB: w.peak,
	}
}
