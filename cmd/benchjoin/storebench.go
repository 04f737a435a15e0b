package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"trustvo/internal/store"
	"trustvo/internal/telemetry"
)

// Durable-write store mode (-store): the EXT-12 group-commit A/B. The
// same concurrent put workload runs twice against the crash-safe store —
// once under DurabilityEveryOp (the v1 behavior: one fsync per put) and
// once under DurabilityGroup (one fsync per commit batch) — and the
// report records throughput, per-put latency percentiles and the fsync
// accounting that explains the difference. Both modes give the same
// guarantee (a nil Put is on stable storage); only the flush schedule
// differs.

// storeBenchReport is the -store JSON schema (BENCH_store.json).
type storeBenchReport struct {
	Schema  string `json:"schema"`
	Writers int    `json:"writers"`
	// Puts is the total put count per mode (each mode writes its own
	// fresh store).
	Puts    int            `json:"puts"`
	EveryOp storeModeStats `json:"every_op"`
	Group   storeModeStats `json:"group_commit"`
	// Speedup is group-commit puts/sec over every-op puts/sec.
	Speedup float64 `json:"speedup"`
}

// storeModeStats is one half of the A/B.
type storeModeStats struct {
	ElapsedMS    float64   `json:"elapsed_ms"`
	PutsPerSec   float64   `json:"puts_per_sec"`
	PutLatencyMS latencyMS `json:"put_latency_ms"`
	// Fsyncs is store_fsync_total for the run; MeanBatch is committed
	// puts per fsync (store_wal_appends_total / store_fsync_total), the
	// realized group-commit coalescing factor.
	Fsyncs    int64   `json:"fsyncs"`
	MeanBatch float64 `json:"mean_batch"`
	Rotations int64   `json:"segment_rotations"`
}

// runStoreBench runs the A/B and writes the report to outPath.
func runStoreBench(w *os.File, writers, puts int, outPath string) error {
	if writers < 1 {
		writers = 1
	}
	if puts < writers {
		puts = writers
	}
	dir, err := os.MkdirTemp("", "storebench")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)

	every, err := storeBenchMode(filepath.Join(dir, "everyop.wal"), store.DurabilityEveryOp, writers, puts)
	if err != nil {
		return fmt.Errorf("every-op pass: %w", err)
	}
	group, err := storeBenchMode(filepath.Join(dir, "group.wal"), store.DurabilityGroup, writers, puts)
	if err != nil {
		return fmt.Errorf("group-commit pass: %w", err)
	}

	rep := storeBenchReport{
		Schema:  "trustvo.benchjoin.store/v3",
		Writers: writers,
		Puts:    puts,
		EveryOp: every,
		Group:   group,
		Speedup: group.PutsPerSec / every.PutsPerSec,
	}
	fmt.Fprintf(w, "EXT-12 — durable puts, %d writers, %d puts per mode\n", writers, puts)
	fmt.Fprintf(w, "  %-22s %10s %12s %10s %12s\n", "mode", "puts/sec", "p50 / p99", "fsyncs", "puts/fsync")
	for _, row := range []struct {
		name string
		s    storeModeStats
	}{{"fsync-every-put (v1)", every}, {"group commit", group}} {
		fmt.Fprintf(w, "  %-22s %10.0f %5.2f/%5.2fms %10d %12.1f\n",
			row.name, row.s.PutsPerSec, row.s.PutLatencyMS.P50, row.s.PutLatencyMS.P99,
			row.s.Fsyncs, row.s.MeanBatch)
	}
	fmt.Fprintf(w, "  speedup: %.2fx\n", rep.Speedup)

	if outPath != "" {
		f, err := os.Create(outPath)
		if err != nil {
			return err
		}
		enc := json.NewEncoder(f)
		enc.SetIndent("", "  ")
		if err := enc.Encode(rep); err != nil {
			f.Close()
			return err
		}
		if err := f.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "  report written to %s\n", outPath)
	}
	return nil
}

// storeBenchMode drives the concurrent put workload against a fresh
// fswal store opened with durability d and collects the mode's stats.
func storeBenchMode(path string, d store.Durability, writers, puts int) (storeModeStats, error) {
	reg := telemetry.NewRegistry()
	s, err := store.OpenWithOptions(path, store.Options{Durability: d})
	if err != nil {
		return storeModeStats{}, err
	}
	s.Instrument(reg)

	var (
		wg      sync.WaitGroup
		mu      sync.Mutex
		samples []time.Duration
		firstMu sync.Mutex
		campErr error
	)
	recordErr := func(err error) {
		firstMu.Lock()
		defer firstMu.Unlock()
		if campErr == nil {
			campErr = err
		}
	}
	perWorker := puts / writers
	extra := puts % writers
	t0 := time.Now()
	for i := 0; i < writers; i++ {
		n := perWorker
		if i < extra {
			n++
		}
		wg.Add(1)
		go func(worker, n int) {
			defer wg.Done()
			local := make([]time.Duration, 0, n)
			for j := 0; j < n; j++ {
				doc := fmt.Sprintf(`<doc seq="%d" worker="%d"/>`, j, worker)
				key := fmt.Sprintf("w%02d-%06d", worker, j)
				js := time.Now()
				if err := s.PutXML("bench", key, doc); err != nil {
					recordErr(fmt.Errorf("worker %d put %d: %w", worker, j, err))
					return
				}
				local = append(local, time.Since(js))
			}
			mu.Lock()
			defer mu.Unlock()
			samples = append(samples, local...)
		}(i, n)
	}
	wg.Wait()
	elapsed := time.Since(t0)
	if campErr != nil {
		s.Destroy()
		return storeModeStats{}, campErr
	}
	if err := s.Destroy(); err != nil {
		return storeModeStats{}, err
	}

	sort.Slice(samples, func(i, j int) bool { return samples[i] < samples[j] })
	fsyncs := reg.Counter("store_fsync_total").Value()
	appends := reg.Counter("store_wal_appends_total").Value()
	stats := storeModeStats{
		ElapsedMS:  durMS(elapsed),
		PutsPerSec: float64(len(samples)) / elapsed.Seconds(),
		PutLatencyMS: latencyMS{
			P50: durMS(percentile(samples, 0.50)),
			P95: durMS(percentile(samples, 0.95)),
			P99: durMS(percentile(samples, 0.99)),
		},
		Fsyncs:    fsyncs,
		Rotations: reg.Counter("store_segment_rotations_total").Value(),
	}
	if fsyncs > 0 {
		stats.MeanBatch = float64(appends) / float64(fsyncs)
	}
	return stats, nil
}
