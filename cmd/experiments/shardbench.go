package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"runtime"
	"sync/atomic"
	"time"

	"explain3d/internal/datagen"
	"explain3d/internal/linkage"
	"explain3d/internal/relation"
)

// shardbench measures the hash-sharded Stage 1 on the declarative
// large-scale scenario: a disjoint pair (separate dictionaries, dirty keys,
// controlled disagreement) of 10⁶ rows at -scale 1. For each shard count it
// runs the full Stage-1 candidate generation — index build plus scan — and
// records wall time and peak heap sampled concurrently; every run must
// return matches byte-identical to the single-shard baseline. The run
// hard-fails if peak heap exceeds -shardheapbudget, or (on machines with at
// least 4 CPUs) if the 8-shard parallel scan is not at least 2x faster than
// the sequential single-shard baseline.

// shardBenchPoint is one shard-count measurement.
type shardBenchPoint struct {
	Shards     int     `json:"shards"`
	Workers    int     `json:"workers"`
	Seconds    float64 `json:"seconds"`
	PeakHeapMB float64 `json:"peakHeapMB"`
	Matches    int     `json:"matches"`
}

// shardBenchReport is the whole benchmark: workload shape, the scaling
// curve, and whether the speedup gate was enforced on this machine.
type shardBenchReport struct {
	Rows         int               `json:"rows"`
	Rows1        int               `json:"rows1"`
	Rows2        int               `json:"rows2"`
	Vocab        int               `json:"vocab"`
	SegmentRows  int               `json:"segmentRows"`
	CPUs         int               `json:"cpus"`
	HeapBudgetMB float64           `json:"heapBudgetMB"`
	Speedup8     float64           `json:"speedup8"`
	GateEnforced bool              `json:"gateEnforced"`
	Points       []shardBenchPoint `json:"points"`
}

// peakHeapSampler polls the live heap until stopped and reports the peak.
type peakHeapSampler struct {
	peak atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

func startPeakHeapSampler() *peakHeapSampler {
	s := &peakHeapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for {
			select {
			case <-s.stop:
				return
			case <-tick.C:
				runtime.ReadMemStats(&ms)
				if ms.HeapAlloc > s.peak.Load() {
					s.peak.Store(ms.HeapAlloc)
				}
			}
		}
	}()
	return s
}

// Stop ends sampling and returns the peak heap in MiB.
func (s *peakHeapSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak.Load()) / (1 << 20)
}

func shardbench(outPath string, heapBudgetMB float64) error {
	gen := time.Now()
	sc := datagen.GenerateScenario(datagen.ScaledScenario(*scale))
	spec := sc.Spec // defaults applied
	t1, _ := sc.DB1.Relation(spec.Name + "1")
	t2, _ := sc.DB2.Relation(spec.Name + "2")
	idx := []int{t1.Schema.MustIndex("match_attr")}
	fmt.Printf("  workload: %d base rows (%d + %d after drops, vocab %d, segment %d rows), generated in %.1fs\n",
		spec.Rows, t1.Len(), t2.Len(), spec.Vocab, relation.SegmentSize(), time.Since(gen).Seconds())

	report := shardBenchReport{
		Rows: spec.Rows, Rows1: t1.Len(), Rows2: t2.Len(), Vocab: spec.Vocab,
		SegmentRows: relation.SegmentSize(), CPUs: runtime.GOMAXPROCS(0),
		HeapBudgetMB: heapBudgetMB,
	}
	scanWorkers := *workers
	if scanWorkers <= 0 {
		scanWorkers = runtime.GOMAXPROCS(0)
	}
	var baseline shardBenchPoint
	var baselineMatches []linkage.Match
	for _, shards := range []int{1, 2, 4, 8} {
		opt := linkage.PairOptions{MinSim: 0.05, MinSharedTokens: 2, Shards: shards}
		if shards == 1 {
			opt.Workers = 1 // the sequential unsharded baseline
		} else {
			opt.Workers = scanWorkers
		}
		runtime.GC()
		sampler := startPeakHeapSampler()
		start := time.Now()
		var matches []linkage.Match
		ix, err := linkage.BuildIndex(t2, idx, opt)
		if err == nil {
			matches, err = ix.Similarities(t1, idx, opt.Workers)
		}
		elapsed := time.Since(start).Seconds()
		peakMB := sampler.Stop()
		if err != nil {
			return fmt.Errorf("shards=%d: %w", shards, err)
		}
		pt := shardBenchPoint{
			Shards: shards, Workers: opt.Workers,
			Seconds: elapsed, PeakHeapMB: peakMB, Matches: len(matches),
		}
		report.Points = append(report.Points, pt)
		fmt.Printf("  shards=%d workers=%d: %7.2fs  peak heap %7.1f MiB  %d matches\n",
			shards, opt.Workers, elapsed, peakMB, len(matches))
		if shards == 1 {
			baseline, baselineMatches = pt, matches
		} else {
			if !reflect.DeepEqual(matches, baselineMatches) {
				return fmt.Errorf("shards=%d: matches diverged from the single-shard baseline (%d vs %d)",
					shards, len(matches), len(baselineMatches))
			}
		}
		if heapBudgetMB > 0 && peakMB > heapBudgetMB {
			return fmt.Errorf("shards=%d: peak heap %.1f MiB exceeds the %.0f MiB budget",
				shards, peakMB, heapBudgetMB)
		}
	}
	last := report.Points[len(report.Points)-1]
	if last.Seconds > 0 {
		report.Speedup8 = baseline.Seconds / last.Seconds
	}
	// The parallel-speedup gate needs real cores: on 1–3 CPU machines the
	// shard tasks serialize and the measurement says nothing about scaling.
	report.GateEnforced = runtime.GOMAXPROCS(0) >= 4
	if report.GateEnforced {
		fmt.Printf("  8-shard speedup over sequential single-shard: %.2fx\n", report.Speedup8)
	} else {
		fmt.Printf("  8-shard speedup %.2fx (gate skipped: only %d CPUs, need >= 4)\n",
			report.Speedup8, runtime.GOMAXPROCS(0))
	}
	blob, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(outPath, append(blob, '\n'), 0o644); err != nil {
		return err
	}
	fmt.Printf("  measurements written to %s\n", outPath)
	if report.GateEnforced && report.Speedup8 < 2 {
		return fmt.Errorf("8-shard Stage 1 is only %.2fx faster than the single-shard baseline; want >= 2x",
			report.Speedup8)
	}
	return nil
}
