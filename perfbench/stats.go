package main

import (
	"cmp"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"slices"
	"sync"
	"time"
)

func msSince(t time.Time) float64 {
	return float64(time.Since(t).Nanoseconds()) / 1e6
}

func sortedKeys[K cmp.Ordered, V any](m map[K]V) []K {
	keys := make([]K, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	return keys
}

// median is the middle sample, or the mean of the middle two.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// p90 is the nearest-rank 90th percentile. Callers report it only when
// at least ten samples lie beyond it, i.e. from 100 samples up.
func p90(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := slices.Clone(xs)
	slices.Sort(s)
	i := (len(s)*9+9)/10 - 1
	return s[i]
}

// perSecond is closed-loop throughput: ops over the time spent in them.
func perSecond(latenciesMs []float64) float64 {
	t := 0.0
	for _, ms := range latenciesMs {
		t += ms
	}
	return ratio(float64(len(latenciesMs)), t/1000)
}

// heapSampler polls the live heap — what the last collection found
// reachable — until stopped and keeps the peak. That tracks retained
// state (storage generations, caches) rather than when the collector
// happened to run. It reads runtime/metrics, which does not stop the world
// as ReadMemStats does, so sampling does not perturb the latencies
// measured beside it.
type heapSampler struct {
	mu     sync.Mutex
	paused bool
	peak   uint64
	stop   chan struct{}
	done   chan struct{}
}

const liveHeap = "/gc/heap/live:bytes"

func startHeapSampler() *heapSampler {
	s := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		sample := []metrics.Sample{{Name: liveHeap}}
		for {
			s.mu.Lock()
			if !s.paused {
				metrics.Read(sample)
				s.peak = max(s.peak, sample[0].Value.Uint64())
			}
			s.mu.Unlock()
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// pause stops sampling until resume.
func (s *heapSampler) pause() {
	s.mu.Lock()
	s.paused = true
	s.mu.Unlock()
}

// resume collects first, so the live heap it samples from then on no
// longer holds what was dropped while paused.
func (s *heapSampler) resume() {
	runtime.GC()
	s.mu.Lock()
	s.paused = false
	s.mu.Unlock()
}

// Stop ends sampling and returns the peak heap in MiB.
func (s *heapSampler) Stop() float64 {
	close(s.stop)
	<-s.done
	return float64(s.peak) / (1 << 20)
}

// checkDrift compares a traced run's exact counts with those an earlier
// run of the same binary, workload and seed stored in dir, and stores
// them when none are there. It returns one line per count that moved.
func checkDrift(dir, workload string, seed int64, counts map[string]float64) ([]string, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	f, err := os.Open(exe)
	if err != nil {
		return nil, err
	}
	h := sha256.New()
	_, err = io.Copy(h, f)
	f.Close()
	if err != nil {
		return nil, err
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-%d-%s.json", workload, seed, hex.EncodeToString(h.Sum(nil))[:16]))
	prev, err := os.ReadFile(path)
	if errors.Is(err, fs.ErrNotExist) {
		b, err := json.Marshal(counts)
		if err != nil {
			return nil, err
		}
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, err
		}
		return nil, os.WriteFile(path, b, 0o644)
	}
	if err != nil {
		return nil, err
	}
	var old map[string]float64
	if err := json.Unmarshal(prev, &old); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	var drift []string
	for _, name := range sortedKeys(counts) {
		if v, ok := old[name]; !ok || v != counts[name] {
			drift = append(drift, fmt.Sprintf("%s: %v in an earlier run of this seed, %v now", name, v, counts[name]))
		}
	}
	return drift, nil
}
