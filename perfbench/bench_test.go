package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"regexp"
	"testing"
	"time"
)

// benchmarkJSON is the part of ../BENCHMARK.json the self-test checks.
type benchmarkJSON struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

var nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)

// TestSelf runs every workload at minimal sizes, untraced and traced, and
// checks the printed report against BENCHMARK.json: the exact key set of
// the last line, every metric name and unit, and correctness.
func TestSelf(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bj benchmarkJSON
	if err := json.Unmarshal(raw, &bj); err != nil {
		t.Fatal(err)
	}
	if len(bj.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(bj.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if bj.Workloads[i].Name != w.name || bj.Workloads[i].Why != w.why {
			t.Errorf("BENCHMARK.json workload %d = %q (%q), benchmark has %q (%q)",
				i, bj.Workloads[i].Name, bj.Workloads[i].Why, w.name, w.why)
		}
	}
	want := [2]map[string]string{{}, {}}
	for _, m := range bj.EndToEnd {
		want[0][m.Name] = m.Unit
	}
	for _, m := range bj.PerLayer {
		want[1][m.Name] = m.Unit
	}
	for _, w := range workloads {
		w.rows = 300
		for trace, names := range want {
			r := &run{w: w, seed: 3, window: 500 * time.Millisecond, log: io.Discard}
			rep, err := r.execute(context.Background(), trace == 1)
			if err != nil {
				t.Fatalf("%s trace %d: %v", w.name, trace, err)
			}
			var out bytes.Buffer
			if err := writeReport(&out, rep); err != nil {
				t.Fatal(err)
			}
			var line map[string]json.RawMessage
			if err := json.Unmarshal(out.Bytes(), &line); err != nil {
				t.Fatal(err)
			}
			if len(line) != 4 || line["correct"] == nil || line["attempted"] == nil || line["failed"] == nil || line["metrics"] == nil {
				t.Errorf("%s trace %d: report keys %v", w.name, trace, sortedKeys(line))
			}
			if !rep.Correct || rep.Failed != 0 || rep.Attempted < 1 {
				t.Errorf("%s trace %d: correct %t, %d of %d failed", w.name, trace, rep.Correct, rep.Failed, rep.Attempted)
			}
			if len(rep.Metrics) != len(names) {
				t.Errorf("%s trace %d: printed %d metrics, BENCHMARK.json lists %d", w.name, trace, len(rep.Metrics), len(names))
			}
			for _, name := range sortedKeys(rep.Metrics) {
				m := rep.Metrics[name]
				if !nameRE.MatchString(name) {
					t.Errorf("metric name %q uses characters outside [A-Za-z0-9_.-]", name)
				}
				if unit, ok := names[name]; !ok || unit != m.Unit {
					t.Errorf("%s trace %d: printed %s [%s], BENCHMARK.json has [%s] (listed: %t)", w.name, trace, name, m.Unit, unit, ok)
				}
				if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) || (trace == 0 && m.Value <= 0) {
					t.Errorf("%s trace %d: %s = %v", w.name, trace, name, m.Value)
				}
			}
		}
	}
}
