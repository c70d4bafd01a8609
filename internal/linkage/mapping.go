package linkage

import (
	"fmt"

	"explain3d/internal/relation"
)

// Match is one candidate tuple match (ti, tj, p): L indexes the left
// relation's rows, R the right's. Sim is the raw combined similarity; P is
// the calibrated probability.
type Match struct {
	L, R int
	Sim  float64
	P    float64
}

// PairOptions controls candidate generation.
type PairOptions struct {
	// MinSim drops candidate pairs below this combined similarity
	// (default 0.05 — pairs with essentially no evidence).
	MinSim float64
	// Block enables token blocking: only pairs sharing at least
	// MinSharedTokens tokens on the matched string attributes are scored.
	// Without blocking every pair is scored (quadratic).
	Block bool
	// MinSharedTokens is the blocking threshold (default 1). Raising it to
	// 2 prunes pairs that only share a frequent token (articles, common
	// vocabulary words) and keeps large workloads tractable.
	MinSharedTokens int
	// Workers splits candidate scoring into contiguous left-row ranges
	// scored concurrently (0 defaults to runtime.GOMAXPROCS(0)). The
	// returned matches are identical at any worker count.
	Workers int
	// Shards splits the inverted token index into token-hash shards
	// (0 or 1 = one unsharded index). Each shard builds its posting lists
	// and scans its candidate pairs independently — posting construction and
	// the candidate scan parallelize across shards — and per-left-row
	// shared-token counts merge deterministically, so matches are identical
	// at any shard count. Values above 256 are clamped.
	Shards int

	// noRowPrefixFilter turns off the per-left-row prefix filter inside the
	// candidate scan, leaving only the global stop-word prune. Only this
	// package's differential tests and benchmarks set it; matches are
	// identical either way.
	noRowPrefixFilter bool
}

// DefaultPairOptions enables blocking with the default similarity floor.
func DefaultPairOptions() PairOptions {
	return PairOptions{MinSim: 0.05, Block: true, MinSharedTokens: 1}
}

// matchCol is one matched column's typed row view for the scoring loop:
// null flags and numeric values are read straight off the columnar typed
// arrays, with a boxed fallback kept only for columns whose cells can
// still reach the generic ValueSim path (bool or mixed-kind columns).
type matchCol struct {
	null  []bool
	num   []bool           // non-NULL numeric cell
	f     []float64        // numeric value where num is set
	boxed []relation.Value // non-nil only for bool/mixed columns
	rel   *relation.Relation
	col   int
}

// value materializes one cell for the rare generic-similarity fallback.
func (mc *matchCol) value(i int) relation.Value {
	if mc.boxed != nil {
		return mc.boxed[i]
	}
	return mc.rel.At(i, mc.col)
}

// matchColumns builds the matched columns' typed row views. Homogeneous
// INT/FLOAT/TEXT columns dispatch off their typed storage in O(rows) with
// no Value boxing; only bool and mixed-kind columns fall back to boxing
// once (the cost the whole-relation scan always paid).
func matchColumns(r *relation.Relation, idx []int) []matchCol {
	out := make([]matchCol, len(idx))
	for k, c := range idx {
		n := r.Len()
		mc := matchCol{null: make([]bool, n), rel: r, col: c}
		if segs, nullSegs, ok := r.IntSegments(c); ok {
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			base := 0
			for s, ints := range segs {
				nulls := nullSegs[s]
				for i := range ints {
					if relation.NullAt(nulls, i) {
						mc.null[base+i] = true
						continue
					}
					mc.num[base+i] = true
					mc.f[base+i] = float64(ints[i])
				}
				base += len(ints)
			}
		} else if segs, nullSegs, ok := r.FloatSegments(c); ok {
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			base := 0
			for s, floats := range segs {
				nulls := nullSegs[s]
				for i := range floats {
					if relation.NullAt(nulls, i) {
						mc.null[base+i] = true
						continue
					}
					mc.num[base+i] = true
					mc.f[base+i] = floats[i]
				}
				base += len(floats)
			}
		} else if segs, nullSegs, ok := r.StringSegments(c); ok {
			// No cell is numeric, so num stays all-false and f (only read
			// under num) can stay nil.
			mc.num = make([]bool, n)
			base := 0
			for s, codes := range segs {
				nulls := nullSegs[s]
				for i := range codes {
					mc.null[base+i] = relation.NullAt(nulls, i)
				}
				base += len(codes)
			}
		} else {
			vals := make([]relation.Value, n)
			mc.num = make([]bool, n)
			mc.f = make([]float64, n)
			for i := 0; i < n; i++ {
				v := r.At(i, c)
				vals[i] = v
				if v.IsNull() {
					mc.null[i] = true
					continue
				}
				if v.IsNumeric() {
					mc.num[i] = true
					mc.f[i], _ = v.AsFloat()
				}
			}
			mc.boxed = vals
		}
		out[k] = mc
	}
	return out
}

// Calibrator implements the paper's two-step similarity-to-probability
// method: divide matches into k contiguous similarity buckets, then set
// each bucket's probability to its fraction of true matches in a labeled
// sample.
type Calibrator struct {
	k      int
	probs  []float64
	fit    bool
	smooth bool
}

// NewCalibrator creates a calibrator with k buckets (the paper uses 50).
func NewCalibrator(k int) *Calibrator {
	if k < 1 {
		k = 1
	}
	return &Calibrator{k: k}
}

// NewSmoothedCalibrator creates a calibrator with Laplace smoothing:
// bucket probabilities are (true+1)/(count+2), so sparsely observed
// buckets stay uncertain instead of collapsing to 0 or 1 — the realistic
// behavior when only a sample of matches is labeled.
func NewSmoothedCalibrator(k int) *Calibrator {
	c := NewCalibrator(k)
	c.smooth = true
	return c
}

func (c *Calibrator) bucket(sim float64) int {
	b := int(sim * float64(c.k))
	if b >= c.k {
		b = c.k - 1
	}
	if b < 0 {
		b = 0
	}
	return b
}

// Fit learns bucket probabilities from labeled similarities. Buckets with
// no observations inherit the nearest fitted bucket below them (and above
// as a fallback), so Prob is total.
func (c *Calibrator) Fit(sims []float64, truth []bool) error {
	if len(sims) != len(truth) {
		return fmt.Errorf("linkage: Fit requires aligned slices, got %d and %d", len(sims), len(truth))
	}
	counts := make([]int, c.k)
	trues := make([]int, c.k)
	for i, s := range sims {
		b := c.bucket(s)
		counts[b]++
		if truth[i] {
			trues[b]++
		}
	}
	c.probs = make([]float64, c.k)
	for b := range c.probs {
		switch {
		case counts[b] > 0 && c.smooth:
			c.probs[b] = float64(trues[b]+1) / float64(counts[b]+2)
		case counts[b] > 0:
			c.probs[b] = float64(trues[b]) / float64(counts[b])
		default:
			c.probs[b] = -1 // fill below
		}
	}
	// Fill gaps from below, then above.
	last := -1.0
	for b := 0; b < c.k; b++ {
		if c.probs[b] >= 0 {
			last = c.probs[b]
		} else if last >= 0 {
			c.probs[b] = last
		}
	}
	last = -1
	for b := c.k - 1; b >= 0; b-- {
		if c.probs[b] >= 0 {
			last = c.probs[b]
		} else if last >= 0 {
			c.probs[b] = last
		}
	}
	for b := range c.probs {
		if c.probs[b] < 0 {
			c.probs[b] = 0.5 // no labels at all: uninformative prior
		}
	}
	c.fit = true
	return nil
}

// Prob maps a similarity to its calibrated probability.
func (c *Calibrator) Prob(sim float64) float64 {
	if !c.fit {
		return sim // identity fallback: treat similarity as probability
	}
	return c.probs[c.bucket(sim)]
}

// Calibrate assigns P to every match using the calibrator and drops
// matches with probability 0 (they carry no evidence and would only bloat
// the optimization problem).
func Calibrate(matches []Match, c *Calibrator) []Match {
	out := make([]Match, 0, len(matches))
	for _, m := range matches {
		p := c.Prob(m.Sim)
		if p <= 0 {
			continue
		}
		m.P = p
		out = append(out, m)
	}
	return out
}
