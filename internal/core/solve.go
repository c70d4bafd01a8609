package core

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"explain3d/internal/graph"
	"explain3d/internal/linkage"
	"explain3d/internal/milp"
)

// SolveInstanceContext runs Stage 2 of explain3d on an instance: partition
// the tuple-match graph (Section 4) when BatchSize > 0, encode each
// sub-problem as a MILP (Algorithm 1), solve to optimality, and merge the
// decoded explanations. With BatchSize = 0 the whole instance is one
// optimization problem — the paper's NOOPT configuration.
//
// Sub-problems are independent, so they are solved by a pool of
// Params.Workers goroutines sharing one solver deadline; fragments are
// collected by partition index before the final sort, so the output is
// identical at any worker count (when solves complete without hitting a
// budget — budget-limited incumbents are inherently timing-dependent).
//
// The solver budget (Params.SolverTimeLimit) derives from ctx, so
// cancelling it — a server request aborting on client disconnect, a CLI
// catching SIGINT — stops in-flight sub-problems cooperatively.
// Cancellation is not an error: each interrupted sub-problem returns its
// incumbent (or the delete-everything fallback) and Stats.TimedOut is set,
// exactly like an expired time budget.
func SolveInstanceContext(ctx context.Context, inst *Instance, p Params) (*Explanations, *Stats, error) {
	return solveInstance(ctx, inst, p, nil)
}

// solveInstance is SolveInstanceContext with an optional solution cache:
// each sub-problem first consults cache by content hash and, on a hit,
// replays the stored local-coordinate fragment instead of encoding and
// solving. Because the key covers everything the solve depends on and only
// proven-optimal results are cached, the merged output is byte-identical to
// an uncached run — unchanged partitions of an incrementally maintained
// instance become free. cache may be nil (no caching) and may be shared
// across calls and goroutines.
func solveInstance(ctx context.Context, inst *Instance, p Params, cache *SolveCache) (*Explanations, *Stats, error) {
	p = p.withDefaults()
	if err := p.validate(); err != nil {
		return nil, nil, err
	}
	start := time.Now()
	stats := &Stats{}

	subs, err := splitInstance(inst, p)
	if err != nil {
		return nil, nil, err
	}
	stats.Partitions = len(subs)

	// One context bounds every sub-problem: in-flight workers cancel
	// cooperatively when the shared budget expires, instead of each
	// slicing the remaining time independently.
	var cancel context.CancelFunc
	if p.SolverTimeLimit > 0 {
		ctx, cancel = context.WithTimeout(ctx, p.SolverTimeLimit)
	} else {
		ctx, cancel = context.WithCancel(ctx)
	}
	defer cancel()

	frags := make([]*Explanations, len(subs))
	subStats := make([]Stats, len(subs))
	var (
		errOnce  sync.Once
		failed   atomic.Bool
		firstErr error
	)
	fail := func(err error) {
		errOnce.Do(func() {
			firstErr = err
			failed.Store(true)
			cancel() // stop in-flight workers; their results are discarded
		})
	}
	solveSub := func(si int) {
		if failed.Load() {
			// A sub-problem already failed; skip the (expensive) encode of
			// the rest. Note this guards on the error flag, not ctx.Err():
			// on a legitimate timeout every sub-problem must still run to
			// emit its delete-everything fallback.
			return
		}
		sub := subs[si]
		frag := &Explanations{}
		frags[si] = frag
		st := &subStats[si]
		var key string
		if cache != nil {
			key = subKey(inst, sub, p)
			if e, ok := cache.lookup(key); ok {
				// Replay the stored fragment against this sub-problem's ids;
				// stored stats (with the cache counters re-zeroed at store
				// time) keep the merged totals content-deterministic.
				*st = e.stats
				st.SolveCacheHits = 1
				*frag = *e.frag.globalize(sub)
				return
			}
			st.SolveCacheMisses = 1
		}
		// No pre-encode short-circuit on an expired budget: encoding still
		// pays off because the solver returns the warm-start (greedy)
		// incumbent as StatusLimit, so budgets degrade to greedy-quality
		// solutions rather than delete-everything fallbacks.
		enc := encode(inst, sub, p)
		st.MILPVars = enc.model.NumVars()
		st.MILPRows = enc.model.NumRows()
		opt := milp.Options{WarmStart: warmStart(inst, enc)}
		sol, err := milp.SolveContext(ctx, enc.model, opt)
		if err != nil {
			fail(fmt.Errorf("core: solving sub-problem: %w", err))
			return
		}
		st.Nodes = sol.Nodes
		st.Iters = sol.Iters
		st.Refactors = sol.Refactors
		st.LUFill = sol.LUFill
		st.CertInfeas = sol.CertInfeas
		st.SparseBlocks = sol.SparseBlocks
		st.DenseBlocks = sol.DenseBlocks
		switch sol.Status {
		case milp.StatusOptimal:
		case milp.StatusLimit:
			st.TimedOut = true
		case milp.StatusNoSolution:
			// Budget expired before any feasible point: fall back to
			// deleting everything in this sub-problem (always complete).
			st.TimedOut = true
			for _, id := range sub.left {
				frag.Prov = append(frag.Prov, ProvExpl{Side: Left, Tuple: id})
			}
			for _, id := range sub.right {
				frag.Prov = append(frag.Prov, ProvExpl{Side: Right, Tuple: id})
			}
			return
		default:
			// The encoding always admits the all-deleted solution, so an
			// infeasible or unbounded status signals an encoding bug.
			fail(fmt.Errorf("core: sub-problem unexpectedly %v (%s)", sol.Status, enc.model))
			return
		}
		*frag = *decode(inst, enc, sol)
		if cache != nil && sol.Status == milp.StatusOptimal {
			stored := *st
			stored.SolveCacheMisses = 0
			cache.store(key, localFragOf(inst, enc, sol), stored)
		}
	}

	workers := p.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(subs) {
		workers = len(subs)
	}
	if workers <= 1 {
		for si := range subs {
			solveSub(si)
			if failed.Load() {
				break
			}
		}
	} else {
		work := make(chan int)
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for si := range work {
					solveSub(si)
				}
			}()
		}
		for si := range subs {
			if failed.Load() {
				break
			}
			work <- si
		}
		close(work)
		wg.Wait()
	}
	if firstErr != nil {
		return nil, nil, firstErr
	}

	// Deterministic merge: partition order, then the canonical sort.
	result := &Explanations{}
	for si := range subs {
		frag := frags[si]
		result.Prov = append(result.Prov, frag.Prov...)
		result.Val = append(result.Val, frag.Val...)
		result.Evidence = append(result.Evidence, frag.Evidence...)
		stats.MILPVars += subStats[si].MILPVars
		stats.MILPRows += subStats[si].MILPRows
		stats.Nodes += subStats[si].Nodes
		stats.Iters += subStats[si].Iters
		stats.Refactors += subStats[si].Refactors
		stats.LUFill += subStats[si].LUFill
		stats.CertInfeas += subStats[si].CertInfeas
		stats.SparseBlocks += subStats[si].SparseBlocks
		stats.DenseBlocks += subStats[si].DenseBlocks
		stats.SolveCacheHits += subStats[si].SolveCacheHits
		stats.SolveCacheMisses += subStats[si].SolveCacheMisses
		if subStats[si].TimedOut {
			stats.TimedOut = true
		}
	}
	sortExplanations(result)
	stats.SolveTime = time.Since(start)
	return result, stats, nil
}

// splitInstance prepares the optimization units. Matches whose probability
// would contribute nothing are assumed pre-filtered. With partitioning
// enabled, the smart partitioner bounds every unit to BatchSize tuples;
// cut matches are dropped (they cannot enter the evidence), exactly as in
// the paper.
func splitInstance(inst *Instance, p Params) ([]*subProblem, error) {
	if p.BatchSize <= 0 {
		all := &subProblem{matches: inst.Matches}
		for i := 0; i < inst.T1.Len(); i++ {
			all.left = append(all.left, i)
		}
		for j := 0; j < inst.T2.Len(); j++ {
			all.right = append(all.right, j)
		}
		return []*subProblem{all}, nil
	}
	bip := graph.NewBipartite(inst.T1.Len(), inst.T2.Len())
	for _, m := range inst.Matches {
		bip.AddMatch(m.L, m.R, m.P)
	}
	smart := p.Smart
	smart.BatchSize = p.BatchSize
	parts, err := graph.SmartPartition(bip, smart)
	if err != nil {
		return nil, err
	}
	return buildSubProblems(inst, parts), nil
}

// buildSubProblems turns a node partitioning into optimization units. The
// partition-of table starts at a -1 sentinel, not zero: a node the
// partitioner left unassigned must not be silently treated as partition 0,
// where a match between two such nodes would be appended to subs[0] even
// though its tuples are not in that sub-problem's left/right — corrupting
// the encode. Matches with an unassigned endpoint are dropped instead,
// exactly like cut matches.
func buildSubProblems(inst *Instance, parts [][]int) []*subProblem {
	partOf := make([]int, inst.T1.Len()+inst.T2.Len())
	for i := range partOf {
		partOf[i] = -1
	}
	for pi, part := range parts {
		for _, node := range part {
			partOf[node] = pi
		}
	}
	subs := make([]*subProblem, len(parts))
	for pi, part := range parts {
		sub := &subProblem{}
		for _, node := range part {
			if node < inst.T1.Len() {
				sub.left = append(sub.left, node)
			} else {
				sub.right = append(sub.right, node-inst.T1.Len())
			}
		}
		subs[pi] = sub
	}
	for _, m := range inst.Matches {
		pl := partOf[m.L]
		pr := partOf[inst.T1.Len()+m.R]
		if pl < 0 || pl != pr {
			continue // cut by the partitioning, or endpoint unassigned
		}
		subs[pl].matches = append(subs[pl].matches, m)
	}
	return subs
}

// FilterMatches drops matches below a probability floor; stage 1 applies
// it so near-zero candidates do not bloat the MILP.
func FilterMatches(matches []linkage.Match, minP float64) []linkage.Match {
	out := make([]linkage.Match, 0, len(matches))
	for _, m := range matches {
		if m.P >= minP {
			out = append(out, m)
		}
	}
	return out
}
