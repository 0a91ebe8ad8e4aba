package consistency

import (
	"context"
	"runtime"
	"runtime/pprof"
	"sync"

	"repro/internal/ilp"
	"repro/internal/obs"
	"repro/internal/scope"
)

// The scope-DAG executor. The hierarchical decomposition of Theorem
// 4.3 is a DAG of (chain, τ) subproblems: a scope depends only on the
// verdicts of its exit scopes, and sibling exits share nothing. plan
// lists the DAG once, in post-order; run decides every node with the
// same solve, either inline in list order or on a bounded pool where
// each node waits for its exits and then solves under one of N slots.
// Waiting for exits never holds a slot, so arbitrarily deep chains
// cannot deadlock the pool.
//
// Determinism: solve sees the same exit verdicts whoever runs it, so
// per-scope verdicts, certificates and witness vectors do not depend on
// the pool size. Pool workers record into private recorder shards and
// stats, folded back in post-order once every node is decided, so the
// span layout and stats totals match the inline loop too; only wall
// time and the order of ledger rows differ.
//
// Cancellation: in-flight ILP searches notice a fired Options.Ctx via
// the polling inside ilp.Solve; pool nodes still waiting for a slot
// give up and stay Unknown. Check's final context gate turns the
// outcome into an *AbortError.

// resolveParallelism maps Options.Parallelism onto a worker count:
// negative means one worker per available CPU, 0 and 1 mean inline.
func resolveParallelism(p int) int {
	if p < 0 {
		return runtime.GOMAXPROCS(0)
	}
	return p
}

// plan lists every scope problem reachable from the root scope in
// post-order — exits before the scopes that reach them, each (chain, τ)
// once — so the root scope is the last node.
func (h *hierChecker) plan() {
	h.nodes = make([]scopeNode, 0, len(h.contexts)+1)
	index := map[string]int{}
	var visit func(chain map[string]bool, tau string) int
	visit = func(chain map[string]bool, tau string) int {
		key := scope.ChainKey(chain, tau)
		if i, ok := index[key]; ok {
			return i
		}
		sd, exits := scope.DTD(h.d, h.contexts, tau)
		var exitNodes []int
		if len(exits) > 0 {
			exitNodes = make([]int, len(exits))
		}
		for j, e := range exits {
			sub := map[string]bool{e: true}
			for c := range chain {
				sub[c] = true
			}
			exitNodes[j] = visit(sub, e)
		}
		index[key] = len(h.nodes)
		h.nodes = append(h.nodes, scopeNode{key: key, tau: tau, chain: chain, sd: sd, exits: exits, exitNodes: exitNodes})
		return len(h.nodes) - 1
	}
	visit(map[string]bool{h.d.Root: true}, h.d.Root)
}

// run decides every planned node after its exits. A pool of at most
// one worker loops over the nodes in order on the calling goroutine.
// A larger pool starts one goroutine per node; each waits for its
// exits, then solves while holding one of the pool's slots, into its
// own recorder shard and stats.
func (h *hierChecker) run(workers int) {
	if workers <= 1 {
		for i := range h.nodes {
			h.solve(i, h.opts, &h.stats)
		}
		return
	}
	// The goroutines capture a copy of the checker: capturing h would
	// move the caller's checker, and with it the inline path, onto the
	// heap. The copy shares the node slice, so outcomes land in h.
	hc := *h
	n := len(hc.nodes)
	done := make([]chan struct{}, n)
	for i := range done {
		done[i] = make(chan struct{})
	}
	stats := make([]Stats, n)
	shards := make([]*obs.Recorder, n)
	sem := make(chan struct{}, workers)
	var canceled <-chan struct{}
	if hc.opts.Ctx != nil {
		canceled = hc.opts.Ctx.Done()
	}
	var wg sync.WaitGroup
	wg.Add(n)
	for i := range hc.nodes {
		go func(i int) {
			defer wg.Done()
			defer close(done[i])
			for _, j := range hc.nodes[i].exitNodes {
				<-done[j]
			}
			select {
			case sem <- struct{}{}:
			case <-canceled:
				return
			}
			defer func() { <-sem }()
			// Recorder is single-writer, so each node records into a
			// private shard. Publisher and Ledger are concurrency-safe
			// and stay shared.
			opts := hc.opts
			if opts.Obs != nil {
				shards[i] = obs.New()
				opts.Obs, opts.ILP.Obs = shards[i], shards[i]
			}
			opts.Progress.WorkerStart()
			defer opts.Progress.WorkerDone()
			hc.solve(i, opts, &stats[i])
		}(i)
	}
	wg.Wait()
	for i := range stats {
		h.stats.merge(stats[i])
		h.opts.Obs.Absorb(shards[i])
	}
}

// solve decides node i, whose exits are already decided: Unsat exits
// are banned from the scope, Unknown ones are passed on as undecided.
// The solve runs under a "scope" span and, when the check is labeled,
// under the check-wide pprof labels plus ("scope", key), so a CPU
// profile of a hierarchical check attributes samples to individual
// scope problems.
func (h *hierChecker) solve(i int, opts Options, st *Stats) {
	n := &h.nodes[i]
	var banned, undecided []string
	for j, e := range n.exits {
		switch h.nodes[n.exitNodes[j]].verdict {
		case ilp.Unsat:
			banned = append(banned, e)
		case ilp.Unknown:
			undecided = append(undecided, e)
		case ilp.Sat:
			// Consistent exits stay allowed.
		}
	}
	sp := opts.Obs.Start("scope")
	sp.SetString("type", n.tau)
	defer sp.End()
	if opts.ProfileLabel != "" {
		pprof.Do(labelCtx(opts), pprof.Labels("digest", opts.ProfileLabel, "phase", "ilp", "scope", n.key),
			func(context.Context) { n.hierScope = solveScopeProblem(h, opts, st, i, banned, undecided) })
		return
	}
	n.hierScope = solveScopeProblem(h, opts, st, i, banned, undecided)
}
