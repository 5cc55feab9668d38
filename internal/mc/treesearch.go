// treesearch.go is the contrast driver: a balanced search tree built
// once and then searched read-only by every core. Sharing here is
// harmless — every core's copy sits in the Shared state, the
// directory sends no invalidations, and the 4C classifier reports no
// coherence misses — which is exactly the control an experiment needs
// next to the false-sharing drivers: it is *writes* to shared
// granules that ping-pong, not sharing itself.
package mc

import (
	"math/rand"

	"ccl/internal/heap"
	"ccl/internal/machine"
	"ccl/internal/trees"
)

// TreeConfig parameterizes a TreeSearch run.
type TreeConfig struct {
	// Nodes is the tree size; keys are 1..Nodes.
	Nodes int64
	// Searches is the number of lookups each core performs.
	Searches int
	// Seed derives each core's key stream (seed+core), and non-zero
	// Shuffle randomizes the interleaving.
	Seed    int64
	Shuffle int64
}

// TreeResult extends the common result with per-core hit counts.
type TreeResult struct {
	Result
	Hits []int64
}

// TreeSearch builds the shared tree — the paper's microbenchmark
// trees.BST in depth-first order — then drives every core's search
// loop under the schedule. Construction writes the arena directly and
// is uncharged, as in every other experiment, so no core starts with
// Modified tree lines.
func TreeSearch(tp *machine.Topology, cfg TreeConfig) TreeResult {
	cols := AttachCollectors(tp)
	start := tp.Arena.AlignBrk(tp.Config().LLC.BlockSize)
	tree, err := trees.BuildIn(tp.Arena, heap.New(tp.Arena), cfg.Nodes, trees.DepthFirstOrder, 0)
	if err != nil {
		// Panic justification: the typed error is the panic value,
		// and the bench runner's recover turns it into a classified
		// failure record.
		panic(err)
	}
	for _, col := range cols {
		col.Regions().Register("tree-nodes", start, int64(tp.Arena.Brk())-int64(start))
	}

	hits := make([]int64, tp.Cores())
	workers := make([]Worker, tp.Cores())
	for i := 0; i < tp.Cores(); i++ {
		c := tp.Core(i)
		rng := rand.New(rand.NewSource(cfg.Seed + int64(i)))
		left := cfg.Searches
		core := i
		workers[i] = func() bool {
			if left <= 0 {
				return false
			}
			left--
			// Half the probes are present keys, half absent.
			key := uint32(1 + rng.Intn(int(cfg.Nodes)*2))
			if tree.SearchOn(c, key) {
				hits[core]++
			}
			return left > 0
		}
	}
	var steps int64
	if cfg.Shuffle != 0 {
		steps = Shuffled(cfg.Shuffle, workers...)
	} else {
		steps = RoundRobin(workers...)
	}
	return TreeResult{Result: collect(tp, steps, cols), Hits: hits}
}
