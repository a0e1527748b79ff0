// Package wrapper implements IEEE-1500-style test wrapper design for
// embedded cores: partitioning a core's internal scan chains and wrapper
// input/output cells into m balanced wrapper chains, following the
// Design_wrapper heuristic of Iyengar, Chakrabarty and Marinissen
// (ITC'01 / JETTA'02). The resulting scan-in/scan-out depths drive both
// the classic (uncompressed) test-time formula
//
//	τ = (1 + max(si, so))·p + min(si, so)
//
// and, through the stimulus map, the slice structure seen by the
// selective-encoding decompressor.
package wrapper

import (
	"fmt"
	"slices"
	"sync"

	"soctap/internal/soc"
)

// Chain is one wrapper chain: an ordered concatenation of wrapper input
// cells, internal scan chains, and wrapper output cells.
type Chain struct {
	InCells    int   // wrapper input cells at the head of the chain
	ScanChains []int // indices into the core's ScanChains, in chain order
	OutCells   int   // wrapper output cells at the tail
	ScanLen    int   // total internal scan cells on this chain
}

// StimulusLen returns the chain's scan-in length: input cells plus scan
// cells.
func (c *Chain) StimulusLen() int { return c.InCells + c.ScanLen }

// ResponseLen returns the chain's scan-out length: scan cells plus output
// cells.
func (c *Chain) ResponseLen() int { return c.OutCells + c.ScanLen }

// Design is a complete wrapper configuration for one core.
type Design struct {
	Core    *soc.Core
	M       int // number of wrapper chains
	Chains  []Chain
	ScanIn  int // si: longest scan-in (stimulus) chain
	ScanOut int // so: longest scan-out (response) chain

	refsOnce sync.Once
	refs     []CellRef
}

// New builds a wrapper design with m wrapper chains using best-fit-
// decreasing packing of scan chains and water-filling of I/O cells. m
// must be in [1, core.MaxWrapperChains()].
func New(core *soc.Core, m int) (*Design, error) {
	if m < 1 {
		return nil, fmt.Errorf("wrapper: %s: m = %d, must be >= 1", core.Name, m)
	}
	if max := core.MaxWrapperChains(); m > max {
		return nil, fmt.Errorf("wrapper: %s: m = %d exceeds max useful wrapper chains %d", core.Name, m, max)
	}

	d := &Design{Core: core, M: m, Chains: make([]Chain, m)}

	// Step 1: best-fit-decreasing on internal scan chains. Sort scan
	// chains by length (descending) and repeatedly place the next chain
	// on the wrapper chain with minimum accumulated scan length.
	type sc struct{ idx, len int }
	scs := make([]sc, len(core.ScanChains))
	for i, l := range core.ScanChains {
		scs[i] = sc{i, l}
	}
	slices.SortFunc(scs, func(a, b sc) int {
		if a.len != b.len {
			return b.len - a.len
		}
		return a.idx - b.idx
	})
	// Min-load priority queue as a plain typed heap. The (load, chain)
	// order is a strict total order, so the popped minimum is unique at
	// every step and the assignment matches any correct heap
	// implementation. chain i starts at slot i with load 0, which is
	// already a valid min-heap.
	h := make(loadHeap, m)
	for i := range h {
		h[i].chain = i
	}
	for _, s := range scs {
		cl := h[0]
		d.Chains[cl.chain].ScanChains = append(d.Chains[cl.chain].ScanChains, s.idx)
		d.Chains[cl.chain].ScanLen += s.len
		h[0].load += s.len
		h.siftDown(0)
	}

	// Step 2: water-fill wrapper input cells over scan-in heights.
	inHeights := make([]int, m)
	for i := range d.Chains {
		inHeights[i] = d.Chains[i].ScanLen
	}
	for i, add := range waterFill(inHeights, core.InCells()) {
		d.Chains[i].InCells = add
	}

	// Step 3: water-fill wrapper output cells over scan-out heights.
	outHeights := make([]int, m)
	for i := range d.Chains {
		outHeights[i] = d.Chains[i].ScanLen
	}
	for i, add := range waterFill(outHeights, core.OutCells()) {
		d.Chains[i].OutCells = add
	}

	for i := range d.Chains {
		if l := d.Chains[i].StimulusLen(); l > d.ScanIn {
			d.ScanIn = l
		}
		if l := d.Chains[i].ResponseLen(); l > d.ScanOut {
			d.ScanOut = l
		}
	}
	return d, nil
}

// chainLoad/loadHeap implement the BFD min-load priority queue without
// container/heap, whose interface{}-based Push/Pop would box a
// chainLoad on every scan-chain placement and dominate the allocation
// profile of the (w,m) sweep.
type chainLoad struct{ chain, load int }

type loadHeap []chainLoad

func (h loadHeap) less(i, j int) bool {
	if h[i].load != h[j].load {
		return h[i].load < h[j].load
	}
	return h[i].chain < h[j].chain
}

// siftDown restores the heap property after h[i]'s key increased.
func (h loadHeap) siftDown(i int) {
	for {
		l := 2*i + 1
		if l >= len(h) {
			return
		}
		min := l
		if r := l + 1; r < len(h) && h.less(r, l) {
			min = r
		}
		if !h.less(min, i) {
			return
		}
		h[i], h[min] = h[min], h[i]
		i = min
	}
}

// waterFill distributes n unit cells over bins with the given initial
// heights so that the resulting maximum height is minimized (classic
// water-filling). It returns the per-bin additions.
func waterFill(heights []int, n int) []int {
	add := make([]int, len(heights))
	if n <= 0 || len(heights) == 0 {
		return add
	}
	idx := make([]int, len(heights))
	for i := range idx {
		idx[i] = i
	}
	slices.SortFunc(idx, func(a, b int) int {
		if heights[a] != heights[b] {
			return heights[a] - heights[b]
		}
		return a - b
	})

	// Raise a waterline over the sorted bins: absorb whole tiers while
	// the budget allows, then spread the remainder evenly.
	level := heights[idx[0]]
	filled := 0 // cells already allocated below the waterline
	count := 1  // bins at or below the waterline
	for count < len(idx) {
		next := heights[idx[count]]
		cost := (next - level) * count
		if filled+cost >= n {
			break
		}
		filled += cost
		level = next
		count++
	}
	// Spread the remaining cells over `count` bins starting at `level`.
	remaining := n - filled
	per := remaining / count
	extra := remaining % count
	for i := 0; i < count; i++ {
		b := idx[i]
		target := level + per
		if i < extra {
			target++
		}
		add[b] = target - heights[b]
	}
	return add
}

// TestTime returns the core test application time in clock cycles for
// this wrapper design without compression, using the standard formula
// τ = (1 + max(si,so))·p + min(si,so) with p test patterns.
func (d *Design) TestTime() int64 {
	p := int64(d.Core.Patterns)
	si, so := int64(d.ScanIn), int64(d.ScanOut)
	return (1+max(si, so))*p + min(si, so)
}

// StimulusVolume returns the ATE stimulus storage in bits for this
// design without compression: per pattern, si slices of m bits each.
func (d *Design) StimulusVolume() int64 {
	return int64(d.Core.Patterns) * int64(d.ScanIn) * int64(d.M)
}

// CellRef locates one stimulus cell inside a wrapper design.
type CellRef struct {
	Chain int32 // wrapper chain index
	Depth int32 // position from the chain head; loaded at slice `Depth`
}

// StimulusMap returns, for every flat stimulus cell of the core, its
// wrapper chain and depth. Flat stimulus layout: wrapper input cells
// first (in chain order), then the core's scan chains in declaration
// order. Depth d means the cell receives its value in scan-in slice d of
// each pattern.
//
// The map is computed once per design and the same slice is returned to
// every caller (it is safe for concurrent use); callers must treat it
// as read-only.
func (d *Design) StimulusMap() []CellRef {
	d.refsOnce.Do(func() { d.refs = d.buildStimulusMap() })
	return d.refs
}

func (d *Design) buildStimulusMap() []CellRef {
	refs := make([]CellRef, d.Core.StimulusBits())

	// Wrapper input cells: chains take their InCells count in chain
	// order from the flat prefix [0, InCells).
	flat := 0
	for ci := range d.Chains {
		for k := 0; k < d.Chains[ci].InCells; k++ {
			refs[flat] = CellRef{Chain: int32(ci), Depth: int32(k)}
			flat++
		}
	}

	// Scan chains: flat offsets follow declaration order; chain-internal
	// depth follows the order the wrapper concatenates them, after the
	// input cells.
	scanFlatStart := make([]int, len(d.Core.ScanChains))
	off := d.Core.InCells()
	for i, l := range d.Core.ScanChains {
		scanFlatStart[i] = off
		off += l
	}
	for ci := range d.Chains {
		depth := d.Chains[ci].InCells
		for _, scIdx := range d.Chains[ci].ScanChains {
			start := scanFlatStart[scIdx]
			for k := 0; k < d.Core.ScanChains[scIdx]; k++ {
				refs[start+k] = CellRef{Chain: int32(ci), Depth: int32(depth)}
				depth++
			}
		}
	}
	return refs
}
