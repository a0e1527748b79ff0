// Slice-cost kernel: the inner loop of tdcCost. Selective encoding
// charges each scan slice one header plus min(t, 2) codewords per k-bit
// group holding t target bits, a target being a care bit whose value
// differs from the slice's majority fill. The kernel prices a cube with
// per-care-bit counters: each care ref maps through the StimulusMap to a
// packed (row, group, value) key while per-row care/one counts
// accumulate; a second walk over the keys compares each bit against its
// row's fill and counts targets into per-(row, group) cells; a third
// zeroes the counters it touched. Work is O(care bits) per cube,
// independent of m.
//
// The kernel is exact (checked against the real encoder in tests); all
// scratch is owned by the Evaluator and reused across the sweep, so
// steady-state evaluation performs no allocations (gate-enforced by
// `make check`).
package core

import (
	"soctap/internal/selenc"
	"soctap/internal/wrapper"
)

// kernelScratch holds the slice-kernel state of one Evaluator. All
// buffers grow to high-water marks and are reused across designs. The
// per-window care refs the kernel reads live on the evaluator's
// evalWindow (eval.go), so mirrors can share a producer's window while
// owning their own scratch.
//
// refs is the prepared design's stimulus map, groupOf each wrapper
// chain's k-bit group, and groups the groups per slice row. keys holds
// the current cube's refs mapped to row<<32 | group<<1 | value.
// rowCount packs each slice row's care count (low 32 bits) and ones
// count (high 32 bits); groupTargets counts target bits per (row,
// group) cell at index row*groups + group. Both counter arrays are
// all-zero between cubes, across designs too, so growing them is the
// only work a new design needs.
type kernelScratch struct {
	prepared *wrapper.Design // design the state below belongs to

	refs         []wrapper.CellRef
	groupOf      []uint32
	groups       uint64
	keys         []uint64
	rowCount     []uint64
	groupTargets []uint8
}

// kernelPrepare (re)targets the kernel scratch at a wrapper design:
// the stimulus map (sync.Once-cached on the design, so allocation-free
// after the first call per design), the chain → group table for the
// payload width k = selenc.PayloadBits(d.M), and counters covering
// every (row, group) cell. Consecutive calls with the same design are
// free.
func (e *Evaluator) kernelPrepare(d *wrapper.Design) {
	ks := &e.kern
	if ks.prepared == d {
		return
	}
	ks.prepared = d
	k := selenc.PayloadBits(d.M)
	ks.refs = d.StimulusMap()
	ks.groupOf = grow(ks.groupOf, d.M)
	for ch := range ks.groupOf {
		ks.groupOf[ch] = uint32(ch / k)
	}
	ks.groups = uint64((d.M + k - 1) / k)
	ks.rowCount = grow(ks.rowCount, d.ScanIn)
	ks.groupTargets = grow(ks.groupTargets, d.ScanIn*int(ks.groups))
}

// patternOps returns the selective-encoding operation count (codewords
// beyond the per-slice headers) for cube j of the loaded window under
// the prepared design, in three walks over the cube's refs: map each
// through the stimulus map to a packed key while counting care bits and
// ones per slice row; count each target bit (value != its row's
// majority fill, ties to 0 as in selenc.ChooseFill) into its (row,
// group) cell, where the first two targets of a group cost one codeword
// each and later ones are free (min(t, 2) with group copy, t without);
// and zero the touched counters so they are all-zero again for the
// next cube.
func (e *Evaluator) patternOps(j int, groupCopy bool) int64 {
	ks := &e.kern
	refs := e.win.CubeRefs(j)
	ks.keys = grow(ks.keys, len(refs))
	keys := ks.keys
	stim, groupOf, rowCount := ks.refs, ks.groupOf, ks.rowCount
	for i, p := range refs {
		r := stim[p>>1]
		v := p & 1
		rowCount[r.Depth] += 1 | v<<32
		keys[i] = uint64(r.Depth)<<32 | uint64(groupOf[r.Chain])<<1 | v
	}

	var ops uint64
	if groupCopy {
		cells, groups := ks.groupTargets, ks.groups
		for _, key := range keys {
			row := key >> 32
			target := (key ^ rowFill(rowCount[row])) & 1
			cell := row*groups + uint64(uint32(key)>>1)
			n := cells[cell]
			// n-2 wraps to >= 254 iff n < 2 (a group holds at most k <= 29 targets).
			ops += target & (uint64(n-2) >> 7)
			cells[cell] = n + uint8(target)
		}
		for _, key := range keys {
			row := key >> 32
			rowCount[row] = 0
			cells[row*groups+uint64(uint32(key)>>1)] = 0
		}
	} else {
		for _, key := range keys {
			ops += (key ^ rowFill(rowCount[key>>32])) & 1
		}
		for _, key := range keys {
			rowCount[key>>32] = 0
		}
	}
	return int64(ops)
}

// rowFill returns a slice row's majority fill bit from its packed
// counts: 1 iff ones outnumber zeros, ties preferring 0 exactly as
// selenc.ChooseFill does.
func rowFill(count uint64) uint64 {
	if (count>>32)*2 > count&0xffffffff {
		return 1
	}
	return 0
}

// grow returns buf resliced to n elements, reallocating (zeroed) only
// when its capacity falls short. Reslicing keeps whatever the buffer
// held, which the counter arrays rely on: they are all-zero whenever
// the kernel is between cubes.
func grow[T any](buf []T, n int) []T {
	if cap(buf) < n {
		return make([]T, n)
	}
	return buf[:n]
}
