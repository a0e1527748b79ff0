// Slice-cost kernel: the inner loop of tdcCost. Selective encoding
// charges each scan slice one header plus min(t, 2) codewords per k-bit
// group holding t target bits, a target being a care bit whose value
// differs from the slice's majority fill. Two strategies price a cube,
// chosen per loaded cube window from its measured care density:
//
//   - dense (d695-class cores, the decaying head of giant cores): each
//     cube is materialized as two slice-major word planes — a care plane
//     and a value plane, one row of ceil(m/64) words per scan-in slice —
//     and priced with popcounts and mask walks (selenc.SliceOpsMask).
//     Per-cube flat bit planes are built once per window load; per
//     design, wrapper StimulusSegments bulk-copy them into chain-major
//     rows and a 64×64 block transpose re-slices them to slice-major. No
//     per-care-bit work inside the sweep at all.
//   - sparse (industrial-class cores): per-care-bit counters, no planes.
//     Each care ref maps through the StimulusMap to a packed (row, group,
//     value) key while per-row care/one counts accumulate; a second walk
//     over the keys compares each bit against its row's fill and counts
//     targets into per-(row, group) cells; a third zeroes the counters it
//     touched. Work is O(care bits) per cube, independent of m.
//
// Both paths are exact and interchangeable (cross-checked against each
// other and against the real encoder in tests); all scratch is owned by
// the Evaluator and reused across the sweep, so steady-state evaluation
// performs no allocations (gate-enforced by `make check`).
package core

import (
	"soctap/internal/bitvec"
	"soctap/internal/selenc"
	"soctap/internal/wrapper"
)

// denseDensityThreshold selects the pricing strategy per loaded window:
// at or above this measured care density the window is priced through
// the cached flat planes and the transpose, below it through the
// per-care-bit counters.
const denseDensityThreshold = 0.15

// kernelScratch holds the slice-kernel state of one Evaluator. All
// buffers grow to high-water marks and are reused across designs; each
// is allocated on the first window that needs it, so a sweep that only
// ever takes one path never allocates the other's state. The per-window
// data both kernels read — the flattened care refs and the dense path's
// m-independent flat planes — lives on the evaluator's evalWindow
// (eval.go) so mirrors can share a producer's window while owning their
// own scratch.
type kernelScratch struct {
	prepared *wrapper.Design // design the geometry below belongs to

	// Geometry of the prepared design.
	si         int // scan-in depth: number of slice rows priced
	chainWords int // words per slice row, ceil(m/64)
	siWords    int // words per chain row, ceil(si/64)

	// Sparse path, resolved on the first sparse window per design
	// (refs == nil until then): the stimulus map, each wrapper chain's
	// k-bit group, and the groups per slice row. keys holds the current
	// cube's refs mapped to row<<32 | group<<1 | value. rowCount packs
	// each slice row's care count (low 32 bits) and ones count (high 32
	// bits); groupTargets counts target bits per (row, group) cell at
	// index row*groups + group. Both counter arrays are all-zero between
	// cubes.
	refs         []wrapper.CellRef
	groupOf      []uint32
	groups       uint64
	keys         []uint64
	rowCount     []uint64
	groupTargets []uint8

	// Dense path, resolved on the first dense window per design (segs ==
	// nil until then): the design's stimulus segments, the chain-major
	// intermediate planes, and the slice-major planes [row][chainWords],
	// rows padded to siWords*64 so whole transpose blocks can land.
	segs       []wrapper.StimulusSegment
	chainCare  []uint64 // [chainWords*64 rows][siWords]
	chainValue []uint64
	sliceCare  []uint64
	sliceValue []uint64
}

// kernelPrepare (re)targets the kernel scratch at a wrapper design.
// Consecutive calls with the same design are free. The pricing strategy
// may differ from window to window, so each path's per-design state is
// deferred to the first window that takes it: the dense path's stimulus
// segments and planes (patternOpsDense), and the sparse path's stimulus
// map and counters (patternOpsSparse) — a fused batch holds many
// designs alive at once, and a map per design is only worth its
// O(stimulus bits) memory when a sparse window actually maps through it.
func (e *Evaluator) kernelPrepare(d *wrapper.Design) {
	ks := &e.kern
	if ks.prepared == d {
		return
	}
	ks.prepared = d
	ks.si = d.ScanIn
	ks.chainWords = (d.M + 63) / 64
	ks.siWords = (d.ScanIn + 63) / 64
	ks.segs = nil
	ks.refs = nil
}

// buildFlatPlanes materializes the loaded cube window as flat
// care/value planes, recycling the buffers across windows — bounded at
// window × flatWords words.
func (w *evalWindow) buildFlatPlanes(numBits int) {
	w.flatWords = (numBits + 63) / 64
	n := w.count * w.flatWords
	w.flatCare = grow(w.flatCare, n)
	w.flatValue = grow(w.flatValue, n)
	clear(w.flatCare)
	clear(w.flatValue)
	w.scatterFlat()
}

// scatterFlat fills the flat planes from the window's packed care refs.
func (w *evalWindow) scatterFlat() {
	for j := 0; j < w.count; j++ {
		base := j * w.flatWords
		for _, p := range w.CubeRefs(j) {
			pos := int(p >> 1)
			bit := uint64(1) << uint(pos&63)
			w.flatCare[base+pos>>6] |= bit
			if p&1 != 0 {
				w.flatValue[base+pos>>6] |= bit
			}
		}
	}
}

// patternOps returns the selective-encoding operation count (codewords
// beyond the per-slice headers) for cube j under the prepared design.
func (e *Evaluator) patternOps(j int, k int64, groupCopy bool) int64 {
	if e.win.dense {
		return e.patternOpsDense(j, k, groupCopy)
	}
	return e.patternOpsSparse(j, k, groupCopy)
}

// patternOpsDense re-slices cube j with pure word operations: segment
// bulk-copies from the cached flat planes into chain-major rows, then a
// 64×64 block transpose into the slice-major planes.
func (e *Evaluator) patternOpsDense(j int, k int64, groupCopy bool) int64 {
	ks := &e.kern
	win := e.win
	cw, siW := ks.chainWords, ks.siWords

	if ks.segs == nil {
		// First dense window under this design (see kernelPrepare).
		ks.segs = ks.prepared.StimulusSegments()
		ks.chainCare = grow(ks.chainCare, cw*64*siW)
		ks.chainValue = grow(ks.chainValue, cw*64*siW)
		ks.sliceCare = grow(ks.sliceCare, siW*64*cw)
		ks.sliceValue = grow(ks.sliceValue, siW*64*cw)
	}
	clear(ks.chainCare)
	clear(ks.chainValue)
	fb := j * win.flatWords
	fCare := win.flatCare[fb : fb+win.flatWords]
	fValue := win.flatValue[fb : fb+win.flatWords]
	for _, s := range ks.segs {
		dstOff := s.Chain*siW*64 + s.DepthStart
		bitvec.CopyBits(ks.chainCare, dstOff, fCare, s.FlatStart, s.Len)
		bitvec.CopyBits(ks.chainValue, dstOff, fValue, s.FlatStart, s.Len)
	}

	// Transpose block (cb, db): chain rows [cb*64, cb*64+64) at depth
	// word db become slice rows [db*64, db*64+64) at chain word cb.
	// Every walked slice word is overwritten, so the slice planes need
	// no clearing. Padding chain rows (>= m) are never copied into and
	// stay zero.
	var a, b [64]uint64
	for cb := 0; cb < cw; cb++ {
		rowBase := cb * 64
		for db := 0; db < siW; db++ {
			for i := 0; i < 64; i++ {
				a[i] = ks.chainCare[(rowBase+i)*siW+db]
				b[i] = ks.chainValue[(rowBase+i)*siW+db]
			}
			bitvec.Transpose64(&a)
			bitvec.Transpose64(&b)
			out := db * 64
			for r := 0; r < 64; r++ {
				ks.sliceCare[(out+r)*cw+cb] = a[r]
				ks.sliceValue[(out+r)*cw+cb] = b[r]
			}
		}
	}

	var ops int64
	for row := 0; row < ks.si; row++ {
		o := row * cw
		ops += rowOps(ks.sliceCare[o:o+cw], ks.sliceValue[o:o+cw], k, groupCopy)
	}
	return ops
}

// patternOpsSparse prices cube j with per-care-bit counters in three
// walks over its refs: map each through the stimulus map to a packed
// key while counting care bits and ones per slice row; count each
// target bit (value != its row's majority fill, ties to 0 as in
// selenc.ChooseFill) into its (row, group) cell, where the first two
// targets of a group cost one codeword each and later ones are free
// (min(t, 2) with group copy, t without); and zero the touched
// counters so they are all-zero again for the next cube.
func (e *Evaluator) patternOpsSparse(j int, k int64, groupCopy bool) int64 {
	ks := &e.kern
	if ks.refs == nil {
		ks.prepareSparse(k)
	}
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

// prepareSparse resolves the sparse path's per-design state on the
// first sparse window under the prepared design: the stimulus map
// (sync.Once-cached on the design, so this is allocation-free after the
// first sparse window per design), the chain → group table for payload
// width k, and counters covering every (row, group) cell. The counters
// keep their all-zero invariant across designs, so growing them is the
// only work needed.
func (ks *kernelScratch) prepareSparse(k int64) {
	d := ks.prepared
	ks.refs = d.StimulusMap()
	ks.groupOf = grow(ks.groupOf, d.M)
	for ch := range ks.groupOf {
		ks.groupOf[ch] = uint32(int64(ch) / k)
	}
	ks.groups = uint64((int64(d.M) + k - 1) / k)
	ks.rowCount = grow(ks.rowCount, ks.si)
	ks.groupTargets = grow(ks.groupTargets, ks.si*int(ks.groups))
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

// rowOps prices one slice row held as care/value word masks. The
// costing itself lives with the encoder it models — see
// selenc.SliceOpsMask, which agrees with selenc.SliceCostMask minus
// the header codeword.
func rowOps(care, value []uint64, k int64, groupCopy bool) int64 {
	return selenc.SliceOpsMask(k, groupCopy, care, value)
}
