// Word-mask forms of the slice codec. Instead of a sorted []CareBit,
// a slice is described by two word planes packed LSB first:
//
//	care[i]  — bit p set iff slice position p is specified
//	value[i] — bit p set iff position p is specified as 1
//
// with position p at bit p%64 of word p/64, value ⊆ care, and all bits
// at positions >= m zero. This is the layout the ATE vector composer
// (internal/atevec) builds from wrapper stimulus maps, so encoding a
// slice is popcounts and masks over whole words — no per-bit loops and
// no sorting.
package selenc

import (
	"fmt"
	"math/bits"
)

// ChooseFillMask is ChooseFill on word masks: the majority value among
// the care bits, ties preferring 0.
func ChooseFillMask(care, value []uint64) bool {
	careCount, ones := 0, 0
	for i, c := range care {
		careCount += bits.OnesCount64(c)
		ones += bits.OnesCount64(value[i] & c)
	}
	return ones*2 > careCount
}

// SliceCostMask returns the number of codewords EncodeSliceMask emits
// for a slice of width m: one header plus min(t, 2) codewords per group
// with t target bits. It is the mask form of SliceCost and agrees with
// it exactly (fuzz-verified). The planes must satisfy the layout
// contract above; len(care) and len(value) must cover m bits.
func SliceCostMask(m int, care, value []uint64) int {
	fill := ChooseFillMask(care, value)
	var fillMask uint64
	if fill {
		fillMask = ^uint64(0)
	}
	k := PayloadBits(m)
	cost := 1
	group := -1
	inGroup := 0
	nw := (m + 63) / 64
	for wi := 0; wi < nw; wi++ {
		// Target bits: specified positions whose value differs from fill.
		t := care[wi] & (value[wi] ^ fillMask)
		base := wi << 6
		for t != 0 {
			g := (base + bits.TrailingZeros64(t)) / k
			t &= t - 1
			if g != group {
				cost += flushGroupCost(inGroup)
				group = g
				inGroup = 0
			}
			inGroup++
		}
	}
	return cost + flushGroupCost(inGroup)
}

// EncodeSliceMask encodes one slice of width m from word masks. It
// produces exactly the codeword stream EncodeSlice produces for the
// equivalent []CareBit input: group classification (all-X or
// fill-agreeing / single target / literal group copy) is a
// popcount-and-mask over the GroupCount(m) k-bit segments of the
// planes.
func EncodeSliceMask(m int, care, value []uint64) []Codeword {
	return AppendEncodeSliceMask(nil, m, care, value)
}

// AppendEncodeSliceMask is EncodeSliceMask in append form: the slice's
// codewords are appended to dst and the extended slice returned, so a
// streaming consumer encoding many slices can accumulate one codeword
// buffer instead of allocating per slice.
func AppendEncodeSliceMask(dst []Codeword, m int, care, value []uint64) []Codeword {
	if need := (m + 63) / 64; len(care) < need || len(value) < need {
		panic(fmt.Sprintf("selenc: mask planes too short for width %d", m))
	}
	fill := ChooseFillMask(care, value)
	var fillMask uint64
	if fill {
		fillMask = ^uint64(0)
	}
	k := PayloadBits(m)

	header := Codeword{Prefix: PrefixHeader}
	if fill {
		header.Payload |= headerFillBit
	}
	out := append(dst, header)

	for g, n := 0, GroupCount(m); g < n; g++ {
		base := g * k
		width := k
		if m-base < width {
			width = m - base
		}
		widthMask := uint64(1)<<uint(width) - 1
		cseg := readGroupBits(care, base, width, m)
		vseg := readGroupBits(value, base, width, m) & cseg
		tseg := cseg & (vseg ^ (fillMask & widthMask))
		switch bits.OnesCount64(tseg) {
		case 0:
			// Every care bit agrees with the fill; nothing to transmit.
		case 1:
			out = append(out, Codeword{
				Prefix:  PrefixSingle,
				Payload: uint32(base + bits.TrailingZeros64(tseg)),
			})
		default:
			// Literal: care bits as specified, don't-cares at fill.
			lit := vseg | (fillMask &^ cseg & widthMask)
			out = append(out,
				Codeword{Prefix: PrefixGroup, Payload: uint32(g)},
				Codeword{Prefix: PrefixData, Payload: uint32(lit)})
		}
	}
	return out
}

// readGroupBits reads width bits at pos from a plane covering m bits,
// tolerating planes whose word count is exactly ceil(m/64) even when
// the read would straddle past the last word.
func readGroupBits(words []uint64, pos, width, m int) uint64 {
	wi, off := pos>>6, uint(pos&63)
	w := words[wi] >> off
	if off+uint(width) > 64 && wi+1 < len(words) {
		w |= words[wi+1] << (64 - off)
	}
	return w & (uint64(1)<<uint(width) - 1)
}

// SliceMasks converts a sorted []CareBit into freshly allocated care
// and value planes for width m — the bridge used by tests and the fuzz
// harness to compare the mask kernels against the legacy care-bit path.
func SliceMasks(m int, care []CareBit) (careW, valueW []uint64) {
	nw := (m + 63) / 64
	careW = make([]uint64, nw)
	valueW = make([]uint64, nw)
	for _, cb := range care {
		careW[cb.Pos>>6] |= 1 << uint(cb.Pos&63)
		if cb.Value {
			valueW[cb.Pos>>6] |= 1 << uint(cb.Pos&63)
		}
	}
	return careW, valueW
}
