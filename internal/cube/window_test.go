package cube

import "testing"

// TestWindowLoadMatchesSource: loading a pass window-by-window must
// flatten exactly the cubes a direct Next loop yields, pack each care
// bit as pos<<1|value, and carry the sentinel offset.
func TestWindowLoadMatchesSource(t *testing.T) {
	for _, spec := range sourceSpecs() {
		want, err := Generate(spec)
		if err != nil {
			t.Fatal(err)
		}
		src, err := NewGenerator(spec)
		if err != nil {
			t.Fatal(err)
		}
		for _, window := range []int{1, 7, spec.Patterns, spec.Patterns + 5} {
			src.Reset()
			var w Window
			seen := 0
			for {
				n := w.Load(src, window)
				if n == 0 {
					break
				}
				if got := w.Len(); got != n {
					t.Fatalf("window=%d: Len %d after loading %d", window, got, n)
				}
				if w.Off[len(w.Off)-1] != len(w.Refs) {
					t.Fatalf("window=%d: sentinel %d != %d refs", window, w.Off[len(w.Off)-1], len(w.Refs))
				}
				care := 0
				for j := 0; j < n; j++ {
					cb := want.Cubes[seen+j]
					refs := w.CubeRefs(j)
					if len(refs) != len(cb.Care) {
						t.Fatalf("window=%d cube %d: %d refs, want %d care bits", window, seen+j, len(refs), len(cb.Care))
					}
					for i, bit := range cb.Care {
						r := uint64(bit.Pos) << 1
						if bit.Value {
							r |= 1
						}
						if refs[i] != r {
							t.Fatalf("window=%d cube %d ref %d: %#x, want %#x", window, seen+j, i, refs[i], r)
						}
					}
					care += len(refs)
				}
				if len(w.Refs) != care {
					t.Fatalf("window=%d: %d refs loaded, want %d", window, len(w.Refs), care)
				}
				seen += n
			}
			if seen != spec.Patterns {
				t.Fatalf("window=%d: loaded %d cubes, want %d", window, seen, spec.Patterns)
			}
		}
	}
}

// TestWindowRecycling: a reloaded window reuses its buffers (no growth
// once at high water) and an empty window reports zero cubes.
func TestWindowRecycling(t *testing.T) {
	var w Window
	if w.Len() != 0 || len(w.Refs) != 0 {
		t.Fatalf("fresh window not empty: len %d, care %d", w.Len(), len(w.Refs))
	}
	spec := sourceSpecs()[0]
	src, err := NewGenerator(spec)
	if err != nil {
		t.Fatal(err)
	}
	w.Load(src, 16)
	refCap, offCap := cap(w.Refs), cap(w.Off)
	src.Reset()
	for w.Load(src, 16) > 0 {
	}
	if cap(w.Refs) < refCap || cap(w.Off) < offCap {
		t.Fatalf("window shrank its buffers: refs %d -> %d, off %d -> %d",
			refCap, cap(w.Refs), offCap, cap(w.Off))
	}
}
